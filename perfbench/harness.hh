/**
 * @file
 * The benchmark harness shared by the four workloads: span tracing
 * (Chrome Trace Event JSON), sample statistics, process memory and the
 * modeled-statistics ledger. Every timing here is host time taken
 * around calls into the ProSE libraries; nothing in src/ is
 * instrumented.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace prose {
class Matrix;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `start`. */
double secondsSince(Clock::time_point start);

/**
 * In-memory span recorder. A span has a name, start and end, the span
 * open when it began (its parent) and the id of the request it belongs
 * to. Spans are written out once, after the run, as Chrome Trace Event
 * JSON that Perfetto and chrome://tracing load.
 */
class Tracer
{
  public:
    Tracer();

    /** Request id stamped on spans opened from now on. */
    void setRequest(std::uint64_t request) { request_ = request; }

    std::int32_t begin(const char *name);
    void end(std::int32_t id);

    /** Self times (ns) of every span called `name`, in record order. */
    std::vector<double> selfTimes(const std::string &name) const;

    /** Summed self time (ns) of every span called `name`. */
    double totalSelfNs(const std::string &name) const;

    /** Write the spans as Chrome Trace Event JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        const char *name = "";
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        std::int32_t parent = -1;
        std::uint64_t request = 0;
    };

    std::int64_t nowNs() const;

    /** Duration of span `id` minus the time its children cover. */
    std::int64_t selfNs(std::size_t id) const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;
    std::vector<std::int64_t> childNs_;
    std::uint64_t request_ = 0;
};

/** RAII span; a null tracer makes it free (the untraced runs). */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name)
        : tracer_(tracer), id_(tracer ? tracer->begin(name) : -1)
    {}
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    std::int32_t id_;
};

/** Median (linear interpolation between the middle pair); 0 if empty. */
double median(std::vector<double> xs);

/** Percentile `p` in [0, 100] with linear interpolation; 0 if empty. */
double percentileOf(std::vector<double> xs, double p);

/**
 * The highest of p99.9/p99/p95/p90/p75/p50 that leaves at least ten
 * samples above it, or a negative value when there are fewer than 20
 * samples and even the median has fewer than ten beyond it.
 */
double tailPercentile(std::size_t samples);

/** Same shape and the same bits in every element. */
bool bitIdentical(const prose::Matrix &a, const prose::Matrix &b);

/** Peak resident set (VmHWM) in bytes; 0 when unavailable. */
std::uint64_t peakRssBytes();

/** Current resident set in bytes; 0 when unavailable. */
std::uint64_t currentRssBytes();

/** Shortest decimal text that reads back to exactly `v`. */
std::string fmt(double v);

/** JSON string literal with escapes. */
std::string quote(const std::string &s);

/**
 * Modeled (simulated) statistics of one run, keyed by name. They are
 * deterministic for a given seed, so a change that only speeds up the
 * host must leave every entry, and the digest, identical.
 */
class Ledger
{
  public:
    void add(const std::string &name, double value);
    void add(const std::string &name, const std::string &value);

    /** FNV-1a 64 over the canonical `name=value` lines, in hex. */
    std::string digest() const;

    /** The entries as one JSON object. */
    std::string json() const;

  private:
    std::map<std::string, std::string> entries_;
};

/** Per-layer metric values by name (units: layerMetricNames()). */
using LayerMetrics = std::map<std::string, double>;

/**
 * What a workload hands the harness. The harness owns the clock: it
 * times setUp() several times, then times run() per request, round
 * after round, until the run's seconds are spent, calling verify()
 * after each request outside the timed region.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Unit of the work counted by run(), for the report. */
    virtual const char *workUnit() const = 0;

    /**
     * Build every input and warm every cache from `seed`, discarding
     * whatever an earlier call built. Timed and charged to setup_s.
     */
    virtual void setUp(std::uint64_t seed) = 0;

    /** How many times setUp() runs; setup_s is the median. */
    virtual int setupRepeats() const { return 5; }

    /**
     * Requests in one round of the closed loop. A run always ends on a
     * round boundary, so every request kind keeps its share.
     */
    virtual std::size_t roundSize() const = 0;

    /** Execute request `index` of the round; returns work done. */
    virtual double run(std::size_t index, Tracer *tracer) = 0;

    /** Check the last request's outputs; false + reason on failure. */
    virtual bool verify(std::string &why) = 0;

    /** Extra work only the traced run does, to split a layer's time. */
    virtual void traceExtras(Tracer &) {}

    /**
     * Sampled deep checks after the timed loop (replays, reference
     * engines). Each failed check appends a reason.
     */
    virtual std::size_t deepChecks(std::uint64_t seed,
                                   std::vector<std::string> &failures) = 0;

    /** Modeled statistics of one round (independent of host timing). */
    virtual void fillLedger(Ledger &ledger) = 0;

    /** Per-layer metrics from the traced run's spans. */
    virtual void layerMetrics(const Tracer &tracer,
                              LayerMetrics &out) = 0;
};

std::unique_ptr<Workload> makeEmbedWorkload();
std::unique_ptr<Workload> makeFsimWorkload();
std::unique_ptr<Workload> makeServeWorkload();
std::unique_ptr<Workload> makeDseWorkload();

/** Names and units of every per-layer metric, in report order. */
const std::vector<std::pair<std::string, std::string>> &layerMetricNames();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
