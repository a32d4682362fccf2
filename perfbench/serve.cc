/**
 * @file
 * serve: the open-loop serving simulator, driven in virtual time. Each
 * request is one ServeSim::run drill over a million generated arrivals
 * whose lengths follow the proteome length model: a healthy Poisson
 * stream at 70% of capacity, a flash crowd, a chaos run that kills one
 * of four instances mid-stream, and two tenants sharing each host link.
 * The serve event loop does the work; it is the one workload whose
 * memory grows with the input.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <thread>

#include "accel/batcher.hh"
#include "common/random.hh"
#include "harness.hh"
#include "protein/proteome.hh"
#include "serve/serve_sim.hh"
#include "serve/service_model.hh"

namespace perfbench {
namespace {

using namespace prose;

constexpr std::uint64_t kRequests = 1000000;
constexpr std::uint32_t kInstances = 4;
constexpr double kLoad = 0.7;
/** Longest request: 510 residues + CLS/SEP fill the last bucket. */
constexpr std::uint64_t kMaxResidues = 510;
const std::vector<std::uint64_t> kBuckets{ 64, 128, 256, 512 };

enum Drill : std::size_t
{
    Healthy,
    Flash,
    Chaos,
    Tenants2,
    kDrills
};
constexpr std::array<const char *, kDrills> kDrillNames{
    "healthy", "flash", "chaos", "tenants2"
};
constexpr std::array<const char *, kDrills> kDrillSpans{
    "serve.healthy_run", "serve.flash_run", "serve.chaos_run",
    "serve.tenants2_run"
};

/** Arrival times of a Poisson stream whose rate is `rate(t)` (thinning). */
template <typename RateFn>
std::vector<TraceArrival>
arrivals(Rng &rng, const std::vector<std::uint64_t> &residues, double peak,
         RateFn rate)
{
    std::vector<TraceArrival> trace;
    trace.reserve(residues.size());
    double t = 0.0;
    while (trace.size() < residues.size()) {
        t += -std::log(1.0 - rng.uniform()) / peak;
        if (rng.uniform() * peak >= rate(t))
            continue;
        TraceArrival arrival;
        arrival.atSeconds = t;
        arrival.residues = residues[trace.size()];
        trace.push_back(arrival);
    }
    return trace;
}

class ServeWorkload : public Workload
{
  public:
    const char *workUnit() const override { return "simulated requests"; }
    int setupRepeats() const override { return 3; }
    std::size_t roundSize() const override { return kDrills; }

    void setUp(std::uint64_t seed) override
    {
        healthySim_.reset();
        flashSim_.reset();
        tenantsSim_.reset();
        Rng rng(seed);

        ServeSpec spec;
        spec.instanceCount = kInstances;
        spec.batcher.buckets = kBuckets;
        spec.arrivals.kind = ArrivalKind::Trace;
        spec.arrivals.seed = seed;

        std::vector<std::uint64_t> residues(kRequests);
        ProteomeSpec lengths;
        lengths.maxLength = kMaxResidues; // the model's truncation
        for (std::uint64_t &r : residues)
            r = sampleProteinLength(rng, lengths);

        // Service-model warm-up: capacity at full batches over this
        // length mix sets the offered rate and the SLO.
        const ServiceModel model(spec.instance, spec.model,
                                 spec.dispatchOverheadSeconds);
        double perRequest = 0.0;
        for (std::uint64_t r : residues)
            perRequest += model.seconds(bucketForTokens(r + 2, kBuckets),
                                        spec.batcher.maxBatch) /
                          static_cast<double>(spec.batcher.maxBatch);
        perRequest /= static_cast<double>(kRequests);
        const double rate = kLoad * kInstances / perRequest;
        spec.sloSeconds =
            8.0 * model.seconds(kBuckets.back(), spec.batcher.maxBatch);

        Clock::time_point start = Clock::now();
        spec.arrivals.trace =
            arrivals(rng, residues, rate, [&](double) { return rate; });
        arrivalsSeconds_ = secondsSince(start);

        ServeSpec tenants = spec;
        tenants.linkTenantsPerHost = 2;
        tenantsSim_ = std::make_unique<ServeSim>(std::move(tenants));
        healthySim_ = std::make_unique<ServeSim>(std::move(spec));

        // Flash crowd: 4x bursts for a fifth of every 100-request period.
        ServeSpec flash = healthySim_->spec();
        const double period = 100.0 / rate;
        start = Clock::now();
        flash.arrivals.trace =
            arrivals(rng, residues, 4.0 * rate, [&](double t) {
                return std::fmod(t, period) < 0.2 * period ? 4.0 * rate
                                                           : rate;
            });
        arrivalsSeconds_ += secondsSince(start);
        flashSim_ = std::make_unique<ServeSim>(std::move(flash));

        chaos_.seed = seed;
        chaos_.instanceKills = { InstanceKill{
            1, -1.0, static_cast<std::int64_t>(kRequests / 2) } };

        first_.assign(kDrills, ServeReport{});
        traced_ = {};
    }

    double run(std::size_t index, Tracer *tracer) override
    {
        lastDrill_ = index;
        ScopedSpan span(tracer, kDrillSpans[index]);
        last_ = runDrill(index);
        if (tracer)
            traced_[index] += last_.offered;
        return static_cast<double>(last_.offered);
    }

    bool verify(std::string &why) override
    {
        if (last_.offered != kRequests || last_.lost() != 0) {
            why = std::string(kDrillNames[lastDrill_]) +
                  ": requests lost (offered " +
                  std::to_string(last_.offered) + ", lost " +
                  std::to_string(last_.lost()) + ")";
            return false;
        }
        ServeReport &first = first_[lastDrill_];
        if (first.offered == 0) {
            first = last_;
            first.latencies = {}; // the summary is what replays compare
        } else if (last_.describe() != first.describe()) {
            why = std::string(kDrillNames[lastDrill_]) +
                  ": replay report differs";
            return false;
        }
        return true;
    }

    void traceExtras(Tracer &tracer) override
    {
        // Retained memory per request: RSS growth over the healthy drill.
        const std::uint64_t before = currentRssBytes();
        std::atomic<bool> done{ false };
        std::uint64_t peak = before;
        std::thread sampler([&] {
            while (!done.load()) {
                peak = std::max(peak, currentRssBytes());
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
        });
        const ServeReport report = runDrill(Healthy);
        done = true;
        sampler.join();
        rssBytesPerRequest_ = static_cast<double>(peak - before) /
                              static_cast<double>(report.offered);

        // PerfSim::runShared as the two-tenant drill's service model
        // calls it, once per bucket on a cold memo.
        const ServeSpec &spec = tenantsSim_->spec();
        const ServiceModel cold(spec.instance, spec.model,
                                spec.dispatchOverheadSeconds);
        for (std::uint64_t bucket : kBuckets) {
            ScopedSpan span(&tracer, "accel.run_shared");
            cold.sharedSeconds(bucket, spec.batcher.maxBatch, 2);
        }
    }

    std::size_t deepChecks(std::uint64_t seed,
                           std::vector<std::string> &failures) override
    {
        const std::size_t drill = seed % kDrills;
        const ServeReport replay = runDrill(drill);
        if (replay.lost() != 0 ||
            replay.describe() != first_[drill].describe())
            failures.push_back(std::string(kDrillNames[drill]) +
                               ": untimed replay differs");
        return 1;
    }

    void fillLedger(Ledger &ledger) override
    {
        for (std::size_t d = 0; d < kDrills; ++d) {
            const ServeReport &r = first_[d];
            const std::string key = std::string("serve.") + kDrillNames[d] +
                                    ".";
            ledger.add(key + "goodput_per_s", r.goodputPerSecond);
            ledger.add(key + "p99_s", r.p99Seconds);
            ledger.add(key + "slo_attainment", r.sloAttainment);
            ledger.add(key + "shed", static_cast<double>(r.shed));
            ledger.add(key + "timed_out", static_cast<double>(r.timedOut));
            ledger.add(key + "retries", static_cast<double>(r.retries));
        }
    }

    void layerMetrics(const Tracer &tracer, LayerMetrics &out) override
    {
        double totalNs = 0.0, offered = 0.0;
        for (std::size_t d = 0; d < kDrills; ++d) {
            out[std::string(kDrillSpans[d]) + "_ms"] =
                median(tracer.selfTimes(kDrillSpans[d])) / 1e6;
            totalNs += tracer.totalSelfNs(kDrillSpans[d]);
            offered += static_cast<double>(traced_[d]);
        }
        out["serve.host_ns_per_request"] = totalNs / offered;
        out["serve.rss_bytes_per_request"] = rssBytesPerRequest_;
        out["serve.arrivals_ms"] = arrivalsSeconds_ * 1e3 / 2.0;
        out["serve.batch_fill"] = first_[Healthy].meanBatchFill;
        out["serve.retries"] =
            static_cast<double>(first_[Chaos].retries);
        out["accel.run_shared_us"] =
            median(tracer.selfTimes("accel.run_shared")) / 1e3;
    }

  private:
    ServeReport runDrill(std::size_t drill) const
    {
        switch (drill) {
          case Flash:
            return flashSim_->run();
          case Chaos: {
            FaultInjector injector(chaos_);
            return healthySim_->run(&injector);
          }
          case Tenants2:
            return tenantsSim_->run();
          default:
            return healthySim_->run();
        }
    }

    std::unique_ptr<ServeSim> healthySim_, flashSim_, tenantsSim_;
    CampaignSpec chaos_;
    double arrivalsSeconds_ = 0.0; ///< both generated traces, last setup
    std::vector<ServeReport> first_; ///< first run of each drill
    std::array<std::uint64_t, kDrills> traced_{};
    double rssBytesPerRequest_ = 0.0;

    std::size_t lastDrill_ = 0;
    ServeReport last_;
};

} // namespace

std::unique_ptr<Workload>
makeServeWorkload()
{
    return std::make_unique<ServeWorkload>();
}

} // namespace perfbench
