/**
 * @file
 * fsim: BERT-base encoder layers (Dataflow 1 -> 3 -> 1 -> 2 -> 1) on the
 * register-accurate FunctionalSimulator with the fast engine, with a
 * fault drill every kLayersPerDrill layers: a smaller layer under a
 * seeded campaign (accumulator flips plus one stuck bit) with ABFT
 * attached. systolic and fault do the work; the drills take the
 * armed-tile fallback path the healthy layers never touch.
 */

#include <algorithm>
#include <cmath>

#include "common/random.hh"
#include "fault/fault_injector.hh"
#include "harness.hh"
#include "systolic/functional_sim.hh"

namespace perfbench {
namespace {

using namespace prose;

/** BERT-base layer at a typical protein length. */
constexpr std::size_t kSeq = 256, kHidden = 768, kHeads = 12,
                      kInter = 3072;
/** The drill layer: small enough that a drill costs ~4 healthy layers. */
constexpr std::size_t kDrillSeq = 64, kDrillHidden = 256, kDrillHeads = 4,
                      kDrillInter = 1024;
/**
 * Healthy layers per drill. With the drill at ~4 healthy layers of host
 * time, drills take about a third of the run on the seed code.
 */
constexpr std::size_t kLayersPerDrill = 8;
/** Successive layers alternate weights, as an encoder stack's do. */
constexpr std::size_t kOperandSets = 2;
/** Distinct seeded drills; each repeats every fourth round. */
constexpr std::size_t kDrillVariants = 4;
/**
 * Flip rate per accumulator per tile. At this rate (and the stuck bit
 * below) ABFT locates and repairs every fault in nearly every drill;
 * the rare tile it cannot repair it reports as unlocated or ambiguous.
 */
constexpr double kFlipRate = 2e-5;

struct LayerOperands
{
    std::size_t seq = 0, hidden = 0, heads = 0;
    Matrix x, wQkv, wOut, wUp, wDown, biasUp;
};

Matrix
gaussian(Rng &rng, std::size_t rows, std::size_t cols)
{
    Matrix m(rows, cols);
    m.fillGaussian(rng, 0.0f, 1.0f);
    return m;
}

LayerOperands
makeOperands(Rng &rng, std::size_t seq, std::size_t hidden,
             std::size_t heads, std::size_t inter)
{
    LayerOperands in;
    in.seq = seq;
    in.hidden = hidden;
    in.heads = heads;
    in.x = gaussian(rng, seq, hidden);
    in.wQkv = gaussian(rng, hidden, hidden);
    in.wOut = gaussian(rng, hidden / heads, hidden);
    in.wUp = gaussian(rng, hidden, inter);
    in.wDown = gaussian(rng, inter, hidden);
    in.biasUp = gaussian(rng, 1, inter);
    return in;
}

/** Span names of one layer's dataflow calls. */
struct LayerSpans
{
    const char *df1, *df2, *df3;
};
constexpr LayerSpans kHealthySpans{ "systolic.df1", "systolic.df2",
                                    "systolic.df3" };
constexpr LayerSpans kDrillSpans{ "fault.drill_df1", "fault.drill_df2",
                                  "fault.drill_df3" };

/**
 * One encoder layer in the Figure 8 order: QKV projection, attention
 * with the host softmax trip, output projection, GELU-fused FFN
 * expansion, FFN contraction.
 */
Matrix
encoderLayer(FunctionalSimulator &fsim, const LayerOperands &in,
             Tracer *tracer, const LayerSpans &names)
{
    const std::size_t dk = in.hidden / in.heads;
    Matrix qkv;
    {
        ScopedSpan span(tracer, names.df1);
        qkv = fsim.dataflow1(in.x, in.wQkv, 1.0f, nullptr);
    }
    std::vector<Matrix> q, k, v;
    for (std::size_t h = 0; h < in.heads; ++h) {
        Matrix head(in.seq, dk);
        for (std::size_t i = 0; i < in.seq; ++i)
            std::copy_n(qkv.row(i) + h * dk, dk, head.row(i));
        q.push_back(head);
        k.push_back(head);
        v.push_back(std::move(head));
    }
    std::vector<Matrix> attn;
    {
        ScopedSpan span(tracer, names.df3);
        attn = fsim.dataflow3(q, k, v,
                              static_cast<float>(1.0 / std::sqrt(double(dk))));
    }
    Matrix proj, up;
    {
        ScopedSpan span(tracer, names.df1);
        proj = fsim.dataflow1(attn.front(), in.wOut, 1.0f, &in.x);
    }
    {
        ScopedSpan span(tracer, names.df2);
        up = fsim.dataflow2(proj, in.wUp, 1.0f, &in.biasUp);
    }
    ScopedSpan span(tracer, names.df1);
    return fsim.dataflow1(up, in.wDown, 1.0f, &proj);
}

float
maxAbs(const Matrix &m)
{
    float out = 0.0f;
    for (std::size_t i = 0; i < m.rows() * m.cols(); ++i)
        out = std::max(out, std::fabs(m.data()[i]));
    return out;
}

/** Counters of one simulator run, compared across engines and replays. */
struct LayerRun
{
    Matrix out;
    std::uint64_t matmulCycles = 0, simdCycles = 0, macs = 0;
};

struct DrillRun
{
    LayerRun layer;
    std::string eventLog;
    std::size_t events = 0;
    AbftStats abft;
};

class FsimWorkload : public Workload
{
  public:
    const char *workUnit() const override { return "simulated MACs"; }
    std::size_t roundSize() const override { return kLayersPerDrill + 1; }

    void setUp(std::uint64_t seed) override
    {
        healthy_.clear();
        drills_.clear();
        campaigns_.clear();
        cleanDrill_.clear();
        Rng rng(seed);
        for (std::size_t i = 0; i < kOperandSets; ++i)
            healthy_.push_back(
                makeOperands(rng, kSeq, kHidden, kHeads, kInter));
        for (std::size_t i = 0; i < kDrillVariants; ++i) {
            drills_.push_back(makeOperands(rng, kDrillSeq, kDrillHidden,
                                           kDrillHeads, kDrillInter));
            CampaignSpec spec;
            spec.seed = rng.next();
            spec.accFlipRate = kFlipRate;
            spec.stuckBits.push_back(StuckBitFault{
                "M0", static_cast<std::uint32_t>(rng.below(64)),
                static_cast<std::uint32_t>(rng.below(64)),
                static_cast<std::uint32_t>(16 + rng.below(7)), true });
            campaigns_.push_back(spec);
            // The fault-free reference each drill is checked against,
            // and the warm-up of LUT tables and arena first touch.
            cleanDrill_.push_back(
                healthyLayer(drills_.back(), FsimMode::Fast, nullptr).out);
        }
        expected_ = healthyLayer(healthy_.front(), FsimMode::Fast, nullptr);
        firstHealthy_.assign(kOperandSets, LayerRun{});
        firstDrill_.assign(kDrillVariants, DrillRun{});
        drillCursor_ = healthyCursor_ = 0;
        traced_ = TracedCounts{};
    }

    double run(std::size_t index, Tracer *tracer) override
    {
        lastWasDrill_ = index == kLayersPerDrill;
        if (!lastWasDrill_) {
            ScopedSpan span(tracer, "systolic.layer");
            lastSet_ = healthyCursor_++ % kOperandSets;
            lastHealthy_ =
                healthyLayer(healthy_[lastSet_], FsimMode::Fast, tracer);
            if (firstHealthy_[lastSet_].macs == 0)
                firstHealthy_[lastSet_] = lastHealthy_;
            if (tracer) {
                ++traced_.layers;
                traced_.layerMacs += lastHealthy_.macs;
            }
            return static_cast<double>(lastHealthy_.macs);
        }
        ScopedSpan span(tracer, "fault.drill");
        lastVariant_ = drillCursor_++ % kDrillVariants;
        lastDrill_ = drill(lastVariant_, tracer);
        if (firstDrill_[lastVariant_].layer.macs == 0)
            firstDrill_[lastVariant_] = lastDrill_;
        if (tracer)
            ++traced_.drills;
        return static_cast<double>(lastDrill_.layer.macs);
    }

    bool verify(std::string &why) override
    {
        if (!lastWasDrill_) {
            if (lastHealthy_.matmulCycles != expected_.matmulCycles ||
                lastHealthy_.simdCycles != expected_.simdCycles ||
                lastHealthy_.macs != expected_.macs) {
                why = "healthy layer cycle/MAC counts drifted";
                return false;
            }
            if (!bitIdentical(lastHealthy_.out,
                              firstHealthy_[lastSet_].out)) {
                why = "healthy layer is not deterministic";
                return false;
            }
            return true;
        }
        if (!sameDrill(lastDrill_, firstDrill_[lastVariant_])) {
            why = "repeated drill is not byte-identical";
            return false;
        }
        return drillWithinTolerance(lastDrill_, lastVariant_, why);
    }

    void traceExtras(Tracer &tracer) override
    {
        // Healthy layers at the drill's shape: the base of the slowdown.
        for (std::size_t i = 0; i < kDrillVariants; ++i) {
            ScopedSpan span(&tracer, "systolic.layer_at_drill_shape");
            healthyLayer(drills_[i], FsimMode::Fast, nullptr);
        }
    }

    std::size_t deepChecks(std::uint64_t seed,
                           std::vector<std::string> &failures) override
    {
        // A sampled healthy layer against the cycle-stepped reference.
        const std::size_t set = seed % kOperandSets;
        if (firstHealthy_[set].macs == 0)
            firstHealthy_[set] =
                healthyLayer(healthy_[set], FsimMode::Fast, nullptr);
        const LayerRun stepped =
            healthyLayer(healthy_[set], FsimMode::Stepped, nullptr);
        const LayerRun &fast = firstHealthy_[set];
        if (!bitIdentical(stepped.out, fast.out) ||
            stepped.matmulCycles != fast.matmulCycles ||
            stepped.simdCycles != fast.simdCycles ||
            stepped.macs != fast.macs)
            failures.push_back("fast engine disagrees with stepped on "
                               "operand set " +
                               std::to_string(set));

        // Every drill variant replayed: same fault log, same output.
        for (std::size_t v = 0; v < kDrillVariants; ++v) {
            const DrillRun replay = drill(v, nullptr);
            std::string why;
            if (firstDrill_[v].layer.macs == 0) {
                firstDrill_[v] = replay;
            } else if (!sameDrill(replay, firstDrill_[v])) {
                failures.push_back("drill " + std::to_string(v) +
                                   ": replay is not byte-identical");
            }
            if (!drillWithinTolerance(replay, v, why))
                failures.push_back("drill " + std::to_string(v) +
                                   " replay: " + why);
        }
        return 1 + kDrillVariants;
    }

    void fillLedger(Ledger &ledger) override
    {
        ledger.add("fsim.layer.matmul_cycles",
                   static_cast<double>(expected_.matmulCycles));
        ledger.add("fsim.layer.simd_cycles",
                   static_cast<double>(expected_.simdCycles));
        ledger.add("fsim.layer.macs", static_cast<double>(expected_.macs));
        for (std::size_t v = 0; v < kDrillVariants; ++v) {
            const DrillRun &d = firstDrill_[v];
            const std::string key = "fsim.drill" + std::to_string(v) + ".";
            ledger.add(key + "matmul_cycles",
                       static_cast<double>(d.layer.matmulCycles));
            ledger.add(key + "simd_cycles",
                       static_cast<double>(d.layer.simdCycles));
            ledger.add(key + "macs", static_cast<double>(d.layer.macs));
            ledger.add(key + "fault_events", static_cast<double>(d.events));
            ledger.add(key + "abft_corrected",
                       static_cast<double>(d.abft.correctedElements));
            ledger.add(key + "abft_unrepaired_tiles",
                       static_cast<double>(d.abft.unlocatedTiles +
                                           d.abft.ambiguousElements));
        }
    }

    void layerMetrics(const Tracer &tracer, LayerMetrics &out) override
    {
        const double layers = static_cast<double>(traced_.layers);
        const double drills = static_cast<double>(traced_.drills);
        out["systolic.df1_ms"] =
            tracer.totalSelfNs("systolic.df1") / layers / 1e6;
        out["systolic.df2_ms"] =
            tracer.totalSelfNs("systolic.df2") / layers / 1e6;
        out["systolic.df3_ms"] =
            tracer.totalSelfNs("systolic.df3") / layers / 1e6;
        double layerNs = 0.0;
        for (const char *name :
             { "systolic.layer", "systolic.df1", "systolic.df2",
               "systolic.df3" })
            layerNs += tracer.totalSelfNs(name);
        out["systolic.host_ps_per_mac"] =
            layerNs * 1e3 / static_cast<double>(traced_.layerMacs);
        out["systolic.cycles_per_layer"] =
            static_cast<double>(expected_.matmulCycles + expected_.simdCycles);
        out["fault.drill_df1_ms"] =
            tracer.totalSelfNs("fault.drill_df1") / drills / 1e6;
        out["fault.drill_df2_ms"] =
            tracer.totalSelfNs("fault.drill_df2") / drills / 1e6;
        out["fault.drill_df3_ms"] =
            tracer.totalSelfNs("fault.drill_df3") / drills / 1e6;
        double drillNs = 0.0;
        for (const char *name : { "fault.drill", "fault.drill_df1",
                                  "fault.drill_df2", "fault.drill_df3" })
            drillNs += tracer.totalSelfNs(name);
        out["fault.drill_slowdown"] =
            drillNs / drills /
            median(tracer.selfTimes("systolic.layer_at_drill_shape"));
        // The counts come from the first run of every drill variant, so
        // they depend on the seed alone, not on how many rounds ran.
        double variants = 0.0, events = 0.0, corrected = 0.0;
        for (const DrillRun &d : firstDrill_) {
            if (d.layer.macs == 0)
                continue;
            variants += 1.0;
            events += static_cast<double>(d.events);
            corrected += static_cast<double>(d.abft.correctedElements);
        }
        out["fault.events_per_drill"] = events / variants;
        out["fault.abft_corrected_ratio"] = corrected / events;
    }

  private:
    static LayerRun healthyLayer(const LayerOperands &in, FsimMode mode,
                                 Tracer *tracer)
    {
        FunctionalSimulator fsim;
        fsim.setMode(mode);
        LayerRun run;
        run.out = encoderLayer(fsim, in, tracer, kHealthySpans);
        run.matmulCycles = fsim.matmulCycles();
        run.simdCycles = fsim.simdCycles();
        run.macs = fsim.macCount();
        return run;
    }

    DrillRun drill(std::size_t variant, Tracer *tracer) const
    {
        FaultInjector injector(campaigns_[variant]);
        FunctionalSimulator fsim;
        fsim.setMode(FsimMode::Fast);
        fsim.setFaultInjector(&injector);
        AbftOptions abft;
        abft.enabled = true;
        fsim.setAbft(abft);
        DrillRun run;
        run.layer.out =
            encoderLayer(fsim, drills_[variant], tracer, kDrillSpans);
        run.layer.matmulCycles = fsim.matmulCycles();
        run.layer.simdCycles = fsim.simdCycles();
        run.layer.macs = fsim.macCount();
        run.eventLog = injector.eventLogText();
        run.events = injector.events().size();
        run.abft = fsim.abftStats();
        return run;
    }

    /** Same fault event log, byte for byte, and the same output bits. */
    static bool sameDrill(const DrillRun &a, const DrillRun &b)
    {
        return a.eventLog == b.eventLog &&
               bitIdentical(a.layer.out, b.layer.out);
    }

    /**
     * ABFT either repairs or reports: a drill whose every flagged tile
     * was located and repaired must match the fault-free layer to
     * within one bf16 step of the output's magnitude. A drill with an
     * unlocated or ambiguous tile reported it, which the ledger counts.
     */
    bool drillWithinTolerance(const DrillRun &run, std::size_t variant,
                              std::string &why) const
    {
        if (run.abft.unlocatedTiles != 0 || run.abft.ambiguousElements != 0)
            return true;
        const Matrix &clean = cleanDrill_[variant];
        const float tolerance = std::ldexp(maxAbs(clean), -7);
        if (!(Matrix::maxAbsDiff(run.layer.out, clean) <= tolerance)) {
            why = "repaired drill output is outside ABFT tolerance";
            return false;
        }
        return true;
    }

    struct TracedCounts
    {
        std::uint64_t layers = 0, drills = 0, layerMacs = 0;
    };

    std::vector<LayerOperands> healthy_, drills_;
    std::vector<CampaignSpec> campaigns_;
    std::vector<Matrix> cleanDrill_;
    LayerRun expected_;
    std::vector<LayerRun> firstHealthy_;
    std::vector<DrillRun> firstDrill_;
    std::size_t drillCursor_ = 0, healthyCursor_ = 0;

    bool lastWasDrill_ = false;
    std::size_t lastSet_ = 0, lastVariant_ = 0;
    LayerRun lastHealthy_;
    DrillRun lastDrill_;
    TracedCounts traced_;
};

} // namespace

std::unique_ptr<Workload>
makeFsimWorkload()
{
    return std::make_unique<FsimWorkload>();
}

} // namespace perfbench
