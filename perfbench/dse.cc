/**
 * @file
 * dse: design-space exploration at the paper's operating point (Protein
 * BERT-base, length 512, batch 128). Each request is one
 * DseEngine::explore call; the round varies the PE budget (Fig. 17), the
 * host link (Fig. 18) and, in one call, the streaming and compression
 * sweeps. PerfSim's event scheduler and link model do the work, fanned
 * out over the thread pool.
 */

#include <algorithm>

#include "common/random.hh"
#include "common/thread_pool.hh"
#include "dse/config_space.hh"
#include "dse/dse_engine.hh"
#include "harness.hh"

namespace perfbench {
namespace {

using namespace prose;

/** One explore call of the round; the default link is NVLink 2.0 @90%. */
struct Call
{
    const char *name = "";
    ConfigSpaceSpec spec;
};

std::vector<Call>
roundCalls()
{
    std::vector<Call> calls(6);
    calls[0].name = "pe8k_nvlink2";
    calls[0].spec.peBudget = 8192;
    calls[1].name = "pe16k_nvlink2";
    calls[1].spec.peBudget = 16384;
    calls[2].name = "pe24k_nvlink2";
    calls[2].spec.peBudget = 24576;
    calls[3].name = "pe8k_nvlink3";
    calls[3].spec.peBudget = 8192;
    calls[3].spec.link = LinkSpec::nvlink3At90();
    calls[4].name = "pe16k_infinite";
    calls[4].spec.peBudget = 16384;
    calls[4].spec.link = LinkSpec::infinite();
    calls[5].name = "pe8k_stream_codec";
    calls[5].spec.peBudget = 8192;
    calls[5].spec.streamingSweep = {
        StreamSpec{ StreamMode::Serialized, 2 },
        StreamSpec{ StreamMode::DoubleBuffered, 2 },
    };
    calls[5].spec.compressionSweep = { LinkCompression::None,
                                       LinkCompression::Delta };
    return calls;
}

bool
contains(const std::vector<std::size_t> &xs, std::size_t x)
{
    return std::find(xs.begin(), xs.end(), x) != xs.end();
}

class DseWorkload : public Workload
{
  public:
    const char *workUnit() const override { return "configurations"; }
    int setupRepeats() const override { return 9; }
    std::size_t roundSize() const override { return calls_.size(); }

    void setUp(std::uint64_t seed) override
    {
        // The seed orders the calls; the space itself is fixed.
        calls_ = roundCalls();
        Rng rng(seed);
        rng.shuffle(calls_);
        engine_ = std::make_unique<DseEngine>();
        // Warm-up: pool spin-up and the first PerfSim of the process.
        engine_->evaluateBestLanes(ProseConfig::bestPerf());
        first_.assign(calls_.size(), DseSelection{});
        tracedExploreNs_.assign(calls_.size(), 0.0);
    }

    double run(std::size_t index, Tracer *tracer) override
    {
        lastIndex_ = index;
        {
            ScopedSpan span(tracer, "dse.explore");
            const Clock::time_point start = Clock::now();
            last_ = engine_->explore(calls_[index].spec);
            if (tracer && tracedExploreNs_[index] == 0.0)
                tracedExploreNs_[index] = secondsSince(start) * 1e9;
        }
        return static_cast<double>(last_.points.size());
    }

    bool verify(std::string &why) override
    {
        const DseSelection &s = last_;
        const std::string call = calls_[lastIndex_].name;
        if (!contains(s.powerPareto, s.bestPerf) ||
            !contains(s.areaPareto, s.bestPerf) ||
            !contains(s.powerPareto, s.mostPowerEfficient) ||
            !contains(s.areaPareto, s.mostAreaEfficient)) {
            why = call + ": a selection is off its Pareto front";
            return false;
        }
        const DsePoint &best = s.points[s.bestPerf];
        if (engine_->evaluate(best.config).runtimeSeconds !=
            best.runtimeSeconds) {
            why = call + ": BestPerf runtime does not reproduce";
            return false;
        }
        if (first_[lastIndex_].points.empty())
            first_[lastIndex_] = s;
        else if (!sameSelection(s, first_[lastIndex_])) {
            why = call + ": repeated explore chose differently";
            return false;
        }
        return true;
    }

    void traceExtras(Tracer &tracer) override
    {
        // Split one explore call from this thread: every mix's
        // evaluateBestLanes, then PerfSim::run on the lane partition it
        // chose. The cheapest call keeps this short.
        std::size_t probe = 0;
        for (std::size_t i = 0; i < calls_.size(); ++i)
            if (std::string(calls_[i].name) == "pe8k_nvlink2")
                probe = i;
        if (tracedExploreNs_[probe] == 0.0)
            run(probe, &tracer);
        const BertShape shape = engine_->workload().shape;
        double evaluateNs = 0.0;
        tasks_ = 0;
        for (const ProseConfig &mix : enumerateMixes(calls_[probe].spec)) {
            DsePoint point;
            const Clock::time_point start = Clock::now();
            {
                ScopedSpan span(&tracer, "dse.evaluate_best_lanes");
                point = engine_->evaluateBestLanes(mix);
            }
            evaluateNs += secondsSince(start) * 1e9;
            ScopedSpan span(&tracer, "accel.perfsim_run");
            tasks_ += PerfSim(point.config).run(shape).taskCount;
        }
        const double lanes = ThreadPool::global().parallelism();
        poolBusy_ = evaluateNs / (tracedExploreNs_[probe] * lanes);
        poolIdleMs_ = (tracedExploreNs_[probe] * lanes - evaluateNs) / 1e6;

        const ProseConfig best =
            first_[probe].points[first_[probe].bestPerf].config;
        for (int i = 0; i < 3; ++i) {
            ScopedSpan span(&tracer, "accel.run_shared");
            PerfSim(best).runShared({ shape, shape });
        }
    }

    std::size_t deepChecks(std::uint64_t seed,
                           std::vector<std::string> &failures) override
    {
        const std::size_t index = seed % calls_.size();
        const DseSelection replay = engine_->explore(calls_[index].spec);
        if (first_[index].points.empty() ||
            !sameSelection(replay, first_[index]))
            failures.push_back(std::string(calls_[index].name) +
                               ": untimed replay chose differently");
        return 1;
    }

    void fillLedger(Ledger &ledger) override
    {
        for (std::size_t i = 0; i < calls_.size(); ++i) {
            const DseSelection &s = first_[i];
            const std::string key = std::string("dse.") + calls_[i].name;
            ledger.add(key + ".configs",
                       static_cast<double>(s.points.size()));
            const DsePoint &best = s.points[s.bestPerf];
            const DsePoint &eff = s.points[s.mostPowerEfficient];
            ledger.add(key + ".best_perf", best.config.name);
            ledger.add(key + ".best_perf_vs_a100", best.runtimeVsA100);
            ledger.add(key + ".most_efficient", eff.config.name);
            ledger.add(key + ".most_efficient_vs_a100", eff.runtimeVsA100);
        }
    }

    void layerMetrics(const Tracer &tracer, LayerMetrics &out) override
    {
        out["dse.explore_ms"] = median(tracer.selfTimes("dse.explore")) / 1e6;
        out["dse.evaluate_best_lanes_ms"] =
            median(tracer.selfTimes("dse.evaluate_best_lanes")) / 1e6;
        out["accel.perfsim_run_us"] =
            median(tracer.selfTimes("accel.perfsim_run")) / 1e3;
        out["accel.host_ns_per_task"] =
            tracer.totalSelfNs("accel.perfsim_run") /
            static_cast<double>(tasks_);
        out["accel.run_shared_us"] =
            median(tracer.selfTimes("accel.run_shared")) / 1e3;
        out["common.pool_busy_ratio"] = poolBusy_;
        out["common.pool_idle_ms"] = poolIdleMs_;
    }

  private:
    static bool sameSelection(const DseSelection &a, const DseSelection &b)
    {
        if (a.points.size() != b.points.size() || a.bestPerf != b.bestPerf ||
            a.mostPowerEfficient != b.mostPowerEfficient ||
            a.mostAreaEfficient != b.mostAreaEfficient)
            return false;
        for (std::size_t i = 0; i < a.points.size(); ++i)
            if (a.points[i].runtimeSeconds != b.points[i].runtimeSeconds ||
                a.points[i].config.name != b.points[i].config.name)
                return false;
        return true;
    }

    std::vector<Call> calls_;
    std::unique_ptr<DseEngine> engine_;
    std::vector<DseSelection> first_;
    std::vector<double> tracedExploreNs_;

    std::size_t lastIndex_ = 0;
    DseSelection last_;
    std::uint64_t tasks_ = 0;
    double poolBusy_ = 0.0, poolIdleMs_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeDseWorkload()
{
    return std::make_unique<DseWorkload>();
}

} // namespace perfbench
