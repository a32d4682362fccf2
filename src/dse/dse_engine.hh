/**
 * @file
 * The design-space-exploration engine behind Figures 16/17 and Table 4:
 * evaluate every enumerated array mix (sweeping link-lane partitions per
 * mix), normalize runtime against the A100 baseline, attach power/area
 * from the component library, and extract Pareto-optimal designs.
 */

#ifndef PROSE_DSE_DSE_ENGINE_HH
#define PROSE_DSE_DSE_ENGINE_HH

#include <string>
#include <vector>

#include "accel/perf_sim.hh"
#include "config_space.hh"
#include "systolic/fsim_mode.hh"

namespace prose {

/** Evaluation record of one configuration. */
struct DsePoint
{
    ProseConfig config;
    double runtimeSeconds = 0.0;
    double runtimeVsA100 = 0.0; ///< runtime normalized to one A100
    double powerWatts = 0.0;    ///< array power (+InBuf when enabled)
    double areaMm2 = 0.0;       ///< array area (+InBuf when enabled)
    double inferencesPerSecond = 0.0;
    double cpuDuty = 0.0;
};

/** Pareto-front membership flags for a set of points. */
struct DseSelection
{
    std::vector<DsePoint> points;
    std::size_t bestPerf = 0;          ///< index of the fastest design
    std::size_t mostPowerEfficient = 0;
    std::size_t mostAreaEfficient = 0;
    std::vector<std::size_t> powerPareto; ///< runtime-vs-power front
    std::vector<std::size_t> areaPareto;  ///< runtime-vs-area front
};

/** Workload the DSE evaluates against (the paper's operating point). */
struct DseWorkload
{
    BertShape shape = BertShape{ 12, 768, 12, 3072, 128, 512 };
    /** Seconds one A100 needs for the same workload (normalizer). */
    double a100Seconds = 0.0; ///< 0 = compute from the baseline model
};

/**
 * Result of cross-validating one configuration's closed-form timing
 * against the register-accurate functional simulator (the DSE's
 * evaluations rest entirely on the TimingModel, so this is the check
 * that grounds a whole exploration).
 */
struct DseValidationReport
{
    bool ok = false;        ///< all checks below passed
    FsimMode mode = FsimMode::Fast; ///< engine the probe ran on
    /** Matmul cycles counted by the functional simulator's arrays. */
    std::uint64_t fsimMatmulCycles = 0;
    /** The TimingModel's closed-form prediction for the same probes. */
    std::uint64_t modelMatmulCycles = 0;
    /** MACs counted by the arrays (must equal the useful work). */
    std::uint64_t macCount = 0;
    std::uint64_t expectedMacCount = 0;
    /** Dataflow-1 output vs the host bf16 reference (must be 0). */
    float maxAbsError = 0.0f;
};

/** Runs the exploration. */
class DseEngine
{
  public:
    explicit DseEngine(DseWorkload workload = DseWorkload{});

    /** Evaluate one configuration (no lane sweep). */
    DsePoint evaluate(const ProseConfig &config) const;

    /**
     * Functional cross-validation of one configuration: run probe
     * dataflows (1, 2, and a batch-2 dataflow 3) sized off the
     * config's array geometries through the FunctionalSimulator with
     * the given matmul engine, and check the measured matmul cycles and
     * MAC counts against the TimingModel's closed forms plus the
     * dataflow-1 output against the host bf16 reference. The
     * fast-forward engine makes this routinely affordable inside
     * explorations; `validate` mode additionally cross-checks the two
     * matmul engines tile by tile (SIMD passes have one body, shared
     * by every mode).
     */
    DseValidationReport validate(const ProseConfig &config,
                                 FsimMode mode = defaultFsimMode()) const;

    /** Evaluate one mix across all lane partitions; keep the fastest. */
    DsePoint evaluateBestLanes(const ProseConfig &mix) const;

    /**
     * Full exploration: every mix from the space, best lane partition
     * each, plus Pareto extraction and the BestPerf / MostEfficient
     * selections of Figure 16.
     */
    DseSelection explore(const ConfigSpaceSpec &spec) const;

    /** The A100 normalizer in seconds. */
    double a100Seconds() const { return a100Seconds_; }

    const DseWorkload &workload() const { return workload_; }

  private:
    DseWorkload workload_;
    double a100Seconds_;
};

/**
 * Indices of the Pareto front minimizing both coordinates. Points are
 * (x, y) pairs; a point is on the front if no other point is <= in both
 * coordinates (and < in one).
 */
std::vector<std::size_t> paretoFront(const std::vector<double> &xs,
                                     const std::vector<double> &ys);

} // namespace prose

#endif // PROSE_DSE_DSE_ENGINE_HH
