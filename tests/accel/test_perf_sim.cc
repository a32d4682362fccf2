/** @file Tests for the discrete-event performance simulator. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "accel/perf_sim.hh"
#include "schedule_oracle.hh"

namespace prose {
namespace {

BertShape
smallShape(std::uint64_t batch = 8, std::uint64_t len = 128)
{
    return BertShape{ 2, 768, 12, 3072, batch, len };
}

TEST(PerfSim, ProducesPositiveMakespan)
{
    PerfSim sim(ProseConfig::bestPerf());
    const SimReport report = sim.run(smallShape());
    EXPECT_GT(report.makespan, 0.0);
    EXPECT_GT(report.taskCount, 0u);
    EXPECT_GT(report.totalFlops, 0.0);
    EXPECT_EQ(report.inferences, 8u);
}

TEST(PerfSim, PerInferenceEndTimesCoverTheBatch)
{
    PerfSim sim(ProseConfig::bestPerf());
    const SimReport report = sim.run(smallShape(7));
    ASSERT_EQ(report.inferenceEndSeconds.size(), report.inferences);
    ASSERT_FALSE(report.threadFinishSeconds.empty());
    const double slowest = *std::max_element(
        report.threadFinishSeconds.begin(),
        report.threadFinishSeconds.end());
    EXPECT_DOUBLE_EQ(slowest, report.makespan);
    double last = 0.0;
    for (const double end : report.inferenceEndSeconds) {
        EXPECT_GT(end, 0.0);
        EXPECT_LE(end, report.makespan);
        last = std::max(last, end);
    }
    EXPECT_DOUBLE_EQ(last, report.makespan);
}

TEST(PerfSim, DeterministicAcrossRuns)
{
    PerfSim sim(ProseConfig::bestPerf());
    const SimReport a = sim.run(smallShape());
    const SimReport b = sim.run(smallShape());
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.bytesIn, b.bytesIn);
}

TEST(PerfSim, MoreBandwidthNeverSlower)
{
    ProseConfig slow = ProseConfig::bestPerf();
    slow.link = LinkSpec::nvlink2At80();
    ProseConfig fast = ProseConfig::bestPerf();
    fast.link = LinkSpec::nvlink3At90();
    fast.lanes = LanePartition{ 6, 2, 4 }; // 12-lane link
    const SimReport s = PerfSim(slow).run(smallShape());
    const SimReport f = PerfSim(fast).run(smallShape());
    EXPECT_LE(f.makespan, s.makespan * 1.0001);
}

TEST(PerfSim, InfiniteBandwidthIsComputeBound)
{
    ProseConfig config = ProseConfig::bestPerf();
    config.link = LinkSpec::infinite();
    const SimReport report = PerfSim(config).run(smallShape());
    EXPECT_GT(report.makespan, 0.0);
    // Utilization of the busiest type should be meaningful once the
    // link is out of the picture.
    const double best_util =
        std::max({ report.utilization(ArrayType::M),
                   report.utilization(ArrayType::G),
                   report.utilization(ArrayType::E) });
    EXPECT_GT(best_util, 0.2);
}

TEST(PerfSim, MultithreadingImprovesThroughput)
{
    // Figure 8: more threads -> fewer data-dependency bubbles.
    ProseConfig one = ProseConfig::bestPerf();
    one.threads = 1;
    ProseConfig many = ProseConfig::bestPerf();
    many.threads = 32;
    const BertShape shape = smallShape(32, 128);
    const double t1 = PerfSim(one).run(shape).makespan;
    const double t32 = PerfSim(many).run(shape).makespan;
    EXPECT_LT(t32, t1 * 0.7);
}

TEST(PerfSim, UtilizationBounded)
{
    PerfSim sim(ProseConfig::mostEfficient());
    const SimReport report = sim.run(smallShape());
    for (ArrayType type : { ArrayType::M, ArrayType::G, ArrayType::E }) {
        EXPECT_GE(report.utilization(type), 0.0);
        EXPECT_LE(report.utilization(type), 1.0);
    }
    EXPECT_GE(report.cpuDuty, 0.0);
    EXPECT_LE(report.cpuDuty, 1.0);
}

TEST(PerfSim, BytesMatchTaskAccounting)
{
    // Conservation: simulator traffic equals the per-task sums.
    const BertShape shape = smallShape(4, 64);
    ProseConfig config = ProseConfig::bestPerf();
    config.threads = 4;
    PerfSim sim(config);
    const SimReport report = sim.run(shape);

    TimingModel timing(config.partialInputBuffer);
    std::uint64_t bytes_in = 0, bytes_out = 0;
    DataflowBuilder builder;
    for (int t = 0; t < 4; ++t) {
        BertShape slice = shape;
        slice.batch = 1;
        for (const auto &task :
             builder.build(synthesizeBertTrace(slice))) {
            if (task.kind == DataflowKind::Host)
                continue;
            ArrayGeometry geom = ArrayGeometry::mType(64);
            if (task.kind == DataflowKind::Dataflow2)
                geom = ArrayGeometry::gType(16);
            if (task.kind == DataflowKind::Dataflow3)
                geom = ArrayGeometry::eType(16);
            const TaskCost cost = timing.costTask(task, geom);
            bytes_in += cost.bytesIn;
            bytes_out += cost.bytesOut;
        }
    }
    EXPECT_EQ(report.bytesIn, bytes_in);
    EXPECT_EQ(report.bytesOut, bytes_out);
}

TEST(PerfSim, ScheduleRecordsWhenRequested)
{
    SimOptions options;
    options.recordSchedule = true;
    PerfSim sim(ProseConfig::bestPerf(), TimingModel{}, HostModel{},
                options);
    const SimReport report = sim.run(smallShape(2, 32));
    ASSERT_EQ(report.schedule.size(), report.taskCount);
    for (const auto &item : report.schedule) {
        EXPECT_GE(item.end, item.start);
        if (item.kind != DataflowKind::Host)
            EXPECT_GE(item.arrayIndex, 0);
        else
            EXPECT_EQ(item.arrayIndex, -1);
    }
}

TEST(PerfSim, TasksOnOneThreadNeverOverlap)
{
    SimOptions options;
    options.recordSchedule = true;
    ProseConfig config = ProseConfig::bestPerf();
    config.threads = 4;
    PerfSim sim(config, TimingModel{}, HostModel{}, options);
    const SimReport report = sim.run(smallShape(4, 64));

    std::map<std::uint32_t, double> last_end;
    std::map<std::uint32_t, std::vector<ScheduledItem>> per_thread;
    for (const auto &item : report.schedule)
        per_thread[item.thread].push_back(item);
    for (auto &[thread, items] : per_thread) {
        std::sort(items.begin(), items.end(),
                  [](const auto &a, const auto &b) {
                      return a.start < b.start;
                  });
        for (std::size_t i = 1; i < items.size(); ++i)
            EXPECT_GE(items[i].start, items[i - 1].end - 1e-12);
    }
}

TEST(PerfSim, PoolsNeverDoubleBooked)
{
    SimOptions options;
    options.recordSchedule = true;
    PerfSim sim(ProseConfig::mostEfficient(), TimingModel{}, HostModel{},
                options);
    const SimReport report = sim.run(smallShape(8, 64));

    std::map<int, std::vector<ScheduledItem>> per_pool;
    for (const auto &item : report.schedule)
        if (item.arrayIndex >= 0)
            per_pool[item.arrayIndex].push_back(item);
    for (auto &[pool, items] : per_pool) {
        std::sort(items.begin(), items.end(),
                  [](const auto &a, const auto &b) {
                      return a.start < b.start;
                  });
        // The pool frees at poolEnd (a Dataflow 3's host-softmax tail
        // only blocks its issuing thread, not the pool).
        for (std::size_t i = 1; i < items.size(); ++i)
            EXPECT_GE(items[i].start, items[i - 1].poolEnd - 1e-12);
    }
}

TEST(PerfSim, DataflowsLandOnTheirTypes)
{
    SimOptions options;
    options.recordSchedule = true;
    const ProseConfig config = ProseConfig::bestPerf();
    PerfSim sim(config, TimingModel{}, HostModel{}, options);
    const SimReport report = sim.run(smallShape(2, 32));
    for (const auto &item : report.schedule) {
        if (item.arrayIndex < 0)
            continue;
        EXPECT_EQ(static_cast<std::size_t>(item.arrayIndex),
                  typeIndex(arrayTypeFor(item.kind)));
    }
}

TEST(PerfSim, BatchSmallerThanThreadsStillRuns)
{
    ProseConfig config = ProseConfig::bestPerf();
    config.threads = 32;
    const SimReport report = PerfSim(config).run(smallShape(3, 32));
    EXPECT_EQ(report.inferences, 3u);
    EXPECT_GT(report.makespan, 0.0);
}

TEST(PerfSim, ConfigDrivesTheTrafficModel)
{
    // PerfSim(config) must honor partialInputBuffer: without the reuse
    // buffer the operand restreams make the run slower and move more
    // bytes.
    ProseConfig with_buffer = ProseConfig::bestPerf();
    ProseConfig without = with_buffer;
    without.partialInputBuffer = false;
    const BertShape shape = smallShape(8, 256);
    const SimReport a = PerfSim(with_buffer).run(shape);
    const SimReport b = PerfSim(without).run(shape);
    EXPECT_GT(b.bytesIn, a.bytesIn);
    EXPECT_GT(b.makespan, a.makespan);
}

TEST(PerfSim, IoLockContentionSlowsManyThreads)
{
    // The Section 3.1 trade-off: more threads contend on the per-type
    // I/O buffer mutex; a pathologically slow lock must hurt.
    const BertShape shape = smallShape(32, 128);
    ProseConfig config = ProseConfig::bestPerf();
    config.threads = 32;
    SimOptions fast;
    fast.ioLockSeconds = 0.0;
    SimOptions slow;
    slow.ioLockSeconds = 500e-6;
    const double t_fast =
        PerfSim(config, TimingModel{}, HostModel{}, fast)
            .run(shape)
            .makespan;
    const double t_slow =
        PerfSim(config, TimingModel{}, HostModel{}, slow)
            .run(shape)
            .makespan;
    EXPECT_GT(t_slow, t_fast * 1.2);
}

TEST(PerfSim, DecoderWorkloadRuns)
{
    // The translation extension: a 6-layer decoder stack over a
    // 512-token encoder memory.
    DecoderShape shape;
    shape.layers = 2;
    shape.batch = 8;
    shape.targetLen = 64;
    shape.sourceLen = 256;
    PerfSim sim(ProseConfig::bestPerf());
    const SimReport report = sim.runDecoder(shape);
    EXPECT_GT(report.makespan, 0.0);
    EXPECT_EQ(report.inferences, 8u);
    const double expected = synthesizeDecoderTrace(shape).totalFlops();
    EXPECT_NEAR(report.totalFlops, expected, expected * 1e-12);
}

TEST(PerfSim, DecoderCrossAttentionCostsGrowWithMemory)
{
    DecoderShape small;
    small.layers = 2;
    small.batch = 8;
    small.targetLen = 64;
    small.sourceLen = 128;
    DecoderShape large = small;
    large.sourceLen = 1024;
    PerfSim sim(ProseConfig::bestPerf());
    EXPECT_LT(sim.runDecoder(small).makespan,
              sim.runDecoder(large).makespan);
}

/** Run one shape with the schedule recorded and replay it against the
 *  dispatch policy (schedule_oracle.hh). */
SimReport
expectScheduleFollowsPolicy(const ProseConfig &config,
                            const BertShape &shape,
                            FaultInjector *injector = nullptr)
{
    SimOptions options;
    options.recordSchedule = true;
    options.injector = injector;
    const HostModel host;
    const SimReport report =
        PerfSim(config, TimingModel{}, host, options).run(shape);
    EXPECT_TRUE(scheduleFollowsPolicy(report, options.ioLockSeconds,
                                      host.spec().slots));
    return report;
}

TEST(PerfSim, EventQueueMatchesReferenceScheduler)
{
    for (const BertShape &shape :
         { smallShape(4, 64), smallShape(32, 128), smallShape(7, 256) }) {
        expectScheduleFollowsPolicy(ProseConfig::bestPerf(), shape);
        expectScheduleFollowsPolicy(ProseConfig::mostEfficient(), shape);
    }
}

TEST(PerfSim, EventQueueMatchesReferenceUnderLinkFaults)
{
    // Faults stretch recorded durations (retries, timeouts); the
    // policy must still hold over the resulting free times, and the
    // same campaign seed must replay the same schedule.
    CampaignSpec spec;
    spec.seed = 5;
    spec.linkErrorRate = 0.05;
    spec.linkTimeoutRate = 0.02;
    FaultInjector injector(spec);
    FaultInjector replay_injector(spec);
    const SimReport report = expectScheduleFollowsPolicy(
        ProseConfig::bestPerf(), smallShape(16, 128), &injector);
    const SimReport replay = expectScheduleFollowsPolicy(
        ProseConfig::bestPerf(), smallShape(16, 128), &replay_injector);
    EXPECT_GT(report.taskRetries, 0u);
    EXPECT_EQ(report.makespan, replay.makespan);
    EXPECT_EQ(injector.eventLogText(), replay_injector.eventLogText());
}

TEST(PerfSim, HeterogeneousBeatsHomogeneousAtLongLengths)
{
    // Figure 4's core claim at a batch the tests can afford. Past the
    // crossover (well beyond 300 tokens) the homogeneous design's lack
    // of SIMD lanes on the attention path dominates.
    const BertShape shape{ 12, 768, 12, 3072, 8, 1024 };
    const double hetero =
        PerfSim(ProseConfig::bestPerf()).run(shape).makespan;
    const double homo =
        PerfSim(ProseConfig::fourBy64Homogeneous()).run(shape).makespan;
    EXPECT_LT(hetero, homo);
}

} // namespace
} // namespace prose
