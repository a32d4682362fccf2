#include "perf_sim.hh"

#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>

#include "common/logging.hh"

namespace prose {

namespace {

/** Campaign site code of an array type ('M', 'G', 'E'). */
char
typeCode(ArrayType type)
{
    return toString(type)[0];
}

/** Expand per-thread finish times into per-inference completion times:
 *  every sequence of a thread's slice finishes when the thread drains. */
void
expandInferenceEnds(SimReport &report,
                    const std::vector<std::uint64_t> &shares)
{
    PROSE_ASSERT(shares.size() == report.threadFinishSeconds.size(),
                 "thread share/finish mismatch");
    report.inferenceEndSeconds.clear();
    report.inferenceEndSeconds.reserve(report.inferences);
    for (std::size_t t = 0; t < shares.size(); ++t)
        report.inferenceEndSeconds.insert(
            report.inferenceEndSeconds.end(), shares[t],
            report.threadFinishSeconds[t]);
    PROSE_ASSERT(report.inferenceEndSeconds.size() == report.inferences,
                 "inference completion times do not cover the batch");
}

} // namespace

double
RetryPolicy::delayFor(std::uint32_t retry) const
{
    return backoffSeconds * std::pow(backoffFactor, retry);
}

ArrayType
arrayTypeFor(DataflowKind kind)
{
    switch (kind) {
      case DataflowKind::Dataflow1:
        return ArrayType::M;
      case DataflowKind::Dataflow2:
        return ArrayType::G;
      case DataflowKind::Dataflow3:
        return ArrayType::E;
      case DataflowKind::Host:
        break;
    }
    panic("host task has no array type");
}

std::size_t
typeIndex(ArrayType type)
{
    switch (type) {
      case ArrayType::M:
        return 0;
      case ArrayType::G:
        return 1;
      case ArrayType::E:
        return 2;
    }
    return 0;
}

double
SimReport::inferencesPerSecond() const
{
    return makespan > 0.0 ? static_cast<double>(inferences) / makespan
                          : 0.0;
}

double
SimReport::utilization(ArrayType type) const
{
    const std::size_t idx = typeIndex(type);
    if (makespan <= 0.0 || typeCounts[idx] == 0)
        return 0.0;
    return typeBusySeconds[idx] / (makespan * typeCounts[idx]);
}

double
SimReport::achievedFlops() const
{
    return makespan > 0.0 ? totalFlops / makespan : 0.0;
}

PerfSim::PerfSim(ProseConfig config)
    : PerfSim(std::move(config), TimingModel{})
{
    timing_ = TimingModel(config_.partialInputBuffer);
}

PerfSim::PerfSim(ProseConfig config, TimingModel timing, HostModel host,
                 SimOptions options)
    : config_(std::move(config)), timing_(timing), host_(host),
      options_(options)
{
    config_.validate();
}

PerfSim::TaskSeconds
PerfSim::accelTaskSeconds(const DataflowTask &task,
                          const ArrayGeometry &geometry,
                          std::uint32_t pool_count, double bandwidth,
                          TaskCost &cost_out) const
{
    cost_out = timing_.costTask(task, geometry);
    TaskSeconds seconds;
    // Output tiles are independent, so the pool's arrays split them
    // evenly; compute time divides by the pool size while the stream
    // times see the pool's aggregate lane share.
    seconds.computeSeconds =
        cost_out.computeSeconds(geometry) / pool_count;
    seconds.wireBytesIn = config_.link.wireBytes(cost_out.bytesIn);
    seconds.wireBytesOut = config_.link.wireBytes(cost_out.bytesOut);
    // The infinite link is the compute-bound limit: its stream stages
    // are exactly zero, which collapses every StreamMode to the same
    // bit-identical duration (docs/LINK_MODEL.md).
    if (!config_.link.isInfinite()) {
        seconds.streamInSeconds =
            static_cast<double>(seconds.wireBytesIn) / bandwidth;
        seconds.streamOutSeconds =
            static_cast<double>(seconds.wireBytesOut) / bandwidth;
    }
    const double compute = seconds.computeSeconds;
    const double stream_in = seconds.streamInSeconds;
    const double stream_out = seconds.streamOutSeconds;
    const double bound = std::max({ compute, stream_in, stream_out });
    switch (config_.streaming.mode) {
      case StreamMode::Serialized:
        seconds.arraySeconds = stream_in + compute + stream_out;
        break;
      case StreamMode::Ideal:
        seconds.arraySeconds = bound;
        seconds.prefetchSlackSeconds = compute;
        break;
      case StreamMode::DoubleBuffered: {
        // Transfers pipeline with compute at output-tile granularity:
        // steady state runs at the slowest stage; each non-bounding
        // stage contributes one chunk of fill/drain ramp. With zero
        // stream stages the ramp term is exactly 0.0, so the infinite
        // link reproduces the ideal duration bit-for-bit.
        const double chunks = static_cast<double>(
            std::max<std::uint64_t>(1, cost_out.tiles));
        seconds.fillSeconds = stream_in / chunks;
        seconds.drainSeconds = stream_out / chunks;
        seconds.arraySeconds =
            bound + (stream_in + compute + stream_out - bound) / chunks;
        seconds.prefetchSlackSeconds = std::min(
            compute,
            static_cast<double>(config_.streaming.bufferDepth - 1) *
                (compute / chunks));
        break;
      }
    }
    if (cost_out.hostSoftmaxElems > 0) {
        // Dataflow 3 serializes the issuing thread through the host
        // softmax between its two BMMs, but no accumulator state is
        // live during the trip, so the array itself can serve other
        // threads meanwhile.
        seconds.threadExtraSeconds =
            host_.softmaxSeconds(cost_out.hostSoftmaxElems);
    }
    return seconds;
}

template <typename Shape>
PerfSim::TenantLoad
PerfSim::sliceShape(const Shape &shape,
                    OpTrace (*synthesize)(const Shape &)) const
{
    PROSE_ASSERT(shape.batch > 0, "empty batch");
    // Slice the batch across threads as evenly as possible; threads
    // beyond the batch size stay idle.
    TenantLoad load;
    load.inferences = shape.batch;
    const std::uint64_t used_threads =
        std::min<std::uint64_t>(config_.threads, shape.batch);
    DataflowBuilder builder;
    for (std::uint64_t t = 0; t < used_threads; ++t) {
        Shape slice = shape;
        slice.batch = shape.batch / used_threads +
                      (t < shape.batch % used_threads ? 1 : 0);
        if (slice.batch == 0)
            continue;
        load.shares.push_back(slice.batch);
        load.threadTasks.push_back(builder.build(synthesize(slice)));
    }
    return load;
}

SimReport
PerfSim::runSingle(TenantLoad load) const
{
    std::vector<TenantLoad> tenants;
    tenants.push_back(std::move(load));
    SimReport report = runTasksShared(tenants, nullptr);
    report.inferences = tenants[0].inferences;
    expandInferenceEnds(report, tenants[0].shares);
    return report;
}

SimReport
PerfSim::run(const BertShape &shape) const
{
    return runSingle(sliceShape(shape, synthesizeBertTrace));
}

SimReport
PerfSim::runShared(const std::vector<BertShape> &tenant_shapes,
                   std::vector<SimReport> *per_tenant) const
{
    PROSE_ASSERT(!tenant_shapes.empty(), "no tenants to simulate");
    std::vector<TenantLoad> tenants;
    tenants.reserve(tenant_shapes.size());
    for (const BertShape &shape : tenant_shapes)
        tenants.push_back(sliceShape(shape, synthesizeBertTrace));
    std::vector<SimReport> locals;
    SimReport report = runTasksShared(tenants, &locals);
    report.inferences = 0;
    report.inferenceEndSeconds.clear();
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        locals[t].inferences = tenants[t].inferences;
        expandInferenceEnds(locals[t], tenants[t].shares);
        report.inferences += tenants[t].inferences;
        report.inferenceEndSeconds.insert(
            report.inferenceEndSeconds.end(),
            locals[t].inferenceEndSeconds.begin(),
            locals[t].inferenceEndSeconds.end());
    }
    if (per_tenant)
        *per_tenant = std::move(locals);
    return report;
}

SimReport
PerfSim::runDecoder(const DecoderShape &shape) const
{
    return runSingle(sliceShape(shape, synthesizeDecoderTrace));
}

SimReport
PerfSim::runTasks(
    const std::vector<std::vector<DataflowTask>> &thread_tasks) const
{
    std::vector<TenantLoad> tenants(1);
    tenants[0].threadTasks = thread_tasks;
    return runTasksShared(tenants, nullptr);
}

SimReport
PerfSim::runTasksShared(const std::vector<TenantLoad> &tenants,
                        std::vector<SimReport> *per_tenant) const
{
    PROSE_ASSERT(!tenants.empty(), "no tenants to schedule");
    const std::uint32_t tenant_count =
        static_cast<std::uint32_t>(tenants.size());

    SimReport report;
    report.tenantCount = tenant_count;
    std::vector<SimReport> locals(tenant_count);

    // Group the array instances into the three type pools. Within a
    // pool all arrays share one geometry (the configs we model never
    // mix sizes within a type), so the pool is characterized by its
    // geometry, its count, and its aggregate lane share. Every tenant
    // owns a private copy of the pools; only the link is shared.
    const std::vector<ArrayGeometry> instances = config_.instances();
    std::array<const ArrayGeometry *, 3> pool_geometry{};
    std::array<std::uint32_t, 3> pool_counts{};
    for (const auto &geom : instances) {
        const std::size_t idx = typeIndex(geom.type);
        ++pool_counts[idx];
        if (!pool_geometry[idx]) {
            pool_geometry[idx] = &geom;
        } else {
            PROSE_ASSERT(pool_geometry[idx]->dim == geom.dim,
                         "mixed array sizes within one type are not "
                         "supported by the pooled scheduler");
        }
    }
    for (std::size_t idx = 0; idx < 3; ++idx) {
        report.typeCounts[idx] = pool_counts[idx] * tenant_count;
        for (SimReport &local : locals)
            local.typeCounts[idx] = pool_counts[idx];
    }
    for (SimReport &local : locals)
        local.tenantCount = tenant_count;

    std::array<double, 3> pool_bw{};
    for (std::size_t idx = 0; idx < 3; ++idx) {
        const ArrayType type = idx == 0 ? ArrayType::M
                               : idx == 1 ? ArrayType::G
                                          : ArrayType::E;
        if (pool_counts[idx] > 0)
            pool_bw[idx] =
                config_.lanes.bandwidthFor(type, config_.link);
    }

    // Per-tenant pool availability, per-type I/O buffer mutexes, and
    // host slots; shared full-duplex per-type link channels. Channel
    // holds are placed so that within one tenant they always end by
    // the owning pool's free time — a single-tenant run never waits on
    // its own channels, which is what keeps runShared({x}) bit-exact
    // against run(x) (docs/LINK_MODEL.md).
    struct TenantResources
    {
        std::array<double, 3> poolFree{ { 0.0, 0.0, 0.0 } };
        std::array<double, 3> ioFree{ { 0.0, 0.0, 0.0 } };
        std::vector<double> hostFree;
    };
    std::vector<TenantResources> resources(tenant_count);
    for (TenantResources &r : resources)
        r.hostFree.assign(host_.spec().slots, 0.0);
    std::array<double, 3> link_in_free{ { 0.0, 0.0, 0.0 } };
    std::array<double, 3> link_out_free{ { 0.0, 0.0, 0.0 } };

    // Flat thread list, tenant-major: with one tenant the global index
    // is the thread index, so a single-tenant runShared() dispatches in
    // exactly run()'s order.
    struct ThreadRef
    {
        std::uint32_t tenant = 0;
        std::uint32_t local = 0;
    };
    std::vector<ThreadRef> flat;
    for (std::uint32_t ten = 0; ten < tenant_count; ++ten)
        for (std::size_t th = 0;
             th < tenants[ten].threadTasks.size(); ++th)
            flat.push_back({ ten, static_cast<std::uint32_t>(th) });

    struct ThreadState
    {
        std::size_t next = 0;
        double readyAt = 0.0;
    };
    std::vector<ThreadState> threads(flat.size());

    auto taskFor = [&](std::size_t g) -> const DataflowTask & {
        const ThreadRef &ref = flat[g];
        return tenants[ref.tenant].threadTasks[ref.local]
                                  [threads[g].next];
    };

    /** Earliest dispatch for a thread's next task under current
     *  resource state. */
    struct Candidate
    {
        double start = 0.0;
        int arrayIndex = -1;
        std::size_t hostSlot = 0;
    };
    auto candidateFor = [&](std::size_t g) {
        const ThreadState &ts = threads[g];
        const TenantResources &res = resources[flat[g].tenant];
        const DataflowTask &task = taskFor(g);
        Candidate c;
        if (task.kind == DataflowKind::Host) {
            const auto slot_it = std::min_element(res.hostFree.begin(),
                                                  res.hostFree.end());
            c.hostSlot = static_cast<std::size_t>(
                slot_it - res.hostFree.begin());
            c.start = std::max(ts.readyAt, *slot_it);
        } else {
            const ArrayType type = arrayTypeFor(task.kind);
            const std::size_t idx = typeIndex(type);
            PROSE_ASSERT(pool_counts[idx] > 0,
                         "no array provisioned for ",
                         toString(task.kind));
            c.arrayIndex = static_cast<int>(idx);
            c.start = std::max({ ts.readyAt, res.poolFree[idx],
                                 res.ioFree[idx] });
        }
        return c;
    };

    auto dispatch = [&](std::size_t g, const Candidate &c) {
        const double best_start = c.start;
        const int best_array = c.arrayIndex;
        const ThreadRef &ref = flat[g];
        ThreadState &ts = threads[g];
        TenantResources &res = resources[ref.tenant];
        SimReport &local = locals[ref.tenant];
        const DataflowTask &task = taskFor(g);
        double duration;
        double pool_end = 0.0;
        if (task.kind == DataflowKind::Host) {
            duration = host_.hostOpSeconds(task.ops.front());
            res.hostFree[c.hostSlot] = best_start + duration;
            report.hostBusySeconds += duration;
            local.hostBusySeconds += duration;
        } else {
            const std::size_t idx = static_cast<std::size_t>(best_array);
            const ArrayType type = pool_geometry[idx]->type;
            // Failover: tasks only ever map onto surviving pool
            // members, so a killed array degrades the pool's aggregate
            // compute rate instead of wedging the schedule.
            std::uint32_t alive = pool_counts[idx];
            if (options_.injector) {
                const std::uint32_t dead =
                    options_.injector->deadArrays(typeCode(type),
                                                  best_start);
                if (dead >= alive)
                    fatal("fault campaign killed every ",
                          toString(type), "-type array by t=",
                          best_start, "s; nothing left to fail over to");
                alive -= dead;
            }
            TaskCost cost;
            const TaskSeconds seconds = accelTaskSeconds(
                task, *pool_geometry[idx], alive, pool_bw[idx], cost);
            // Link-fault recovery: every faulted attempt charges its
            // detection cost (timeouts) plus exponential backoff and a
            // full re-stream/re-run of the task.
            double fault_extra = 0.0;
            if (options_.injector) {
                for (std::uint32_t attempt = 0;; ++attempt) {
                    const FaultInjector::LinkOutcome outcome =
                        options_.injector->sampleLinkTransfer(
                            typeCode(type));
                    if (!outcome.faulty())
                        break;
                    if (outcome.timeout) {
                        ++report.linkTimeouts;
                        fault_extra +=
                            config_.link.timeoutDetectSeconds;
                    } else {
                        ++report.linkTransferErrors;
                    }
                    if (attempt + 1 >= options_.retry.maxAttempts) {
                        ++report.abandonedTransfers;
                        break;
                    }
                    ++report.taskRetries;
                    fault_extra += options_.retry.delayFor(attempt) +
                                   seconds.arraySeconds;
                }
            }
            // Shared-link arbitration. The stream-in hold occupies its
            // channel from the task start; waiting on another tenant's
            // transfer only stalls the array once the prefetch queue's
            // slack — (depth - 1) chunk-compute times — is exhausted.
            double wait_in = 0.0;
            double stall_in = 0.0;
            if (seconds.streamInSeconds > 0.0) {
                const double in_start =
                    std::max(best_start, link_in_free[idx]);
                wait_in = in_start - best_start;
                link_in_free[idx] = in_start + seconds.streamInSeconds;
                stall_in = std::max(
                    0.0, wait_in - seconds.prefetchSlackSeconds);
            }
            const double occupancy =
                seconds.arraySeconds + fault_extra + stall_in;
            // The stream-out hold is the occupancy's tail: results
            // drain as the last chunks complete, and a busy out
            // channel extends the pool occupancy by the wait.
            double wait_out = 0.0;
            if (seconds.streamOutSeconds > 0.0) {
                const double nominal = best_start + occupancy -
                                       seconds.streamOutSeconds;
                const double out_start =
                    std::max(nominal, link_out_free[idx]);
                wait_out = out_start - nominal;
                link_out_free[idx] =
                    out_start + seconds.streamOutSeconds;
            }
            const double total_occupancy = occupancy + wait_out;
            duration = total_occupancy + seconds.threadExtraSeconds;
            // The dispatching thread holds the type's I/O buffer mutex
            // while it sets up the transfer; the pool is released as
            // soon as its occupancy ends (the host-softmax tail of a
            // Dataflow 3 only blocks the issuing thread).
            res.ioFree[idx] = best_start + options_.ioLockSeconds;
            res.poolFree[idx] = best_start + total_occupancy;
            pool_end = res.poolFree[idx];

            const double busy = total_occupancy * alive;
            report.typeBusySeconds[idx] += busy;
            local.typeBusySeconds[idx] += busy;
            report.retrySeconds += fault_extra;
            local.retrySeconds += fault_extra;
            report.bytesIn += cost.bytesIn;
            report.bytesOut += cost.bytesOut;
            local.bytesIn += cost.bytesIn;
            local.bytesOut += cost.bytesOut;
            report.wireBytesIn += seconds.wireBytesIn;
            report.wireBytesOut += seconds.wireBytesOut;
            local.wireBytesIn += seconds.wireBytesIn;
            local.wireBytesOut += seconds.wireBytesOut;
            report.fillSeconds += seconds.fillSeconds;
            report.drainSeconds += seconds.drainSeconds;
            local.fillSeconds += seconds.fillSeconds;
            local.drainSeconds += seconds.drainSeconds;
            report.linkWaitSeconds += wait_in + wait_out;
            local.linkWaitSeconds += wait_in + wait_out;
            report.prefetchStallSeconds += stall_in;
            local.prefetchStallSeconds += stall_in;
            report.hostBusySeconds += seconds.threadExtraSeconds;
            local.hostBusySeconds += seconds.threadExtraSeconds;
        }
        report.totalFlops += task.flops();
        local.totalFlops += task.flops();
        ++report.taskCount;
        ++local.taskCount;
        const double end = best_start + duration;
        ts.readyAt = end;
        ++ts.next;
        report.makespan = std::max(report.makespan, end);
        local.makespan = std::max(local.makespan, end);

        if (options_.recordSchedule) {
            ScheduledItem item;
            item.tenant = ref.tenant;
            item.thread = ref.local;
            item.kind = task.kind;
            item.sublayer = task.sublayer;
            item.layer = task.layer;
            item.arrayIndex = best_array;
            item.start = best_start;
            item.end = end;
            item.poolEnd = best_array >= 0 ? pool_end : end;
            report.schedule.push_back(item);
        }
    };

    auto tasksRemaining = [&](std::size_t g) {
        return threads[g].next <
               tenants[flat[g].tenant].threadTasks[flat[g].local].size();
    };

    // Dispatch policy: the next task to run is the one with the
    // earliest candidate start among threads with work left, ties going
    // to the lowest tenant-major thread index. It is implemented as a
    // lazy min-heap event queue keyed by (start, thread). Every
    // resource-free time (pool, I/O mutex, host slot, thread ready)
    // only moves forward, so a queued key is a lower bound on the
    // thread's true start: pop the minimum, recompute under current
    // state, re-queue if it moved, dispatch if it did not. The
    // lexicographic key order is the tie-break. The policy is checked
    // by replaying recorded schedules (tests/accel/schedule_oracle.hh).
    using HeapEntry = std::pair<double, std::size_t>;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>>
        queue;
    for (std::size_t g = 0; g < threads.size(); ++g) {
        if (tasksRemaining(g))
            queue.emplace(candidateFor(g).start, g);
    }
    while (!queue.empty()) {
        const auto [bound, g] = queue.top();
        queue.pop();
        const Candidate c = candidateFor(g);
        if (c.start > bound) {
            queue.emplace(c.start, g); // stale lower bound
            continue;
        }
        dispatch(g, c);
        if (tasksRemaining(g))
            queue.emplace(candidateFor(g).start, g);
    }

    report.threadFinishSeconds.reserve(threads.size());
    for (std::size_t g = 0; g < threads.size(); ++g) {
        report.threadFinishSeconds.push_back(threads[g].readyAt);
        locals[flat[g].tenant].threadFinishSeconds.push_back(
            threads[g].readyAt);
    }

    const double host_capacity =
        static_cast<double>(host_.spec().slots) * tenant_count;
    if (report.makespan > 0.0) {
        report.cpuDuty =
            std::min(1.0, report.hostBusySeconds /
                              (report.makespan * host_capacity));
    }
    for (SimReport &local : locals) {
        if (local.makespan > 0.0)
            local.cpuDuty = std::min(
                1.0, local.hostBusySeconds /
                         (local.makespan * host_.spec().slots));
    }
    if (options_.injector) {
        for (std::size_t idx = 0; idx < 3; ++idx) {
            if (report.typeCounts[idx] == 0)
                continue;
            const ArrayType type = idx == 0   ? ArrayType::M
                                   : idx == 1 ? ArrayType::G
                                              : ArrayType::E;
            report.deadArrays[idx] = std::min(
                report.typeCounts[idx],
                options_.injector->deadArrays(typeCode(type),
                                              report.makespan));
        }
    }
    if (per_tenant)
        *per_tenant = std::move(locals);
    return report;
}

} // namespace prose
