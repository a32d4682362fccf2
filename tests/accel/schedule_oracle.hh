/**
 * @file
 * Test oracle for PerfSim's dispatch policy: at every step the
 * scheduler dispatches the task with the earliest candidate start among
 * threads with work left, ties going to the lowest tenant-major thread
 * index. A thread's candidate start is the latest of its own ready time
 * and the free times of what its next task needs — the type pool and
 * I/O buffer mutex for an accelerator task, the earliest-free host slot
 * for a host task — all per tenant.
 *
 * The oracle replays a recorded schedule (SimOptions::recordSchedule)
 * in dispatch order and rebuilds every free time from the recorded
 * items alone: pool free from `poolEnd`, I/O mutex free from
 * `start + ioLockSeconds`, host slot and thread ready from `end`. It
 * therefore checks the policy without a second scheduler and without
 * any hook in the simulator; durations, link arbitration and fault
 * recovery are taken as recorded.
 */

#ifndef PROSE_TESTS_ACCEL_SCHEDULE_ORACLE_HH
#define PROSE_TESTS_ACCEL_SCHEDULE_ORACLE_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "accel/perf_sim.hh"

namespace prose {

/**
 * Replay `report.schedule` against the dispatch policy.
 *
 * @param io_lock_seconds the run's SimOptions::ioLockSeconds
 * @param host_slots the run's host slot count per tenant
 */
inline ::testing::AssertionResult
scheduleFollowsPolicy(const SimReport &report, double io_lock_seconds,
                      std::size_t host_slots)
{
    const std::vector<ScheduledItem> &items = report.schedule;
    if (items.size() != report.taskCount) {
        return ::testing::AssertionFailure()
               << "schedule records " << items.size() << " items for "
               << report.taskCount << " tasks";
    }

    // A thread walks its task chain in order, so its recorded items, in
    // dispatch order, are its chain. std::map iterates (tenant, thread)
    // keys in tenant-major order, the policy's tie-break order.
    using ThreadKey = std::pair<std::uint32_t, std::uint32_t>;
    struct ThreadState
    {
        std::vector<std::size_t> chain; ///< indices into items
        std::size_t next = 0;
        double readyAt = 0.0;
    };
    std::map<ThreadKey, ThreadState> threads;
    for (std::size_t i = 0; i < items.size(); ++i)
        threads[{ items[i].tenant, items[i].thread }].chain.push_back(i);

    struct TenantResources
    {
        std::array<double, 3> poolFree{ { 0.0, 0.0, 0.0 } };
        std::array<double, 3> ioFree{ { 0.0, 0.0, 0.0 } };
        std::vector<double> hostFree;
    };
    std::vector<TenantResources> resources(report.tenantCount);
    for (TenantResources &r : resources)
        r.hostFree.assign(host_slots, 0.0);

    auto candidateStart = [&](const ThreadKey &key,
                              const ThreadState &ts) {
        const ScheduledItem &task = items[ts.chain[ts.next]];
        const TenantResources &r = resources[key.first];
        if (task.arrayIndex < 0)
            return std::max(ts.readyAt, *std::min_element(
                                            r.hostFree.begin(),
                                            r.hostFree.end()));
        const auto idx = static_cast<std::size_t>(task.arrayIndex);
        return std::max({ ts.readyAt, r.poolFree[idx], r.ioFree[idx] });
    };

    double last_end = 0.0;
    for (std::size_t step = 0; step < items.size(); ++step) {
        const ScheduledItem &item = items[step];
        if (item.tenant >= resources.size()) {
            return ::testing::AssertionFailure()
                   << "step " << step << ": tenant " << item.tenant
                   << " of " << resources.size();
        }

        const ThreadKey *pick = nullptr;
        double pick_start = 0.0;
        for (const auto &[key, ts] : threads) {
            if (ts.next == ts.chain.size())
                continue;
            const double start = candidateStart(key, ts);
            if (!pick || start < pick_start) {
                pick = &key;
                pick_start = start;
            }
        }
        const ThreadKey dispatched{ item.tenant, item.thread };
        if (*pick != dispatched) {
            return ::testing::AssertionFailure()
                   << "step " << step << ": dispatched tenant "
                   << item.tenant << " thread " << item.thread
                   << " at " << item.start << ", but tenant "
                   << pick->first << " thread " << pick->second
                   << " could start at " << pick_start;
        }
        if (item.start != pick_start) {
            return ::testing::AssertionFailure()
                   << "step " << step << ": recorded start "
                   << item.start << " != candidate start " << pick_start;
        }

        TenantResources &r = resources[item.tenant];
        if (item.arrayIndex < 0) {
            *std::min_element(r.hostFree.begin(), r.hostFree.end()) =
                item.end;
        } else {
            const auto idx = static_cast<std::size_t>(item.arrayIndex);
            r.poolFree[idx] = item.poolEnd;
            r.ioFree[idx] = item.start + io_lock_seconds;
        }
        ThreadState &ts = threads[dispatched];
        ts.readyAt = item.end;
        ++ts.next;
        last_end = std::max(last_end, item.end);
    }
    if (last_end != report.makespan) {
        return ::testing::AssertionFailure()
               << "makespan " << report.makespan
               << " != latest recorded end " << last_end;
    }
    return ::testing::AssertionSuccess();
}

} // namespace prose

#endif // PROSE_TESTS_ACCEL_SCHEDULE_ORACLE_HH
