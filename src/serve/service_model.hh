/**
 * @file
 * Cached batch service-time model. The serving layer needs "how long
 * will a batch of K sequences padded to length L take on one instance"
 * at every admission / batch-close decision; answering with a full
 * PerfSim discrete-event run each time would make the front end
 * quadratic in stream length. One instance of this class memoizes the
 * PerfSim makespan per (padded length, batch size, link tenants) — a
 * few dozen distinct shapes for any bucket config — so the first query
 * per shape pays the simulation and the rest are a map lookup. PerfSim
 * itself is deterministic, so the cache is too.
 */

#ifndef PROSE_SERVE_SERVICE_MODEL_HH
#define PROSE_SERVE_SERVICE_MODEL_HH

#include <cstdint>
#include <map>
#include <tuple>
#include <utility>

#include "accel/perf_sim.hh"
#include "accel/prose_config.hh"
#include "trace/dataflow.hh"

namespace prose {

/** Service time of a batch on an instance whose link is shared. */
struct SharedServiceSeconds
{
    /** Worst-tenant batch duration (conservative: every co-tenant of
     *  the host runs the same shape concurrently). */
    double seconds = 0.0;
    /** Mean per-tenant link arbitration wait inside that duration. */
    double linkWaitSeconds = 0.0;
};

/** Deterministic per-batch latency oracle for one instance type. */
class ServiceModel
{
  public:
    /**
     * @param config the instance every batch runs on
     * @param model the served model's shape (batch/seqLen overridden
     *              per query)
     * @param dispatch_overhead fixed batch-close + DMA-descriptor cost
     *        added to every batch
     */
    ServiceModel(ProseConfig config, BertShape model,
                 double dispatch_overhead_seconds = 2e-5);

    /** Service seconds for `batch` sequences padded to `padded_len`:
     *  sharedSeconds(padded_len, batch, 1).seconds. */
    double seconds(std::uint64_t padded_len, std::uint64_t batch) const;

    /**
     * Service seconds when `tenants` identical instances contend for
     * one physical link (PerfSim::runShared under the hood; see
     * docs/LINK_MODEL.md). tenants == 1 is PerfSim::run with a zero
     * link wait. Memoized per (padded length, batch, tenants).
     */
    SharedServiceSeconds sharedSeconds(std::uint64_t padded_len,
                                       std::uint64_t batch,
                                       std::uint32_t tenants) const;

    /**
     * Steady-state capacity estimate in requests/second for a stream of
     * `padded_len`-token requests batched at `batch` across `instances`
     * healthy instances. The chaos drills use this to pin offered load
     * at a utilization fraction.
     */
    double capacityPerSecond(std::uint64_t padded_len,
                             std::uint64_t batch,
                             std::uint32_t instances) const;

    /** Distinct shapes simulated so far (test/diagnostic hook). */
    std::size_t cachedShapes() const { return cache_.size(); }

    const ProseConfig &config() const { return config_; }
    const BertShape &model() const { return model_; }

  private:
    ProseConfig config_;
    BertShape model_;
    double dispatchOverheadSeconds_;
    /** (padded length, batch, tenants) -> service time; seconds() is
     *  the one-tenant entry. Ordered map: deterministic iteration if
     *  anyone ever reports the cache. */
    mutable std::map<
        std::tuple<std::uint64_t, std::uint64_t, std::uint32_t>,
        SharedServiceSeconds>
        cache_;
};

} // namespace prose

#endif // PROSE_SERVE_SERVICE_MODEL_HH
