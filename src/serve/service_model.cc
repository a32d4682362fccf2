#include "service_model.hh"

#include "common/logging.hh"

namespace prose {

ServiceModel::ServiceModel(ProseConfig config, BertShape model,
                           double dispatch_overhead_seconds)
    : config_(std::move(config)), model_(model),
      dispatchOverheadSeconds_(dispatch_overhead_seconds)
{
    config_.validate();
    PROSE_ASSERT(dispatchOverheadSeconds_ >= 0.0,
                 "negative dispatch overhead");
}

double
ServiceModel::seconds(std::uint64_t padded_len,
                      std::uint64_t batch) const
{
    return sharedSeconds(padded_len, batch, 1).seconds;
}

SharedServiceSeconds
ServiceModel::sharedSeconds(std::uint64_t padded_len,
                            std::uint64_t batch,
                            std::uint32_t tenants) const
{
    PROSE_ASSERT(tenants > 0, "shared service query with zero tenants");
    PROSE_ASSERT(padded_len > 0 && batch > 0,
                 "service query for an empty batch");
    const auto key = std::make_tuple(padded_len, batch, tenants);
    const auto it = cache_.find(key);
    if (it != cache_.end())
        return it->second;
    BertShape shape = model_;
    shape.seqLen = padded_len;
    shape.batch = batch;
    // One tenant is PerfSim::run bit for bit, with a zero link wait.
    const SimReport combined =
        PerfSim(config_).runShared(std::vector<BertShape>(tenants, shape));
    SharedServiceSeconds shared;
    // All tenants run the same shape, but arbitration order makes the
    // slots finish at slightly different times; charge the worst one.
    shared.seconds = combined.makespan + dispatchOverheadSeconds_;
    shared.linkWaitSeconds =
        combined.linkWaitSeconds / static_cast<double>(tenants);
    cache_.emplace(key, shared);
    return shared;
}

double
ServiceModel::capacityPerSecond(std::uint64_t padded_len,
                                std::uint64_t batch,
                                std::uint32_t instances) const
{
    PROSE_ASSERT(instances > 0, "capacity of zero instances");
    return static_cast<double>(batch * instances) /
           seconds(padded_len, batch);
}

} // namespace prose
