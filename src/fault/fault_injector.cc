#include "fault_injector.hh"

#include <limits>
#include <sstream>

#include "common/logging.hh"
#include "numerics/bfloat16.hh"

namespace prose {

FaultInjector::FaultInjector(CampaignSpec spec)
    : spec_(std::move(spec)), rng_(spec_.seed)
{
    spec_.validate();
    reset();
}

void
FaultInjector::reset()
{
    rng_ = Rng(spec_.seed);
    events_.clear();
    // Kills are scheduled, not sampled; log them up front so the event
    // log carries the full campaign timeline.
    for (const ArrayKill &kill : spec_.arrayKills) {
        record(FaultKind::ArrayKill,
               std::string(1, kill.typeCode) + std::to_string(kill.index),
               0, 0, 0, kill.atSeconds);
    }
    for (const InstanceKill &kill : spec_.instanceKills) {
        // Arrival-indexed kills carry the index in the site id (their
        // concrete time is only known to the serving layer).
        std::string site = "instance:";
        site += std::to_string(kill.instance);
        if (kill.atArrival >= 0) {
            site += '#';
            site += std::to_string(kill.atArrival);
        }
        record(FaultKind::InstanceKill, std::move(site), 0, 0, 0,
               kill.atSeconds);
    }
}

void
FaultInjector::record(FaultKind kind, std::string site, std::uint32_t row,
                      std::uint32_t col, std::uint32_t bit,
                      double at_seconds)
{
    FaultEvent event;
    event.seq = events_.size();
    event.kind = kind;
    event.site = std::move(site);
    event.row = row;
    event.col = col;
    event.bit = bit;
    event.atSeconds = at_seconds;
    events_.push_back(std::move(event));
}

std::size_t
FaultInjector::corruptAccumulators(const std::string &site, float *acc,
                                   std::size_t stride, std::size_t rows,
                                   std::size_t cols)
{
    PROSE_ASSERT(rows <= stride && cols <= stride,
                 "fault injection region exceeds the accumulator array");
    std::size_t corrupted = 0;

    if (spec_.accFlipRate > 0.0) {
        const std::uint32_t bit_span =
            spec_.flipBitHigh - spec_.flipBitLow + 1;
        for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t c = 0; c < cols; ++c) {
                if (rng_.uniform() >= spec_.accFlipRate)
                    continue;
                const std::uint32_t bit =
                    spec_.flipBitLow +
                    static_cast<std::uint32_t>(rng_.below(bit_span));
                float &cell = acc[r * stride + c];
                cell = flipFloatBit(cell, bit);
                record(FaultKind::AccTransientFlip, site,
                       static_cast<std::uint32_t>(r),
                       static_cast<std::uint32_t>(c), bit, -1.0);
                ++corrupted;
            }
        }
    }

    for (const StuckBitFault &stuck : spec_.stuckBits) {
        if (stuck.site != site || stuck.row >= rows || stuck.col >= cols)
            continue;
        float &cell = acc[stuck.row * stride + stuck.col];
        const float forced = setFloatBit(cell, stuck.bit, stuck.stuckHigh);
        if (forced != cell ||
            Bfloat16(forced).bits() != Bfloat16(cell).bits()) {
            cell = forced;
            record(FaultKind::AccStuckBit, site, stuck.row, stuck.col,
                   stuck.bit, -1.0);
            ++corrupted;
        }
    }
    return corrupted;
}

FaultInjector::LinkOutcome
FaultInjector::sampleLinkTransfer(char type_code)
{
    // Two draws per attempt, unconditionally, to keep the RNG stream
    // aligned no matter which faults are enabled.
    const double error_draw = rng_.uniform();
    const double timeout_draw = rng_.uniform();
    LinkOutcome outcome;
    outcome.error = error_draw < spec_.linkErrorRate;
    outcome.timeout = !outcome.error &&
                      timeout_draw < spec_.linkTimeoutRate;
    if (outcome.error) {
        record(FaultKind::LinkTransferError,
               std::string("link:") + type_code, 0, 0, 0, -1.0);
    } else if (outcome.timeout) {
        record(FaultKind::LinkTimeout, std::string("link:") + type_code,
               0, 0, 0, -1.0);
    }
    return outcome;
}

std::uint32_t
FaultInjector::deadArrays(char type_code, double now) const
{
    std::uint32_t dead = 0;
    for (const ArrayKill &kill : spec_.arrayKills) {
        if (kill.typeCode == type_code && kill.atSeconds <= now)
            ++dead;
    }
    return dead;
}

double
FaultInjector::instanceKillSeconds(std::uint32_t instance) const
{
    double earliest = std::numeric_limits<double>::infinity();
    for (const InstanceKill &kill : spec_.instanceKills) {
        if (kill.instance == instance && kill.atArrival < 0)
            earliest = std::min(earliest, kill.atSeconds);
    }
    return earliest;
}

std::uint64_t
FaultInjector::instanceKillArrival(std::uint32_t instance) const
{
    std::uint64_t earliest = kNoArrivalKill;
    for (const InstanceKill &kill : spec_.instanceKills) {
        if (kill.instance == instance && kill.atArrival >= 0)
            earliest = std::min(
                earliest, static_cast<std::uint64_t>(kill.atArrival));
    }
    return earliest;
}

std::string
FaultInjector::eventLogText() const
{
    std::ostringstream os;
    for (const FaultEvent &event : events_)
        os << event.describe() << '\n';
    return os.str();
}

} // namespace prose
