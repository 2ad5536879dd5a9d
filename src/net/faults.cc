#include "net/faults.hh"

#include <algorithm>

#include "core/obs/obs.hh"

namespace trust::net {

namespace {

/** Metrics + audit + trace-instant for one injected fault. */
void
noteFault(const char *kind, const Message &message)
{
    if (!core::obs::enabledFast())
        return;
    core::obs::metrics().add("net/fault", {{"kind", kind}});
    core::obs::audit().record("net", "fault",
                              {{"fault", kind},
                               {"from", message.from},
                               {"to", message.to}});
    core::obs::tracer().instant("net/fault", {{"kind", kind}});
}

} // namespace

FaultModel::FaultModel(std::uint64_t seed, FaultConfig config)
    : rng_(seed), config_(config)
{
}

void
FaultModel::schedulePartition(core::Tick start, core::Tick duration)
{
    partitions_.push_back({start, start + duration});
}

bool
FaultModel::partitionedAt(core::Tick now) const
{
    return std::any_of(partitions_.begin(), partitions_.end(),
                       [now](const Partition &p) {
                           return now >= p.start && now < p.end;
                       });
}

FaultDecision
FaultModel::onSend(Message &message, core::Tick now)
{
    FaultDecision decision;

    if (partitionedAt(now)) {
        ++partitionDropped_;
        noteFault("partition-drop", message);
        decision.drop = true;
        return decision;
    }
    if (rng_.chance(config_.dropRate)) {
        ++dropped_;
        noteFault("drop", message);
        decision.drop = true;
        return decision;
    }

    if (config_.corruptRate > 0.0 && !message.payload.empty() &&
        rng_.chance(config_.corruptRate)) {
        const int flips = static_cast<int>(
            rng_.uniformInt(1, std::max(1, config_.corruptMaxFlips)));
        for (int i = 0; i < flips; ++i) {
            const auto byte = static_cast<std::size_t>(rng_.uniformInt(
                0,
                static_cast<std::int64_t>(message.payload.size()) - 1));
            message.payload[byte] ^= static_cast<std::uint8_t>(
                1u << rng_.uniformInt(0, 7));
        }
        ++corrupted_;
        noteFault("corrupt", message);
        decision.corrupted = true;
    }

    if (config_.latencySpikeRate > 0.0 &&
        rng_.chance(config_.latencySpikeRate)) {
        decision.spikeDelay = 1 + static_cast<core::Tick>(rng_.uniformInt(
            0,
            static_cast<std::int64_t>(
                std::max<core::Tick>(1, config_.latencySpikeMax) - 1)));
        ++spiked_;
        noteFault("latency-spike", message);
    }

    if (config_.reorderRate > 0.0 && rng_.chance(config_.reorderRate)) {
        decision.reorderDelay = 1 + static_cast<core::Tick>(rng_.uniformInt(
            0,
            static_cast<std::int64_t>(
                std::max<core::Tick>(1, config_.reorderDelayMax) - 1)));
        ++reordered_;
        noteFault("reorder", message);
    }

    if (config_.duplicateRate > 0.0 &&
        rng_.chance(config_.duplicateRate)) {
        decision.duplicates.push_back(
            1 + static_cast<core::Tick>(rng_.uniformInt(
                0,
                static_cast<std::int64_t>(
                    std::max<core::Tick>(1, config_.duplicateDelayMax) -
                    1))));
        ++duplicated_;
        noteFault("duplicate", message);
    }
    return decision;
}

} // namespace trust::net
