#include "net/network.hh"

#include <algorithm>

#include "core/obs/obs.hh"
#include "net/faults.hh"

namespace trust::net {

Network::Network(core::EventQueue &queue, LatencyModel latency)
    : queue_(queue), latency_(latency)
{
}

void
Network::attach(const std::string &endpoint, Handler handler)
{
    handlers_[endpoint] = std::move(handler);
}

void
Network::detach(const std::string &endpoint)
{
    handlers_.erase(endpoint);
}

void
Network::setAdversary(std::shared_ptr<Adversary> adversary)
{
    adversary_ = std::move(adversary);
}

void
Network::setFaultModel(std::shared_ptr<FaultModel> faults)
{
    faults_ = std::move(faults);
}

void
Network::scheduleDelivery(const Message &message, core::Tick delay,
                          bool fifo)
{
    core::Tick arrival = queue_.now() + delay;
    if (fifo) {
        core::Tick &floor = fifoFloor_[{message.from, message.to}];
        arrival = std::max(arrival, floor);
        floor = arrival;
    }
    queue_.scheduleAt(arrival, [this, message] { deliver(message); });
}

void
Network::send(const std::string &from, const std::string &to,
              const core::Bytes &payload)
{
    ++sent_;
    bytesSent_ += payload.size();

    Message message{from, to, payload, queue_.now()};
    if (adversary_ &&
        adversary_->onMessage(message) == Verdict::Drop) {
        if (core::obs::enabledFast())
            core::obs::metrics().add("net/dropped",
                                     {{"by", "adversary"}});
        return;
    }

    const core::Tick base = latency_.latencyFor(message.payload.size());
    if (!faults_) {
        scheduleDelivery(message, base, /*fifo=*/true);
        return;
    }

    const FaultDecision decision = faults_->onSend(message, queue_.now());
    if (decision.drop)
        return;
    if (decision.reorderDelay > 0) {
        // Held back past the FIFO floor: later channel traffic may
        // overtake. Deliberately neither clamped nor floor-raising.
        scheduleDelivery(message,
                         base + decision.spikeDelay +
                             decision.reorderDelay,
                         /*fifo=*/false);
    } else {
        scheduleDelivery(message, base + decision.spikeDelay,
                         /*fifo=*/true);
    }
    for (const core::Tick extra : decision.duplicates)
        scheduleDelivery(message, base + decision.spikeDelay + extra,
                         /*fifo=*/false);
}

void
Network::inject(const Message &message)
{
    const core::Tick delay = latency_.latencyFor(message.payload.size());
    // Attacker-injected traffic is outside the modeled FIFO path.
    scheduleDelivery(message, delay, /*fifo=*/false);
}

void
Network::deliver(const Message &message)
{
    auto it = handlers_.find(message.to);
    if (it == handlers_.end())
        return;
    ++delivered_;
    it->second(message);
}

} // namespace trust::net
