#include "core/obs/obs.hh"

#include <chrono>
#include <mutex>

namespace trust::core::obs {

namespace detail {
std::atomic<bool> g_runtimeEnabled{false};
} // namespace detail

namespace {

std::atomic<const EventQueue *> g_clock{nullptr};

// Per-thread channel overrides (see ScopedChannelObs): a fleet
// worker thread running one channel's serial sub-simulation reads
// that channel's event queue and records into that channel's
// buffer, leaving the global clock/log untouched.
thread_local const EventQueue *t_channelClock = nullptr;
thread_local AuditLog *t_channelAudit = nullptr;

// Hybrid-clock anchor: the last sim tick we saw, and the steady
// clock reading when we first saw it. Guarded by a mutex; now() is
// only reached when observability is runtime-enabled.
std::mutex g_anchorMutex;
Tick g_lastSim = 0;
// trustlint: allow(determinism) -- hybrid-clock anchor; affects span widths only, never auth decisions
std::chrono::steady_clock::time_point g_lastWall{};
bool g_anchored = false;

Tick
steadyNs()
{
    return static_cast<Tick>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            // trustlint: allow(determinism) -- wall-clock fallback for spans when no simulation is live
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

MetricsRegistry &
metrics()
{
    static MetricsRegistry *instance = new MetricsRegistry();
    return *instance;
}

SpanTracer &
tracer()
{
    static SpanTracer *instance = new SpanTracer();
    return *instance;
}

AuditLog &
audit()
{
    if (t_channelAudit)
        return *t_channelAudit;
    static AuditLog *instance = new AuditLog();
    return *instance;
}

void
setEnabled(bool on)
{
    detail::g_runtimeEnabled.store(on, std::memory_order_relaxed);
}

void
setClockSource(const EventQueue *clock)
{
    g_clock.store(clock, std::memory_order_release);
    std::lock_guard<std::mutex> lock(g_anchorMutex);
    g_anchored = false;
    g_lastSim = 0;
}

Tick
simNow()
{
    if (t_channelClock)
        return t_channelClock->now();
    const EventQueue *clock = g_clock.load(std::memory_order_acquire);
    return clock ? clock->now() : 0;
}

Tick
now()
{
    // Inside a channel capture, spans anchor to raw channel sim
    // time with no wall-clock interpolation: the hybrid anchor is
    // global state and mixing channel clocks through it would
    // interleave unrelated timelines.
    if (t_channelClock)
        return t_channelClock->now();
    const EventQueue *clock = g_clock.load(std::memory_order_acquire);
    // trustlint: allow(determinism) -- sub-tick span interpolation; trace timing only, never decisions
    const auto wall = std::chrono::steady_clock::now();
    if (!clock) {
        // No simulation live (unit tests, micro-benchmarks): fall
        // back to the raw steady clock so spans still have widths.
        return steadyNs();
    }
    const Tick sim = clock->now();
    std::lock_guard<std::mutex> lock(g_anchorMutex);
    if (!g_anchored || sim != g_lastSim) {
        g_anchored = true;
        g_lastSim = sim;
        g_lastWall = wall;
        return sim;
    }
    const auto delta =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            wall - g_lastWall)
            .count();
    return sim + static_cast<Tick>(delta > 0 ? delta : 0);
}

ScopedChannelObs::ScopedChannelObs(const EventQueue *clock,
                                   AuditLog *sink)
    : prevClock_(t_channelClock), prevSink_(t_channelAudit)
{
    if (clock)
        t_channelClock = clock;
    if (sink)
        t_channelAudit = sink;
}

ScopedChannelObs::~ScopedChannelObs()
{
    t_channelClock = prevClock_;
    t_channelAudit = prevSink_;
}

void
resetAll()
{
    metrics().reset();
    tracer().clear();
    audit().clear();
}

} // namespace trust::core::obs
