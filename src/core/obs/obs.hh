/**
 * @file
 * Observability facade: one process-wide metrics registry, span
 * tracer and decision audit log, behind one runtime switch.
 *
 * **Runtime switch.** Observability is OFF by default and turned on
 * with setEnabled(true). `enabledFast()` is a single relaxed atomic
 * load, so the disabled cost in the fingerprint hot path is one
 * predictable branch per site guarded by
 * `if (obs::enabledFast())`, and TRUST_SPAN does nothing further.
 *
 * **Clocks.** Two related time sources:
 *  - `simNow()` is the installed Ecosystem event queue's time, or 0
 *    when none is live. The audit log uses ONLY this, keeping a
 *    seeded run's log byte-identical across hosts and thread
 *    counts.
 *  - `now()` is a hybrid for the tracer: anchored to sim time, but
 *    advancing with the steady clock *within* one sim instant, so
 *    pipeline stages that all run at a single sim tick still render
 *    as nested slices with real widths in Perfetto.
 */

#ifndef TRUST_CORE_OBS_OBS_HH
#define TRUST_CORE_OBS_OBS_HH

#include <atomic>
#include <string>
#include <string_view>

#include "core/obs/audit.hh"
#include "core/obs/metrics.hh"
#include "core/obs/trace.hh"
#include "core/sim_clock.hh"

namespace trust::core::obs {

namespace detail {
extern std::atomic<bool> g_runtimeEnabled;
} // namespace detail

/** @{ @name Singletons (constructed on first use, never destroyed). */
MetricsRegistry &metrics();
SpanTracer &tracer();
AuditLog &audit();
/** @} */

/** Turn runtime collection on or off (default: off). */
void setEnabled(bool on);

/**
 * The hot-path guard: one relaxed atomic load. Instrumentation sites
 * write `if (obs::enabledFast()) { ... }`.
 */
inline bool
enabledFast()
{
    return detail::g_runtimeEnabled.load(std::memory_order_relaxed);
}

/**
 * Install / clear the simulation clock feeding simNow() and now().
 * The Ecosystem installs itself on construction and clears on
 * destruction; pass nullptr to clear.
 */
void setClockSource(const EventQueue *clock);

/** Raw simulated time (0 when no clock is installed). */
Tick simNow();

/** Hybrid trace time: sim anchor + steady-clock delta within a
 *  sim instant; pure steady clock when no sim clock is installed. */
Tick now();

/** Reset metrics, drop trace events and clear the audit log. */
void resetAll();

/**
 * RAII per-channel capture for deterministic parallel simulation.
 *
 * While alive, the *calling thread's* obs::simNow() reads @p clock
 * (instead of the global clock source) and obs::audit() resolves to
 * @p sink (instead of the process-wide log). The fleet runner
 * installs one of these around each channel's serial sub-simulation
 * so that concurrently executing channels stamp records with their
 * own sim time into their own buffers; a post-run merge sorted by
 * (tick, channel, per-channel seq) then rebuilds one global log
 * whose bytes are independent of the worker-thread count.
 *
 * Overrides nest per thread (the previous override is restored on
 * destruction). A null @p sink leaves audit() on the global log; a
 * null @p clock leaves simNow() on the global clock source.
 */
class ScopedChannelObs
{
  public:
    ScopedChannelObs(const EventQueue *clock, AuditLog *sink);
    ~ScopedChannelObs();

    ScopedChannelObs(const ScopedChannelObs &) = delete;
    ScopedChannelObs &operator=(const ScopedChannelObs &) = delete;

  private:
    const EventQueue *prevClock_;
    AuditLog *prevSink_;
};

/**
 * RAII span: opens a tracer span on construction, closes it on
 * destruction and feeds the duration into the `span/<name>_ms`
 * histogram metric. Free when observability is disabled.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(std::string_view name)
    {
        if (!enabledFast())
            return;
        active_ = true;
        name_ = name;
        start_ = now();
        tracer().beginSpan(name);
    }

    ~ScopedSpan()
    {
        if (!active_)
            return;
        tracer().endSpan();
        const Tick end = now();
        const Tick dur = end > start_ ? end - start_ : 0;
        std::string key("span/");
        key += name_;
        key += "_ms";
        metrics().observe(key, 0.0, 100.0, 200, toMilliseconds(dur));
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    bool active_ = false;
    std::string_view name_;
    Tick start_ = 0;
};

} // namespace trust::core::obs

#define TRUST_OBS_CONCAT2(a, b) a##b
#define TRUST_OBS_CONCAT(a, b) TRUST_OBS_CONCAT2(a, b)

/** Open a named span covering the rest of the enclosing scope. */
#define TRUST_SPAN(name)                                               \
    ::trust::core::obs::ScopedSpan TRUST_OBS_CONCAT(trustSpan_,        \
                                                    __LINE__)(name)

#endif // TRUST_CORE_OBS_OBS_HH
