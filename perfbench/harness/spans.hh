/**
 * @file
 * In-memory wall-clock spans for the served-request benchmark.
 *
 * The benchmark wraps every call it makes into a layer — a user
 * interaction, the server dispatch nested inside it, a set-up step,
 * a store recovery — in a Span timed with std::chrono::steady_clock.
 * A SpanLog belongs to one thread of execution at a time (one fleet
 * channel, or the main thread), so recording takes no lock; logs are
 * merged when the run ends. Simulated ticks (core::obs) are never
 * used: they measure the model, not the host.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock (origin is arbitrary). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** One recorded span. */
struct Span
{
    const char *name = ""; ///< Static string literal.
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span in the same log, or -1. */
    std::int32_t parent = -1;
    /** Id shared by every span of one user interaction (0 = none). */
    std::uint64_t interaction = 0;

    std::int64_t durationNs() const { return endNs - startNs; }
};

/**
 * Append-only span log with an open-span stack. Spans close in LIFO
 * order; a span opened while another is open becomes its child.
 */
class SpanLog
{
  public:
    /** Open a span; returns its index for close(). */
    std::int32_t open(const char *name, std::uint64_t interaction = 0);

    /** Close the innermost open span, which must be @p index. */
    void close(std::int32_t index);

    /** Record an already-measured span (no nesting). */
    void add(const char *name, std::int64_t start_ns,
             std::int64_t end_ns, std::uint64_t interaction = 0);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
};

/**
 * Self time of every span in @p spans: its duration minus the part
 * of it that its direct children cover. Children of one parent never
 * overlap (one log is one thread), so that part is their sum.
 */
std::vector<std::int64_t> selfTimesNs(const std::vector<Span> &spans);

/**
 * Accounting check of interaction/dispatch traces:
 * |Σ self(interaction) + Σ dispatch − Σ interaction| / Σ interaction,
 * summed over any number of logs. Non-zero when a dispatch ran
 * outside every interaction or a span was left open.
 */
struct Closure
{
    double interactionNs = 0.0;
    double interactionSelfNs = 0.0;
    double dispatchNs = 0.0;

    /** Add one log (parent indices are relative to it). */
    void add(const std::vector<Span> &spans,
             std::string_view interaction_name,
             std::string_view dispatch_name);

    /** The closure error; 0 before any interaction was added. */
    double error() const;
};

/** Write @p spans as JSON lines (one object per span). */
bool writeSpans(const std::string &path,
                const std::vector<std::vector<Span>> &logs);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
