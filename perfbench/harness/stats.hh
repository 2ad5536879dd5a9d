/**
 * @file
 * Sample statistics and operation accounting for the benchmark.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/** Fewest samples a reported percentile must have above it. */
inline constexpr std::size_t kMinTailSamples = 10;

/**
 * Nearest-rank percentile (q in (0, 1)) of @p samples, or nullopt
 * when fewer than kMinTailSamples samples lie above the chosen rank:
 * such a percentile is one outlier away from any value, so it is
 * never reported.
 */
std::optional<double> percentile(std::vector<double> samples, double q);

/** Samples needed before percentile(·, q) is reported. */
std::size_t samplesNeeded(double q);

/** Median (mean of the middle pair for even counts); 0 if empty. */
double median(std::vector<double> samples);

/** Snapshot of the device counters an operation's fate is read from. */
struct DeviceTally
{
    std::uint64_t retryExhausted = 0;
    std::uint64_t errorReplies = 0;
    std::uint64_t busyReplies = 0;
    std::uint64_t retransmits = 0;
};

/**
 * Operation accounting. Operations are registration attempts, login
 * attempts and page requests. An attempt that did not complete
 * counts as failed — including a confirmation touch FLock rejected,
 * which the user has to repeat. Hard failures are the subset the
 * network or server caused: retry exhaustion, ErrorReply, ServerBusy.
 */
struct OpCounts
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t hardFailed = 0;

    /** Record one attempt from the tallies around it. */
    void record(bool completed, const DeviceTally &before,
                const DeviceTally &after);

    OpCounts &operator+=(const OpCounts &other);

    /** failed / attempted (0 when nothing was attempted). */
    double failedRatio() const;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
