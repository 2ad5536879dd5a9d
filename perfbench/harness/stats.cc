#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/** 0-based nearest-rank index of quantile @p q among @p n samples. */
std::size_t
rankIndex(std::size_t n, double q)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n) - 1;
}

} // namespace

std::optional<double>
percentile(std::vector<double> samples, double q)
{
    const std::size_t n = samples.size();
    if (n == 0)
        return std::nullopt;
    const std::size_t index = rankIndex(n, q);
    if (n - 1 - index < kMinTailSamples)
        return std::nullopt;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(index),
                     samples.end());
    return samples[index];
}

std::size_t
samplesNeeded(double q)
{
    std::size_t n = kMinTailSamples + 1;
    while (n - 1 - rankIndex(n, q) < kMinTailSamples)
        ++n;
    return n;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t mid = samples.size() / 2;
    return samples.size() % 2 ? samples[mid]
                              : 0.5 * (samples[mid - 1] + samples[mid]);
}

void
OpCounts::record(bool completed, const DeviceTally &before,
                 const DeviceTally &after)
{
    ++attempted;
    if (completed)
        return;
    ++failed;
    if (after.retryExhausted > before.retryExhausted ||
        after.errorReplies > before.errorReplies ||
        after.busyReplies > before.busyReplies)
        ++hardFailed;
}

OpCounts &
OpCounts::operator+=(const OpCounts &other)
{
    attempted += other.attempted;
    failed += other.failed;
    hardFailed += other.hardFailed;
    return *this;
}

double
OpCounts::failedRatio() const
{
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
}

} // namespace perfbench
