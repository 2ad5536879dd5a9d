#include "core/stats.hh"

#include <algorithm>
#include <cmath>

#include "core/logging.hh"

namespace trust::core {

void
RunningStat::add(double x)
{
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (n_ == 1) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
}

void
RunningStat::merge(const RunningStat &o)
{
    if (o.n_ == 0)
        return;
    if (n_ == 0) {
        *this = o;
        return;
    }
    const double delta = o.mean_ - mean_;
    const std::uint64_t n = n_ + o.n_;
    m2_ += o.m2_ + delta * delta *
           (static_cast<double>(n_) * static_cast<double>(o.n_)) /
           static_cast<double>(n);
    mean_ = (mean_ * static_cast<double>(n_) +
             o.mean_ * static_cast<double>(o.n_)) / static_cast<double>(n);
    n_ = n;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
}

double
RunningStat::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo, double hi, int bins)
    : lo_(lo), hi_(hi), binWidth_((hi - lo) / bins),
      counts_(static_cast<std::size_t>(bins), 0)
{
    TRUST_ASSERT(hi > lo, "Histogram: hi must exceed lo");
    TRUST_ASSERT(bins > 0, "Histogram: need at least one bin");
}

void
Histogram::add(double x)
{
    ++total_;
    sum_ += x;
    if (x < lo_) {
        ++underflow_;
        return;
    }
    if (x >= hi_) {
        ++overflow_;
        return;
    }
    auto bin = static_cast<std::size_t>((x - lo_) / binWidth_);
    if (bin >= counts_.size()) // numeric edge at hi_
        bin = counts_.size() - 1;
    ++counts_[bin];
}

bool
Histogram::sameLayout(const Histogram &o) const
{
    return lo_ == o.lo_ && hi_ == o.hi_ &&
           counts_.size() == o.counts_.size();
}

void
Histogram::merge(const Histogram &o)
{
    TRUST_ASSERT(sameLayout(o),
                 "Histogram::merge: incompatible bin layouts");
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += o.counts_[i];
    underflow_ += o.underflow_;
    overflow_ += o.overflow_;
    total_ += o.total_;
    sum_ += o.sum_;
}

double
Histogram::binLo(int bin) const
{
    return lo_ + binWidth_ * bin;
}

double
Histogram::quantile(double q) const
{
    q = std::clamp(q, 0.0, 1.0);
    const std::uint64_t in_range = total_ - underflow_ - overflow_;
    if (in_range == 0)
        return lo_;
    const double target = q * static_cast<double>(in_range);
    double cum = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const double next = cum + static_cast<double>(counts_[i]);
        if (next >= target && counts_[i] > 0) {
            const double frac =
                (target - cum) / static_cast<double>(counts_[i]);
            return binLo(static_cast<int>(i)) + frac * binWidth_;
        }
        cum = next;
    }
    return hi_;
}

void
CounterSet::bump(const std::string &name, std::uint64_t delta)
{
    counters_[name] += delta;
}

void
CounterSet::zero()
{
    for (auto &[name, value] : counters_)
        value = 0;
}

std::uint64_t
CounterSet::get(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

} // namespace trust::core
