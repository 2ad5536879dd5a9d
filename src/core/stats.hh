/**
 * @file
 * Statistics accumulators used by the benchmark harness and the
 * identity-risk bookkeeping: streaming mean/variance, histograms,
 * and named counter sets.
 */

#ifndef TRUST_CORE_STATS_HH
#define TRUST_CORE_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace trust::core {

/**
 * Streaming mean / variance / min / max accumulator
 * (Welford's algorithm; numerically stable).
 */
class RunningStat
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const RunningStat &o);

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Sample variance (n-1 denominator); 0 if fewer than 2 samples. */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return sum_; }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/** Fixed-range histogram with uniform bins plus under/overflow. */
class Histogram
{
  public:
    /** Bins partition [lo, hi) uniformly into @p bins buckets. */
    Histogram(double lo, double hi, int bins);

    /** Add an observation (routed to under/overflow if outside). */
    void add(double x);

    /**
     * Merge another histogram into this one. Requires an identical
     * bin layout (same lo, hi and bin count); panics otherwise.
     * Merging is associative and commutative: any grouping of
     * per-thread partials yields the same totals.
     */
    void merge(const Histogram &o);

    /** True when @p o has the same (lo, hi, bins) layout. */
    bool sameLayout(const Histogram &o) const;

    int bins() const { return static_cast<int>(counts_.size()); }
    double lo() const { return lo_; }
    double hi() const { return hi_; }
    std::uint64_t count(int bin) const { return counts_.at(bin); }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t total() const { return total_; }
    /** Sum of every observation, under/overflow included. */
    double sum() const { return sum_; }

    /** Lower edge of a bin. */
    double binLo(int bin) const;

    /**
     * Value below which the given fraction of observations fall
     * (linear interpolation within the bin; ignores under/overflow).
     */
    double quantile(double q) const;

  private:
    double lo_;
    double hi_;
    double binWidth_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
    double sum_ = 0.0;
};

/** A named set of integer counters (simulation event bookkeeping). */
class CounterSet
{
  public:
    /** Increment @p name by @p delta (creating it at zero). */
    void bump(const std::string &name, std::uint64_t delta = 1);

    /** Current value (0 if never bumped). */
    std::uint64_t get(const std::string &name) const;

    /** All counters in name order. */
    const std::map<std::string, std::uint64_t> &all() const
    {
        return counters_;
    }

    /** Reset every counter to zero. */
    void clear() { counters_.clear(); }

    /** Zero every counter but keep its name listed in all(). */
    void zero();

  private:
    std::map<std::string, std::uint64_t> counters_;
};

} // namespace trust::core

#endif // TRUST_CORE_STATS_HH
