/**
 * @file
 * Metrics registry: named counters, gauges and histograms.
 *
 * The registry is a name-keyed store of plain values behind one
 * mutex. Every update (add / set / observe) takes that mutex once,
 * finds or creates the named value and applies the update under the
 * same lock; there are no handles to cache. Counters live in a
 * core::CounterSet, gauges in a map of doubles and histograms as
 * core::Histogram values, so reporting reuses the stats machinery
 * directly. reset() zeroes every value but keeps every name, so an
 * export after a reset lists the same keys as before it.
 *
 * Snapshots export to JSON (via JsonWriter) and to the existing
 * core::Table/CSV helpers for bench output.
 */

#ifndef TRUST_CORE_OBS_METRICS_HH
#define TRUST_CORE_OBS_METRICS_HH

#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "core/csv.hh"
#include "core/stats.hh"

namespace trust::core::obs {

/** One (key, value) label pair; rendered as name{k=v,k2=v2}. */
using Label = std::pair<std::string_view, std::string_view>;

/** Registry of named counters, gauges and histograms. */
class MetricsRegistry
{
  public:
    /** Add @p delta to a counter (created at zero on first use). */
    void add(std::string_view name,
             std::initializer_list<Label> labels = {},
             std::uint64_t delta = 1);

    /** Set a gauge; the last write wins. */
    void set(std::string_view name,
             std::initializer_list<Label> labels, double value);

    /**
     * Record @p x in a histogram. The (lo, hi, bins) layout is fixed
     * by the first caller and a later mismatched layout panics (two
     * call sites disagreeing about one metric is a bug, not a
     * runtime condition).
     */
    void observe(std::string_view name, double lo, double hi, int bins,
                 double x);

    /** Current counter value (0 if never added to). */
    std::uint64_t counter(std::string_view name,
                          std::initializer_list<Label> labels = {}) const;

    /** Current gauge value (0 if never set). */
    double gauge(std::string_view name,
                 std::initializer_list<Label> labels = {}) const;

    /** Copy of a histogram, or nullopt if never observed. */
    std::optional<Histogram> histogram(std::string_view name) const;

    /** Zero every value, keeping every name. */
    void reset();

    /** Export everything as a JSON document. */
    std::string toJson() const;

    /** Export scalar instruments as a (metric, value) table. */
    Table toTable() const;

    /** Canonical flattened key, e.g. "net/sent{dir=up}". */
    static std::string flatten(std::string_view name,
                               std::initializer_list<Label> labels);

  private:
    mutable std::mutex mutex_;
    CounterSet counters_;
    std::map<std::string, double, std::less<>> gauges_;
    std::map<std::string, Histogram, std::less<>> histograms_;
};

} // namespace trust::core::obs

#endif // TRUST_CORE_OBS_METRICS_HH
