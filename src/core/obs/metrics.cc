#include "core/obs/metrics.hh"

#include "core/logging.hh"
#include "core/obs/json.hh"

namespace trust::core::obs {

std::string
MetricsRegistry::flatten(std::string_view name,
                         std::initializer_list<Label> labels)
{
    std::string key(name);
    if (labels.size() == 0)
        return key;
    key.push_back('{');
    bool first = true;
    for (const auto &[k, v] : labels) {
        if (!first)
            key.push_back(',');
        first = false;
        key.append(k);
        key.push_back('=');
        key.append(v);
    }
    key.push_back('}');
    return key;
}

void
MetricsRegistry::add(std::string_view name,
                     std::initializer_list<Label> labels,
                     std::uint64_t delta)
{
    const std::string key = flatten(name, labels);
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.bump(key, delta);
}

void
MetricsRegistry::set(std::string_view name,
                     std::initializer_list<Label> labels, double value)
{
    std::string key = flatten(name, labels);
    std::lock_guard<std::mutex> lock(mutex_);
    gauges_.insert_or_assign(std::move(key), value);
}

void
MetricsRegistry::observe(std::string_view name, double lo, double hi,
                         int bins, double x)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_.emplace(std::string(name), Histogram(lo, hi, bins))
                 .first;
    } else if (it->second.lo() != lo || it->second.hi() != hi ||
               it->second.bins() != bins) {
        TRUST_PANIC("MetricsRegistry: histogram '" +
                    std::string(name) +
                    "' redefined with a different bin layout");
    }
    it->second.add(x);
}

std::uint64_t
MetricsRegistry::counter(std::string_view name,
                         std::initializer_list<Label> labels) const
{
    const std::string key = flatten(name, labels);
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_.get(key);
}

double
MetricsRegistry::gauge(std::string_view name,
                       std::initializer_list<Label> labels) const
{
    const std::string key = flatten(name, labels);
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = gauges_.find(key);
    return it == gauges_.end() ? 0.0 : it->second;
}

std::optional<Histogram>
MetricsRegistry::histogram(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = histograms_.find(name);
    if (it == histograms_.end())
        return std::nullopt;
    return it->second;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.zero();
    for (auto &[name, g] : gauges_)
        g = 0.0;
    for (auto &[name, h] : histograms_)
        h = Histogram(h.lo(), h.hi(), h.bins());
}

std::string
MetricsRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter w;
    w.beginObject();
    w.key("counters");
    w.beginObject();
    for (const auto &[name, c] : counters_.all())
        w.kv(name, c);
    w.endObject();
    w.key("gauges");
    w.beginObject();
    for (const auto &[name, g] : gauges_)
        w.kv(name, g);
    w.endObject();
    w.key("histograms");
    w.beginObject();
    for (const auto &[name, h] : histograms_) {
        w.key(name);
        w.beginObject();
        w.kv("lo", h.lo());
        w.kv("hi", h.hi());
        const std::uint64_t n = h.total();
        w.kv("count", n);
        w.kv("mean", n ? h.sum() / static_cast<double>(n) : 0.0, 6);
        w.kv("p50", h.quantile(0.50), 6);
        w.kv("p95", h.quantile(0.95), 6);
        w.kv("p99", h.quantile(0.99), 6);
        w.kv("underflow", h.underflow());
        w.kv("overflow", h.overflow());
        w.key("bins");
        w.beginArray();
        for (int b = 0; b < h.bins(); ++b)
            w.value(h.count(b));
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.take();
}

Table
MetricsRegistry::toTable() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Table table({"metric", "value"});
    for (const auto &[name, c] : counters_.all())
        table.addRow({name, std::to_string(c)});
    for (const auto &[name, g] : gauges_)
        table.addRow({name, Table::num(g, 4)});
    for (const auto &[name, h] : histograms_) {
        table.addRow({name + ".count", std::to_string(h.total())});
        table.addRow({name + ".p50", Table::num(h.quantile(0.5), 4)});
        table.addRow({name + ".p95", Table::num(h.quantile(0.95), 4)});
    }
    return table;
}

} // namespace trust::core::obs
