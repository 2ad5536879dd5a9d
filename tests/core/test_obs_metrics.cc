/**
 * @file
 * Metrics registry: instrument identity, labels, histogram shape
 * pinning, reset semantics and the JSON/table exports. The golden
 * test pins the exact toJson() bytes of a fixed scripted run;
 * regenerate after an intentional export change with
 *     TRUST_UPDATE_GOLDEN=1 ctest -R ObsMetrics.ScriptedRunJson
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/obs/json.hh"
#include "core/obs/metrics.hh"

namespace {

using trust::core::obs::JsonValue;
using trust::core::obs::MetricsRegistry;

TEST(ObsMetrics, CounterResolvesToStableInstrument)
{
    MetricsRegistry reg;
    EXPECT_EQ(reg.counter("net/sent"), 0u);
    reg.add("net/sent");
    reg.add("net/sent", {}, 41);
    EXPECT_EQ(reg.counter("net/sent"), 42u);
}

TEST(ObsMetrics, LabelsAreDistinctInstruments)
{
    MetricsRegistry reg;
    reg.add("net/bytes", {{"dir", "up"}}, 1);
    reg.add("net/bytes", {{"dir", "down"}}, 2);
    reg.add("net/bytes", {}, 4);
    EXPECT_EQ(reg.counter("net/bytes", {{"dir", "up"}}), 1u);
    EXPECT_EQ(reg.counter("net/bytes", {{"dir", "down"}}), 2u);
    EXPECT_EQ(reg.counter("net/bytes"), 4u);
    EXPECT_EQ(reg.counter("net/bytes{dir=up}"), 1u);

    EXPECT_EQ(MetricsRegistry::flatten("net/bytes",
                                       {{"dir", "up"}, {"k", "v"}}),
              "net/bytes{dir=up,k=v}");
    EXPECT_EQ(MetricsRegistry::flatten("net/bytes", {}), "net/bytes");
}

TEST(ObsMetrics, GaugeLastWriteWins)
{
    MetricsRegistry reg;
    EXPECT_EQ(reg.gauge("queue/depth"), 0.0);
    reg.set("queue/depth", {}, 3.0);
    reg.set("queue/depth", {}, 7.5);
    EXPECT_EQ(reg.gauge("queue/depth"), 7.5);
}

TEST(ObsMetrics, HistogramObserveAndSnapshot)
{
    MetricsRegistry reg;
    EXPECT_FALSE(reg.histogram("lat_ms").has_value());
    for (const double x : {-1.0, 0.5, 5.5, 5.6, 99.0})
        reg.observe("lat_ms", 0.0, 10.0, 10, x);

    const auto snap = reg.histogram("lat_ms");
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->total(), 5u);
    EXPECT_EQ(snap->underflow(), 1u);
    EXPECT_EQ(snap->overflow(), 1u);
    EXPECT_EQ(snap->count(0), 1u);
    EXPECT_EQ(snap->count(5), 2u);
    EXPECT_DOUBLE_EQ(snap->sum(), -1.0 + 0.5 + 5.5 + 5.6 + 99.0);
    // The in-range median lands in the [5,6) bucket.
    const double p50 = snap->quantile(0.50);
    EXPECT_GE(p50, 0.5);
    EXPECT_LE(p50, 6.0);
}

TEST(ObsMetrics, ResetZeroesButKeepsHandles)
{
    MetricsRegistry reg;
    reg.add("ops", {}, 9);
    reg.set("depth", {}, 3.0);
    reg.observe("ms", 0.0, 1.0, 4, 0.5);

    reg.reset();
    EXPECT_EQ(reg.counter("ops"), 0u);
    EXPECT_EQ(reg.gauge("depth"), 0.0);
    ASSERT_TRUE(reg.histogram("ms").has_value());
    EXPECT_EQ(reg.histogram("ms")->total(), 0u);
    EXPECT_EQ(reg.histogram("ms")->sum(), 0.0);

    // Names survive the reset: the export still lists them.
    const auto doc = JsonValue::parse(reg.toJson());
    ASSERT_TRUE(doc.has_value());
    EXPECT_NE(doc->find("counters")->find("ops"), nullptr);
    EXPECT_NE(doc->find("gauges")->find("depth"), nullptr);
    EXPECT_NE(doc->find("histograms")->find("ms"), nullptr);

    reg.add("ops", {}, 2);
    reg.observe("ms", 0.0, 1.0, 4, 0.25);
    EXPECT_EQ(reg.counter("ops"), 2u);
    EXPECT_EQ(reg.histogram("ms")->total(), 1u);
}

TEST(ObsMetrics, ToJsonIsParseableAndComplete)
{
    MetricsRegistry reg;
    reg.add("fp/extract-ok", {}, 3);
    reg.add("net/sent", {{"dir", "up"}}, 7);
    reg.set("pool/threads", {}, 4.0);
    reg.observe("span/match_ms", 0.0, 100.0, 200, 1.0);
    reg.observe("span/match_ms", 0.0, 100.0, 200, 2.0);

    const auto doc = JsonValue::parse(reg.toJson());
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->isObject());

    const JsonValue *counters = doc->find("counters");
    ASSERT_NE(counters, nullptr);
    const JsonValue *ok = counters->find("fp/extract-ok");
    ASSERT_NE(ok, nullptr);
    EXPECT_EQ(ok->asNumber(), 3.0);
    const JsonValue *labeled = counters->find("net/sent{dir=up}");
    ASSERT_NE(labeled, nullptr);
    EXPECT_EQ(labeled->asNumber(), 7.0);

    const JsonValue *gauges = doc->find("gauges");
    ASSERT_NE(gauges, nullptr);
    ASSERT_NE(gauges->find("pool/threads"), nullptr);
    EXPECT_EQ(gauges->find("pool/threads")->asNumber(), 4.0);

    const JsonValue *hists = doc->find("histograms");
    ASSERT_NE(hists, nullptr);
    const JsonValue *span = hists->find("span/match_ms");
    ASSERT_NE(span, nullptr);
    ASSERT_NE(span->find("count"), nullptr);
    EXPECT_EQ(span->find("count")->asNumber(), 2.0);
    ASSERT_NE(span->find("mean"), nullptr);
    EXPECT_NEAR(span->find("mean")->asNumber(), 1.5, 1e-6);
    for (const char *key : {"lo", "hi", "p50", "p95", "p99"})
        EXPECT_NE(span->find(key), nullptr) << key;
}

TEST(ObsMetrics, ToTableListsScalarInstruments)
{
    MetricsRegistry reg;
    reg.add("a", {}, 1);
    reg.add("b", {}, 2);
    reg.set("g", {}, 0.5);
    const auto table = reg.toTable();
    EXPECT_EQ(table.rows(), 3u);
    const std::string csv = table.toCsv();
    EXPECT_NE(csv.find("a"), std::string::npos);
    EXPECT_NE(csv.find("g"), std::string::npos);
}

TEST(ObsMetrics, HistogramShapeIsPinnedByFirstCaller)
{
    MetricsRegistry reg;
    reg.observe("ms", 0.0, 1.0, 4, 0.1);
    // Same layout accumulates into one histogram; a mismatched layout
    // is a programming error (panics) and is not exercised here.
    reg.observe("ms", 0.0, 1.0, 4, 0.6);
    const auto h = reg.histogram("ms");
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->bins(), 4);
    EXPECT_EQ(h->lo(), 0.0);
    EXPECT_EQ(h->hi(), 1.0);
    EXPECT_EQ(h->total(), 2u);
}

TEST(ObsMetrics, ConcurrentUpdatesSumExactly)
{
    constexpr int kThreads = 4;
    constexpr int kUpdates = 10000;
    MetricsRegistry reg;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&reg] {
            for (int i = 0; i < kUpdates; ++i) {
                reg.add("ops");
                reg.observe("ms", 0.0, 4.0, 4, (i % 4) + 0.5);
            }
        });
    }
    for (auto &w : workers)
        w.join();

    const std::uint64_t total = std::uint64_t{kThreads} * kUpdates;
    EXPECT_EQ(reg.counter("ops"), total);
    const auto h = reg.histogram("ms");
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->total(), total);
    for (int b = 0; b < 4; ++b)
        EXPECT_EQ(h->count(b), total / 4) << b;
    EXPECT_EQ(h->sum(), static_cast<double>(total / 4) * 8.0);
}

// A fixed script covering bare and labelled counters, gauges, a
// histogram with underflow / in-range / overflow observations, and
// reset() followed by more updates (including a new histogram).
std::string
scriptedRunJson()
{
    MetricsRegistry reg;
    reg.add("fp/extract-ok", {}, 3);
    reg.add("fp/extract-rejected", {{"stage", "enhance"}});
    reg.add("net/fault", {{"kind", "drop"}, {"dir", "up"}}, 2);
    reg.set("fp/gabor-cache-bytes", {}, 4096.0);
    reg.set("store/accounts", {{"store", "s0"}}, 12.0);
    reg.set("store/log-bytes", {{"store", "s0"}}, 0.125);
    for (const double x : {-1.0, 0.5, 3.25, 3.5, 7.0, 9.99, 10.0, 42.0})
        reg.observe("span/match_ms", 0.0, 10.0, 5, x);

    std::string out = reg.toJson() + "\n";
    reg.reset();
    out += reg.toJson() + "\n";

    reg.add("fp/extract-ok", {}, 5);
    reg.add("device/exchanges");
    reg.set("store/accounts", {{"store", "s0"}}, 13.0);
    reg.observe("span/match_ms", 0.0, 10.0, 5, 1.5);
    reg.observe("span/match_ms", 0.0, 10.0, 5, -0.5);
    reg.observe("span/idle_ms", 0.0, 1.0, 4, 0.75);
    out += reg.toJson() + "\n";
    return out;
}

TEST(ObsMetrics, ScriptedRunJsonMatchesGolden)
{
    const std::string path = std::string(TRUST_SOURCE_DIR) +
                             "/tests/golden/metrics_registry.golden";
    const std::string actual = scriptedRunJson();

    if (std::getenv("TRUST_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << path;
        out << actual;
        GTEST_SKIP() << "golden regenerated at " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden; run with TRUST_UPDATE_GOLDEN=1";
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(actual, buf.str())
        << "metrics JSON drifted from the committed golden; if the "
           "export change is intentional regenerate with "
           "TRUST_UPDATE_GOLDEN=1";
}

} // namespace
