/** @file Span tracer: nesting, async spans, instants, the Chrome
 *  trace_event export and its hardened reader, and the TRUST_SPAN
 *  RAII macro behind the runtime switch. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/obs/obs.hh"
#include "core/obs/trace.hh"
#include "core/rng.hh"
#include "tests/support/fuzz.hh"

namespace {

namespace obs = trust::core::obs;
using obs::parseChromeTrace;
using obs::SpanTracer;
using obs::TracePhase;
using trust::core::Rng;

TEST(ObsTrace, CompleteSpansNestAndClose)
{
    SpanTracer tracer;
    tracer.beginSpan("outer");
    tracer.beginSpan("inner");
    tracer.endSpan();
    tracer.endSpan();

    const auto events = tracer.snapshot();
    ASSERT_EQ(events.size(), 2u);
    // Spans are recorded at close time: innermost first.
    EXPECT_EQ(events[0].name, "inner");
    EXPECT_EQ(events[1].name, "outer");
    EXPECT_EQ(events[0].phase, TracePhase::Complete);
    EXPECT_EQ(events[1].phase, TracePhase::Complete);
    // The inner span starts no earlier and lasts no longer.
    EXPECT_GE(events[0].ts, events[1].ts);
    EXPECT_LE(events[0].ts + events[0].dur,
              events[1].ts + events[1].dur);
    EXPECT_EQ(tracer.openDepth(), 0u);
    EXPECT_EQ(tracer.unbalancedEnds(), 0u);
}

TEST(ObsTrace, UnbalancedEndIsCountedNotFatal)
{
    SpanTracer tracer;
    tracer.endSpan();
    tracer.endSpan();
    EXPECT_EQ(tracer.unbalancedEnds(), 2u);
    EXPECT_EQ(tracer.eventCount(), 0u);

    // The tracer still works afterwards.
    tracer.beginSpan("x");
    tracer.endSpan();
    EXPECT_EQ(tracer.eventCount(), 1u);
}

TEST(ObsTrace, AsyncSpansAndInstants)
{
    SpanTracer tracer;
    tracer.asyncBegin("device/exchange", 0xABCD,
                      {{"domain", "www.bank.com"}});
    tracer.instant("device/retransmit", {{"attempt", "2"}});
    tracer.asyncEnd("device/exchange", 0xABCD,
                    {{"result", "login-page"}});

    const auto events = tracer.snapshot();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].phase, TracePhase::AsyncBegin);
    EXPECT_EQ(events[1].phase, TracePhase::Instant);
    EXPECT_EQ(events[2].phase, TracePhase::AsyncEnd);
    EXPECT_EQ(events[0].id, 0xABCDu);
    EXPECT_EQ(events[2].id, 0xABCDu);
    ASSERT_EQ(events[0].args.size(), 1u);
    EXPECT_EQ(events[0].args[0].first, "domain");
}

TEST(ObsTrace, ChromeJsonExportRoundTrips)
{
    SpanTracer tracer;
    tracer.beginSpan("fp/extract");
    tracer.beginSpan("fp/enhance");
    tracer.endSpan();
    tracer.endSpan();
    tracer.instant("net/fault", {{"kind", "drop"}});
    tracer.asyncBegin("op", 7);
    tracer.asyncEnd("op", 7);

    const std::string json = tracer.toChromeJson();
    const auto lite = parseChromeTrace(json);
    ASSERT_TRUE(lite.has_value());
    ASSERT_EQ(lite->size(), 5u);

    auto phaseOf = [&](const std::string &name) {
        for (const auto &e : *lite)
            if (e.name == name)
                return e.phase;
        return std::string();
    };
    EXPECT_EQ(phaseOf("fp/extract"), "X");
    EXPECT_EQ(phaseOf("fp/enhance"), "X");
    EXPECT_EQ(phaseOf("net/fault"), "i");
    // Async pair: one "b" and one "e" named "op".
    int b = 0, e = 0;
    for (const auto &ev : *lite)
        if (ev.name == "op")
            (ev.phase == "b" ? b : e) += 1;
    EXPECT_EQ(b, 1);
    EXPECT_EQ(e, 1);
}

TEST(ObsTrace, ChromeReaderRejectsMalformedDocuments)
{
    EXPECT_FALSE(parseChromeTrace("").has_value());
    EXPECT_FALSE(parseChromeTrace("[]").has_value());
    EXPECT_FALSE(parseChromeTrace("{\"traceEvents\": 3}").has_value());
    EXPECT_FALSE(
        parseChromeTrace("{\"traceEvents\": [{\"ph\": \"X\"}]}")
            .has_value()); // missing name/ts
    EXPECT_FALSE(
        parseChromeTrace(
            "{\"traceEvents\": [{\"name\": 1, \"ph\": \"X\", "
            "\"ts\": 0}]}")
            .has_value()); // name must be a string
    EXPECT_TRUE(
        parseChromeTrace("{\"traceEvents\": []}").has_value());
}

TEST(ObsTrace, ChromeReaderSurvivesFuzzSweeps)
{
    SpanTracer tracer;
    for (int i = 0; i < 8; ++i) {
        tracer.beginSpan("s");
        tracer.instant("p", {{"i", std::to_string(i)}});
        tracer.endSpan();
    }
    const std::string json = tracer.toChromeJson();
    ASSERT_TRUE(parseChromeTrace(json).has_value());

    trust::testing::truncationSweep(json, [](const std::string &cut) {
        (void)parseChromeTrace(cut);
    });
    Rng rng(6161);
    trust::testing::bitFlipSweep(
        json, rng,
        [](const std::string &flipped) {
            (void)parseChromeTrace(flipped);
        },
        256);
}

TEST(ObsTrace, ClearDropsEventsButKeepsOpenSpans)
{
    SpanTracer tracer;
    tracer.beginSpan("a");
    tracer.instant("p");
    EXPECT_EQ(tracer.eventCount(), 1u);
    tracer.clear();
    EXPECT_EQ(tracer.eventCount(), 0u);
    // The span opened before clear() still closes cleanly.
    tracer.endSpan();
    EXPECT_EQ(tracer.eventCount(), 1u);
    EXPECT_EQ(tracer.unbalancedEnds(), 0u);
}

TEST(ObsTrace, ScopedSpanHonoursRuntimeSwitch)
{
    obs::resetAll();
    obs::setEnabled(false);
    {
        TRUST_SPAN("off/span");
    }
    EXPECT_EQ(obs::tracer().eventCount(), 0u);

    obs::setEnabled(true);
    {
        TRUST_SPAN("on/span");
    }
    obs::setEnabled(false);

    EXPECT_EQ(obs::tracer().eventCount(), 1u);
    EXPECT_EQ(obs::tracer().snapshot()[0].name, "on/span");
    // The RAII span also feeds the span-duration histogram.
    const auto h = obs::metrics().histogram("span/on/span_ms");
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->total(), 1u);
    EXPECT_FALSE(obs::metrics().histogram("span/off/span_ms"));
    obs::resetAll();
}

} // namespace
