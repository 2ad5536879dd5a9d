/**
 * @file
 * Self-tests of the benchmark's own code: the percentile sample-count
 * rule, self time over nested spans, closure error, and operation
 * accounting behind failed_ratio. Exits non-zero on the first failure.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "spans.hh"
#include "stats.hh"

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::printf("FAIL: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i)
        v.push_back(static_cast<double>(n - i)); // unsorted input
    return v;
}

void
testPercentileRule()
{
    using perfbench::percentile;
    expect(perfbench::samplesNeeded(0.99) == 1000,
           "p99 needs 1000 samples");
    expect(perfbench::samplesNeeded(0.50) == 20, "p50 needs 20 samples");
    expect(perfbench::samplesNeeded(0.90) == 100, "p90 needs 100 samples");

    const auto p99 = percentile(ramp(1000), 0.99);
    expect(p99.has_value() && near(*p99, 990.0),
           "p99 of 1..1000 is 990 with 10 samples beyond");
    expect(!percentile(ramp(999), 0.99).has_value(),
           "p99 of 999 samples is refused");
    const auto p50 = percentile(ramp(21), 0.50);
    expect(p50.has_value() && near(*p50, 11.0), "p50 of 1..21 is 11");
    expect(!percentile(ramp(19), 0.50).has_value(),
           "p50 of 19 samples is refused");
    expect(!percentile({}, 0.50).has_value(), "empty percentile refused");
    expect(near(perfbench::median({3.0, 1.0, 2.0, 10.0}), 2.5),
           "even-count median averages the middle pair");
}

perfbench::Span
span(const char *name, std::int64_t start, std::int64_t end,
     std::int32_t parent, std::uint64_t interaction = 1)
{
    perfbench::Span s;
    s.name = name;
    s.startNs = start;
    s.endNs = end;
    s.parent = parent;
    s.interaction = interaction;
    return s;
}

void
testSelfTime()
{
    // interaction [0,100] > dispatch [10,40] > store [15,20];
    // interaction > dispatch [50,60].
    const std::vector<perfbench::Span> spans = {
        span("interaction", 0, 100, -1), span("dispatch", 10, 40, 0),
        span("store", 15, 20, 1), span("dispatch", 50, 60, 0)};
    const auto self = perfbench::selfTimesNs(spans);
    expect(self[0] == 60, "interaction self excludes both dispatches");
    expect(self[1] == 25, "dispatch self excludes its nested child");
    expect(self[2] == 5 && self[3] == 10, "leaf self is its duration");
    perfbench::Closure closure;
    closure.add(spans, "interaction", "dispatch");
    expect(near(closure.error(), 0.0),
           "nested dispatches close the interaction exactly");
    // A second log's parent indices are its own.
    const std::vector<perfbench::Span> other = {
        span("interaction", 0, 50, -1), span("dispatch", 5, 15, 0)};
    closure.add(other, "interaction", "dispatch");
    expect(near(closure.error(), 0.0), "closure sums over separate logs");

    perfbench::Closure orphan;
    orphan.add(spans, "interaction", "dispatch");
    orphan.add({span("dispatch", 200, 210, -1, 0)}, "interaction",
               "dispatch");
    expect(near(orphan.error(), 0.1),
           "a dispatch outside every interaction shows as closure error");

    perfbench::SpanLog log;
    const auto outer = log.open("interaction", 7);
    const auto inner = log.open("dispatch", 7);
    log.close(inner);
    log.close(outer);
    expect(log.spans()[1].parent == outer, "SpanLog nests open spans");
    expect(log.spans()[0].endNs >= log.spans()[1].endNs,
           "outer span closes last");
    bool threw = false;
    const auto a = log.open("a");
    log.open("b");
    try {
        log.close(a);
    } catch (const std::logic_error &) {
        threw = true;
    }
    expect(threw, "closing out of LIFO order is rejected");
}

void
testFailedRatio()
{
    perfbench::OpCounts ops;
    const perfbench::DeviceTally clean{};
    perfbench::DeviceTally error = clean;
    error.errorReplies = 1;
    perfbench::DeviceTally exhausted = clean;
    exhausted.retryExhausted = 1;

    ops.record(true, clean, clean);       // completed
    ops.record(false, clean, clean);      // touch rejected, repeated
    ops.record(false, clean, error);      // ErrorReply
    ops.record(false, clean, exhausted);  // retry exhaustion
    ops.record(true, clean, error);       // completed after all
    expect(ops.attempted == 5, "every attempt is counted");
    expect(ops.failed == 3, "incomplete attempts are failures");
    expect(ops.hardFailed == 2, "only error/busy/exhaustion are hard");
    expect(near(ops.failedRatio(), 0.6), "failed ratio is failed/attempted");

    perfbench::OpCounts sum;
    sum += ops;
    sum += ops;
    expect(sum.attempted == 10 && sum.failed == 6, "counts add up");
    expect(near(perfbench::OpCounts{}.failedRatio(), 0.0),
           "no attempts is a zero ratio");
}

} // namespace

int
main()
{
    testPercentileRule();
    testSelfTime();
    testFailedRatio();
    if (failures == 0)
        std::printf("perfbench self-tests passed\n");
    return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
