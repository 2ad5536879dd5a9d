/**
 * @file
 * perfbench: the served-request benchmark of the TRUST/FLock
 * reproduction.
 *
 *   trust_perfbench --workload browse|onboard|recover --seed N
 *                   --seconds S --trace 0|1 [--spans-out FILE]
 *   trust_perfbench --list-metrics 0|1
 *   trust_perfbench --list-workloads 1
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * metrics of a traced run of the same workload and seed. The last
 * line of standard output is one JSON object:
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 * The exit code is non-zero when any correctness check fails.
 */

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "core/simd/simd.hh"
#include "workloads.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int
onlineCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return CPU_COUNT(&set);
    return static_cast<int>(std::thread::hardware_concurrency());
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: trust_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--spans-out FILE]\n"
                 "       trust_perfbench --list-metrics 0|1\n"
                 "       trust_perfbench --list-workloads 1\n");
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions opt;
    std::string spans_out;
    std::string list_metrics;
    bool list_workloads = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            opt.workload = value;
        else if (key == "--seed")
            opt.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--seconds")
            opt.seconds = std::strtod(value.c_str(), nullptr);
        else if (key == "--trace")
            opt.traced = value == "1";
        else if (key == "--spans-out")
            spans_out = value;
        else if (key == "--list-metrics")
            list_metrics = value;
        else if (key == "--list-workloads")
            list_workloads = value == "1";
        else {
            usage();
            return 2;
        }
    }
    if (argc % 2 == 0) {
        usage();
        return 2;
    }

    if (list_workloads) {
        for (const auto &name : perfbench::workloadNames())
            std::printf("%s\n", name.c_str());
        return 0;
    }
    if (!list_metrics.empty()) {
        const auto names = list_metrics == "1"
                               ? perfbench::perLayerMetricNames()
                               : perfbench::endToEndMetricNames();
        for (const auto &name : names)
            std::printf("%s\n", name.c_str());
        return 0;
    }

    opt.nproc = onlineCpus();
    perfbench::WorkloadShape shape;
    try {
        shape = perfbench::workloadShape(opt.workload, opt.nproc);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        usage();
        return 2;
    }
    if (!(opt.seconds > 0.0)) {
        usage();
        return 2;
    }

    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.traced ? 1 : 0);
    std::printf("host: nproc=%d worker_threads=%d setup_threads=%d "
                "build=%s simd=%s\n",
                opt.nproc, shape.threads, std::max(1, std::min(4, opt.nproc)),
                PERFBENCH_BUILD_TYPE,
                trust::core::simd::compiledBackendName());
    std::printf("shape: devices=%d servers=%d clicks=%d warmup_clicks=%d "
                "population=%d restarts=%d (closed loop)\n",
                shape.devices, shape.servers, shape.clicks,
                shape.warmupClicks, shape.population, shape.restarts);
    std::fflush(stdout);

    perfbench::RunReport report;
    try {
        report = perfbench::runWorkload(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
        return 1;
    }

    for (const auto &note : report.notes)
        std::printf("note: %s\n", note.c_str());
    for (const auto &metric : report.metrics) {
        if (!std::isfinite(metric.value)) {
            report.failures.push_back(metric.name + " is not finite");
            report.correct = false;
        }
        if (metric.samples > 0)
            std::printf("%-34s %16.6f %-6s (n=%zu)\n", metric.name.c_str(),
                        metric.value, metric.unit.c_str(), metric.samples);
        else
            std::printf("%-34s %16.6f %s\n", metric.name.c_str(),
                        metric.value, metric.unit.c_str());
    }
    for (const auto &refused : report.refused)
        std::printf("refused percentile %s\n", refused.c_str());
    for (const auto &failure : report.failures)
        std::printf("CHECK FAILED: %s\n", failure.c_str());

    if (opt.traced && !spans_out.empty() &&
        !perfbench::writeSpans(spans_out, report.spanLogs))
        std::fprintf(stderr, "perfbench: could not write %s\n",
                     spans_out.c_str());

    std::string json = "{\"correct\": ";
    json += report.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const auto &metric = report.metrics[i];
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(metric.value) ? metric.value : 0.0);
        json += (i ? ", " : "") + jsonString(metric.name) +
                ": {\"value\": " + value +
                ", \"unit\": " + jsonString(metric.unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return report.correct ? 0 : 1;
}
