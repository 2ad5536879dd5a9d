/**
 * @file
 * The benchmark's workloads and the metrics they report.
 *
 * browse  — steady-state continuous authentication: warm servers,
 *           long click sessions, 4 worker threads.
 * onboard — new users at newly started services: each round starts
 *           fresh servers and devices; registration, login and a few
 *           clicks are timed at 1 worker thread (cold page caches).
 * recover — a restart under live sessions: servers with a durable
 *           background population crash, recover their stores, restart
 *           and keep serving the devices' sessions.
 *
 * All are closed loops: every device waits for its reply before its
 * next action. Every server has a TrustStore with the default
 * StorePolicy. browse and onboard crash and restart their servers
 * after the timed phase, so recovery time is reported for the state
 * every workload leaves behind.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hh"

namespace perfbench {

/** Size and threading of one workload. */
struct WorkloadShape
{
    int devices = 0;      ///< Device channels (per round on onboard).
    int servers = 0;
    int threads = 1;      ///< Worker threads while serving.
    int clicks = 0;       ///< Clicks per device per round / cycle.
    int warmupClicks = 0; ///< Untimed clicks after login (set-up).
    int population = 0;   ///< Background accounts per server.
    int restarts = 0;     ///< Crash/restarts after the timed phase.
};

/** Shape of workload @p name (throws on an unknown name). */
WorkloadShape workloadShape(const std::string &name, int nproc);

/** Workload names, in BENCHMARK.json order. */
std::vector<std::string> workloadNames();

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Samples behind a percentile or median (0 = not a sample). */
    std::size_t samples = 0;
};

/** What one run reports. */
struct RunReport
{
    bool correct = true;
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Percentiles refused for too few samples (name: reason). */
    std::vector<std::string> refused;
    std::vector<std::string> notes;
    std::vector<std::vector<Span>> spanLogs;
};

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    int nproc = 1;
};

/** Run one workload: set-up, gate, timed phase, checks, metrics. */
RunReport runWorkload(const RunOptions &options);

/** End-to-end metric names, in output order. */
std::vector<std::string> endToEndMetricNames();

/** Per-layer metric names, in output order. */
std::vector<std::string> perLayerMetricNames();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
