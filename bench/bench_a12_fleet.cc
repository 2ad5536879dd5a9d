/**
 * @file
 * Ablation **A12**: fleet-scale TRUST serving on the sharded
 * concurrent server.
 *
 * Builds a fleet of independent device↔server channels bound
 * round-robin to a small set of shared, thread-safe WebServers,
 * then sweeps the worker-thread count over {1, 2, 4, 8, 16} running
 * the identical fleet workload (same seed → same per-channel
 * simulations) at each setting. Reports aggregate requests/sec and
 * p50/p99 server-dispatch latency, verifies the determinism
 * contract (every channel's protocol outcome must be identical at
 * every thread count), and writes BENCH_fleet.json.
 *
 * Expected shape: near-linear throughput scaling to the physical
 * core count — channels share no state except the sharded server
 * tables, so contention is limited to per-shard mutexes and the
 * (cached) crypto contexts. On a single-core host the sweep
 * degenerates to the serial path at every setting and the
 * determinism check is the load-bearing result.
 *
 * Flags: --devices=N --servers=N --clicks=N (default 128/4/3).
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/csv.hh"
#include "core/parallel.hh"
#include "crypto/csprng.hh"
#include "crypto/mont_cache.hh"
#include "trust/fleet.hh"

namespace core = trust::core;
namespace proto = trust::trust;

namespace {

constexpr int kThreadSweep[] = {1, 2, 4, 8, 16};

struct FleetFlags
{
    int devices = 128;
    int servers = 4;
    int clicks = 3;
};

/** One channel's observable protocol outcome (for determinism). */
struct ChannelDecision
{
    bool registered = false;
    bool loggedIn = false;
    int pages = 0;
    int rejected = 0;
    std::uint64_t messages = 0;
    core::Tick simEnd = 0;

    bool operator==(const ChannelDecision &o) const = default;
};

struct ConfigStats
{
    int threads = 0;
    double wallSec = 0.0;
    double requestsPerSec = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    std::uint64_t dispatches = 0;
    int sessionsOk = 0;
    std::vector<ChannelDecision> decisions;
};

double
percentile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

/**
 * Per-dispatch wall-clock timing, collected per channel. Channel
 * handlers run serially within a channel, so index-addressed slots
 * need no locking even while channels execute concurrently.
 */
struct LatencyCollector
{
    std::vector<std::chrono::steady_clock::time_point> starts;
    std::vector<std::vector<double>> perChannelMs;

    explicit LatencyCollector(int channels)
        : starts(static_cast<std::size_t>(channels)),
          perChannelMs(static_cast<std::size_t>(channels))
    {
    }

    proto::FleetHooks
    hooks()
    {
        proto::FleetHooks h;
        h.beforeDispatch = [this](int channel) {
            starts[static_cast<std::size_t>(channel)] =
                std::chrono::steady_clock::now();
        };
        h.afterDispatch = [this](int channel) {
            const auto i = static_cast<std::size_t>(channel);
            perChannelMs[i].push_back(
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - starts[i])
                    .count());
        };
        return h;
    }

    std::vector<double>
    merged() const
    {
        std::vector<double> all;
        for (const auto &channel : perChannelMs)
            all.insert(all.end(), channel.begin(), channel.end());
        std::sort(all.begin(), all.end());
        return all;
    }
};

ConfigStats
sweepConfig(const FleetFlags &flags, int threads)
{
    ConfigStats stats;
    stats.threads = threads;
    core::setParallelThreads(threads);

    proto::FleetConfig config;
    config.seed = 4242;
    config.devices = flags.devices;
    config.servers = flags.servers;
    config.clicks = flags.clicks;

    LatencyCollector latencies(flags.devices);
    proto::Fleet fleet(config, latencies.hooks());

    const auto t0 = std::chrono::steady_clock::now();
    const proto::FleetResult result = fleet.run();
    stats.wallSec = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

    stats.dispatches = result.dispatches;
    stats.sessionsOk = result.sessionsOk;
    stats.requestsPerSec =
        stats.wallSec > 0.0
            ? static_cast<double>(result.dispatches) / stats.wallSec
            : 0.0;
    const std::vector<double> sorted = latencies.merged();
    stats.p50Ms = percentile(sorted, 0.50);
    stats.p99Ms = percentile(sorted, 0.99);

    stats.decisions.reserve(result.channels.size());
    for (const auto &channel : result.channels) {
        stats.decisions.push_back(
            {channel.outcome.registered, channel.outcome.loggedIn,
             channel.outcome.pagesReceived,
             channel.outcome.requestsRejected, channel.messages,
             channel.simEnd});
    }
    return stats;
}

void
writeJson(const FleetFlags &flags,
          const std::vector<ConfigStats> &sweep, bool identical,
          double speedup8)
{
    trust::benchutil::writeBenchJson(
        "BENCH_fleet.json", "a12_fleet",
        [&](core::obs::JsonWriter &w) {
            w.kv("hardware_threads",
                 static_cast<std::uint64_t>(
                     std::thread::hardware_concurrency()));
            w.kv("devices", flags.devices);
            w.kv("servers", flags.servers);
            w.kv("clicks", flags.clicks);
            w.kv("identical_decisions", identical);
            w.kv("speedup_8t_vs_1t", speedup8);
            w.kv("mont_cache_hits",
                 trust::crypto::montgomeryCacheHits());
            w.kv("mont_cache_misses",
                 trust::crypto::montgomeryCacheMisses());
            w.key("results");
            w.beginArray();
            for (const auto &s : sweep) {
                w.beginObject();
                w.kv("threads", s.threads);
                w.kv("requests_per_sec", s.requestsPerSec);
                w.kv("p50_ms", s.p50Ms);
                w.kv("p99_ms", s.p99Ms);
                w.kv("wall_s", s.wallSec);
                w.kv("dispatches", s.dispatches);
                w.kv("sessions_ok", s.sessionsOk);
                w.endObject();
            }
            w.endArray();
        });
}

void
runSweep(const FleetFlags &flags)
{
    std::printf("=== A12: fleet-scale serving on the sharded "
                "concurrent server ===\n");
    std::printf("hardware threads available: %u\n",
                std::thread::hardware_concurrency());
    std::printf("fleet: %d devices -> %d shared servers, %d clicks "
                "per session\n\n",
                flags.devices, flags.servers, flags.clicks);

    trust::crypto::clearMontgomeryCache();

    std::vector<ConfigStats> sweep;
    for (const int threads : kThreadSweep)
        sweep.push_back(sweepConfig(flags, threads));
    core::setParallelThreads(0); // back to auto

    bool identical = true;
    for (const auto &s : sweep)
        identical = identical && s.decisions == sweep.front().decisions;

    double speedup8 = 0.0;
    for (const auto &s : sweep) {
        if (s.threads == 8 && sweep.front().requestsPerSec > 0.0)
            speedup8 = s.requestsPerSec / sweep.front().requestsPerSec;
    }

    core::Table table({"threads", "req/sec", "p50", "p99", "wall",
                       "sessions ok", "speedup"});
    for (const auto &s : sweep) {
        table.addRow(
            {std::to_string(s.threads),
             core::Table::num(s.requestsPerSec, 1),
             core::Table::num(s.p50Ms, 3) + " ms",
             core::Table::num(s.p99Ms, 3) + " ms",
             core::Table::num(s.wallSec, 2) + " s",
             std::to_string(s.sessionsOk) + "/" +
                 std::to_string(flags.devices),
             core::Table::num(s.requestsPerSec /
                                  sweep.front().requestsPerSec,
                              2) +
                 "x"});
    }
    table.print();

    std::printf("\nchannel decisions identical across thread counts: "
                "%s\n",
                identical ? "yes" : "NO (determinism violation)");
    std::printf("montgomery context cache: %zu hits, %zu misses, %zu "
                "resident\n",
                trust::crypto::montgomeryCacheHits(),
                trust::crypto::montgomeryCacheMisses(),
                trust::crypto::montgomeryCacheSize());
    std::printf("speedup at 8 threads vs 1: %.2fx\n", speedup8);
    writeJson(flags, sweep, identical, speedup8);
}

/** Raw dispatch microbenchmark on one shared server. */
void
BM_SharedServerDispatch(benchmark::State &state)
{
    core::setParallelThreads(1);
    trust::crypto::Csprng ca_rng(7);
    trust::crypto::CertificateAuthority ca("TrustRootCA", 512,
                                           ca_rng);
    proto::WebServer server("www.bench.com", ca, 8);
    // Request id 0 is the "no id" sentinel: replies are never
    // cached, so every iteration exercises the full dispatch path.
    const core::Bytes request =
        proto::RegistrationRequest{0, "www.bench.com", "alice"}
            .serialize();
    for (auto _ : state) {
        auto reply = server.handle(request, "bench-device");
        benchmark::DoNotOptimize(reply);
    }
    core::setParallelThreads(0);
}
BENCHMARK(BM_SharedServerDispatch)->Unit(benchmark::kMillisecond);

FleetFlags
parseFleetFlags(int &argc, char **argv)
{
    FleetFlags flags;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const auto match = [&](std::string_view prefix, int &dest) {
            if (arg.substr(0, prefix.size()) != prefix)
                return false;
            dest = std::atoi(
                std::string(arg.substr(prefix.size())).c_str());
            return true;
        };
        if (match("--devices=", flags.devices) ||
            match("--servers=", flags.servers) ||
            match("--clicks=", flags.clicks))
            continue;
        argv[out++] = argv[i];
    }
    argc = out;
    flags.devices = std::max(flags.devices, 1);
    flags.servers = std::max(flags.servers, 1);
    flags.clicks = std::max(flags.clicks, 0);
    return flags;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto obs_opts = trust::benchutil::parseObsFlags(argc, argv);
    const FleetFlags flags = parseFleetFlags(argc, argv);
    runSweep(flags);
    std::printf("\n");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    trust::benchutil::writeObsOutputs(obs_opts);
    return 0;
}
