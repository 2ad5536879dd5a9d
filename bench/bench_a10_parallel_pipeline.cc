/**
 * @file
 * Ablation **A10**: capture-level parallelism on the capture->match
 * hot path.
 *
 * Sweeps the thread-pool size over {1, 2, 4, 8} and runs the full
 * image-domain pipeline (extractTemplate -> batch match against
 * every enrolled view) over an identical, pre-captured workload at
 * each thread count. The kernels inside one operation run serially;
 * independent operations run concurrently, one pool task each —
 * the same single level of parallelism fleet channels use. Reports
 * ops/sec and p50/p95 per-op latency, verifies the determinism
 * contract (match decisions and scores must be bitwise identical at
 * every thread count), and writes the results to
 * BENCH_parallel.json.
 *
 * Expected shape: per-op latency flat across thread counts and
 * throughput rising with the core count, flat beyond it.
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/csv.hh"
#include "core/parallel.hh"
#include "core/rng.hh"
#include "fingerprint/capture.hh"
#include "fingerprint/enhance.hh"
#include "fingerprint/pipeline.hh"
#include "fingerprint/synthesis.hh"

namespace core = trust::core;
namespace fp = trust::fingerprint;

namespace {

constexpr int kThreadSweep[] = {1, 2, 4, 8};
constexpr int kOpsPerConfig = 64;
constexpr int kWarmupOps = 3;
constexpr int kEnrollFingers = 4;
constexpr int kViewsPerFinger = 3;

/** One timed operation's observable outcome (for determinism). */
struct OpOutcome
{
    bool extracted = false;
    std::size_t minutiae = 0;
    std::vector<char> accepted;   ///< Per enrolled view.
    std::vector<double> scores;   ///< Per enrolled view.

    bool operator==(const OpOutcome &o) const = default;
};

/** Latency/throughput stats for one thread-count configuration. */
struct ConfigStats
{
    int threads = 0;
    double opsPerSec = 0.0;
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double meanMs = 0.0;
    std::vector<OpOutcome> outcomes;
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

/** The fixed workload: enrolled views plus pre-captured queries. */
struct Workload
{
    std::vector<fp::FingerprintTemplate> views;
    std::vector<fp::FingerprintImage> queries;
};

Workload
buildWorkload()
{
    Workload w;
    core::Rng rng(20260807);
    std::vector<fp::MasterFinger> fingers;
    for (int f = 0; f < kEnrollFingers; ++f)
        fingers.push_back(fp::synthesizeFinger(100 + f, rng));

    // Enrollment: image-domain extraction per view, indexes prebuilt
    // (as FlockModule::enrollFinger does) so the timed loop measures
    // query-side work only.
    for (const auto &finger : fingers) {
        for (int v = 0; v < kViewsPerFinger; ++v) {
            for (int attempt = 0; attempt < 16; ++attempt) {
                fp::CaptureConditions cc;
                cc.windowRows = 96;
                cc.windowCols = 96;
                cc.pressure = 0.95;
                cc.noiseSigma = 0.02;
                const auto impression =
                    fp::captureImpression(finger, cc, rng);
                auto tpl = fp::extractTemplate(impression);
                if (tpl && tpl->minutiae.size() >= 8) {
                    (void)tpl->pairIndex();
                    w.views.push_back(std::move(*tpl));
                    break;
                }
            }
        }
    }

    // Queries: a genuine/impostor mix under natural tap conditions,
    // captured once so every thread count sees identical inputs.
    const auto stranger = fp::synthesizeFinger(999, rng);
    for (int i = 0; i < kOpsPerConfig; ++i) {
        const auto &finger =
            i % 3 == 2 ? stranger : fingers[i % kEnrollFingers];
        const auto cc = fp::sampleTouchConditions(96, 96, 0.1, rng);
        w.queries.push_back(fp::captureImpression(finger, cc, rng));
    }
    return w;
}

/** Run one op: extract a template and batch-match it. */
OpOutcome
runOp(const Workload &w, const fp::FingerprintImage &query)
{
    OpOutcome out;
    const auto tpl = fp::extractTemplate(query);
    if (!tpl)
        return out;
    out.extracted = true;
    out.minutiae = tpl->minutiae.size();
    const auto results = fp::matchTemplatesBatch(w.views, tpl->minutiae);
    out.accepted.reserve(results.size());
    out.scores.reserve(results.size());
    for (const auto &r : results) {
        out.accepted.push_back(r.accepted ? 1 : 0);
        out.scores.push_back(r.score);
    }
    return out;
}

ConfigStats
sweepConfig(const Workload &w, int threads)
{
    ConfigStats stats;
    stats.threads = threads;
    trust::core::setParallelThreads(threads);

    for (int i = 0; i < kWarmupOps; ++i)
        (void)runOp(w, w.queries[i % w.queries.size()]);

    const auto n = static_cast<int>(w.queries.size());
    std::vector<double> latencies(w.queries.size());
    stats.outcomes.resize(w.queries.size());
    const auto sweep0 = std::chrono::steady_clock::now();
    core::parallelFor(0, n, 1, [&](int b, int e) {
        for (int i = b; i < e; ++i) {
            const auto slot = static_cast<std::size_t>(i);
            const auto t0 = std::chrono::steady_clock::now();
            stats.outcomes[slot] = runOp(w, w.queries[slot]);
            latencies[slot] =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
        }
    });
    const double total = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - sweep0)
                             .count();

    stats.opsPerSec =
        total > 0.0 ? static_cast<double>(latencies.size()) / total : 0.0;
    for (const double l : latencies)
        stats.meanMs += l;
    stats.meanMs /= static_cast<double>(latencies.size());
    std::sort(latencies.begin(), latencies.end());
    stats.p50Ms = percentile(latencies, 0.50);
    stats.p95Ms = percentile(latencies, 0.95);
    return stats;
}

void
writeJson(const std::vector<ConfigStats> &sweep, bool identical,
          double speedup4)
{
    trust::benchutil::writeBenchJson(
        "BENCH_parallel.json", "a10_parallel_pipeline",
        [&](core::obs::JsonWriter &w) {
            w.kv("hardware_threads",
                 static_cast<std::uint64_t>(
                     std::thread::hardware_concurrency()));
            w.kv("ops_per_config", kOpsPerConfig);
            w.kv("enrolled_views", kEnrollFingers * kViewsPerFinger);
            w.kv("identical_decisions", identical);
            w.kv("speedup_4t_vs_1t", speedup4);
            w.key("results");
            w.beginArray();
            for (const auto &s : sweep) {
                w.beginObject();
                w.kv("threads", s.threads);
                w.kv("ops_per_sec", s.opsPerSec);
                w.kv("p50_ms", s.p50Ms);
                w.kv("p95_ms", s.p95Ms);
                w.kv("mean_ms", s.meanMs);
                w.endObject();
            }
            w.endArray();
        });
}

void
runSweep()
{
    std::printf("=== A10: thread sweep over concurrent capture->match "
                "operations ===\n");
    std::printf("hardware threads available: %u\n\n",
                std::thread::hardware_concurrency());

    fp::clearGaborKernelCache();
    const Workload w = buildWorkload();
    std::printf("workload: %zu enrolled views, %zu pre-captured "
                "queries (96x96)\n",
                w.views.size(), w.queries.size());

    std::vector<ConfigStats> sweep;
    for (const int threads : kThreadSweep)
        sweep.push_back(sweepConfig(w, threads));
    trust::core::setParallelThreads(0); // back to auto

    bool identical = true;
    for (const auto &s : sweep)
        identical = identical && s.outcomes == sweep.front().outcomes;

    const double speedup4 = sweep[0].opsPerSec > 0.0
                                ? sweep[2].opsPerSec / sweep[0].opsPerSec
                                : 0.0;

    core::Table table(
        {"threads", "ops/sec", "p50", "p95", "mean", "speedup"});
    for (const auto &s : sweep) {
        table.addRow({std::to_string(s.threads),
                      core::Table::num(s.opsPerSec, 2),
                      core::Table::num(s.p50Ms, 2) + " ms",
                      core::Table::num(s.p95Ms, 2) + " ms",
                      core::Table::num(s.meanMs, 2) + " ms",
                      core::Table::num(s.opsPerSec /
                                           sweep.front().opsPerSec,
                                       2) +
                          "x"});
    }
    table.print();

    std::printf("\nmatch decisions/scores identical across thread "
                "counts: %s\n",
                identical ? "yes" : "NO (determinism violation)");
    std::printf("gabor kernel cache: %zu banks, %zu bytes\n",
                fp::gaborKernelCacheBankCount(),
                fp::gaborKernelCacheSize());
    std::printf("speedup at 4 threads vs 1: %.2fx on %u hardware "
                "threads\n",
                speedup4, std::thread::hardware_concurrency());
    writeJson(sweep, identical, speedup4);
}

void
BM_PipelineOp(benchmark::State &state)
{
    static const Workload w = buildWorkload();
    std::size_t i = 0;
    for (auto _ : state) {
        auto out = runOp(w, w.queries[i++ % w.queries.size()]);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_PipelineOp)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    const auto obs_opts = trust::benchutil::parseObsFlags(argc, argv);
    runSweep();
    std::printf("\n");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    trust::benchutil::writeObsOutputs(obs_opts);
    return 0;
}
