/**
 * @file
 * Ablation **A13**: portable SIMD layer plus batched multi-template
 * scoring on the fingerprint hot path.
 *
 * Runs the full capture->match pipeline single-threaded on an
 * identical pre-generated workload under a 2x2 sweep:
 *
 *   backend  in {scalar, vector}   (core::simd::setForceScalar)
 *   matching in {per-view, batched} (matchTemplate loop vs
 *                                    matchTemplatesBatch)
 *
 * so the kernel vectorization and the shared-query-pair batching
 * contribute separately to the headline speedup. Also reports a
 * per-stage latency breakdown (quality gate through matching) under
 * both backends, verifies that every mode produces bitwise identical
 * match decisions and scores (the scalar/vector bit-identity
 * contract), and writes BENCH_simd.json.
 *
 * Note the scalar-forced backend still runs the restructured SoA
 * kernels (ScalarPack emulates the 4-lane packs per lane), so the
 * backend axis isolates only the true vector-issue width; the >=5x
 * acceptance target of this PR is measured against the
 * pre-restructure seed via bench_a10's trajectory. Batching removes
 * the per-view query-pair rebuild. On a host whose compiled backend
 * is scalar the two backends coincide and the decision check is the
 * load-bearing result.
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/csv.hh"
#include "core/rng.hh"
#include "core/simd/simd.hh"
#include "fingerprint/capture.hh"
#include "fingerprint/enhance.hh"
#include "fingerprint/matcher.hh"
#include "fingerprint/minutiae.hh"
#include "fingerprint/pipeline.hh"
#include "fingerprint/quality.hh"
#include "fingerprint/skeleton.hh"
#include "fingerprint/synthesis.hh"

namespace core = trust::core;
namespace fp = trust::fingerprint;
namespace simd = trust::core::simd;

namespace {

constexpr int kOpsPerConfig = 32;
constexpr int kWarmupOps = 3;
constexpr int kEnrollFingers = 4;
constexpr int kViewsPerFinger = 3;
constexpr int kStageReps = 4;

/** One timed operation's observable outcome (for determinism). */
struct OpOutcome
{
    bool extracted = false;
    std::size_t minutiae = 0;
    std::vector<char> accepted; ///< Per enrolled view.
    std::vector<double> scores; ///< Per enrolled view.

    bool operator==(const OpOutcome &o) const = default;
};

/** Stats for one (backend, matching-mode) configuration. */
struct ModeStats
{
    std::string backend;
    std::string matching;
    double opsPerSec = 0.0;
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double meanMs = 0.0;
    std::vector<OpOutcome> outcomes;
};

/** Per-stage mean latency (ms/op) under one backend. */
struct StageBreakdown
{
    std::string backend;
    std::vector<std::pair<std::string, double>> stages;
    double totalMs = 0.0;
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

    const auto stranger = fp::synthesizeFinger(999, rng);
    for (int i = 0; i < kOpsPerConfig; ++i) {
        const auto &finger =
            i % 3 == 2 ? stranger : fingers[i % kEnrollFingers];
        const auto cc = fp::sampleTouchConditions(96, 96, 0.1, rng);
        w.queries.push_back(fp::captureImpression(finger, cc, rng));
    }
    return w;
}

/** Run one op: extract, then score against every enrolled view. */
OpOutcome
runOp(const Workload &w, const fp::FingerprintImage &query, bool batched)
{
    OpOutcome out;
    const auto tpl = fp::extractTemplate(query);
    if (!tpl)
        return out;
    out.extracted = true;
    out.minutiae = tpl->minutiae.size();
    out.accepted.reserve(w.views.size());
    out.scores.reserve(w.views.size());
    if (batched) {
        const auto results =
            fp::matchTemplatesBatch(w.views, tpl->minutiae);
        for (const auto &r : results) {
            out.accepted.push_back(r.accepted ? 1 : 0);
            out.scores.push_back(r.score);
        }
    } else {
        for (const auto &view : w.views) {
            const auto r = fp::matchTemplate(view, tpl->minutiae);
            out.accepted.push_back(r.accepted ? 1 : 0);
            out.scores.push_back(r.score);
        }
    }
    return out;
}

ModeStats
runMode(const Workload &w, bool forceScalar, bool batched)
{
    ModeStats stats;
    stats.backend = forceScalar ? "scalar" : simd::compiledBackendName();
    stats.matching = batched ? "batched" : "per-view";
    simd::setForceScalar(forceScalar);

    for (int i = 0; i < kWarmupOps; ++i)
        (void)runOp(w, w.queries[static_cast<std::size_t>(i) %
                                 w.queries.size()],
                    batched);

    std::vector<double> latencies;
    latencies.reserve(w.queries.size());
    const auto sweep0 = std::chrono::steady_clock::now();
    for (const auto &query : w.queries) {
        const auto t0 = std::chrono::steady_clock::now();
        stats.outcomes.push_back(runOp(w, query, batched));
        latencies.push_back(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count());
    }
    const double total = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - sweep0)
                             .count();
    simd::setForceScalar(false);

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

/**
 * Per-stage breakdown: the extraction pipeline unrolled into its
 * public stages, timed with steady_clock under one backend.
 */
StageBreakdown
runStages(const Workload &w, bool forceScalar)
{
    StageBreakdown b;
    b.backend = forceScalar ? "scalar" : simd::compiledBackendName();
    simd::setForceScalar(forceScalar);

    double tQuality = 0, tNorm = 0, tOrient = 0, tPeriod = 0;
    double tGabor = 0, tBin = 0, tThin = 0, tMinutiae = 0;
    double tPairs = 0, tMatch = 0;
    using Clock = std::chrono::steady_clock;
    const auto ms = [](Clock::time_point a, Clock::time_point c) {
        return std::chrono::duration<double, std::milli>(c - a).count();
    };

    for (int rep = 0; rep < kStageReps; ++rep) {
        for (const auto &cap : w.queries) {
            const auto a0 = Clock::now();
            const auto q = fp::assessQuality(cap, {});
            const auto a1 = Clock::now();
            tQuality += ms(a0, a1);
            if (q.score < 0.45)
                continue;
            fp::FingerprintImage work = cap;
            fp::normalizeImage(work);
            const auto a2 = Clock::now();
            tNorm += ms(a1, a2);
            const auto orient = fp::estimateOrientation(work);
            const auto a3 = Clock::now();
            tOrient += ms(a2, a3);
            double period = fp::estimateRidgePeriod(work, orient);
            if (period < 3 || period > 25)
                period = 9.0;
            const auto a4 = Clock::now();
            tPeriod += ms(a3, a4);
            fp::gaborEnhance(work, orient, 1.0 / period, 6, 3.0);
            const auto a5 = Clock::now();
            tGabor += ms(a4, a5);
            const auto bin = fp::binarize(work);
            const auto a6 = Clock::now();
            tBin += ms(a5, a6);
            const auto skel = fp::thin(bin);
            const auto a7 = Clock::now();
            tThin += ms(a6, a7);
            const auto minu =
                fp::extractMinutiae(skel, work.mask(), orient, {});
            const auto a8 = Clock::now();
            tMinutiae += ms(a7, a8);
            const auto qp = fp::buildQueryPairs(minu, {});
            const auto a9 = Clock::now();
            tPairs += ms(a8, a9);
            for (const auto &v : w.views)
                (void)fp::matchMinutiae(v.minutiae, *v.pairIndex(),
                                        minu, qp, {});
            const auto a10 = Clock::now();
            tMatch += ms(a9, a10);
        }
    }
    simd::setForceScalar(false);

    const double n =
        static_cast<double>(kStageReps) * static_cast<double>(
                                              w.queries.size());
    b.stages = {{"quality", tQuality / n},   {"normalize", tNorm / n},
                {"orientation", tOrient / n}, {"period", tPeriod / n},
                {"gabor", tGabor / n},        {"binarize", tBin / n},
                {"thin", tThin / n},          {"minutiae", tMinutiae / n},
                {"query-pairs", tPairs / n},  {"match", tMatch / n}};
    for (const auto &[name, v] : b.stages)
        b.totalMs += v;
    return b;
}

void
writeJson(const std::vector<ModeStats> &modes,
          const std::vector<StageBreakdown> &stages, bool identical,
          double speedup)
{
    trust::benchutil::writeBenchJson(
        "BENCH_simd.json", "a13_simd", [&](core::obs::JsonWriter &w) {
            w.kv("compiled_backend", simd::compiledBackendName());
            w.kv("active_backend", simd::activeBackendName());
            w.kv("ops_per_config", kOpsPerConfig);
            w.kv("enrolled_views", kEnrollFingers * kViewsPerFinger);
            w.kv("identical_decisions", identical);
            w.kv("speedup_simd_batched_vs_scalar_perview", speedup);
            w.key("modes");
            w.beginArray();
            for (const auto &m : modes) {
                w.beginObject();
                w.kv("backend", m.backend);
                w.kv("matching", m.matching);
                w.kv("ops_per_sec", m.opsPerSec);
                w.kv("p50_ms", m.p50Ms);
                w.kv("p95_ms", m.p95Ms);
                w.kv("mean_ms", m.meanMs);
                w.endObject();
            }
            w.endArray();
            w.key("stage_breakdown");
            w.beginArray();
            for (const auto &b : stages) {
                w.beginObject();
                w.kv("backend", b.backend);
                w.kv("total_ms", b.totalMs);
                for (const auto &[name, v] : b.stages)
                    w.kv(name.c_str(), v);
                w.endObject();
            }
            w.endArray();
        });
}

void
runSweep()
{
    std::printf("=== A13: SIMD + batched scoring on the fingerprint "
                "hot path ===\n");
    std::printf("compiled backend: %s, active backend: %s\n\n",
                simd::compiledBackendName(), simd::activeBackendName());

    fp::clearGaborKernelCache();
    const Workload w = buildWorkload();
    std::printf("workload: %zu enrolled views, %zu pre-captured "
                "queries (96x96), single-threaded\n\n",
                w.views.size(), w.queries.size());

    std::vector<ModeStats> modes;
    modes.push_back(runMode(w, /*forceScalar=*/true, /*batched=*/false));
    modes.push_back(runMode(w, true, true));
    modes.push_back(runMode(w, false, false));
    modes.push_back(runMode(w, false, true));

    bool identical = true;
    for (const auto &m : modes)
        identical = identical && m.outcomes == modes.front().outcomes;
    const double speedup = modes.front().opsPerSec > 0.0
                               ? modes.back().opsPerSec /
                                     modes.front().opsPerSec
                               : 0.0;

    core::Table table({"backend", "matching", "ops/sec", "p50", "p95",
                       "mean", "speedup"});
    for (const auto &m : modes) {
        table.addRow({m.backend, m.matching,
                      core::Table::num(m.opsPerSec, 2),
                      core::Table::num(m.p50Ms, 2) + " ms",
                      core::Table::num(m.p95Ms, 2) + " ms",
                      core::Table::num(m.meanMs, 2) + " ms",
                      core::Table::num(m.opsPerSec /
                                           modes.front().opsPerSec,
                                       2) +
                          "x"});
    }
    table.print();

    std::printf("\nmatch decisions/scores identical across all four "
                "modes: %s\n",
                identical ? "yes" : "NO (bit-identity violation)");
    std::printf("speedup, SIMD batched vs scalar-forced per-view: "
                "%.2fx (backend + batching only; both backends share "
                "the SoA kernels -- the >=5x PR target is vs the "
                "pre-restructure seed, see bench_a10)\n\n",
                speedup);

    std::vector<StageBreakdown> stages;
    stages.push_back(runStages(w, /*forceScalar=*/true));
    stages.push_back(runStages(w, false));

    core::Table stageTable({"stage", stages[0].backend + " ms",
                            stages[1].backend + " ms", "speedup"});
    for (std::size_t i = 0; i < stages[0].stages.size(); ++i) {
        const auto &[name, scalarMs] = stages[0].stages[i];
        const double vecMs = stages[1].stages[i].second;
        stageTable.addRow({name, core::Table::num(scalarMs, 3),
                           core::Table::num(vecMs, 3),
                           core::Table::num(
                               vecMs > 0.0 ? scalarMs / vecMs : 0.0, 2) +
                               "x"});
    }
    stageTable.addRow({"total", core::Table::num(stages[0].totalMs, 3),
                       core::Table::num(stages[1].totalMs, 3),
                       core::Table::num(stages[1].totalMs > 0.0
                                            ? stages[0].totalMs /
                                                  stages[1].totalMs
                                            : 0.0,
                                        2) +
                           "x"});
    stageTable.print();

    writeJson(modes, stages, identical, speedup);
}

void
BM_SimdOp(benchmark::State &state)
{
    static const Workload w = buildWorkload();
    simd::setForceScalar(state.range(0) == 0);
    std::size_t i = 0;
    for (auto _ : state) {
        auto out =
            runOp(w, w.queries[i++ % w.queries.size()], /*batched=*/true);
        benchmark::DoNotOptimize(out);
    }
    simd::setForceScalar(false);
}
BENCHMARK(BM_SimdOp)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

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
