/**
 * @file
 * Reproduces the **Fig. 9** registration protocol as measurements:
 * the latency decomposition of one device-to-account binding
 * (network round trips vs FLock crypto work vs capture), the wire
 * footprint of each message, and the protocol's robustness when the
 * network drops packets or an adversary tampers with the exchange.
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <cstdio>

#include "core/csv.hh"
#include "core/rng.hh"
#include "fingerprint/capture.hh"
#include "fingerprint/synthesis.hh"
#include "net/adversary.hh"
#include "touch/behavior.hh"
#include "trust/scenario.hh"

namespace core = trust::core;
namespace fp = trust::fingerprint;
namespace net = trust::net;
namespace touch = trust::touch;
namespace proto = trust::trust;

namespace {

void
printRegistrationStudy()
{
    std::printf("=== Fig. 9 registration: message sizes ===\n");
    core::Rng finger_rng(11);
    const auto finger = fp::synthesizeFinger(1, finger_rng);
    const auto behavior = touch::UserBehavior::forUser(
        2, {touch::homeScreenLayout(), touch::browserLayout()});

    // Drive one registration with a sniffer attached to record the
    // actual wire messages.
    proto::EcosystemConfig config;
    config.seed = 31;
    proto::Ecosystem eco(config);
    auto &server = eco.addServer("www.bank.com");
    auto &device = eco.addDevice("phone", behavior, finger);
    auto sniffer = std::make_shared<net::PassiveSniffer>();
    eco.network().setAdversary(sniffer);

    core::Rng rng(32);
    const core::Tick t0 = eco.queue().now();
    const core::Tick flock_busy0 = device.flock().busyTime();
    const auto outcome = proto::runBrowsingSession(
        eco.queue(), device, server, behavior, finger, rng, 0, "alice");
    const core::Tick elapsed = eco.queue().now() - t0;
    const core::Tick flock_busy =
        device.flock().busyTime() - flock_busy0;

    core::Table wire({"message", "direction", "bytes"});
    const char *names[] = {"RegistrationRequest", "RegistrationPage",
                           "RegistrationSubmit", "RegistrationResult",
                           "LoginRequest",        "LoginPage",
                           "LoginSubmit",         "ContentPage"};
    for (const auto &message : sniffer->captured()) {
        const auto kind = proto::peekKind(message.payload);
        if (!kind)
            continue;
        const int idx = static_cast<int>(*kind) - 1;
        if (idx < 0 || idx >= 8)
            continue;
        wire.addRow({names[idx],
                     message.to == "www.bank.com" ? "dev -> srv"
                                                  : "srv -> dev",
                     std::to_string(message.payload.size())});
    }
    wire.print();

    std::printf("\nRegistration+login outcome: registered=%d "
                "loggedIn=%d\n",
                outcome.registered, outcome.loggedIn);
    std::printf("Simulated end-to-end time: %.0f ms "
                "(network RTTs dominate)\n",
                core::toMilliseconds(elapsed));
    std::printf("FLock modeled busy time:   %.0f ms "
                "(keygen + signatures + hashes)\n",
                core::toMilliseconds(flock_busy));

    // Robustness: registration under a lossy network.
    std::printf("\n=== Robustness: registration under packet loss "
                "===\n");
    core::Table loss({"drop rate", "registered within 16 attempts"});
    for (double p : {0.0, 0.1, 0.3, 0.5}) {
        int ok = 0;
        const int runs = 10;
        for (int run = 0; run < runs; ++run) {
            proto::EcosystemConfig cfg;
            cfg.seed = 500 + static_cast<std::uint64_t>(run) * 7 +
                       static_cast<std::uint64_t>(p * 100);
            proto::Ecosystem e(cfg);
            auto &s = e.addServer("www.bank.com");
            auto &d = e.addDevice("phone", behavior, finger);
            e.network().setAdversary(std::make_shared<net::Dropper>(
                core::Rng(cfg.seed), p));
            core::Rng session_rng(cfg.seed + 1);
            const auto o = proto::runBrowsingSession(
                e.queue(), d, s, behavior, finger, session_rng, 0, "alice");
            ok += o.registered;
        }
        loss.addRow({core::Table::num(p * 100.0, 0) + " %",
                     std::to_string(ok) + "/" + std::to_string(runs)});
    }
    loss.print();

    // Tampering: signature verification must reject every run.
    std::printf("\n=== Robustness: registration under active "
                "tampering ===\n");
    int tampered_ok = 0;
    const int tamper_runs = 5;
    for (int run = 0; run < tamper_runs; ++run) {
        proto::EcosystemConfig cfg;
        cfg.seed = 700 + static_cast<std::uint64_t>(run);
        proto::Ecosystem e(cfg);
        auto &s = e.addServer("www.bank.com");
        auto &d = e.addDevice("phone", behavior, finger);
        e.network().setAdversary(std::make_shared<net::Tamperer>(
            core::Rng(cfg.seed), 1.0, 2));
        core::Rng session_rng(cfg.seed + 1);
        const auto o = proto::runBrowsingSession(
            e.queue(), d, s, behavior, finger, session_rng, 0, "alice");
        tampered_ok += o.registered;
    }
    std::printf("Registrations completed with every message "
                "bit-flipped in flight: %d/%d (0 expected -- "
                "signatures catch all tampering)\n",
                tampered_ok, tamper_runs);
}

void
BM_RegistrationCrypto(benchmark::State &state)
{
    // The server-side verification work for one submission.
    trust::crypto::Csprng rng(std::uint64_t{41});
    trust::crypto::CertificateAuthority ca("CA", 512, rng);
    proto::FlockModule flock("bm-flock", ca.rootKey(), 42);
    proto::certifyFlock(ca, flock);
    proto::WebServer server("www.x.com", ca, 43);

    core::Rng capture_rng(44);
    const auto finger = fp::synthesizeFinger(1, capture_rng);
    std::vector<std::vector<fp::Minutia>> views;
    while (views.size() < 3) {
        fp::CaptureConditions cc;
        cc.windowRows = 138;
        cc.windowCols = 138;
        const auto cap =
            fp::captureTemplateFast(finger, cc, capture_rng);
        if (cap.minutiae.size() >= 8)
            views.push_back(cap.minutiae);
    }
    flock.enrollFinger(views);

    proto::CaptureSample sample;
    fp::CaptureConditions cc;
    cc.windowRows = 118;
    cc.windowCols = 118;
    do {
        const auto cap =
            fp::captureTemplateFast(finger, cc, capture_rng);
        sample.minutiae = cap.minutiae;
        sample.quality = cap.quality;
        sample.covered = true;
    } while (!flock.verifyCapture(sample));

    for (auto _ : state) {
        const auto page = server.handleRegistrationRequest(
            {0, "www.x.com", "alice"});
        const auto submit = flock.handleRegistrationPage(
            page, "alice", core::Bytes(1024, 1), sample);
        if (submit) {
            auto result = server.handleRegistrationSubmit(*submit);
            benchmark::DoNotOptimize(result);
        }
    }
}
BENCHMARK(BM_RegistrationCrypto)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    const auto obs_opts = trust::benchutil::parseObsFlags(argc, argv);
    printRegistrationStudy();
    std::printf("\n");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    trust::benchutil::writeObsOutputs(obs_opts);
    return 0;
}
