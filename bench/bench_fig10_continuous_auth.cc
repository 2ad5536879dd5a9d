/**
 * @file
 * Reproduces the **Fig. 10** continuous remote authentication flow:
 * per-request protocol overhead (bytes, crypto time), the risk
 * signal a server sees from a genuine user vs a thief on the same
 * session, and the fate of every attack the security analysis
 * discusses (replay, forged requests, tampered frames).
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <cstdio>

#include "core/csv.hh"
#include "core/rng.hh"
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
printContinuousAuthStudy()
{
    std::printf("=== Fig. 10 continuous authentication: per-request "
                "overhead ===\n");
    core::Rng finger_rng(1);
    const auto owner = fp::synthesizeFinger(1, finger_rng);
    const auto thief = fp::synthesizeFinger(2, finger_rng);
    const auto behavior = touch::UserBehavior::forUser(
        6, {touch::homeScreenLayout(), touch::keyboardLayout(),
            touch::browserLayout()});

    proto::EcosystemConfig config;
    config.seed = 61;
    proto::Ecosystem eco(config);
    auto &server = eco.addServer("www.bank.com");
    auto &device = eco.addDevice("phone", behavior, owner);

    core::Rng rng(62);
    const std::uint64_t bytes0 = eco.network().bytesSent();
    const std::uint64_t msgs0 = eco.network().messagesSent();
    const core::Tick busy0 = device.flock().busyTime();
    const auto outcome = proto::runBrowsingSession(
        eco.queue(), device, server, behavior, owner, rng, 100, "alice");
    const double pages = std::max(outcome.pagesReceived, 1);

    std::printf("Genuine 100-click session: %d pages, %d requests "
                "rejected\n",
                outcome.pagesReceived, outcome.requestsRejected);
    std::printf("  wire bytes per page:      %.0f\n",
                static_cast<double>(eco.network().bytesSent() -
                                    bytes0) /
                    pages);
    std::printf("  wire messages per page:   %.1f\n",
                static_cast<double>(eco.network().messagesSent() -
                                    msgs0) /
                    pages);
    std::printf("  FLock busy time per page: %.2f ms\n",
                core::toMilliseconds(device.flock().busyTime() -
                                     busy0) /
                    pages);

    // Risk signal dynamics: owner, then thief on the same session.
    std::printf("\n=== Risk signal seen by the server (x of n "
                "matched per request) ===\n");
    auto risk_trace = [&](const fp::MasterFinger &finger, int touches,
                          const char *label) {
        std::uint64_t accepted0 =
            server.counters().get("request-accepted");
        std::uint64_t risk0 =
            server.counters().get("request-rejected:risk");
        const auto events = touch::generateSession(
            behavior, rng, eco.queue().now() + core::seconds(1),
            touches);
        for (const auto &event : events) {
            device.onTouch(event, &finger);
            eco.settle();
        }
        const auto risk = device.flock().risk();
        std::printf("%s: window %d/%d matched, server accepted %llu, "
                    "risk-rejected %llu\n",
                    label, risk.matched, risk.windowTouches,
                    static_cast<unsigned long long>(
                        server.counters().get("request-accepted") -
                        accepted0),
                    static_cast<unsigned long long>(
                        server.counters().get(
                            "request-rejected:risk") -
                        risk0));
    };
    risk_trace(owner, 60, "owner (60 touches)");
    risk_trace(thief, 60, "thief (60 touches)");
    risk_trace(owner, 60, "owner back (60 touches)");

    // Attack scoreboard (Fig. 10 security analysis).
    std::printf("\n=== Attack outcomes across dedicated runs ===\n");
    core::Table attacks(
        {"attack", "attempts", "succeeded", "detected/rejected by"});

    {
        proto::EcosystemConfig cfg;
        cfg.seed = 71;
        proto::Ecosystem e(cfg);
        auto &s = e.addServer("www.bank.com");
        auto &d = e.addDevice("phone", behavior, owner);
        auto replayer = std::make_shared<net::ReplayAttacker>(
            e.network(), "www.bank.com");
        e.network().setAdversary(replayer);
        core::Rng r(72);
        (void)proto::runBrowsingSession(e.queue(), d, s, behavior, owner, r,
                                        20, "alice");
        e.settle();
        attacks.addRow(
            {"replay", std::to_string(replayer->replaysInjected()),
             "0",
             "nonce freshness (" +
                 std::to_string(s.counters().get(
                     "request-rejected:stale-nonce")) +
                 " stale)"});
    }
    {
        proto::EcosystemConfig cfg;
        cfg.seed = 73;
        proto::Ecosystem e(cfg);
        auto &s = e.addServer("www.bank.com");
        auto &d = e.addDevice("phone", behavior, owner);
        proto::MalwareProfile malware;
        malware.forgeRequests = true;
        d.setMalware(malware);
        core::Rng r(74);
        (void)proto::runBrowsingSession(e.queue(), d, s, behavior, owner, r,
                                        20, "alice");
        attacks.addRow(
            {"malware request forgery",
             std::to_string(
                 d.counters().get("malware:request-forged")),
             "0",
             "session-key MAC (" +
                 std::to_string(
                     s.counters().get("request-rejected:bad-mac")) +
                 " bad MACs)"});
    }
    {
        proto::EcosystemConfig cfg;
        cfg.seed = 75;
        proto::Ecosystem e(cfg);
        auto &s = e.addServer("www.bank.com");
        auto &d = e.addDevice("phone", behavior, owner);
        proto::MalwareProfile malware;
        malware.tamperFrames = true;
        d.setMalware(malware);
        core::Rng r(76);
        (void)proto::runBrowsingSession(e.queue(), d, s, behavior, owner, r,
                                        20, "alice");
        attacks.addRow(
            {"malware frame tampering",
             std::to_string(s.auditLogSize()), "0",
             "frame-hash audit (" +
                 std::to_string(s.auditFrameHashes()) + "/" +
                 std::to_string(s.auditLogSize()) + " flagged)"});
    }
    attacks.print();
}

void
BM_PageRequestRoundTrip(benchmark::State &state)
{
    core::Rng finger_rng(81);
    const auto owner = fp::synthesizeFinger(1, finger_rng);
    const auto behavior = touch::UserBehavior::forUser(
        6, {touch::homeScreenLayout(), touch::browserLayout()});
    proto::EcosystemConfig config;
    config.seed = 82;
    proto::Ecosystem eco(config);
    auto &server = eco.addServer("www.bank.com");
    auto &device = eco.addDevice("phone", behavior, owner);
    core::Rng rng(83);
    const auto outcome = proto::runBrowsingSession(
        eco.queue(), device, server, behavior, owner, rng, 1, "alice");
    if (!outcome.loggedIn) {
        state.SkipWithError("fixture login failed");
        return;
    }
    const auto events =
        touch::generateSession(behavior, rng, 0, 128);
    std::size_t i = 0;
    for (auto _ : state) {
        touch::TouchEvent event = events[i++ % events.size()];
        event.time = 0;
        device.onTouch(event, &owner);
        eco.settle();
    }
}
BENCHMARK(BM_PageRequestRoundTrip)->Unit(benchmark::kMicrosecond);

} // namespace

int
main(int argc, char **argv)
{
    auto obs_opts = trust::benchutil::parseObsFlags(argc, argv);
    // This bench is the canonical observability demo: it always
    // records, and defaults the trace/audit destinations so a bare
    // run leaves an inspectable session behind.
    if (obs_opts.traceOut.empty())
        obs_opts.traceOut = "TRACE_continuous_auth.json";
    if (obs_opts.auditOut.empty())
        obs_opts.auditOut = "AUDIT_continuous_auth.log";
    trust::core::obs::setEnabled(true);
    printContinuousAuthStudy();
    std::printf("\n");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    trust::benchutil::writeObsOutputs(obs_opts);
    return 0;
}
