/**
 * @file
 * Remote identity management under attack (Sec. IV-B, Figs. 8-10).
 *
 * Alice banks from a phone whose host OS is infected: the malware
 * forges transfer requests and tampers with displayed pages, while a
 * network adversary replays her traffic. The demo shows every attack
 * bouncing off the TRUST protocol while her genuine session works.
 *
 * Run: ./remote_banking
 */

#include <cstdio>

#include "core/rng.hh"
#include "fingerprint/synthesis.hh"
#include "net/adversary.hh"
#include "touch/behavior.hh"
#include "trust/scenario.hh"

namespace core = trust::core;
namespace fingerprint = trust::fingerprint;
namespace touch = trust::touch;
namespace net = trust::net;
namespace proto = trust::trust;

int
main()
{
    std::printf("=== Remote banking under attack ===\n\n");

    core::Rng rng(4242);
    const auto alice_finger = fingerprint::synthesizeFinger(1, rng);
    const auto behavior = touch::UserBehavior::forUser(
        9, {touch::homeScreenLayout(), touch::browserLayout()});

    proto::EcosystemConfig config;
    config.seed = 11;
    proto::Ecosystem ecosystem(config);
    auto &bank = ecosystem.addServer("www.bank.com");
    auto &phone =
        ecosystem.addDevice("alices-phone", behavior, alice_finger);

    // The host SoC is compromised (assumption i of Sec. IV-B)...
    proto::MalwareProfile malware;
    malware.forgeRequests = true;
    malware.tamperFrames = true;
    phone.setMalware(malware);
    std::printf("Host malware active: forging requests + tampering "
                "with displayed frames.\n");

    // ...and so is the network (assumption iii).
    auto replayer = std::make_shared<net::ReplayAttacker>(
        ecosystem.network(), "www.bank.com",
        core::milliseconds(300), 2);
    ecosystem.network().setAdversary(replayer);
    std::printf("Network adversary active: replaying all traffic to "
                "the bank twice.\n\n");

    const auto outcome = proto::runBrowsingSession(
        ecosystem.queue(), phone, bank, behavior, alice_finger, rng,
        /*clicks=*/15, "alice");
    ecosystem.settle();

    std::printf("Alice's experience:\n");
    std::printf("  registered: %s, logged in: %s, pages browsed: %d\n\n",
                outcome.registered ? "yes" : "no",
                outcome.loggedIn ? "yes" : "no",
                outcome.pagesReceived);

    const auto &s = bank.counters();
    const unsigned long long forged = static_cast<unsigned long long>(
        phone.counters().get("malware:request-forged"));
    std::printf("Attack scoreboard (bank side):\n");
    std::printf("  malware-forged requests sent ........ %llu\n",
                forged);
    std::printf("  rejected for bad MAC ................ %llu\n",
                static_cast<unsigned long long>(
                    s.get("request-rejected:bad-mac")));
    std::printf("  replays injected by the network ..... %llu\n",
                static_cast<unsigned long long>(
                    replayer->replaysInjected()));
    std::printf("  rejected for stale nonce ............ %llu\n",
                static_cast<unsigned long long>(
                    s.get("request-rejected:stale-nonce")));
    std::printf("  genuine requests accepted ........... %llu\n",
                static_cast<unsigned long long>(
                    s.get("request-accepted")));

    std::printf("\nOffline frame-hash audit:\n");
    std::printf("  %zu of %zu logged frames flagged as tampered\n",
                bank.auditFrameHashes(), bank.auditLogSize());
    std::printf("  (every displayed frame was modified by the "
                "malware; the audit caught all of them)\n");

    // The replayer re-sends the forged requests too, so bad-MAC
    // rejections can exceed the forgeries the malware itself sent.
    const bool defended =
        bank.counters().get("request-rejected:bad-mac") >= forged &&
        bank.auditFrameHashes() == bank.auditLogSize();
    std::printf("\n%s\n", defended
                              ? "All attacks detected or rejected."
                              : "UNEXPECTED: some attack slipped by!");
    return defended ? 0 : 1;
}
