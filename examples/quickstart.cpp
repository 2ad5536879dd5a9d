/**
 * @file
 * Quickstart: the smallest complete TRUST deployment.
 *
 * Builds one CA, one web server and one FLock-equipped phone;
 * enrolls the owner, registers an account (Fig. 9), logs in and
 * browses with continuous authentication (Fig. 10), then prints
 * what happened.
 *
 * Run: ./quickstart
 */

#include <cstdio>

#include "core/rng.hh"
#include "fingerprint/synthesis.hh"
#include "touch/behavior.hh"
#include "trust/scenario.hh"

namespace core = trust::core;
namespace fingerprint = trust::fingerprint;
namespace touch = trust::touch;
namespace proto = trust::trust;

int
main()
{
    std::printf("=== TRUST quickstart ===\n\n");

    // 1. The owner's physical finger (synthetic identity).
    core::Rng rng(2012);
    const fingerprint::MasterFinger owner =
        fingerprint::synthesizeFinger(1, rng);
    std::printf("Synthesized owner finger: %zu minutiae, pattern %d\n",
                owner.minutiae.size(), static_cast<int>(owner.pattern));

    // 2. How the owner uses the phone (drives sensor placement).
    const touch::UserBehavior behavior = touch::UserBehavior::forUser(
        42, {touch::homeScreenLayout(), touch::keyboardLayout(),
             touch::browserLayout()});

    // 3. The ecosystem: CA + bank + phone (Fig. 8).
    proto::EcosystemConfig config;
    config.seed = 7;
    proto::Ecosystem ecosystem(config);
    auto &bank = ecosystem.addServer("www.bank.com");
    auto &phone = ecosystem.addDevice("alices-phone", behavior, owner);

    std::printf("Phone built: %zu sensor tiles covering %.1f%% of the "
                "screen\n",
                phone.screen().sensors().size(),
                phone.screen().coverageFraction() * 100.0);

    // 4. Register, log in, browse (the full protocol).
    const auto outcome = proto::runBrowsingSession(
        ecosystem.queue(), phone, bank, behavior, owner, rng,
        /*clicks=*/20, "alice");

    std::printf("\nSession outcome:\n");
    std::printf("  registered:        %s\n",
                outcome.registered ? "yes" : "no");
    std::printf("  logged in:         %s\n",
                outcome.loggedIn ? "yes" : "no");
    std::printf("  pages browsed:     %d\n", outcome.pagesReceived);
    std::printf("  requests rejected: %d\n", outcome.requestsRejected);

    const auto risk = phone.flock().risk();
    std::printf("\nFinal identity risk: %d/%d touches in the window "
                "verified (risk factor %.2f)\n",
                risk.matched, risk.windowTouches, risk.risk);
    std::printf("Frame-hash audit:    %zu mismatches in %zu logged "
                "frames\n",
                bank.auditFrameHashes(), bank.auditLogSize());

    std::printf("\nServer-side counters:\n");
    const auto bank_counters = bank.counters();
    for (const auto &[name, value] : bank_counters.all())
        std::printf("  %-28s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));

    return outcome.registered && outcome.loggedIn ? 0 : 1;
}
