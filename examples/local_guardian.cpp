/**
 * @file
 * Local identity management demo (Sec. IV-A / Fig. 6).
 *
 * A phone is unlocked by its owner through the fingerprint-backed
 * unlock button, used normally for a while, then grabbed by a thief.
 * The continuous opportunistic verification locks the device within
 * a handful of the thief's touches, while the owner was never
 * interrupted.
 *
 * Run: ./local_guardian
 */

#include <cstdio>

#include "core/rng.hh"
#include "fingerprint/synthesis.hh"
#include "touch/session.hh"
#include "fingerprint/capture.hh"
#include "trust/identity_risk.hh"
#include "trust/local_manager.hh"
#include "trust/scenario.hh"

namespace core = trust::core;
namespace fingerprint = trust::fingerprint;
namespace touch = trust::touch;
namespace proto = trust::trust;

int
main()
{
    std::printf("=== Local guardian: Fig. 6 in action ===\n\n");

    core::Rng rng(77);
    const auto owner = fingerprint::synthesizeFinger(1, rng);
    const auto thief = fingerprint::synthesizeFinger(2, rng);

    const auto behavior = touch::UserBehavior::forUser(
        5, {touch::homeScreenLayout(), touch::keyboardLayout()});

    // Screen with four optimally placed tiles; FLock module with the
    // owner enrolled through a guided setup.
    auto screen = proto::makeOptimizedScreen(behavior, 4, 7.0, 99);
    trust::crypto::Csprng ca_rng(std::uint64_t{1});
    trust::crypto::CertificateAuthority ca("CA", 512, ca_rng);
    proto::FlockModule flock("demo-flock", ca.rootKey(), 101);
    {
        core::Rng enroll_rng(55);
        std::vector<std::vector<fingerprint::Minutia>> views;
        while (views.size() < 4) {
            fingerprint::CaptureConditions cc;
            cc.windowRows = 138;
            cc.windowCols = 138;
            const auto cap = fingerprint::captureTemplateFast(
                owner, cc, enroll_rng);
            if (cap.minutiae.size() >= 8)
                views.push_back(cap.minutiae);
        }
        flock.enrollFinger(views);
    }
    proto::LocalIdentityManager guardian(screen, flock);

    // --- Owner unlocks (Fig. 6 unlock button over a sensor). ---
    touch::TouchEvent unlock_touch;
    unlock_touch.position = screen.sensors()[0].region.center();
    unlock_touch.speed = 0.05;
    int unlock_attempts = 0;
    while (!guardian.attemptUnlock(unlock_touch, &owner, rng))
        ++unlock_attempts;
    std::printf("Owner unlocked after %d retr%s.\n\n",
                unlock_attempts + 1,
                unlock_attempts == 0 ? "y" : "ies");

    // --- Owner uses the phone naturally. ---
    const auto owner_touches =
        touch::generateSession(behavior, rng, 0, 120);
    int owner_locks = 0;
    for (const auto &event : owner_touches) {
        guardian.processTouch(event, &owner, rng);
        if (guardian.state() == proto::LockState::Locked) {
            ++owner_locks;
            while (!guardian.attemptUnlock(unlock_touch, &owner, rng)) {
            }
        }
    }
    const auto &c = guardian.counters();
    std::printf("Owner session (120 touches):\n");
    std::printf("  matched %llu | rejected %llu | low-quality %llu | "
                "off-sensor %llu\n",
                static_cast<unsigned long long>(c.get("touch-matched")),
                static_cast<unsigned long long>(c.get("touch-rejected")),
                static_cast<unsigned long long>(
                    c.get("touch-low-quality")),
                static_cast<unsigned long long>(
                    c.get("touch-not-covered")));
    std::printf("  false lockouts: %d\n\n", owner_locks);

    // --- The thief grabs the unlocked phone. ---
    std::printf("Thief takes the unlocked phone...\n");
    const auto thief_touches =
        touch::generateSession(behavior, rng, 0, 100);
    int thief_touch_count = 0;
    for (const auto &event : thief_touches) {
        const auto outcome = guardian.processTouch(event, &thief, rng);
        ++thief_touch_count;
        std::printf("  touch %2d at (%4.1f, %4.1f): %s\n",
                    thief_touch_count, event.position.x,
                    event.position.y, proto::toString(outcome));
        if (guardian.state() == proto::LockState::Locked)
            break;
    }

    if (guardian.state() == proto::LockState::Locked) {
        std::printf("\nDevice LOCKED after %d thief touches.\n",
                    thief_touch_count);
    } else {
        std::printf("\nDevice still unlocked after %d thief touches "
                    "(all off-sensor?).\n",
                    thief_touch_count);
    }

    // The thief cannot unlock it again.
    int thief_unlocks = 0;
    for (int i = 0; i < 10; ++i)
        if (guardian.attemptUnlock(unlock_touch, &thief, rng))
            ++thief_unlocks;
    std::printf("Thief unlock attempts accepted: %d / 10\n",
                thief_unlocks);
    return 0;
}
