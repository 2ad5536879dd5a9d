/**
 * @file
 * Identity reset and transfer demo (Sec. IV-B).
 *
 * Alice upgrades her phone: the enrolled fingerprints and all web
 * service bindings move to the new device over an encrypted,
 * fingerprint-authorized channel, after which the new phone logs in
 * with no re-registration. Then her old phone is "lost" and the
 * bank-side identity reset severs its binding.
 *
 * Run: ./identity_transfer
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

namespace {

/** A deliberate authorization press captured on the first tile. */
proto::CaptureSample
authorizationCapture(proto::MobileDevice &device,
                     const fingerprint::MasterFinger &finger,
                     core::Rng &rng)
{
    touch::TouchEvent event;
    event.position = device.screen().sensors()[0].region.center();
    event.speed = 0.03;
    return proto::captureTouch(device.screen(), event, &finger, rng,
                               7.0)
        .sample;
}

} // namespace

int
main()
{
    std::printf("=== Identity transfer & reset ===\n\n");

    core::Rng rng(31337);
    const auto alice = fingerprint::synthesizeFinger(1, rng);
    const auto mallory = fingerprint::synthesizeFinger(2, rng);
    const auto behavior = touch::UserBehavior::forUser(
        3, {touch::homeScreenLayout(), touch::browserLayout()});

    proto::EcosystemConfig config;
    config.seed = 21;
    proto::Ecosystem ecosystem(config);
    auto &bank = ecosystem.addServer("www.bank.com");
    auto &mail = ecosystem.addServer("mail.example.com");
    auto &old_phone =
        ecosystem.addDevice("old-phone", behavior, alice);

    // Bind the old phone to two services.
    const auto bank_session = proto::runBrowsingSession(
        ecosystem.queue(), old_phone, bank, behavior, alice, rng, 3, "alice");
    const auto mail_session = proto::runBrowsingSession(
        ecosystem.queue(), old_phone, mail, behavior, alice, rng, 3, "alice");
    std::printf("Old phone bound to %zu services "
                "(bank ok=%d, mail ok=%d)\n",
                old_phone.flock().bindingCount(),
                bank_session.registered, mail_session.registered);

    // --- Transfer to the new phone. ---
    auto &new_phone =
        ecosystem.addDevice("new-phone", behavior, alice);

    // Mallory cannot authorize the export with her finger.
    const auto mallory_attempt = old_phone.flock().exportIdentity(
        new_phone.flock().devicePublicKey(),
        authorizationCapture(old_phone, mallory, rng));
    std::printf("\nMallory tries to authorize the export: %s\n",
                mallory_attempt ? "AUTHORIZED (bad!)" : "refused");

    // Alice authorizes with her fingerprint (retrying on FRR).
    std::optional<core::Bytes> bundle;
    for (int i = 0; i < 10 && !bundle; ++i)
        bundle = old_phone.flock().exportIdentity(
            new_phone.flock().devicePublicKey(),
            authorizationCapture(old_phone, alice, rng));
    if (!bundle) {
        std::printf("Export never authorized; aborting.\n");
        return 1;
    }
    std::printf("Alice authorizes; encrypted bundle of %zu bytes "
                "produced.\n",
                bundle->size());

    const bool imported = new_phone.flock().importIdentity(*bundle);
    std::printf("New phone import: %s (%zu bindings, %d fingers)\n",
                imported ? "ok" : "FAILED",
                new_phone.flock().bindingCount(),
                new_phone.flock().enrolledFingerCount());

    // The new phone logs into the bank without re-registration:
    // drive the login exchange directly against the server.
    const auto login_page =
        bank.handleLoginRequest({0, "www.bank.com", "alice"});
    bool logged_in = false;
    for (int i = 0; i < 10 && login_page && !logged_in; ++i) {
        const auto submit = new_phone.flock().handleLoginPage(
            *login_page, core::Bytes(64, 1),
            authorizationCapture(new_phone, alice, rng));
        if (!submit)
            continue;
        const auto content = bank.handleLoginSubmit(*submit);
        if (content &&
            new_phone.flock().acceptContentPage(*content))
            logged_in = true;
    }
    std::printf("New phone bank login (no re-registration): %s\n",
                logged_in ? "ok" : "FAILED");

    // --- The old phone is lost: reset the bank identity. ---
    bank.resetIdentity("alice");
    std::printf("\nBank identity reset for the lost phone: account "
                "registered now = %s\n",
                bank.accountRegistered("alice") ? "yes" : "no");
    const auto new_binding = proto::runBrowsingSession(
        ecosystem.queue(), new_phone, bank, behavior, alice, rng, 2, "alice");
    std::printf("New phone re-registers after reset: %s\n",
                new_binding.registered ? "ok" : "FAILED");

    return (imported && logged_in && new_binding.registered) ? 0 : 1;
}
