/** @file Integration tests: the full Fig. 8 ecosystem under genuine
 *  use and under every attack class of the paper's threat model. */

#include <gtest/gtest.h>

#include "net/adversary.hh"
#include "tests/trust/fixtures.hh"
#include "touch/behavior.hh"
#include "trust/scenario.hh"

namespace {

using trust::core::Rng;
using trust::testing::trustFingers;
using trust::touch::TouchEvent;
using trust::touch::UserBehavior;
using trust::trust::Ecosystem;
using trust::trust::EcosystemConfig;
using trust::trust::MalwareProfile;
using trust::trust::runBrowsingSession;

UserBehavior
standardBehavior(std::uint64_t user)
{
    return UserBehavior::forUser(
        user, {trust::touch::homeScreenLayout(),
               trust::touch::keyboardLayout(),
               trust::touch::browserLayout()});
}

TEST(ProtocolE2E, GenuineSessionCompletes)
{
    EcosystemConfig config;
    config.seed = 9001;
    Ecosystem eco(config);
    auto &server = eco.addServer("www.bank.com");
    const auto behavior = standardBehavior(1);
    auto &device =
        eco.addDevice("phone-a", behavior, trustFingers()[0]);

    Rng rng(9002);
    const auto outcome =
        runBrowsingSession(eco.queue(), device, server, behavior,
                           trustFingers()[0], rng, 25, "alice");
    EXPECT_TRUE(outcome.registered);
    EXPECT_TRUE(outcome.loggedIn);
    EXPECT_EQ(outcome.pagesReceived, 25);
    EXPECT_EQ(outcome.requestsRejected, 0);
    EXPECT_EQ(server.auditFrameHashes(), 0u);
}

TEST(ProtocolE2E, MultipleDevicesAndServers)
{
    EcosystemConfig config;
    config.seed = 9100;
    Ecosystem eco(config);
    auto &bank = eco.addServer("www.bank.com");
    auto &mail = eco.addServer("mail.example.com");
    const auto b1 = standardBehavior(11);
    const auto b2 = standardBehavior(12);
    auto &phone1 = eco.addDevice("phone-1", b1, trustFingers()[0]);
    auto &phone2 = eco.addDevice("phone-2", b2, trustFingers()[1]);

    Rng rng(9101);
    EXPECT_TRUE(runBrowsingSession(eco.queue(), phone1, bank, b1,
                                   trustFingers()[0], rng, 5, "u1")
                    .loggedIn);
    EXPECT_TRUE(runBrowsingSession(eco.queue(), phone2, mail, b2,
                                   trustFingers()[1], rng, 5, "u2")
                    .loggedIn);
    EXPECT_TRUE(bank.accountRegistered("u1"));
    EXPECT_FALSE(bank.accountRegistered("u2"));
    EXPECT_TRUE(mail.accountRegistered("u2"));
}

TEST(ProtocolE2E, ImpostorCannotLogin)
{
    EcosystemConfig config;
    config.seed = 9200;
    Ecosystem eco(config);
    auto &server = eco.addServer("www.bank.com");
    const auto behavior = standardBehavior(2);
    auto &device =
        eco.addDevice("phone-b", behavior, trustFingers()[0]);

    Rng rng(9201);
    // Owner registers (and logs in once as part of the fixture).
    const auto reg = runBrowsingSession(eco.queue(), device, server, behavior,
                                        trustFingers()[0], rng, 0,
                                        "alice");
    ASSERT_TRUE(reg.registered);
    device.flock().endSession("www.bank.com");
    const std::uint64_t owner_logins =
        server.counters().get("login-accepted");

    // Thief attempts login with their own finger (each attempt needs
    // a fresh login page since a rejected touch clears the pending
    // operation).
    TouchEvent touch;
    touch.position = device.screen().sensors()[0].region.center();
    touch.speed = 0.05;
    for (int i = 0; i < 8; ++i) {
        device.startLogin("www.bank.com");
        eco.settle();
        device.onTouch(touch, &trustFingers()[1]);
        eco.settle();
    }
    EXPECT_FALSE(device.sessionActive("www.bank.com"));
    EXPECT_GE(device.counters().get("login-touch-rejected"), 8u);
    EXPECT_EQ(server.counters().get("login-accepted"), owner_logins);
}

TEST(ProtocolE2E, StolenUnlockedPhoneSessionDies)
{
    EcosystemConfig config;
    config.seed = 9300;
    Ecosystem eco(config);
    auto &server = eco.addServer("www.bank.com");
    const auto behavior = standardBehavior(3);
    auto &device =
        eco.addDevice("phone-c", behavior, trustFingers()[0]);

    Rng rng(9301);
    const auto outcome =
        runBrowsingSession(eco.queue(), device, server, behavior,
                           trustFingers()[0], rng, 10, "alice");
    ASSERT_TRUE(outcome.loggedIn);

    // Thief browses on the still-open session.
    const std::uint64_t accepted_before =
        server.counters().get("request-accepted");
    const auto touches = trust::touch::generateSession(
        behavior, rng, eco.queue().now() + trust::core::seconds(2),
        150);
    for (const auto &event : touches) {
        device.onTouch(event, &trustFingers()[1]);
        eco.settle();
    }
    const std::uint64_t thief_accepted =
        server.counters().get("request-accepted") - accepted_before;
    const std::uint64_t risk_rejected =
        server.counters().get("request-rejected:risk");

    // The thief leaks some pages while the risk window fills (the
    // coverage/responsiveness trade-off of Sec. IV-A), but once it
    // does, the server overwhelmingly rejects, and the device-side
    // risk state flags the takeover.
    EXPECT_GT(risk_rejected, 20u);
    EXPECT_LT(thief_accepted, 100u); // most requests blocked
    EXPECT_TRUE(device.flock().riskHardFailure() ||
                device.flock().riskViolated());
}

TEST(ProtocolE2E, ReplayAttackNeutralized)
{
    EcosystemConfig config;
    config.seed = 9400;
    Ecosystem eco(config);
    auto &server = eco.addServer("www.bank.com");
    const auto behavior = standardBehavior(4);
    auto &device =
        eco.addDevice("phone-d", behavior, trustFingers()[0]);

    auto replayer = std::make_shared<trust::net::ReplayAttacker>(
        eco.network(), "www.bank.com");
    eco.network().setAdversary(replayer);

    Rng rng(9401);
    const auto outcome =
        runBrowsingSession(eco.queue(), device, server, behavior,
                           trustFingers()[0], rng, 10, "alice");
    eco.settle();

    // The genuine session is unaffected...
    EXPECT_TRUE(outcome.loggedIn);
    EXPECT_EQ(outcome.pagesReceived, 10);
    // ...and every replayed authenticated message was neutralized:
    // absorbed by the idempotent reply cache (which re-serves the
    // original reply without re-executing the handler) or bounced
    // off the duplicate-id/nonce checks.
    EXPECT_GT(replayer->replaysInjected(), 0u);
    EXPECT_GE(server.counters().get("dedup-hit") +
                  server.counters().get("request-rejected:duplicate") +
                  server.counters().get("request-rejected:stale-nonce") +
                  server.counters().get("registration-rejected") +
                  server.counters().get("login-rejected:stale-nonce"),
              1u);
    // No replay produced an accepted state-changing request beyond
    // the genuine ones.
    EXPECT_EQ(server.counters().get("request-accepted"),
              static_cast<std::uint64_t>(outcome.pagesReceived));
}

TEST(ProtocolE2E, MitmSubstitutionRejected)
{
    EcosystemConfig config;
    config.seed = 9500;
    Ecosystem eco(config);
    auto &server = eco.addServer("www.bank.com");
    const auto behavior = standardBehavior(5);
    auto &device =
        eco.addDevice("phone-e", behavior, trustFingers()[0]);

    // Full MITM: every message to the server is replaced wholesale.
    trust::trust::PageRequest forged;
    forged.domain = "www.bank.com";
    forged.account = "alice";
    forged.sessionId = 1;
    forged.nonce = trust::core::Bytes(16, 0);
    forged.mac = trust::core::Bytes(32, 0);
    eco.network().setAdversary(
        std::make_shared<trust::net::MitmSubstitutor>(
            "www.bank.com", forged.serialize()));

    Rng rng(9501);
    const auto outcome =
        runBrowsingSession(eco.queue(), device, server, behavior,
                           trustFingers()[0], rng, 5, "alice");
    // Nothing gets through: the forged payloads fail every check.
    EXPECT_FALSE(outcome.registered);
    EXPECT_EQ(server.counters().get("request-accepted"), 0u);
    EXPECT_EQ(server.counters().get("registration-accepted"), 0u);
}

TEST(ProtocolE2E, MalwareForgedRequestsAllRejected)
{
    EcosystemConfig config;
    config.seed = 9600;
    Ecosystem eco(config);
    auto &server = eco.addServer("www.bank.com");
    const auto behavior = standardBehavior(6);
    auto &device =
        eco.addDevice("phone-f", behavior, trustFingers()[0]);
    MalwareProfile malware;
    malware.forgeRequests = true;
    device.setMalware(malware);

    Rng rng(9601);
    const auto outcome =
        runBrowsingSession(eco.queue(), device, server, behavior,
                           trustFingers()[0], rng, 10, "alice");
    EXPECT_TRUE(outcome.loggedIn);
    const std::uint64_t forged =
        device.counters().get("malware:request-forged");
    EXPECT_GT(forged, 0u);
    // Every forged request bounced on the MAC (the session key never
    // leaves FLock).
    EXPECT_EQ(server.counters().get("request-rejected:bad-mac"),
              forged);
    // Genuine traffic unaffected.
    EXPECT_EQ(outcome.pagesReceived, 10);
}

TEST(ProtocolE2E, MalwareFrameTamperingCaughtByAudit)
{
    EcosystemConfig config;
    config.seed = 9700;
    Ecosystem eco(config);
    auto &server = eco.addServer("www.bank.com");
    const auto behavior = standardBehavior(7);
    auto &device =
        eco.addDevice("phone-g", behavior, trustFingers()[0]);
    MalwareProfile malware;
    malware.tamperFrames = true;
    device.setMalware(malware);

    Rng rng(9701);
    const auto outcome =
        runBrowsingSession(eco.queue(), device, server, behavior,
                           trustFingers()[0], rng, 8, "alice");
    EXPECT_TRUE(outcome.loggedIn);
    // The offline audit flags every tampered frame.
    EXPECT_EQ(server.auditFrameHashes(), server.auditLogSize());
    EXPECT_GT(server.auditLogSize(), 0u);
}

TEST(ProtocolE2E, CleanDeviceAuditIsClean)
{
    EcosystemConfig config;
    config.seed = 9800;
    Ecosystem eco(config);
    auto &server = eco.addServer("www.bank.com");
    const auto behavior = standardBehavior(8);
    auto &device =
        eco.addDevice("phone-h", behavior, trustFingers()[0]);

    Rng rng(9801);
    (void)runBrowsingSession(eco.queue(), device, server, behavior,
                             trustFingers()[0], rng, 8, "alice");
    EXPECT_EQ(server.auditFrameHashes(), 0u);
    EXPECT_GT(server.auditLogSize(), 0u);
}

TEST(ProtocolE2E, MixedSessionAuditFlagsOnlyTamperedFrames)
{
    EcosystemConfig config;
    config.seed = 9850;
    Ecosystem eco(config);
    auto &server = eco.addServer("www.bank.com");
    const auto behavior = standardBehavior(8);
    auto &device =
        eco.addDevice("phone-m", behavior, trustFingers()[0]);

    Rng rng(9851);
    const auto outcome =
        runBrowsingSession(eco.queue(), device, server, behavior,
                           trustFingers()[0], rng, 6, "alice");
    ASSERT_TRUE(outcome.loggedIn);
    ASSERT_EQ(outcome.pagesReceived, 6);

    // Same session, second half: the host turns malicious. The page
    // already on screen was rendered clean, so the first request
    // after the switch still carries a clean frame; every later one
    // carries a tampered frame.
    MalwareProfile malware;
    malware.tamperFrames = true;
    device.setMalware(malware);
    const std::uint64_t sent_before =
        device.counters().get("page-request-sent");
    const std::uint64_t accepted_before =
        server.counters().get("request-accepted");
    const auto touches = trust::touch::generateSession(
        behavior, rng, eco.queue().now() + trust::core::seconds(1), 6);
    for (const auto &event : touches) {
        device.onTouch(event, &trustFingers()[0]);
        eco.settle();
    }
    const std::uint64_t sent =
        device.counters().get("page-request-sent") - sent_before;
    ASSERT_GT(sent, 1u);
    ASSERT_EQ(server.counters().get("request-accepted") -
                  accepted_before,
              sent);

    const std::size_t flagged = server.auditFrameHashes();
    EXPECT_GT(flagged, 0u);
    EXPECT_LT(flagged, server.auditLogSize());
    EXPECT_EQ(flagged, sent - 1);
    // Every tampered frame but the one still on screen was submitted.
    const std::uint64_t tampered =
        device.counters().get("malware:frame-tampered");
    EXPECT_EQ(flagged, tampered - 1);

    // Third part: the host turns clean again. The page on screen was
    // drawn tampered, so the first request after the switch still
    // carries its tampered frame; every later one is clean.
    device.setMalware(MalwareProfile{});
    const std::uint64_t sent_mid =
        device.counters().get("page-request-sent");
    const std::uint64_t accepted_mid =
        server.counters().get("request-accepted");
    const auto clean_touches = trust::touch::generateSession(
        behavior, rng, eco.queue().now() + trust::core::seconds(1), 6);
    for (const auto &event : clean_touches) {
        device.onTouch(event, &trustFingers()[0]);
        eco.settle();
    }
    const std::uint64_t sent_clean =
        device.counters().get("page-request-sent") - sent_mid;
    ASSERT_GT(sent_clean, 1u);
    ASSERT_EQ(server.counters().get("request-accepted") - accepted_mid,
              sent_clean);
    EXPECT_EQ(device.counters().get("malware:frame-tampered"), tampered);
    EXPECT_EQ(server.auditFrameHashes(), flagged + 1);
    EXPECT_EQ(server.auditFrameHashes(), tampered);
}

TEST(ProtocolE2E, OneDeviceTwoDomainsKeepsSessionsApart)
{
    EcosystemConfig config;
    config.seed = 9870;
    Ecosystem eco(config);
    auto &bank = eco.addServer("www.bank.com");
    auto &mail = eco.addServer("mail.example.com");
    const auto behavior = standardBehavior(9);
    auto &device =
        eco.addDevice("phone-d", behavior, trustFingers()[0]);

    // Register and log in on both domains, with a different account
    // on each, before any browsing.
    Rng rng(9871);
    ASSERT_TRUE(runBrowsingSession(eco.queue(), device, bank, behavior,
                                   trustFingers()[0], rng, 0,
                                   "alice-bank")
                    .loggedIn);
    ASSERT_TRUE(runBrowsingSession(eco.queue(), device, mail, behavior,
                                   trustFingers()[0], rng, 0,
                                   "alice-mail")
                    .loggedIn);
    // Both servers number sessions from 1. A second bank login moves
    // the bank id to 2, which names no session on mail.
    const std::uint64_t bank_logins =
        bank.counters().get("login-accepted");
    for (int attempt = 0;
         attempt < 16 &&
         bank.counters().get("login-accepted") == bank_logins;
         ++attempt) {
        device.startLogin("www.bank.com");
        eco.settle();
        device.onTouch(trust::trust::criticalTouch(device),
                       &trustFingers()[0]);
        eco.settle();
    }
    ASSERT_EQ(bank.counters().get("login-accepted"), bank_logins + 1);
    ASSERT_TRUE(device.sessionActive("www.bank.com"));
    ASSERT_TRUE(device.sessionActive("mail.example.com"));

    // Free navigation goes to the first live domain in name order.
    const std::uint64_t bank_accepted =
        bank.counters().get("request-accepted");
    const auto touches = trust::touch::generateSession(
        behavior, rng, eco.queue().now() + trust::core::seconds(1), 4);
    for (const auto &event : touches) {
        device.onTouch(event, &trustFingers()[0]);
        eco.settle();
    }
    const std::uint64_t sent = device.counters().get("page-request-sent");
    ASSERT_GT(sent, 0u);
    EXPECT_EQ(mail.counters().get("request-accepted"), sent);
    EXPECT_EQ(bank.counters().get("request-accepted"), bank_accepted);

    // Malware forges one request per domain holding a session id on
    // every accepted page; each carries that domain's own session id
    // and account, so each server rejects it on the MAC alone.
    MalwareProfile malware;
    malware.forgeRequests = true;
    device.setMalware(malware);
    const std::uint64_t pages_before = device.pagesReceived();
    const auto forged_touches = trust::touch::generateSession(
        behavior, rng, eco.queue().now() + trust::core::seconds(1), 4);
    for (const auto &event : forged_touches) {
        device.onTouch(event, &trustFingers()[0]);
        eco.settle();
    }
    const std::uint64_t pages = device.pagesReceived() - pages_before;
    ASSERT_GT(pages, 0u);
    EXPECT_EQ(device.counters().get("malware:request-forged"),
              2 * pages);
    for (const auto *server : {&bank, &mail}) {
        EXPECT_EQ(server->counters().get("request-rejected:bad-mac"),
                  pages);
        EXPECT_EQ(server->counters().get("request-rejected:no-session"),
                  0u);
        EXPECT_EQ(
            server->counters().get("request-rejected:account-mismatch"),
            0u);
    }
    EXPECT_EQ(device.counters().get("unmatched-error-reply"), 2 * pages);
    EXPECT_TRUE(device.sessionActive("www.bank.com"));
    EXPECT_TRUE(device.sessionActive("mail.example.com"));
}

TEST(ProtocolE2E, OnlineVerificationAcceptsCleanDevice)
{
    EcosystemConfig config;
    config.seed = 9800;
    config.serverPolicy.onlineFrameVerification = true;
    Ecosystem eco(config);
    auto &server = eco.addServer("www.bank.com");
    const auto behavior = standardBehavior(8);
    auto &device =
        eco.addDevice("phone-h", behavior, trustFingers()[0]);

    Rng rng(9801);
    const auto outcome =
        runBrowsingSession(eco.queue(), device, server, behavior,
                           trustFingers()[0], rng, 8, "alice");
    EXPECT_TRUE(outcome.loggedIn);
    EXPECT_EQ(outcome.pagesReceived, 8);
    EXPECT_EQ(outcome.requestsRejected, 0);
    EXPECT_EQ(server.counters().get("request-accepted"), 8u);
    EXPECT_EQ(server.counters().get("request-rejected:frame-hash"), 0u);
    EXPECT_EQ(server.auditFrameHashes(), 0u);
}

TEST(ProtocolE2E, OnlineVerificationRejectsTamperedFrames)
{
    EcosystemConfig config;
    config.seed = 9700;
    config.serverPolicy.onlineFrameVerification = true;
    Ecosystem eco(config);
    auto &server = eco.addServer("www.bank.com");
    const auto behavior = standardBehavior(7);
    auto &device =
        eco.addDevice("phone-g", behavior, trustFingers()[0]);
    MalwareProfile malware;
    malware.tamperFrames = true;
    device.setMalware(malware);

    Rng rng(9701);
    const auto outcome =
        runBrowsingSession(eco.queue(), device, server, behavior,
                           trustFingers()[0], rng, 8, "alice");
    EXPECT_TRUE(outcome.loggedIn);
    // The home page arrived with the login reply; no page request
    // carrying a tampered frame gets another.
    EXPECT_EQ(outcome.pagesReceived, 0);
    EXPECT_GT(outcome.requestsRejected, 0);
    EXPECT_GT(server.counters().get("request-rejected:frame-hash"), 0u);
    EXPECT_EQ(server.counters().get("request-accepted"), 0u);
}

TEST(ProtocolE2E, IdentityResetThenRebind)
{
    EcosystemConfig config;
    config.seed = 9900;
    Ecosystem eco(config);
    auto &server = eco.addServer("www.bank.com");
    const auto behavior = standardBehavior(9);
    auto &old_phone =
        eco.addDevice("old-phone", behavior, trustFingers()[0]);

    Rng rng(9901);
    ASSERT_TRUE(runBrowsingSession(eco.queue(), old_phone, server, behavior,
                                   trustFingers()[0], rng, 2, "alice")
                    .loggedIn);

    // Phone lost: reset the binding; then bind a new phone.
    ASSERT_TRUE(server.resetIdentity("alice"));
    auto &new_phone =
        eco.addDevice("new-phone", behavior, trustFingers()[0]);
    const auto outcome =
        runBrowsingSession(eco.queue(), new_phone, server, behavior,
                           trustFingers()[0], rng, 3, "alice");
    EXPECT_TRUE(outcome.registered);
    EXPECT_TRUE(outcome.loggedIn);
    EXPECT_EQ(outcome.pagesReceived, 3);
}

TEST(ProtocolE2E, IdentityTransferBetweenDevices)
{
    EcosystemConfig config;
    config.seed = 10000;
    Ecosystem eco(config);
    auto &server = eco.addServer("www.bank.com");
    const auto behavior = standardBehavior(10);
    auto &old_phone =
        eco.addDevice("old-ph", behavior, trustFingers()[0]);
    auto &new_phone =
        eco.addDevice("new-ph", behavior, trustFingers()[0]);

    Rng rng(10001);
    ASSERT_TRUE(runBrowsingSession(eco.queue(), old_phone, server, behavior,
                                   trustFingers()[0], rng, 2, "alice")
                    .registered);

    // Transfer: authorized by the owner's fingerprint, encrypted to
    // the new device key (Sec. IV-B).
    const auto bundle = old_phone.flock().exportIdentity(
        new_phone.flock().devicePublicKey(),
        trust::testing::goodCapture(trustFingers()[0], 10002));
    ASSERT_TRUE(bundle.has_value());

    // A thief's fingerprint cannot authorize the export.
    EXPECT_FALSE(old_phone.flock()
                     .exportIdentity(
                         new_phone.flock().devicePublicKey(),
                         trust::testing::goodCapture(
                             trustFingers()[1], 10003))
                     .has_value());

    ASSERT_TRUE(new_phone.flock().importIdentity(*bundle));
    EXPECT_TRUE(new_phone.flock().hasBinding("www.bank.com"));

    // A third device cannot decrypt the bundle.
    auto &other =
        eco.addDevice("other-ph", behavior, trustFingers()[2]);
    EXPECT_FALSE(other.flock().importIdentity(*bundle));
}

} // namespace
