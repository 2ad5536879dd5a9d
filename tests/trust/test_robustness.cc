/** @file Robustness: hostile/garbage input must never crash parsers,
 *  the server, or the FLock module — only produce clean rejections. */

#include <gtest/gtest.h>

#include <memory>

#include "core/rng.hh"
#include "net/faults.hh"
#include "tests/support/fuzz.hh"
#include "tests/trust/fixtures.hh"
#include "touch/behavior.hh"
#include "trust/scenario.hh"
#include "trust/server.hh"

namespace {

using trust::core::Bytes;
using trust::core::Rng;
using trust::testing::goodCapture;
using trust::testing::makeFlock;
using trust::testing::trustCa;
using trust::testing::trustFingers;
using trust::trust::criticalTouch;
using trust::trust::ErrorReply;
using trust::trust::MsgKind;
using trust::trust::peekKind;
using trust::trust::WebServer;

Bytes
randomBytes(Rng &rng, std::size_t max_len)
{
    Bytes out(static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(max_len))));
    for (auto &b : out)
        b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    return out;
}

TEST(Robustness, ServerSurvivesRandomPayloads)
{
    WebServer server("www.x.com", trustCa(), 901);
    Rng rng(902);
    for (int i = 0; i < 300; ++i) {
        const Bytes reply = server.handle(randomBytes(rng, 256));
        // Every reply parses as a known message.
        EXPECT_TRUE(peekKind(reply).has_value());
    }
    EXPECT_EQ(server.registeredAccounts(), 0u);
    EXPECT_EQ(server.activeSessions(), 0u);
}

TEST(Robustness, ServerSurvivesKindPrefixedGarbage)
{
    WebServer server("www.x.com", trustCa(), 903);
    Rng rng(904);
    for (std::uint8_t kind = 1; kind <= 10; ++kind) {
        for (int i = 0; i < 30; ++i) {
            Bytes payload = randomBytes(rng, 128);
            payload.insert(payload.begin(), kind);
            const Bytes reply = server.handle(payload);
            EXPECT_TRUE(peekKind(reply).has_value());
        }
    }
    EXPECT_EQ(server.registeredAccounts(), 0u);
}

TEST(Robustness, ServerSurvivesTruncatedRealMessages)
{
    WebServer server("www.x.com", trustCa(), 905);
    auto flock = makeFlock("robust-dev", 906, trustFingers()[0]);

    const auto page =
        server.handleRegistrationRequest({0, "www.x.com", "alice"});
    const auto submit = flock.handleRegistrationPage(
        page, "alice", Bytes(64, 1),
        goodCapture(trustFingers()[0], 907));
    ASSERT_TRUE(submit.has_value());
    const Bytes wire = submit->serialize();

    // Every truncation of a real message is handled cleanly and
    // never creates an account; so is every one-bit corruption.
    trust::testing::truncationSweep(wire, [&](const Bytes &cut) {
        (void)server.handle(cut);
    });
    Rng rng(908);
    trust::testing::bitFlipSweep(
        wire, rng,
        [&](const Bytes &flipped) { (void)server.handle(flipped); },
        128);
    EXPECT_FALSE(server.accountRegistered("alice"));

    // The intact message still works afterwards.
    EXPECT_TRUE(server.handleRegistrationSubmit(*submit).ok);
}

TEST(Robustness, FlockSurvivesGarbageContentPages)
{
    auto flock = makeFlock("robust-dev2", 910, trustFingers()[0]);
    Rng rng(911);
    for (int i = 0; i < 200; ++i) {
        trust::trust::ContentPage page;
        page.domain = i % 2 ? "www.x.com" : "";
        page.sessionId = rng.next();
        page.nonce = randomBytes(rng, 32);
        page.pageContent = randomBytes(rng, 64);
        page.mac = randomBytes(rng, 32);
        EXPECT_FALSE(flock.acceptContentPage(page));
    }
}

TEST(Robustness, FlockImportRejectsGarbageBundles)
{
    auto flock = makeFlock("robust-dev3", 912, trustFingers()[0]);
    Rng rng(913);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(flock.importIdentity(randomBytes(rng, 512)));
    // State untouched.
    EXPECT_EQ(flock.enrolledFingerCount(), 1);
}

TEST(Robustness, CertificateParserSurvivesGarbage)
{
    Rng rng(914);
    for (int i = 0; i < 300; ++i) {
        const auto cert = trust::crypto::Certificate::deserialize(
            randomBytes(rng, 256));
        if (cert) {
            // Parsing alone never authenticates anything.
            EXPECT_FALSE(trust::crypto::verifyCertificate(
                *cert, trustCa().rootKey(), 0,
                trust::crypto::CertRole::WebServer));
        }
    }
}

TEST(Robustness, ErrorRepliesRoundTrip)
{
    WebServer server("www.x.com", trustCa(), 915);
    const Bytes reply = server.handle({42});
    const auto error = ErrorReply::deserialize(reply);
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->domain, "www.x.com");
    EXPECT_FALSE(error->reason.empty());
}

} // namespace

// --- Transport reliability: the retry/resume state machines --------------

namespace reliability {

using trust::core::Bytes;
using trust::core::Rng;
using trust::net::FaultConfig;
using trust::net::FaultModel;
using trust::testing::trustFingers;
using trust::trust::Ecosystem;
using trust::trust::EcosystemConfig;
using trust::trust::MobileDevice;
using trust::trust::OpError;
using trust::trust::RetryPolicy;
using trust::trust::runBrowsingSession;
using trust::trust::SessionOutcome;
using trust::trust::WebServer;

trust::touch::UserBehavior
behavior(std::uint64_t user)
{
    return trust::touch::UserBehavior::forUser(
        user, {trust::touch::homeScreenLayout(),
               trust::touch::keyboardLayout()});
}

/** A short backoff schedule so exhaustion happens in test time. */
RetryPolicy
fastRetries()
{
    RetryPolicy policy;
    policy.initialTimeout = trust::core::milliseconds(50);
    policy.maxTimeout = trust::core::milliseconds(200);
    policy.maxAttempts = 4;
    return policy;
}

TEST(Reliability, RetryExhaustionIsATypedError)
{
    EcosystemConfig config;
    config.seed = 930;
    Ecosystem eco(config);
    // No server attached: every request vanishes into the void.
    auto &device =
        eco.addDevice("phone-r1", behavior(12), trustFingers()[0]);
    device.setRetryPolicy(fastRetries());

    device.startRegistration("www.gone.com", "alice");
    eco.settle();

    EXPECT_EQ(device.lastError(), OpError::RetryExhausted);
    EXPECT_EQ(device.counters().get("op-retry-exhausted"), 1u);
    // maxAttempts sends = 1 original + (maxAttempts - 1) retransmits.
    EXPECT_EQ(device.counters().get("op-retransmit"), 3u);
    EXPECT_FALSE(device.registrationComplete("www.gone.com"));

    // The device is not wedged: against a live server it recovers.
    auto &server = eco.addServer("www.ok.com");
    for (int attempt = 0;
         attempt < 16 && !device.registrationComplete("www.ok.com");
         ++attempt) {
        device.startRegistration("www.ok.com", "alice");
        eco.settle();
        device.onTouch(criticalTouch(device), &trustFingers()[0]);
        eco.settle();
    }
    EXPECT_TRUE(device.registrationComplete("www.ok.com"));
    EXPECT_TRUE(server.accountRegistered("alice"));
}

TEST(Reliability, DuplicateDeliveriesAreIdempotent)
{
    EcosystemConfig config;
    config.seed = 935;
    Ecosystem eco(config);
    auto &server = eco.addServer("www.bank.com");
    const auto b = behavior(13);
    auto &device = eco.addDevice("phone-r2", b, trustFingers()[0]);

    // Every single message (requests AND replies) is delivered twice.
    FaultConfig faults;
    faults.duplicateRate = 1.0;
    eco.network().setFaultModel(
        std::make_shared<FaultModel>(936, faults));

    Rng rng(937);
    const SessionOutcome outcome = runBrowsingSession(
        eco.queue(), device, server, b, trustFingers()[0], rng, 6, "alice");

    ASSERT_TRUE(outcome.registered);
    ASSERT_TRUE(outcome.loggedIn);
    EXPECT_TRUE(device.sessionActive("www.bank.com"));
    // Exactly one account despite every submit arriving twice, and
    // the duplicates were absorbed by the reply cache, not re-run.
    EXPECT_EQ(server.registeredAccounts(), 1u);
    EXPECT_GE(server.counters().get("dedup-hit") +
                  server.counters().get("request-rejected:duplicate"),
              1u);
    // The device discarded the duplicated replies.
    EXPECT_GE(device.counters().get("stale-reply"), 1u);
}

TEST(Reliability, PartitionThenResumeKeepsRiskWindow)
{
    EcosystemConfig config;
    config.seed = 940;
    Ecosystem eco(config);
    auto &server = eco.addServer("www.bank.com");
    const auto b = behavior(14);
    auto &device = eco.addDevice("phone-r3", b, trustFingers()[0]);
    device.setRetryPolicy(fastRetries());
    const std::string domain = "www.bank.com";

    Rng rng(941);
    const SessionOutcome outcome = runBrowsingSession(
        eco.queue(), device, server, b, trustFingers()[0], rng, 2, "alice");
    ASSERT_TRUE(outcome.loggedIn);
    ASSERT_TRUE(device.sessionActive(domain));

    // Accumulate k-of-n evidence with deliberate on-tile touches
    // (natural browsing touches mostly land off the sensor tiles).
    for (int i = 0; i < 6; ++i) {
        device.onTouch(criticalTouch(device), &trustFingers()[0]);
        eco.settle();
    }
    const int window_before = device.flock().risk().windowTouches;
    ASSERT_GE(window_before, 3);

    // A long outage: a partition that outlasts the whole backoff
    // schedule (4 fast attempts ~ 0.55 s).
    auto faults = std::make_shared<FaultModel>(942, FaultConfig{});
    const auto start = eco.queue().now();
    faults->schedulePartition(start, trust::core::seconds(10));
    eco.network().setFaultModel(faults);

    // Keep touching until one touch yields a usable capture, sends a
    // page request into the partition, and exhausts its retries.
    for (int i = 0; i < 16 && !device.sessionNeedsResume(domain);
         ++i) {
        device.onTouch(criticalTouch(device), &trustFingers()[0]);
        eco.settle();
    }
    ASSERT_TRUE(device.sessionNeedsResume(domain));
    EXPECT_EQ(device.lastError(), OpError::RetryExhausted);
    EXPECT_GE(faults->partitionDrops(), 1u);

    // Heal: advance the clock past the partition end.
    eco.queue().scheduleAt(start + trust::core::seconds(11), [] {});
    eco.settle();

    // Fig. 10 re-handshake flagged as a resumption.
    for (int attempt = 0;
         attempt < 16 && device.sessionNeedsResume(domain);
         ++attempt) {
        device.resumeSession(domain);
        eco.settle();
        device.onTouch(criticalTouch(device), &trustFingers()[0]);
        eco.settle();
    }
    EXPECT_FALSE(device.sessionNeedsResume(domain));
    EXPECT_TRUE(device.sessionActive(domain));
    EXPECT_GE(device.counters().get("session-resume-started"), 1u);

    // The k-of-n evidence accumulated before the outage survived the
    // re-handshake: a fresh epoch would have restarted the window at
    // one or two touches.
    EXPECT_GE(device.flock().risk().windowTouches, window_before);
}

TEST(Reliability, LossyPartitionedSessionMatchesCleanDecisions)
{
    // ISSUE acceptance: under 10% message loss plus one 2 s
    // partition, an end-to-end session completes with the same final
    // authentication decisions as the fault-free run.
    auto run = [](bool faulty) {
        EcosystemConfig config;
        config.seed = 950;
        auto eco = std::make_unique<Ecosystem>(config);
        auto &server = eco->addServer("www.bank.com");
        const auto b = behavior(15);
        auto &device =
            eco->addDevice("phone-r4", b, trustFingers()[0]);

        std::shared_ptr<FaultModel> faults;
        if (faulty) {
            FaultConfig fault_config;
            fault_config.dropRate = 0.10;
            faults = std::make_shared<FaultModel>(951, fault_config);
            faults->schedulePartition(trust::core::milliseconds(500),
                                      trust::core::seconds(2));
            eco->network().setFaultModel(faults);
        }

        Rng rng(952);
        const SessionOutcome outcome =
            runBrowsingSession(eco->queue(), device, server, b,
                               trustFingers()[0], rng, 8, "alice");

        struct Result
        {
            SessionOutcome outcome;
            bool sessionActive;
            bool registrationComplete;
            std::uint64_t retransmits;
            std::uint64_t dropped;
        } result{outcome, device.sessionActive("www.bank.com"),
                 device.registrationComplete("www.bank.com"),
                 device.counters().get("op-retransmit"),
                 faults ? faults->messagesDropped() +
                              faults->partitionDrops()
                        : 0};
        return result;
    };

    const auto clean = run(false);
    const auto faulted = run(true);

    ASSERT_TRUE(clean.outcome.registered);
    ASSERT_TRUE(clean.outcome.loggedIn);

    // Identical final auth decisions despite the hostile transport.
    EXPECT_EQ(faulted.outcome.registered, clean.outcome.registered);
    EXPECT_EQ(faulted.outcome.loggedIn, clean.outcome.loggedIn);
    EXPECT_EQ(faulted.sessionActive, clean.sessionActive);
    EXPECT_EQ(faulted.registrationComplete,
              clean.registrationComplete);
    EXPECT_GE(faulted.outcome.pagesReceived, 1);

    // The faults were real and the retry machinery did the work.
    EXPECT_GE(faulted.dropped, 1u);
    EXPECT_GE(faulted.retransmits, 1u);
    EXPECT_EQ(clean.retransmits, 0u);
}

} // namespace reliability
