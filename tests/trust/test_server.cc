/** @file Unit tests for the TRUST web server. */

#include <gtest/gtest.h>

#include "crypto/hmac.hh"
#include "tests/trust/fixtures.hh"
#include "trust/server.hh"

namespace {

using trust::core::Bytes;
using trust::testing::goodCapture;
using trust::testing::lowQualityCapture;
using trust::testing::makeFlock;
using trust::testing::trustCa;
using trust::testing::trustFingers;
using trust::trust::LoginSubmit;
using trust::trust::MsgKind;
using trust::trust::PageRequest;
using trust::trust::peekKind;
using trust::trust::RegistrationRequest;
using trust::trust::WebServer;

/** Registers alice and logs in; returns the live session context. */
struct LiveSession
{
    WebServer server;
    trust::trust::FlockModule flock;
    std::uint64_t sessionId = 0;

    LiveSession(std::uint64_t seed)
        : server("www.x.com", trustCa(), seed),
          flock(makeFlock("dev-ls" + std::to_string(seed), seed + 1,
                          trustFingers()[0]))
    {
        const auto reg_page = server.handleRegistrationRequest(
            {0, "www.x.com", "alice"});
        const auto submit = flock.handleRegistrationPage(
            reg_page, "alice", Bytes(64, 1),
            goodCapture(trustFingers()[0], seed + 2));
        TRUST_ASSERT(submit.has_value(), "fixture registration");
        TRUST_ASSERT(server.handleRegistrationSubmit(*submit).ok,
                     "fixture registration accept");

        const auto login_page =
            server.handleLoginRequest({0, "www.x.com", "alice"});
        const auto login = flock.handleLoginPage(
            *login_page, Bytes(64, 2),
            goodCapture(trustFingers()[0], seed + 3));
        TRUST_ASSERT(login.has_value(), "fixture login");
        const auto content = server.handleLoginSubmit(*login);
        TRUST_ASSERT(content.has_value(), "fixture login accept");
        TRUST_ASSERT(flock.acceptContentPage(*content),
                     "fixture content accept");
        sessionId = content->sessionId;
    }

    /** A fully valid page request via FLock. */
    PageRequest
    validRequest(std::uint64_t seed, const std::string &action = "a")
    {
        auto request = flock.makePageRequest(
            "www.x.com", action, Bytes(64, 3),
            goodCapture(trustFingers()[0], seed));
        TRUST_ASSERT(request.has_value(), "fixture request");
        return *request;
    }
};

TEST(Server, DispatchMalformedYieldsError)
{
    WebServer server("www.x.com", trustCa(), 50);
    const Bytes reply = server.handle({});
    EXPECT_EQ(peekKind(reply), MsgKind::ErrorReply);
}

TEST(Server, RegistrationPageWellFormed)
{
    WebServer server("www.x.com", trustCa(), 51);
    const auto page =
        server.handleRegistrationRequest({0, "www.x.com", "bob"});
    EXPECT_EQ(page.domain, "www.x.com");
    EXPECT_EQ(page.nonce.size(), 16u);
    EXPECT_FALSE(page.pageContent.empty());
    EXPECT_TRUE(trust::crypto::rsaVerify(
        server.publicKey(), page.signedBody(), page.signature));
}

TEST(Server, LoginForUnknownAccountRefused)
{
    WebServer server("www.x.com", trustCa(), 52);
    EXPECT_FALSE(
        server.handleLoginRequest({0, "www.x.com", "nobody"}).has_value());
}

TEST(Server, ValidSessionFlow)
{
    LiveSession live(60);
    EXPECT_EQ(live.server.activeSessions(), 1u);
    const auto reply =
        live.server.handlePageRequest(live.validRequest(61));
    ASSERT_TRUE(reply.has_value());
    EXPECT_TRUE(live.flock.acceptContentPage(*reply));
    EXPECT_EQ(live.server.counters().get("request-accepted"), 1u);
}

TEST(Server, ReplayedRequestRejected)
{
    LiveSession live(70);
    const auto request = live.validRequest(71);
    ASSERT_TRUE(live.server.handlePageRequest(request).has_value());
    // Same request again: the nonce was consumed.
    EXPECT_FALSE(live.server.handlePageRequest(request).has_value());
    EXPECT_EQ(
        live.server.counters().get("request-rejected:stale-nonce"),
        1u);
}

TEST(Server, ForgedMacRejected)
{
    LiveSession live(80);
    auto request = live.validRequest(81);
    request.mac = Bytes(32, 0);
    EXPECT_FALSE(live.server.handlePageRequest(request).has_value());
    EXPECT_EQ(live.server.counters().get("request-rejected:bad-mac"),
              1u);
}

TEST(Server, TamperedFieldBreaksMac)
{
    LiveSession live(90);
    auto request = live.validRequest(91);
    request.action = "transfer-all-funds"; // tampered after MAC
    EXPECT_FALSE(live.server.handlePageRequest(request).has_value());
}

TEST(Server, InflatedRiskClaimBreaksMac)
{
    LiveSession live(95);
    auto request = live.validRequest(96);
    request.riskMatched = 8; // malware "improving" its risk
    request.riskWindow = 8;
    EXPECT_FALSE(live.server.handlePageRequest(request).has_value());
}

TEST(Server, UnknownSessionRejected)
{
    LiveSession live(100);
    auto request = live.validRequest(101);
    request.sessionId = 999;
    EXPECT_FALSE(live.server.handlePageRequest(request).has_value());
    EXPECT_EQ(
        live.server.counters().get("request-rejected:no-session"),
        1u);
}

TEST(Server, RiskPolicyRejectsZeroMatchWindow)
{
    // Craft a request with a full window and zero matches, MAC'd
    // correctly (simulating an impostor whose touches all failed):
    // drive the flock risk window with impostor captures first.
    LiveSession live(110);
    // Impostor FAR is low but nonzero; feed touches until the
    // sliding window holds zero matches so the request is crafted
    // deterministically.
    int touches = 0;
    do {
        (void)live.flock.processTouch(
            goodCapture(trustFingers()[1], 111 + touches));
        ++touches;
    } while ((live.flock.risk().matched > 0 ||
              live.flock.risk().windowTouches < 8) &&
             touches < 64);
    ASSERT_EQ(live.flock.risk().matched, 0);
    // The request touch itself is a smudge: recorded in the window
    // but unable to match, so riskMatched stays zero.
    auto request = live.flock.makePageRequest(
        "www.x.com", "inbox", Bytes(64, 3), lowQualityCapture());
    ASSERT_TRUE(request.has_value());
    EXPECT_GE(request->riskWindow, 8u);
    EXPECT_EQ(request->riskMatched, 0u);
    EXPECT_FALSE(live.server.handlePageRequest(*request).has_value());
    EXPECT_EQ(live.server.counters().get("request-rejected:risk"),
              1u);
}

TEST(Server, StaleLoginNonceRejected)
{
    LiveSession live(130);
    // Re-login with a forged nonce.
    const auto login_page =
        live.server.handleLoginRequest({0, "www.x.com", "alice"});
    ASSERT_TRUE(login_page.has_value());
    auto tampered = *login_page;
    tampered.nonce = Bytes(16, 0xee);
    // FLock would verify the signature; bypass it and submit with
    // the wrong nonce directly.
    LoginSubmit submit;
    submit.domain = "www.x.com";
    submit.account = "alice";
    submit.nonce = tampered.nonce;
    submit.encSessionKey = Bytes(64, 1);
    submit.mac = Bytes(32, 1);
    EXPECT_FALSE(live.server.handleLoginSubmit(submit).has_value());
}

TEST(Server, IdentityReset)
{
    LiveSession live(140);
    EXPECT_TRUE(live.server.accountRegistered("alice"));
    EXPECT_TRUE(live.server.resetIdentity("alice"));
    EXPECT_FALSE(live.server.accountRegistered("alice"));
    EXPECT_EQ(live.server.activeSessions(), 0u);
    // Second reset is a no-op.
    EXPECT_FALSE(live.server.resetIdentity("alice"));
    // Old session requests now fail.
    EXPECT_FALSE(
        live.server.handlePageRequest(live.validRequest(141))
            .has_value());
}

TEST(Server, AbandonedHandshakesStayBounded)
{
    // Regression: abandoned registration/login handshakes used to
    // accumulate nonces (and per-account map keys) forever. The
    // pending tables are now a bounded FIFO, oldest evicted first.
    trust::trust::ServerPolicy policy;
    policy.maxPendingHandshakes = 32;
    policy.handshakeTtl = 0; // isolate the size bound from expiry
    WebServer server("www.x.com", trustCa(), 160, 512, policy);

    auto flock = makeFlock("dev-hb", 161, trustFingers()[0]);
    const auto first_page =
        server.handleRegistrationRequest({0, "www.x.com", "user0"});

    for (int i = 1; i < 64; ++i) {
        (void)server.handleRegistrationRequest(
            {0, "www.x.com", "user" + std::to_string(i)});
        EXPECT_LE(server.pendingHandshakes(),
                  policy.maxPendingHandshakes);
    }
    EXPECT_LE(server.pendingHandshakes(), policy.maxPendingHandshakes);
    EXPECT_GT(server.pendingHandshakes(), 0u);

    // The oldest handshake was evicted by the flood: completing it
    // now is refused as stale, exactly like a consumed nonce.
    const auto submit = flock.handleRegistrationPage(
        first_page, "user0", Bytes(64, 1),
        goodCapture(trustFingers()[0], 162));
    ASSERT_TRUE(submit.has_value());
    const auto result = server.handleRegistrationSubmit(*submit);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.reason, "stale-nonce");
}

TEST(Server, AbandonedHandshakesExpireByTtl)
{
    trust::trust::ServerPolicy policy;
    policy.handshakeTtl = trust::core::seconds(10);
    WebServer server("www.x.com", trustCa(), 170, 512, policy);

    auto flock = makeFlock("dev-ttl", 171, trustFingers()[0]);
    const auto page = server.handleRegistrationRequest(
        {0, "www.x.com", "carol"}, trust::core::seconds(1));
    EXPECT_EQ(server.pendingHandshakes(), 1u);

    // Younger than the TTL: still live.
    server.expireHandshakes(trust::core::seconds(5));
    EXPECT_EQ(server.pendingHandshakes(), 1u);

    // Older than the TTL: dropped, and the late submit is stale.
    server.expireHandshakes(trust::core::seconds(30));
    EXPECT_EQ(server.pendingHandshakes(), 0u);
    const auto submit = flock.handleRegistrationPage(
        page, "carol", Bytes(64, 1),
        goodCapture(trustFingers()[0], 172));
    ASSERT_TRUE(submit.has_value());
    const auto result = server.handleRegistrationSubmit(*submit);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.reason, "stale-nonce");
}

TEST(Server, ConsumedHandshakesLeaveNoResidue)
{
    // A completed registration + login consumes both nonces; nothing
    // lingers in the nonce table.
    LiveSession live(180);
    EXPECT_EQ(live.server.pendingHandshakes(), 0u);
}

TEST(Server, ConsumedHandshakeFreesItsSlot)
{
    // The shard cap counts live nonces only: with two slots per
    // shard, consuming the second nonce and issuing a third must not
    // evict the first, which is still live.
    trust::trust::ServerPolicy policy;
    policy.maxPendingHandshakes = 32; // 2 per account shard
    policy.handshakeTtl = 0;
    WebServer server("www.x.com", trustCa(), 164, 512, policy);

    auto flock = makeFlock("dev-fs", 165, trustFingers()[0]);
    const auto page1 =
        server.handleRegistrationRequest({0, "www.x.com", "dave"});
    const auto page2 =
        server.handleRegistrationRequest({0, "www.x.com", "dave"});
    const auto submit1 = flock.handleRegistrationPage(
        page1, "dave", Bytes(64, 1), goodCapture(trustFingers()[0], 166));
    const auto submit2 = flock.handleRegistrationPage(
        page2, "dave", Bytes(64, 1), goodCapture(trustFingers()[0], 167));
    ASSERT_TRUE(submit1.has_value());
    ASSERT_TRUE(submit2.has_value());
    ASSERT_TRUE(server.handleRegistrationSubmit(*submit2).ok);
    (void)server.handleRegistrationRequest({0, "www.x.com", "dave"});
    EXPECT_EQ(server.pendingHandshakes(), 2u);

    const auto result = server.handleRegistrationSubmit(*submit1);
    EXPECT_TRUE(result.ok) << result.reason;
    EXPECT_TRUE(server.accountRegistered("dave"));
}

TEST(Server, PerAccountHandshakeBound)
{
    // One account hammering the registration page cannot hold more
    // than its per-account slice of outstanding nonces.
    trust::trust::ServerPolicy policy;
    policy.handshakeTtl = 0;
    WebServer server("www.x.com", trustCa(), 190, 512, policy);
    for (int i = 0; i < 24; ++i)
        (void)server.handleRegistrationRequest(
            {0, "www.x.com", "mallory"});
    EXPECT_LE(server.pendingHandshakes(), 16u);
}

TEST(Server, AuditFlagsNonRenderedFrames)
{
    // The LiveSession fixture hashes placeholder frames rather than
    // true renderings of the served pages, so the offline audit must
    // flag every logged entry — exactly what it would do to a
    // malware-tampered display.
    LiveSession live(150);
    for (std::uint64_t i = 0; i < 3; ++i) {
        const auto reply = live.server.handlePageRequest(
            live.validRequest(151 + i));
        ASSERT_TRUE(reply.has_value());
        ASSERT_TRUE(live.flock.acceptContentPage(*reply));
    }
    // registration + login + 3 requests logged.
    EXPECT_EQ(live.server.auditLogSize(), 5u);
    EXPECT_EQ(live.server.auditFrameHashes(), 5u);
}

// --- Dedup cache bounds (TTL + per-sender cap) ----------------------

/** A cacheable request: registration pages are deterministic per
 *  (sender, requestId) thanks to the duplicate-suppression cache. */
trust::core::Bytes
regWire(std::uint64_t request_id, const std::string &account)
{
    return RegistrationRequest{request_id, "www.x.com", account}
        .serialize();
}

TEST(Server, DedupCacheExpiresByTtl)
{
    trust::trust::ServerPolicy policy;
    policy.dedupTtl = trust::core::seconds(10);
    WebServer server("www.x.com", trustCa(), 400, 512, policy);

    const trust::core::Tick start = trust::core::seconds(1);
    (void)server.handleTimed(regWire(1, "alice"), "phoneA", start);
    EXPECT_EQ(server.dedupEntriesFor("phoneA"), 1u);

    // Within the TTL the retransmission hits the cache.
    (void)server.handleTimed(regWire(1, "alice"), "phoneA",
                             start + trust::core::seconds(2));
    EXPECT_EQ(server.counters().get("dedup-hit"), 1u);

    // Past the TTL the entry is pruned on the next request and the
    // same (sender, id) dispatches fresh instead of replaying.
    const trust::core::Tick late =
        start + trust::core::seconds(30);
    (void)server.handleTimed(regWire(1, "alice"), "phoneA", late);
    EXPECT_EQ(server.counters().get("dedup-hit"), 1u);
    EXPECT_EQ(server.dedupEntriesFor("phoneA"), 1u); // fresh entry
}

TEST(Server, DedupCacheCapsPerSender)
{
    trust::trust::ServerPolicy policy;
    policy.maxDedupPerSender = 4;
    WebServer server("www.x.com", trustCa(), 401, 512, policy);

    for (std::uint64_t id = 1; id <= 7; ++id)
        (void)server.handleTimed(regWire(id, "alice"), "phoneA",
                                 trust::core::seconds(1));
    // Only the newest 4 replies are retained for phoneA; another
    // sender gets its own budget.
    EXPECT_EQ(server.dedupEntriesFor("phoneA"), 4u);
    (void)server.handleTimed(regWire(1, "bob"), "phoneB",
                             trust::core::seconds(1));
    EXPECT_EQ(server.dedupEntriesFor("phoneA"), 4u);
    EXPECT_EQ(server.dedupEntriesFor("phoneB"), 1u);

    // The evicted oldest id re-dispatches (no cache hit) while a
    // retained one replays from the cache.
    (void)server.handleTimed(regWire(1, "alice"), "phoneA",
                             trust::core::seconds(2));
    EXPECT_EQ(server.counters().get("dedup-hit"), 0u);
    (void)server.handleTimed(regWire(7, "alice"), "phoneA",
                             trust::core::seconds(2));
    EXPECT_EQ(server.counters().get("dedup-hit"), 1u);
}

// --- Admission control ----------------------------------------------

TEST(Server, AdmissionShedsWithServerBusyThenRecovers)
{
    trust::trust::ServerPolicy policy;
    policy.admission.enabled = true;
    policy.admission.serviceCost = trust::core::milliseconds(10);
    policy.admission.maxQueueDelay = trust::core::milliseconds(25);
    WebServer server("www.x.com", trustCa(), 402, 512, policy);

    const trust::core::Tick now = trust::core::seconds(1);
    const auto first =
        server.handleTimed(regWire(1, "alice"), "phoneA", now);
    EXPECT_FALSE(first.rejected);
    EXPECT_EQ(first.queueDelay, trust::core::milliseconds(10));
    const auto second =
        server.handleTimed(regWire(2, "alice"), "phoneA", now);
    EXPECT_FALSE(second.rejected);
    EXPECT_EQ(second.queueDelay, trust::core::milliseconds(20));

    // The third request would exceed the queue bound: shed with a
    // typed ServerBusy carrying the drain estimate, sent immediately.
    const auto third =
        server.handleTimed(regWire(3, "alice"), "phoneA", now);
    EXPECT_TRUE(third.rejected);
    EXPECT_EQ(third.queueDelay, 0u);
    ASSERT_EQ(peekKind(third.reply), MsgKind::ServerBusy);
    const auto busy =
        trust::trust::ServerBusy::deserialize(third.reply);
    ASSERT_TRUE(busy.has_value());
    EXPECT_EQ(busy->requestId, 3u);
    EXPECT_EQ(busy->retryAfter, trust::core::milliseconds(20));
    EXPECT_EQ(server.counters().get("admission-rejected"), 1u);
    // Rejected requests are never cached for replay.
    EXPECT_EQ(server.dedupEntriesFor("phoneA"), 2u);

    // Once the virtual queue drains, the sender is admitted again.
    const auto later = server.handleTimed(
        regWire(4, "alice"), "phoneA",
        now + trust::core::milliseconds(30));
    EXPECT_FALSE(later.rejected);
    EXPECT_EQ(later.queueDelay, trust::core::milliseconds(10));
}

TEST(Server, AdmissionDisabledByDefaultAdmitsEverything)
{
    WebServer server("www.x.com", trustCa(), 403);
    for (std::uint64_t id = 1; id <= 32; ++id) {
        const auto result = server.handleTimed(
            regWire(id, "alice"), "phoneA", trust::core::seconds(1));
        EXPECT_FALSE(result.rejected);
        EXPECT_EQ(result.queueDelay, 0u);
    }
    EXPECT_EQ(server.counters().get("admission-rejected"), 0u);
}

} // namespace
