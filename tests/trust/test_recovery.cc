/** @file Crash-recovery of the persistent serving tier.
 *
 *  Pins the tentpole invariants of the durable store + WAL stack:
 *   - kill-at-any-byte: for every crash point in the WAL (record
 *     boundaries AND mid-record cuts), recovery reproduces exactly
 *     the state after some prefix of committed history;
 *   - a recovered server continues serving byte-identically to the
 *     uncrashed server (probe audit comparison);
 *   - a device mid-session survives a full server restart via the
 *     Fig. 10 resumption handshake;
 *   - overload admission control sheds with a typed ServerBusy the
 *     device backs off from, with eventual completion;
 *   - the two-phase crash/recover fleet audit is byte-identical at
 *     1/4/16 worker threads, pinned by a committed golden.
 *
 *  Regenerate the golden after an intentional format change with
 *      TRUST_UPDATE_GOLDEN=1 ctest -R Recovery
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/obs/obs.hh"
#include "core/parallel.hh"
#include "core/wal/segment.hh"
#include "core/rng.hh"
#include "crypto/hmac.hh"
#include "tests/trust/fixtures.hh"
#include "touch/behavior.hh"
#include "trust/fleet.hh"
#include "trust/scenario.hh"
#include "trust/store.hh"

namespace {

namespace obs = trust::core::obs;
using trust::core::Bytes;
using trust::core::Rng;
using trust::core::wal::scanWalBytes;
using trust::core::wal::SimulatedStorage;
using trust::core::wal::StorageFaultConfig;
using trust::core::wal::StorageFaultModel;
using trust::core::wal::WalScan;
using trust::testing::trustFingers;
using namespace trust::trust;

/**
 * Single-shard, single-segment policy for the raw-image sweeps: the
 * whole log is one file whose bytes the tests cut/tear directly. The
 * sharded layout is exercised by test_store.cc's equivalence tests;
 * here one file keeps kill-at-every-byte byte-exact.
 */
StorePolicy
singleShardPolicy()
{
    StorePolicy policy;
    policy.shards = 1;
    policy.rotateBytes = 64 * 1024 * 1024; // never roll mid-sweep
    return policy;
}

/** The one segment file of a singleShardPolicy() store named "srv". */
std::string
srvWalFile()
{
    return trust::core::wal::segmentFileName("srv.s00", 1);
}

trust::touch::UserBehavior
behavior(std::uint64_t user)
{
    return trust::touch::UserBehavior::forUser(
        user, {trust::touch::homeScreenLayout(),
               trust::touch::keyboardLayout()});
}

/**
 * Drive one full session against a store-backed server and return
 * the disk it persisted to (crashed clean: only synced bytes).
 */
SimulatedStorage
runPersistedSession(std::string *live_digest,
                    std::size_t *live_sessions)
{
    SimulatedStorage disk;
    EcosystemConfig config;
    config.seed = 7100;
    Ecosystem eco(config);
    WebServer &server = eco.addServer("www.bank.com");
    TrustStore store(disk, "srv", singleShardPolicy());
    store.recover();
    server.attachStore(&store);

    const auto b = behavior(21);
    auto &device =
        eco.addDevice("phone-rec", b, trustFingers()[0]);
    Rng rng(7101);
    const SessionOutcome outcome = runBrowsingSession(
        eco.queue(), device, server, b, trustFingers()[0], rng, 4, "alice");
    EXPECT_TRUE(outcome.registered);
    EXPECT_TRUE(outcome.loggedIn);
    EXPECT_GT(store.mutations(), 2u);
    if (live_digest != nullptr)
        *live_digest = store.stateDigest();
    if (live_sessions != nullptr)
        *live_sessions = server.activeSessions();
    store.checkpoint();
    return disk.durableClone();
}

/** Frame boundaries of a WAL image: byte offsets after the header
 *  and after each complete record frame. */
std::vector<std::size_t>
walBoundaries(const Bytes &image, const WalScan &scan)
{
    std::vector<std::size_t> bounds;
    std::size_t at = 8; // u32 magic + u32 version
    bounds.push_back(at);
    for (const Bytes &record : scan.records) {
        at += 8 + record.size(); // u32 len + u32 crc + payload
        bounds.push_back(at);
    }
    EXPECT_EQ(at, image.size()); // layout drift guard
    return bounds;
}

std::string
digestOfWalPrefix(const Bytes &image, std::size_t cut)
{
    SimulatedStorage disk;
    if (cut > 0)
        disk.appendRaw(srvWalFile(),
                       Bytes(image.begin(),
                             image.begin() +
                                 static_cast<std::ptrdiff_t>(cut)));
    TrustStore store(disk, "srv", singleShardPolicy());
    store.recover();
    return store.stateDigest();
}

/**
 * Kill-at-any-byte sweep: crash the WAL at *every* byte offset and
 * at every record boundary. Recovery must always land on the state
 * after the longest fully-committed record prefix — never a mix,
 * never a partially-applied record, never a crash.
 */
TEST(Recovery, KillAtEveryByteRecoversCommittedPrefix)
{
    std::string live_digest;
    SimulatedStorage disk = runPersistedSession(&live_digest, nullptr);
    // The sweep exercises the raw log only.
    const Bytes image = disk.readAll(srvWalFile());
    ASSERT_GT(image.size(), 8u);
    const WalScan scan = scanWalBytes(image);
    ASSERT_FALSE(scan.tornTail);
    ASSERT_GT(scan.records.size(), 2u);
    const std::vector<std::size_t> bounds =
        walBoundaries(image, scan);

    // Reference digest after each record-boundary prefix. The full
    // prefix must equal the live (uncrashed) store's digest.
    std::vector<std::string> at_boundary;
    at_boundary.reserve(bounds.size());
    for (const std::size_t cut : bounds)
        at_boundary.push_back(digestOfWalPrefix(image, cut));
    EXPECT_EQ(at_boundary.back(), live_digest);

    // Every mid-record cut must recover to the enclosing boundary.
    std::size_t record_index = 0;
    for (std::size_t cut = 0; cut <= image.size(); ++cut) {
        while (record_index + 1 < bounds.size() &&
               cut >= bounds[record_index + 1])
            ++record_index;
        const std::string expected =
            cut < bounds[0] ? at_boundary[0]
                            : at_boundary[record_index];
        ASSERT_EQ(digestOfWalPrefix(image, cut), expected)
            << "crash point at byte " << cut;
    }
}

/**
 * Seeded torn-write/bit-flip crashes: whatever the fault model does
 * to the unsynced tail, recovery lands on a committed prefix.
 */
TEST(Recovery, SeededTornCrashesRecoverCommittedPrefixes)
{
    std::string live_digest;
    SimulatedStorage base =
        runPersistedSession(&live_digest, nullptr);
    const Bytes image = base.readAll(srvWalFile());
    const WalScan scan = scanWalBytes(image);
    const std::vector<std::size_t> bounds =
        walBoundaries(image, scan);
    std::vector<std::string> valid;
    for (const std::size_t cut : bounds)
        valid.push_back(digestOfWalPrefix(image, cut));

    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        StorageFaultConfig fault;
        fault.seed = seed;
        fault.tornWriteProbability = 0.8;
        fault.bitFlipProbability = 0.5;
        StorageFaultModel model(fault);

        // Re-stage the image with a random synced/unsynced split, so
        // the crash has a pending tail to tear.
        Rng rng(seed * 101);
        const auto synced = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(image.size())));
        SimulatedStorage disk;
        disk.append(srvWalFile(),
                    Bytes(image.begin(),
                          image.begin() +
                              static_cast<std::ptrdiff_t>(synced)));
        disk.sync(srvWalFile());
        disk.append(srvWalFile(),
                    Bytes(image.begin() +
                              static_cast<std::ptrdiff_t>(synced),
                          image.end()));
        disk.crash(model);

        TrustStore store(disk, "srv", singleShardPolicy());
        store.recover();
        const std::string digest = store.stateDigest();
        // Bit flips may damage the *synced* region too? No: flips are
        // confined to the surviving torn tail, so the digest must be
        // one of the committed-prefix digests.
        EXPECT_NE(std::find(valid.begin(), valid.end(), digest),
                  valid.end())
            << "seed " << seed << " recovered to a non-prefix state";
    }
}

/**
 * A server rebuilt from the recovered store must continue serving
 * exactly like the uncrashed server: identical probe audit bytes,
 * identical account/session tables.
 */
TEST(Recovery, RecoveredServerContinuationMatchesUncrashed)
{
    SimulatedStorage disk;
    EcosystemConfig config;
    config.seed = 7200;
    Ecosystem eco(config);
    WebServer &server = eco.addServer("www.bank.com");
    TrustStore store(disk, "srv");
    store.recover();
    server.attachStore(&store);

    const auto b = behavior(22);
    auto &device =
        eco.addDevice("phone-rec2", b, trustFingers()[0]);
    Rng rng(7201);
    const SessionOutcome outcome = runBrowsingSession(
        eco.queue(), device, server, b, trustFingers()[0], rng, 3, "alice");
    ASSERT_TRUE(outcome.loggedIn);

    const auto probeAudit = [&](WebServer &target) {
        obs::resetAll();
        obs::setEnabled(true);
        for (const char *account : {"alice", "mallory"}) {
            LoginRequest probe;
            probe.requestId = 5000;
            probe.domain = target.domain();
            probe.account = account;
            (void)target.handle(probe.serialize());
        }
        obs::setEnabled(false);
        std::string log = obs::audit().serialize();
        obs::resetAll();
        return log;
    };

    const std::string before = probeAudit(server);

    // Crash the process: only synced bytes survive; rebuild the
    // whole serving tier from the disk image.
    SimulatedStorage after_crash = disk.durableClone();
    TrustStore recovered_store(after_crash, "srv");
    const RecoveryReport report = recovered_store.recover();
    EXPECT_EQ(report.skippedMalformed, 0u);
    WebServer recovered("www.bank.com", eco.ca(), 7777,
                        config.rsaBits);
    recovered.attachStore(&recovered_store);

    EXPECT_EQ(recovered.registeredAccounts(),
              server.registeredAccounts());
    EXPECT_EQ(recovered.activeSessions(), server.activeSessions());
    EXPECT_TRUE(recovered.accountRegistered("alice"));
    EXPECT_EQ(recovered_store.stateDigest(), store.stateDigest());

    const std::string continuation = probeAudit(recovered);
    EXPECT_EQ(continuation, before)
        << "recovered server's continuation audit diverged";
}

/**
 * Satellite: a device in a live session survives a full server
 * restart. The restarted server recovers the account binding from
 * the store, so the Fig. 10 resumption handshake succeeds without
 * re-registration.
 */
TEST(Recovery, DeviceResumesSessionAgainstRestartedServer)
{
    SimulatedStorage disk;
    EcosystemConfig config;
    config.seed = 7300;
    Ecosystem eco(config);
    const std::string domain = "www.bank.com";
    WebServer &server = eco.addServer(domain);
    auto store = std::make_unique<TrustStore>(disk, "srv");
    store->recover();
    server.attachStore(store.get());

    const auto b = behavior(23);
    auto &device =
        eco.addDevice("phone-rec3", b, trustFingers()[0]);
    Rng rng(7301);
    const SessionOutcome outcome = runBrowsingSession(
        eco.queue(), device, server, b, trustFingers()[0], rng, 2, "alice");
    ASSERT_TRUE(outcome.loggedIn);
    ASSERT_TRUE(device.sessionActive(domain));
    const std::uint64_t pages_before = device.pagesReceived();

    // Server process dies: in-memory session nonces are gone; a new
    // server instance recovers from the durable store and takes over
    // the domain's endpoint (Network::attach replaces the handler).
    disk.crashClean();
    server.attachStore(nullptr);
    store.reset();
    auto store2 = std::make_unique<TrustStore>(disk, "srv");
    const RecoveryReport report = store2->recover();
    EXPECT_GT(report.walRecords, 0u);
    WebServer &server2 = eco.addServer(domain);
    server2.attachStore(store2.get());
    ASSERT_TRUE(server2.accountRegistered("alice"));

    // Resume browsing against the restarted server. The device is
    // unaware of the restart; its session either continues off the
    // recovered session table directly, or — if the handshake state
    // was lost — the Fig. 10 resumption loop inside the session
    // driver re-establishes it. Either way the session must keep
    // serving without re-registration.
    Rng rng2(7302);
    const SessionOutcome resumed = runBrowsingSession(
        eco.queue(), device, server2, b, trustFingers()[0], rng2, 2, "alice");
    EXPECT_TRUE(resumed.registered);
    EXPECT_TRUE(resumed.loggedIn);
    EXPECT_TRUE(device.sessionActive(domain));
    EXPECT_GT(device.pagesReceived(), pages_before);
    // The restarted server served session-bound page requests off
    // recovered state alone (the session table, including the
    // rolling nonce, is persisted on every accepted request, so a
    // fresh login is not even required)...
    EXPECT_GE(server2.counters().get("request-accepted"), 1u);
    // ...and no re-registration happened: the binding is durable.
    EXPECT_EQ(server2.counters().get("registration-accepted"), 0u);
}

/**
 * The attached store is the server's only account and session
 * table: rows written straight into the store after attach are
 * counted and served by the server, and an identity reset leaves
 * none of the account's sessions in the store.
 */
TEST(Recovery, AttachedStoreIsTheServersOnlyTable)
{
    EcosystemConfig config;
    config.seed = 7350;
    Ecosystem eco(config);
    const std::string domain = "www.bank.com";
    WebServer server(domain, eco.ca(), 7351, config.rsaBits);
    const Bytes key = server.publicKey().serialize();

    SimulatedStorage disk;
    {
        TrustStore before_crash(disk, "srv");
        before_crash.recover();
        before_crash.putAccount("alice", key);
    }
    disk.crashClean();
    TrustStore store(disk, "srv");
    store.recover();
    server.attachStore(&store);
    EXPECT_EQ(server.registeredAccounts(), 1u);

    // Rows that reach the store without passing through the server.
    const auto session_for = [](const std::string &account,
                                std::uint8_t fill) {
        StoredSession session;
        session.account = account;
        session.sessionKey = Bytes(32, fill);
        session.expectedNonce =
            Bytes(16, static_cast<std::uint8_t>(fill + 1));
        session.currentTag = "home";
        return session;
    };
    store.putAccount("bob", key);
    const StoredSession bob = session_for("bob", 0x41);
    store.putSession(41, bob);
    store.putSession(42, session_for("bob", 0x51));
    store.putSession(43, session_for("alice", 0x61));
    EXPECT_EQ(server.registeredAccounts(), 2u);
    EXPECT_EQ(server.activeSessions(), 3u);
    EXPECT_TRUE(server.accountRegistered("bob"));

    // The server serves session 41 from the store row, and the next
    // request must echo the nonce it rotated there.
    const auto page_request = [&](std::uint64_t id,
                                  const Bytes &nonce) {
        PageRequest request;
        request.requestId = id;
        request.domain = domain;
        request.account = "bob";
        request.sessionId = 41;
        request.nonce = nonce;
        request.action = "inbox";
        request.frameHash = Bytes(32, 0);
        request.mac = trust::crypto::hmacSha256(bob.sessionKey,
                                                request.macBody());
        return request;
    };
    const auto first = server.handlePageRequest(
        page_request(1, bob.expectedNonce));
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->sessionId, 41u);
    EXPECT_FALSE(server.handlePageRequest(
                           page_request(2, bob.expectedNonce))
                     .has_value());
    EXPECT_TRUE(
        server.handlePageRequest(page_request(3, first->nonce))
            .has_value());

    EXPECT_TRUE(server.resetIdentity("bob"));
    EXPECT_EQ(store.liveAccounts(), 1u);
    EXPECT_EQ(store.liveSessions(), 1u); // alice's session 43 only
    EXPECT_EQ(server.activeSessions(), 1u);
}

/**
 * Satellite: overload admission control end-to-end. A flooded lane
 * sheds the device's request with a typed ServerBusy; the device
 * backs off by the server's drain estimate and completes once the
 * queue drains — queued-then-rejected-then-served, never wedged.
 */
TEST(Recovery, OverloadShedsTypedBusyThenCompletes)
{
    EcosystemConfig config;
    config.seed = 7400;
    config.serverPolicy.admission.enabled = true;
    config.serverPolicy.admission.serviceCost =
        trust::core::seconds(2);
    config.serverPolicy.admission.maxQueueDelay =
        trust::core::seconds(5);
    Ecosystem eco(config);
    const std::string domain = "www.bank.com";
    WebServer &server = eco.addServer(domain);

    const auto b = behavior(24);
    auto &device =
        eco.addDevice("phone-ovl", b, trustFingers()[0]);
    Rng rng(7401);
    const SessionOutcome outcome = runBrowsingSession(
        eco.queue(), device, server, b, trustFingers()[0], rng, 2, "alice");
    ASSERT_TRUE(outcome.loggedIn);
    const std::uint64_t pages_before = device.pagesReceived();

    // Saturate the device's admission lane right before its next
    // request: two 2 s-cost junk requests from the same sender fill
    // the 5 s queue bound. Once the device has seen a ServerBusy,
    // stop flooding and let its armed retransmissions drain through.
    bool saw_busy = false;
    for (int attempt = 0; attempt < 24; ++attempt) {
        if (!saw_busy) {
            for (std::uint64_t j = 0; j < 2; ++j) {
                LoginRequest junk;
                junk.requestId = 900000 + j;
                junk.domain = domain;
                junk.account = "nobody";
                (void)server.handleTimed(junk.serialize(),
                                         device.name(),
                                         eco.queue().now());
            }
        }
        if (device.sessionNeedsResume(domain)) {
            device.resumeSession(domain);
            eco.settle();
        }
        device.onTouch(criticalTouch(device), &trustFingers()[0]);
        eco.settle();
        saw_busy = device.counters().get("server-busy-reply") > 0;
        if (saw_busy && device.sessionActive(domain) &&
            device.pagesReceived() > pages_before)
            break;
    }
    EXPECT_GE(device.counters().get("server-busy-reply"), 1u);
    EXPECT_GE(server.counters().get("admission-rejected"), 1u);
    // Eventual completion: the armed retransmission got through
    // after the drain and the session kept serving pages.
    EXPECT_GT(device.pagesReceived(), pages_before);
    EXPECT_TRUE(device.sessionActive(domain));
}

// --- RetryPolicy backoff arithmetic (satellite) ---------------------

TEST(RetryPolicy, ClosedFormMatchesIterativeReference)
{
    RetryPolicy policy; // defaults: 250 ms, x2, cap 4 s
    trust::core::Tick reference = policy.initialTimeout;
    for (int attempt = 1; attempt <= 64; ++attempt) {
        EXPECT_EQ(policy.timeoutForAttempt(attempt), reference)
            << "attempt " << attempt;
        reference = std::min(
            static_cast<trust::core::Tick>(
                static_cast<double>(reference) *
                policy.backoffFactor),
            policy.maxTimeout);
    }
}

TEST(RetryPolicy, HugeAttemptCountsSaturateInsteadOfWrapping)
{
    RetryPolicy policy;
    policy.maxTimeout = 0; // "no cap": must saturate, not wrap
    const trust::core::Tick ceiling =
        std::numeric_limits<trust::core::Tick>::max() / 4;
    trust::core::Tick previous = 0;
    for (const int attempt : {1, 8, 32, 63, 64, 65, 100, 100000}) {
        const trust::core::Tick t = policy.timeoutForAttempt(attempt);
        EXPECT_GT(t, 0u) << "attempt " << attempt;
        EXPECT_LE(t, ceiling) << "attempt " << attempt;
        EXPECT_GE(t, previous) << "backoff must be monotone";
        previous = t;
    }
    EXPECT_EQ(policy.timeoutForAttempt(100000), ceiling);

    // Non-doubling factors saturate through the generic path too.
    policy.backoffFactor = 3.7;
    EXPECT_EQ(policy.timeoutForAttempt(100000), ceiling);
    // Degenerate non-growing factors never exceed the start value.
    policy.backoffFactor = 1.0;
    EXPECT_EQ(policy.timeoutForAttempt(100000),
              policy.initialTimeout);
}

// --- Fleet crash/recover golden -------------------------------------

FleetConfig
recoveryFleetConfig(SimulatedStorage *disk)
{
    FleetConfig config;
    config.seed = 9300;
    config.devices = 4;
    config.servers = 2;
    config.clicks = 2;
    config.storage = disk;
    return config;
}

/**
 * Two-phase fleet: serve, crash, recover, probe the recovered
 * accounts, then serve a second generation over the recovered
 * state. Returns the full merged audit capture.
 */
std::string
runRecoveryFleetAudit(int threads)
{
    trust::core::setParallelThreads(threads);
    obs::resetAll();
    obs::setEnabled(true);
    SimulatedStorage disk;
    {
        Fleet fleet(recoveryFleetConfig(&disk));
        const FleetResult result = fleet.run();
        EXPECT_EQ(result.sessionsOk, 4);
    }
    // Process crash: unsynced bytes are gone.
    disk.crashClean();
    {
        Fleet fleet(recoveryFleetConfig(&disk));
        std::uint64_t replayed = 0;
        for (int s = 0; s < fleet.serverCount(); ++s) {
            const RecoveryReport &report = fleet.recovery(s);
            replayed +=
                report.replayed + (report.snapshotLoaded
                                       ? report.snapshotSeq
                                       : 0);
            EXPECT_EQ(report.skippedMalformed, 0u);
        }
        EXPECT_GT(replayed, 0u) << "recovery found no history";
        // State-sensitive probes against the *recovered* servers,
        // recorded in the global audit before phase 2 traffic: every
        // phase-1 account must already be registered.
        for (int d = 0; d < 4; ++d) {
            WebServer &srv = fleet.server(d % fleet.serverCount());
            EXPECT_TRUE(srv.accountRegistered(
                "user" + std::to_string(d)));
            LoginRequest probe;
            probe.requestId =
                9000 + static_cast<std::uint64_t>(d);
            probe.domain = srv.domain();
            probe.account = "user" + std::to_string(d);
            (void)srv.handle(probe.serialize());
        }
        const FleetResult result = fleet.run();
        EXPECT_EQ(result.sessionsOk, 4);
    }
    obs::setEnabled(false);
    std::string log = obs::audit().serialize();
    obs::resetAll();
    trust::core::setParallelThreads(0);
    return log;
}

std::string
recoveryGoldenPath()
{
    return std::string(TRUST_SOURCE_DIR) +
           "/tests/golden/recovery_audit.golden";
}

TEST(Recovery, FleetGoldenByteIdenticalAcrossThreadCounts)
{
    const std::string log1 = runRecoveryFleetAudit(1);
    const std::string log4 = runRecoveryFleetAudit(4);
    const std::string log16 = runRecoveryFleetAudit(16);

    EXPECT_EQ(log1, log4);
    EXPECT_EQ(log1, log16);
    ASSERT_FALSE(log1.empty());
    // Both generations and the recovery probes are in the capture.
    EXPECT_NE(log1.find("login-request"), std::string::npos);
    EXPECT_NE(log1.find("registration-accepted"),
              std::string::npos);

    if (std::getenv("TRUST_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(recoveryGoldenPath(), std::ios::binary);
        ASSERT_TRUE(out.good()) << recoveryGoldenPath();
        out << log1;
        GTEST_SKIP() << "golden regenerated at "
                     << recoveryGoldenPath();
    }

    std::ifstream in(recoveryGoldenPath(), std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden; run with TRUST_UPDATE_GOLDEN=1";
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(log1, buf.str())
        << "recovery audit log drifted from the committed golden; "
           "if the change is intentional regenerate with "
           "TRUST_UPDATE_GOLDEN=1";
}

} // namespace
