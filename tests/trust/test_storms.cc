/** @file Ecosystem-scale reset/transfer/revocation storms.
 *
 *  Pins the storm harness invariants:
 *   - the merged storm audit log (loss wave, upgrade day,
 *     compromised close-out) is byte-identical at 1/4/16 worker
 *     threads, pinned by a committed golden;
 *   - crashing and recovering every server at the phase-2 → phase-3
 *     barrier produces the SAME audit bytes as the uncrashed storm;
 *   - CRL application is a set union: any interleaved, shuffled or
 *     redelivered order converges to the same revoked set;
 *   - the CRL/reset wire parsers survive truncation and bit-flip
 *     sweeps, and a mutated artifact never installs a revoked set
 *     the CA did not sign;
 *   - kill-at-every-byte over a storm WAL recovers exactly the
 *     committed prefix (re-registration bursts replay, never tear);
 *   - a transferred-away identity no longer authenticates from the
 *     old phone, and a factory-reset phone's pre-reset session
 *     resumption is refused.
 *
 *  Regenerate the golden after an intentional format change with
 *      TRUST_UPDATE_GOLDEN=1 ctest -R Storm
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/obs/obs.hh"
#include "core/parallel.hh"
#include "core/rng.hh"
#include "core/wal/segment.hh"
#include "crypto/cert.hh"
#include "tests/support/fuzz.hh"
#include "tests/trust/fixtures.hh"
#include "touch/behavior.hh"
#include "trust/fleet.hh"
#include "trust/messages.hh"
#include "trust/scenario.hh"
#include "trust/store.hh"

namespace {

namespace obs = trust::core::obs;
using trust::core::Bytes;
using trust::core::Rng;
using trust::core::wal::scanWalBytes;
using trust::core::wal::SimulatedStorage;
using trust::core::wal::WalScan;
using trust::testing::bitFlipSweep;
using trust::testing::goodCapture;
using trust::testing::truncationSweep;
using trust::testing::trustFingers;
using namespace trust::trust;

/** 6 channels: 2 loss victims, 2 upgraders, 1 compromised, 1
 *  bystander — every storyline present, small enough to golden. */
StormConfig
smallStormConfig()
{
    StormConfig config;
    config.fleet.seed = 9300;
    config.fleet.devices = 6;
    config.fleet.servers = 2;
    config.fleet.clicks = 2;
    config.lossVictims = 2;
    config.upgraders = 2;
    config.compromised = 1;
    config.stormClicks = 2;
    config.verifyClicks = 2;
    return config;
}

/** Every storyline of the small storm must complete fully. */
void
expectFullNarrative(const StormResult &result)
{
    EXPECT_EQ(result.baseline.sessionsOk, 6);
    EXPECT_EQ(result.thiefRejections, 2);
    EXPECT_EQ(result.resetsApplied, 3); // 2 loss victims + 1 compromised
    EXPECT_EQ(result.reRegistrations, 2);
    EXPECT_EQ(result.transfersCompleted, 2);
    EXPECT_EQ(result.lockouts, 1);
    EXPECT_EQ(result.revokedRejections, 1);
    EXPECT_EQ(result.postStormTotal, 5); // everyone but the compromised
    EXPECT_EQ(result.postStormOk, result.postStormTotal);
    EXPECT_EQ(result.crlDeliveries, 6u); // 3 CRL waves × 2 servers
    EXPECT_EQ(result.crlAcks, 6u);
    EXPECT_EQ(result.crlSerialsFinal, 5u); // 2 lost + 2 retired + 1 locked
}

/** One storm run with the merged audit log captured. */
std::string
runStormAudit(int threads, bool restart_mid_storm)
{
    trust::core::setParallelThreads(threads);
    obs::resetAll();
    obs::setEnabled(true);
    SimulatedStorage disk;
    {
        StormConfig config = smallStormConfig();
        if (restart_mid_storm) {
            config.fleet.storage = &disk;
            config.restartServersMidStorm = true;
        }
        Storm storm(config);
        const StormResult result = storm.run();
        expectFullNarrative(result);
        if (restart_mid_storm) {
            EXPECT_EQ(result.restartRecoveries.size(), 2u);
        }
    }
    obs::setEnabled(false);
    std::string log = obs::audit().serialize();
    obs::resetAll();
    trust::core::setParallelThreads(0);
    return log;
}

std::string
stormGoldenPath()
{
    return std::string(TRUST_SOURCE_DIR) +
           "/tests/golden/storm_audit.golden";
}

TEST(Storm, GoldenByteIdenticalAcrossThreadCounts)
{
    const std::string log1 = runStormAudit(1, false);
    const std::string log4 = runStormAudit(4, false);
    const std::string log16 = runStormAudit(16, false);

    // Parallel stages touch only channel-private state + the
    // thread-safe servers; every CA interaction is serialized in
    // channel order between stages. The merged log is a pure
    // function of simulation data.
    EXPECT_EQ(log1, log4);
    EXPECT_EQ(log1, log16);

    ASSERT_FALSE(log1.empty());
    for (int d = 0; d < 6; ++d) {
        EXPECT_NE(log1.find("fleet-phone-" + std::to_string(d)),
                  std::string::npos)
            << "channel " << d << " missing from merged audit";
    }
    // The compromised storyline's lockout is visible in the log.
    EXPECT_NE(log1.find("crl-accepted"), std::string::npos);

    // Still a well-formed audit stream after the per-phase merges
    // (dense seq). Ticks are monotone only within a phase: each
    // stage barrier merges its buffers independently, and the
    // serial CA actions between stages log on the global clock.
    const auto records = obs::AuditLog::parse(log1);
    ASSERT_TRUE(records.has_value());
    ASSERT_GT(records->size(), 50u);
    for (std::size_t i = 0; i < records->size(); ++i)
        EXPECT_EQ((*records)[i].seq, i);

    if (std::getenv("TRUST_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(stormGoldenPath(), std::ios::binary);
        ASSERT_TRUE(out.good()) << stormGoldenPath();
        out << log1;
        GTEST_SKIP() << "golden regenerated at " << stormGoldenPath();
    }

    std::ifstream in(stormGoldenPath(), std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden; run with TRUST_UPDATE_GOLDEN=1";
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(log1, buf.str())
        << "storm audit log drifted from the committed golden; if "
           "the change is intentional regenerate with "
           "TRUST_UPDATE_GOLDEN=1";
}

/**
 * Crash every server at the upgrade-day → close-out barrier and
 * rebuild it from its recovered TrustStore: the continuation must be
 * byte-identical to the uncrashed storm — same audit bytes, same
 * narrative counters — at any thread count.
 */
TEST(Storm, MidStormRestartContinuationByteIdentical)
{
    const std::string plain = runStormAudit(1, false);
    const std::string restarted1 = runStormAudit(1, true);
    const std::string restarted4 = runStormAudit(4, true);

    EXPECT_EQ(restarted1, restarted4);
    EXPECT_EQ(plain, restarted1)
        << "mid-storm crash/recover changed the audit stream";
}

// --- CRL propagation -----------------------------------------------------

CrlMessage
signedCrl(const trust::crypto::CertificateAuthority &ca,
          std::uint64_t seq, std::vector<std::uint64_t> serials)
{
    CrlMessage crl;
    crl.issuer = ca.name();
    crl.crlSeq = seq;
    crl.revokedSerials = std::move(serials);
    crl.signature = ca.signWithRootKey(crl.signedBody());
    return crl;
}

/**
 * Property: the server's CRL cache is a set union, so applying any
 * interleaving — shuffled, duplicated, redelivered — of the same
 * CRL messages converges to the same revoked set and high-water.
 */
TEST(Storm, CrlApplicationIsOrderInsensitive)
{
    trust::crypto::Csprng rng(424242);
    trust::crypto::CertificateAuthority ca("TrustRootCA", 512, rng);

    const std::vector<CrlMessage> crls = {
        signedCrl(ca, 1, {3, 5, 7}),
        signedCrl(ca, 2, {5, 9, 11}),
        signedCrl(ca, 3, {3, 11, 13}),
    };

    const auto applyOrder =
        [&](const std::vector<std::size_t> &order,
            std::uint64_t server_seed) {
            WebServer server("www.crl.com", ca, server_seed);
            for (const std::size_t i : order) {
                const auto ack = server.handleCrl(crls[i]);
                EXPECT_TRUE(ack.has_value());
            }
            return std::make_pair(server.revokedSerialsSnapshot(),
                                  server.crlHighWater());
        };

    const auto [reference, high] = applyOrder({0, 1, 2}, 1);
    EXPECT_EQ(reference,
              (std::vector<std::uint64_t>{3, 5, 7, 9, 11, 13}));
    EXPECT_EQ(high, 3u);

    // Reversed, and with every message redelivered twice.
    EXPECT_EQ(applyOrder({2, 1, 0}, 2),
              std::make_pair(reference, high));
    EXPECT_EQ(applyOrder({0, 0, 2, 1, 2, 1, 0}, 3),
              std::make_pair(reference, high));

    // Seeded random interleavings with duplication.
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        Rng shuffle_rng(9400 + seed);
        std::vector<std::size_t> order = {0, 1, 2, 0, 1, 2};
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1],
                      order[static_cast<std::size_t>(
                          shuffle_rng.uniformInt(
                              0, static_cast<std::int64_t>(i) - 1))]);
        EXPECT_EQ(applyOrder(order, 10 + seed),
                  std::make_pair(reference, high))
            << "interleaving seed " << seed;
    }
}

// --- Wire-parser fuzzing -------------------------------------------------

/**
 * The CRL and out-of-band reset artifacts cross the network, so
 * their parsers must be total: every truncation fails cleanly and a
 * single bit flip either fails to parse, fails the CA signature, or
 * (flips confined to the unsigned request id) leaves the signed
 * body untouched.
 */
TEST(Storm, CrlAndResetParsersSurviveTruncationAndBitFlips)
{
    trust::crypto::Csprng ca_rng(515151);
    trust::crypto::CertificateAuthority ca("TrustRootCA", 512, ca_rng);

    CrlMessage crl = signedCrl(ca, 4, {2, 4, 8, 16, 32});
    crl.requestId = 77;
    const Bytes crl_wire = crl.serialize();

    truncationSweep(crl_wire, [](const Bytes &prefix) {
        EXPECT_FALSE(CrlMessage::deserialize(prefix).has_value());
    });
    Rng flip_rng(9500);
    bitFlipSweep(crl_wire, flip_rng, [&](const Bytes &mutated) {
        const auto parsed = CrlMessage::deserialize(mutated);
        if (parsed &&
            trust::crypto::rsaVerify(ca.rootKey(),
                                     parsed->signedBody(),
                                     parsed->signature)) {
            EXPECT_EQ(parsed->signedBody(), crl.signedBody());
        }
    });

    ResetRequest reset;
    reset.requestId = 78;
    reset.domain = "www.fleet0.com";
    reset.account = "user3";
    reset.authSeq = 9;
    reset.signature = ca.signWithRootKey(reset.signedBody());
    const Bytes reset_wire = reset.serialize();

    truncationSweep(reset_wire, [](const Bytes &prefix) {
        EXPECT_FALSE(ResetRequest::deserialize(prefix).has_value());
    });
    bitFlipSweep(reset_wire, flip_rng, [&](const Bytes &mutated) {
        const auto parsed = ResetRequest::deserialize(mutated);
        if (parsed &&
            trust::crypto::rsaVerify(ca.rootKey(),
                                     parsed->signedBody(),
                                     parsed->signature)) {
            EXPECT_EQ(parsed->signedBody(), reset.signedBody());
        }
    });

    CrlAck ack;
    ack.requestId = 79;
    ack.domain = "www.fleet0.com";
    ack.crlSeq = 4;
    ack.revokedCount = 5;
    const Bytes ack_wire = ack.serialize();
    truncationSweep(ack_wire, [](const Bytes &prefix) {
        EXPECT_FALSE(CrlAck::deserialize(prefix).has_value());
    });
    bitFlipSweep(ack_wire, flip_rng, [](const Bytes &mutated) {
        (void)CrlAck::deserialize(mutated); // total: no crash
    });

    // Through the server's dispatch path: a mutated CRL either dies
    // as malformed or fails the signature — the only revoked set it
    // can ever install is the one the CA signed.
    WebServer server("www.fuzz.com", ca, 9501);
    truncationSweep(crl_wire, [&](const Bytes &prefix) {
        (void)server.handle(prefix);
    });
    bitFlipSweep(crl_wire, flip_rng, [&](const Bytes &mutated) {
        (void)server.handle(mutated);
    });
    const auto installed = server.revokedSerialsSnapshot();
    const std::vector<std::uint64_t> signed_set = {2, 4, 8, 16, 32};
    EXPECT_TRUE(installed.empty() || installed == signed_set)
        << "a mutated CRL installed an unsigned revoked set";
}

/**
 * The transfer bundle crosses devices: truncations must be refused,
 * bit flips must never crash the importer (hybrid decryption turns
 * them into garbage plaintext the parser has to survive).
 */
TEST(Storm, TransferBundleImportSurvivesMutation)
{
    EcosystemConfig config;
    config.seed = 9520;
    Ecosystem eco(config);
    WebServer &server = eco.addServer("www.bank.com");
    const auto user = trust::touch::UserBehavior::forUser(
        41, {trust::touch::homeScreenLayout(),
             trust::touch::keyboardLayout()});
    auto &old_phone = eco.addDevice("fuzz-old", user, trustFingers()[0]);
    auto &new_phone = eco.addDevice("fuzz-new", user, trustFingers()[0]);

    Rng rng(9521);
    ASSERT_TRUE(runBrowsingSession(eco.queue(), old_phone, server, user,
                                   trustFingers()[0], rng, 1, "carol")
                    .loggedIn);
    const auto bundle = old_phone.flock().exportIdentity(
        new_phone.flock().devicePublicKey(),
        goodCapture(trustFingers()[0], 9522));
    ASSERT_TRUE(bundle.has_value());

    truncationSweep(*bundle, [&](const Bytes &prefix) {
        EXPECT_FALSE(new_phone.flock().importIdentity(prefix));
    });
    Rng flip_rng(9523);
    bitFlipSweep(*bundle, flip_rng, [&](const Bytes &mutated) {
        (void)new_phone.flock().importIdentity(mutated); // no crash
    });

    // The intact bundle still imports after the sweeps (imports are
    // whole-state replacements, so a surviving mutant can't wedge
    // the module).
    EXPECT_TRUE(new_phone.flock().importIdentity(*bundle));
    EXPECT_TRUE(new_phone.flock().hasBinding("www.bank.com"));
}

// --- Mid-storm durability ------------------------------------------------

/** Frame boundaries of a WAL image (mirrors test_recovery.cc). */
std::vector<std::size_t>
stormWalBoundaries(const Bytes &image, const WalScan &scan)
{
    std::vector<std::size_t> bounds;
    std::size_t at = 8; // u32 magic + u32 version
    bounds.push_back(at);
    for (const Bytes &record : scan.records) {
        at += 8 + record.size(); // u32 len + u32 crc + payload
        bounds.push_back(at);
    }
    EXPECT_EQ(at, image.size());
    return bounds;
}

/** One shard + one huge segment so the sweep cuts a single file. */
StorePolicy
stormSweepPolicy()
{
    StorePolicy policy;
    policy.shards = 1;
    policy.rotateBytes = 64 * 1024 * 1024;
    return policy;
}

std::string
stormWalFile()
{
    return trust::core::wal::segmentFileName("server0.s00", 1);
}

std::string
digestOfStormWalPrefix(const Bytes &image, std::size_t cut)
{
    SimulatedStorage disk;
    if (cut > 0)
        disk.appendRaw(stormWalFile(),
                       Bytes(image.begin(),
                             image.begin() +
                                 static_cast<std::ptrdiff_t>(cut)));
    TrustStore store(disk, "server0", stormSweepPolicy());
    store.recover();
    return store.stateDigest();
}

/**
 * Kill-at-every-byte over a storm's WAL: wherever the server dies
 * inside the re-registration burst, recovery reproduces exactly the
 * state after the longest committed record prefix.
 */
TEST(Storm, KillAtEveryByteMidStormRecoversCommittedPrefix)
{
    obs::setEnabled(false);
    SimulatedStorage disk;
    {
        // Smallest storm with every storyline, one durable server.
        StormConfig config;
        config.fleet.seed = 9530;
        config.fleet.devices = 3;
        config.fleet.servers = 1;
        config.fleet.clicks = 1;
        config.fleet.storage = &disk;
        config.fleet.storePolicy = stormSweepPolicy();
        config.lossVictims = 1;
        config.upgraders = 1;
        config.compromised = 1;
        config.stormClicks = 1;
        config.verifyClicks = 1;
        Storm storm(config);
        const StormResult result = storm.run();
        EXPECT_EQ(result.reRegistrations, 1);
        EXPECT_EQ(result.transfersCompleted, 1);
    }

    const Bytes image = disk.durableClone().readAll(stormWalFile());
    ASSERT_GT(image.size(), 8u);
    const WalScan scan = scanWalBytes(image);
    ASSERT_FALSE(scan.tornTail);
    // The storm's reset + re-registration + transfer churn must all
    // be in the log, not just the baseline session.
    ASSERT_GT(scan.records.size(), 10u);
    const std::vector<std::size_t> bounds =
        stormWalBoundaries(image, scan);

    std::vector<std::string> at_boundary;
    at_boundary.reserve(bounds.size());
    for (const std::size_t cut : bounds)
        at_boundary.push_back(digestOfStormWalPrefix(image, cut));

    // Mid-record cuts recover to the enclosing boundary. Stride
    // keeps the sweep bounded on large images while still cutting
    // inside every record.
    const std::size_t stride =
        std::max<std::size_t>(1, image.size() / 4096);
    std::size_t record_index = 0;
    for (std::size_t cut = 0; cut <= image.size();
         cut = (cut == image.size() ? cut + 1
                                    : std::min(cut + stride,
                                               image.size()))) {
        while (record_index + 1 < bounds.size() &&
               cut >= bounds[record_index + 1])
            ++record_index;
        const std::string expected =
            cut < bounds[0] ? at_boundary[0]
                            : at_boundary[record_index];
        ASSERT_EQ(digestOfStormWalPrefix(image, cut), expected)
            << "crash point at byte " << cut;
    }
    EXPECT_EQ(at_boundary.back(),
              digestOfStormWalPrefix(image, image.size()));
}

// --- Negative storylines -------------------------------------------------

trust::touch::TouchEvent
stormCriticalTouch(MobileDevice &device)
{
    trust::touch::TouchEvent event;
    event.position = device.screen().sensors()[0].region.center();
    event.speed = 0.05;
    event.gesture = trust::touch::GestureType::Tap;
    return event;
}

/**
 * After an identity transfer the old phone is wiped: it can no
 * longer authenticate (Sec. IV-B), its pre-reset session resumption
 * is refused, and the new phone logs in without re-registering.
 */
TEST(Storm, TransferredIdentityLocksOutOldDevice)
{
    EcosystemConfig config;
    config.seed = 9540;
    Ecosystem eco(config);
    WebServer &server = eco.addServer("www.bank.com");
    const auto user = trust::touch::UserBehavior::forUser(
        42, {trust::touch::homeScreenLayout(),
             trust::touch::keyboardLayout()});
    auto &old_phone = eco.addDevice("neg-old", user, trustFingers()[0]);
    auto &new_phone = eco.addDevice("neg-new", user, trustFingers()[0]);

    Rng rng(9541);
    const SessionOutcome before = runBrowsingSession(
        eco.queue(), old_phone, server, user, trustFingers()[0], rng, 2,
        "alice");
    ASSERT_TRUE(before.registered);
    ASSERT_TRUE(before.loggedIn);

    const auto bundle = old_phone.flock().exportIdentity(
        new_phone.flock().devicePublicKey(),
        goodCapture(trustFingers()[0], 9542));
    ASSERT_TRUE(bundle.has_value());
    ASSERT_TRUE(new_phone.flock().importIdentity(*bundle));

    // The old phone is wiped after the transfer.
    old_phone.flock().factoryReset();

    // Pre-reset session resumption is refused: the wiped FLock lost
    // the session key, so the resumed session never serves a page.
    const std::uint64_t pages_before = old_phone.pagesReceived();
    old_phone.resumeSession("www.bank.com");
    eco.settle();
    old_phone.onTouch(stormCriticalTouch(old_phone),
                      &trustFingers()[0]);
    eco.settle();
    EXPECT_EQ(old_phone.pagesReceived(), pages_before);
    EXPECT_FALSE(old_phone.sessionActive("www.bank.com"));

    // Nor can the old phone log back in from scratch — the wipe
    // took the user key and the owner's enrollment with it.
    Rng retry_rng(9543);
    const SessionOutcome old_retry = runBrowsingSession(
        eco.queue(), old_phone, server, user, trustFingers()[0], retry_rng, 1,
        "alice");
    EXPECT_FALSE(old_retry.loggedIn);

    // The new phone adopts the transferred identity and logs
    // straight in: the server kept the user key, no re-registration.
    new_phone.adoptTransferredIdentity("www.bank.com", "alice");
    Rng adopt_rng(9544);
    const SessionOutcome adopted = runBrowsingSession(
        eco.queue(), new_phone, server, user, trustFingers()[0], adopt_rng, 1,
        "alice");
    EXPECT_TRUE(adopted.loggedIn);
    EXPECT_TRUE(new_phone.sessionActive("www.bank.com"));
}

/**
 * The re-registration burst must complete even when the handshake
 * FIFOs are far too small for the correlated load — PR 5's bounded
 * tables evict, PR 2's retry machines re-drive, and every legit
 * storyline still lands.
 */
TEST(Storm, TinyHandshakeFifoStormStillCompletes)
{
    obs::setEnabled(false);
    trust::core::setParallelThreads(4);
    StormConfig config = smallStormConfig();
    config.fleet.seed = 9550;
    config.fleet.servers = 1; // all channels on one starved server
    config.fleet.serverPolicy.maxPendingHandshakes = 2;
    Storm storm(config);
    const StormResult result = storm.run();
    trust::core::setParallelThreads(0);

    EXPECT_EQ(result.reRegistrations, 2);
    EXPECT_EQ(result.transfersCompleted, 2);
    EXPECT_EQ(result.postStormOk, result.postStormTotal);
    // Leftover superseded nonces stay bounded (per-shard FIFO) and
    // TTL expiry clears them.
    storm.fleet().server(0).expireHandshakes(
        trust::core::seconds(100000));
    EXPECT_EQ(storm.fleet().server(0).pendingHandshakes(), 0u);
}

} // namespace
