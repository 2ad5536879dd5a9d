/** @file TrustStore persistence, snapshot and replay-equality tests. */

#include <gtest/gtest.h>

#include "core/parallel.hh"
#include "core/rng.hh"
#include "core/wal/segment.hh"
#include "trust/store.hh"
#include "tests/support/fuzz.hh"

namespace {

using trust::core::Bytes;
using trust::core::Rng;
using trust::core::wal::SimulatedStorage;
using namespace trust::trust;

/** One shard, one segment: the byte-level tests poke a single file. */
StorePolicy
oneShard()
{
    StorePolicy policy;
    policy.shards = 1;
    policy.rotateBytes = 64 * 1024 * 1024;
    return policy;
}

/**
 * One shard that compacts as eagerly as the policy allows: the
 * smallest segment (1 KiB) and no growth factor, so a snapshot lands
 * on every segment roll that closes at least 1 KiB of fresh log.
 */
StorePolicy
eagerCompaction()
{
    StorePolicy policy;
    policy.shards = 1;
    policy.rotateBytes = 1024;
    policy.compactionFactor = 0.0;
    return policy;
}

/** Segment file of a one-shard store named "srv". */
std::string
srvWal()
{
    return trust::core::wal::segmentFileName("srv.s00", 1);
}

StoredSession
session(const std::string &account, std::uint8_t tag)
{
    StoredSession s;
    s.account = account;
    s.sessionKey = Bytes(32, tag);
    s.expectedNonce = Bytes(16, static_cast<std::uint8_t>(tag + 1));
    s.currentTag = "page/" + std::to_string(tag);
    s.lastRequestId = tag;
    return s;
}

TEST(TrustStore, MutationsSurviveCleanRestart)
{
    SimulatedStorage disk;
    {
        TrustStore store(disk, "srv");
        store.recover();
        store.putAccount("alice", Bytes{1, 2, 3});
        store.putAccount("bob", Bytes{4, 5});
        store.eraseAccount("bob");
        store.putSession(7, session("alice", 9));
        store.setRevocations({11, 22});
    }
    // Sync-every-record: even a clean crash loses nothing committed.
    disk.crashClean();

    TrustStore store(disk, "srv");
    const RecoveryReport report = store.recover();
    EXPECT_FALSE(report.snapshotLoaded);
    EXPECT_EQ(report.replayed, 5u);
    EXPECT_EQ(report.skippedMalformed, 0u);

    const StoreState state = store.state();
    ASSERT_EQ(state.accounts.size(), 1u);
    EXPECT_EQ(state.accounts.at("alice"), (Bytes{1, 2, 3}));
    ASSERT_EQ(state.sessions.size(), 1u);
    EXPECT_EQ(state.sessions.at(7).account, "alice");
    EXPECT_EQ(state.sessions.at(7).sessionKey, Bytes(32, 9));
    EXPECT_EQ(state.sessions.at(7).currentTag, "page/9");
    EXPECT_EQ(state.revokedSerials,
              (std::vector<std::uint64_t>{11, 22}));
    EXPECT_EQ(state.maxSessionId, 7u);
}

TEST(TrustStore, RecoveredStoreKeepsAppendingSeqs)
{
    SimulatedStorage disk;
    {
        TrustStore store(disk, "srv");
        store.recover();
        store.putAccount("a", Bytes{1});
    }
    disk.crashClean();
    {
        TrustStore store(disk, "srv");
        store.recover();
        store.putAccount("b", Bytes{2});
    }
    disk.crashClean();
    TrustStore store(disk, "srv");
    const RecoveryReport report = store.recover();
    EXPECT_EQ(report.walRecords, 2u);
    EXPECT_EQ(store.state().accounts.size(), 2u);
    EXPECT_EQ(store.state().lastSeq, 2u);
}

TEST(TrustStore, SnapshotAcceleratesButNeverChangesState)
{
    SimulatedStorage with_snap_disk;
    SimulatedStorage no_snap_disk;

    const StorePolicy snapping = eagerCompaction();
    {
        TrustStore a(with_snap_disk, "srv", snapping);
        TrustStore b(no_snap_disk, "srv");
        a.recover();
        b.recover();
        for (std::uint8_t i = 0; i < 120; ++i) {
            a.putSession(i, session("u" + std::to_string(i % 3), i));
            b.putSession(i, session("u" + std::to_string(i % 3), i));
        }
        a.eraseSession(3);
        b.eraseSession(3);
        EXPECT_GE(a.snapshotsWritten(), 2u);
        EXPECT_EQ(b.snapshotsWritten(), 0u);
    }
    with_snap_disk.crashClean();
    no_snap_disk.crashClean();

    TrustStore a(with_snap_disk, "srv", snapping);
    TrustStore b(no_snap_disk, "srv");
    const RecoveryReport ra = a.recover();
    const RecoveryReport rb = b.recover();
    EXPECT_TRUE(ra.snapshotLoaded);
    EXPECT_FALSE(rb.snapshotLoaded);
    EXPECT_LT(ra.replayed, rb.replayed); // snapshot skipped a prefix
    // ...but the materialized state is identical either way.
    EXPECT_EQ(a.stateDigest(), b.stateDigest());
}

TEST(TrustStore, CorruptSnapshotDegradesToPreviousGeneration)
{
    SimulatedStorage disk;
    const StorePolicy snapping = eagerCompaction();
    std::string expected;
    {
        TrustStore store(disk, "srv", snapping);
        store.recover();
        for (std::uint8_t i = 0; i < 200; ++i)
            store.putAccount("u" + std::to_string(i), Bytes{i});
        expected = store.stateDigest();
        ASSERT_GE(store.segmentsGcd(), 1u);
    }
    disk.crashClean();
    ASSERT_TRUE(disk.exists("srv.s00.snap"));
    ASSERT_TRUE(disk.exists("srv.s00.snap.1"));

    // Flip one byte in the newest snapshot: the CRC check rejects it
    // and recovery degrades to the previous generation + a longer
    // replay — same state, never data loss.
    SimulatedStorage newest_bad = disk;
    newest_bad.corruptByte("srv.s00.snap",
                           newest_bad.size("srv.s00.snap") / 2, 0x40);
    TrustStore store(newest_bad, "srv", snapping);
    const RecoveryReport report = store.recover();
    EXPECT_TRUE(report.snapshotCorrupt);
    EXPECT_TRUE(report.snapshotLoaded); // the previous generation
    ASSERT_EQ(report.shards.size(), 1u);
    EXPECT_TRUE(report.shards[0].usedPreviousSnapshot);
    EXPECT_GT(report.replayed, 0u);
    EXPECT_LT(report.replayed, report.walRecords);
    EXPECT_EQ(store.stateDigest(), expected);
    // The surviving generation was promoted back to `.snap`.
    EXPECT_TRUE(newest_bad.exists("srv.s00.snap"));

    // Both generations corrupt: the log before the older generation
    // was compacted away, so replay stops at the sequence hole and
    // recovers the empty prefix, never later records past the hole.
    SimulatedStorage both_bad = disk;
    both_bad.corruptByte("srv.s00.snap",
                         both_bad.size("srv.s00.snap") / 2, 0x40);
    both_bad.corruptByte("srv.s00.snap.1",
                         both_bad.size("srv.s00.snap.1") / 2, 0x40);
    TrustStore full(both_bad, "srv", snapping);
    const RecoveryReport full_report = full.recover();
    EXPECT_TRUE(full_report.snapshotCorrupt);
    EXPECT_FALSE(full_report.snapshotLoaded);
    ASSERT_EQ(full_report.shards.size(), 1u);
    EXPECT_TRUE(full_report.shards[0].seqGap);
    EXPECT_EQ(full_report.replayed, 0u);
    EXPECT_EQ(full.state().accounts.size(), 0u);
}

TEST(TrustStore, TornWalTailIsTruncatedNotServed)
{
    SimulatedStorage disk;
    std::string expected;
    {
        TrustStore store(disk, "srv", oneShard());
        store.recover();
        store.putAccount("alice", Bytes{1});
        store.putAccount("bob", Bytes{2});
        expected = store.stateDigest();
    }
    disk.appendRaw(srvWal(), Bytes(9, 0xAB)); // torn half-record

    TrustStore store(disk, "srv", oneShard());
    const RecoveryReport report = store.recover();
    EXPECT_TRUE(report.walTornTail);
    EXPECT_EQ(report.walBytesDiscarded, 9u);
    EXPECT_EQ(store.stateDigest(), expected);

    // The repaired log accepts new mutations cleanly.
    store.putAccount("carol", Bytes{3});
    TrustStore reopened(disk, "srv", oneShard());
    reopened.recover();
    EXPECT_EQ(reopened.state().accounts.size(), 3u);
}

/**
 * The central replay property, over randomized histories:
 * replay(snapshot + suffix) == replay(full log), pinned via the
 * canonical state digest for many seeded policies (shard count,
 * segment size, compaction factor).
 */
TEST(TrustStoreProperty, SnapshotSuffixEqualsFullReplay)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed);
        SimulatedStorage snap_disk;
        SimulatedStorage log_disk;
        StorePolicy snapping;
        snapping.shards = static_cast<std::size_t>(rng.uniformInt(1, 4));
        snapping.rotateBytes =
            static_cast<std::size_t>(rng.uniformInt(1024, 4096));
        snapping.compactionFactor =
            static_cast<double>(rng.uniformInt(0, 4)) / 2.0;
        {
            TrustStore a(snap_disk, "srv", snapping);
            TrustStore b(log_disk, "srv");
            a.recover();
            b.recover();
            const int ops = static_cast<int>(rng.uniformInt(100, 400));
            for (int i = 0; i < ops; ++i) {
                const auto kind = rng.uniformInt(0, 4);
                const auto uid = rng.uniformInt(0, 6);
                const std::string user =
                    "u" + std::to_string(uid);
                switch (kind) {
                  case 0:
                    a.putAccount(user, Bytes{(std::uint8_t)i});
                    b.putAccount(user, Bytes{(std::uint8_t)i});
                    break;
                  case 1:
                    a.eraseAccount(user);
                    b.eraseAccount(user);
                    break;
                  case 2:
                    a.putSession(static_cast<std::uint64_t>(uid),
                                 session(user, (std::uint8_t)i));
                    b.putSession(static_cast<std::uint64_t>(uid),
                                 session(user, (std::uint8_t)i));
                    break;
                  case 3:
                    a.eraseSession(static_cast<std::uint64_t>(uid));
                    b.eraseSession(static_cast<std::uint64_t>(uid));
                    break;
                  default:
                    a.setRevocations({(std::uint64_t)i});
                    b.setRevocations({(std::uint64_t)i});
                    break;
                }
            }
        }
        snap_disk.crashClean();
        log_disk.crashClean();

        TrustStore a(snap_disk, "srv", snapping);
        TrustStore b(log_disk, "srv");
        a.recover();
        b.recover();
        EXPECT_EQ(a.stateDigest(), b.stateDigest())
            << "seed " << seed;
    }
}

/**
 * Snapshot reader totality: truncations and bit flips of a real
 * snapshot must never crash recovery — at worst the snapshot is
 * rejected and the WAL replays from scratch, converging on the same
 * digest.
 */
TEST(TrustStoreFuzz, SnapshotReaderIsTotal)
{
    SimulatedStorage disk;
    const StorePolicy snapping = eagerCompaction();
    std::string expected;
    {
        TrustStore store(disk, "srv", snapping);
        store.recover();
        for (std::uint8_t i = 0; i < 9; ++i) {
            store.putAccount("u" + std::to_string(i), Bytes{i});
            store.putSession(i, session("u" + std::to_string(i), i));
        }
        expected = store.stateDigest();
        // One snapshot and nothing compacted away: the log still
        // holds the full history behind it.
        ASSERT_EQ(store.snapshotsWritten(), 1u);
        ASSERT_EQ(store.segmentsGcd(), 0u);
    }
    disk.crashClean();
    const Bytes snap_image = disk.readAll("srv.s00.snap");
    ASSERT_FALSE(snap_image.empty());

    const auto recoverWithSnapshot = [&](const Bytes &blob) {
        SimulatedStorage mutated = disk.durableClone();
        mutated.remove("srv.s00.snap");
        mutated.remove("srv.s00.snap.1"); // isolate the fuzzed blob
        if (!blob.empty()) {
            mutated.appendRaw("srv.s00.snap", blob);
        }
        TrustStore store(mutated, "srv", snapping);
        store.recover();
        // Whatever happened to the snapshot, the WAL still holds the
        // full history: the recovered state must be exact.
        EXPECT_EQ(store.stateDigest(), expected);
    };

    trust::testing::truncationSweep(snap_image, recoverWithSnapshot);
    Rng rng(4242);
    trust::testing::bitFlipSweep(snap_image, rng, recoverWithSnapshot,
                                 128);
}

/**
 * WAL reader totality under truncation, at the store level: every
 * prefix of the log recovers to the state after some prefix of the
 * mutation history (never a mix, never a crash).
 */
TEST(TrustStoreFuzz, WalTruncationRecoversPrefixState)
{
    SimulatedStorage disk;
    std::vector<std::string> digests; // digest after k mutations
    {
        TrustStore store(disk, "srv", oneShard());
        store.recover();
        digests.push_back(store.stateDigest());
        for (std::uint8_t i = 0; i < 10; ++i) {
            store.putAccount("u" + std::to_string(i), Bytes{i});
            digests.push_back(store.stateDigest());
        }
    }
    const Bytes image = disk.readAll(srvWal());
    ASSERT_FALSE(image.empty());

    trust::testing::truncationSweep(
        image,
        [&](const Bytes &prefix) {
            SimulatedStorage mutated;
            if (!prefix.empty())
                mutated.appendRaw(srvWal(), prefix);
            TrustStore store(mutated, "srv", oneShard());
            const RecoveryReport report = store.recover();
            EXPECT_EQ(report.skippedMalformed, 0u);
            ASSERT_LE(report.replayed, 10u);
            EXPECT_EQ(store.stateDigest(),
                      digests[static_cast<std::size_t>(
                          report.replayed)]);
        },
        128);
}

// --- Sharded tier: partitioning, parallel recovery, GC, compaction --

/** A mixed workload touching many accounts/sessions, identical for
 *  every store it is applied to. */
void
applyWorkload(TrustStore &store, int mutations)
{
    for (int i = 0; i < mutations; ++i) {
        const std::string account = "u" + std::to_string(i % 37);
        switch (i % 5) {
          case 0:
            store.putAccount(account,
                             Bytes(24, static_cast<std::uint8_t>(i)));
            break;
          case 1:
          case 2:
            store.putSession(
                static_cast<std::uint64_t>(i % 53) + 1,
                session(account, static_cast<std::uint8_t>(i)));
            break;
          case 3:
            store.eraseSession(
                static_cast<std::uint64_t>(i % 53) + 1);
            break;
          default:
            store.setRevocations(
                {static_cast<std::uint64_t>(i), 7});
            break;
        }
    }
}

TEST(TrustStoreSharded, DigestIsShardCountInvariant)
{
    std::vector<std::string> digests;
    for (const std::size_t shards : {std::size_t{1}, std::size_t{3},
                                     std::size_t{16}}) {
        SimulatedStorage disk;
        StorePolicy policy;
        policy.shards = shards;
        policy.rotateBytes = 2048; // exercise rotation differently
        TrustStore store(disk, "srv", policy);
        store.recover();
        applyWorkload(store, 300);
        digests.push_back(store.stateDigest());
        EXPECT_EQ(store.shardCount(), shards);
    }
    EXPECT_EQ(digests[0], digests[1]);
    EXPECT_EQ(digests[0], digests[2]);
}

TEST(TrustStoreSharded, StateMergeMatchesShardCountOne)
{
    SimulatedStorage flat_disk;
    SimulatedStorage sharded_disk;
    StorePolicy sharded;
    sharded.shards = 8;
    TrustStore flat(flat_disk, "srv", oneShard());
    TrustStore shardedStore(sharded_disk, "srv", sharded);
    flat.recover();
    shardedStore.recover();
    applyWorkload(flat, 200);
    applyWorkload(shardedStore, 200);

    const StoreState a = flat.state();
    const StoreState b = shardedStore.state();
    EXPECT_EQ(a.accounts, b.accounts);
    EXPECT_EQ(a.revokedSerials, b.revokedSerials);
    EXPECT_EQ(a.maxSessionId, b.maxSessionId);
    EXPECT_EQ(a.lastSeq, b.lastSeq); // merged = sum of shard seqs
    ASSERT_EQ(a.sessions.size(), b.sessions.size());
    for (const auto &[id, row] : a.sessions) {
        ASSERT_TRUE(b.sessions.count(id));
        EXPECT_EQ(b.sessions.at(id).account, row.account);
        EXPECT_EQ(b.sessions.at(id).sessionKey, row.sessionKey);
    }
}

TEST(TrustStoreSharded, ParallelRecoveryIsThreadCountDeterministic)
{
    SimulatedStorage disk;
    StorePolicy policy;
    policy.rotateBytes = 1024; // many segments + snapshots + GC
    std::string expected;
    {
        TrustStore store(disk, "srv", policy);
        store.recover();
        applyWorkload(store, 500);
        expected = store.stateDigest();
    }
    disk.crashClean();

    std::vector<RecoveryReport> reports;
    for (const int threads : {1, 4, 16}) {
        SimulatedStorage image = disk;
        trust::core::setParallelThreads(threads);
        TrustStore store(image, "srv", policy);
        reports.push_back(store.recover());
        EXPECT_EQ(store.stateDigest(), expected)
            << "at " << threads << " recovery threads";
        trust::core::setParallelThreads(0);
    }
    // The merged report (not just the state) must be identical too:
    // shard results are combined in shard index order.
    for (const RecoveryReport &report : reports) {
        EXPECT_EQ(report.replayed, reports.front().replayed);
        EXPECT_EQ(report.walRecords, reports.front().walRecords);
        EXPECT_EQ(report.snapshotSeq, reports.front().snapshotSeq);
        ASSERT_EQ(report.shards.size(),
                  reports.front().shards.size());
        for (std::size_t s = 0; s < report.shards.size(); ++s) {
            EXPECT_EQ(report.shards[s].replayed,
                      reports.front().shards[s].replayed);
            EXPECT_EQ(report.shards[s].snapshotSeq,
                      reports.front().shards[s].snapshotSeq);
        }
    }
}

TEST(TrustStoreSharded, DefaultPolicyBoundsReplayToLiveState)
{
    // Regression: the default policy must NOT mean "never snapshot,
    // replay everything". A long overwrite-heavy history over a small
    // live set has to recover by replaying O(live state), not
    // O(history).
    SimulatedStorage disk;
    StorePolicy policy;
    policy.shards = 4;
    policy.rotateBytes = 1024;

    const int mutations = 4000;
    std::string expected;
    {
        TrustStore store(disk, "srv", policy);
        store.recover();
        applyWorkload(store, mutations);
        expected = store.stateDigest();
        EXPECT_GT(store.snapshotsWritten(), 0u);
        EXPECT_GT(store.segmentsGcd(), 0u);
        // Retained log stays a small multiple of the compaction
        // window, independent of history length.
        EXPECT_LT(store.logBytes(), 64u * 1024u);
    }
    disk.crashClean();

    TrustStore store(disk, "srv", policy);
    const RecoveryReport report = store.recover();
    EXPECT_TRUE(report.snapshotLoaded);
    EXPECT_EQ(store.stateDigest(), expected);
    // The replay suffix is a fraction of history, bounded by the
    // compaction trigger, not by the mutation count.
    EXPECT_LT(report.replayed,
              static_cast<std::uint64_t>(mutations) / 4);
}

TEST(TrustStoreShardedFuzz, GcNeverDropsACommittedRecord)
{
    // Segment GC safety, end to end: tiny segments force constant
    // rotation + snapshot + GC churn; after every crash the
    // recovered digest must equal the pre-crash digest (sync-every-
    // record means nothing committed may be lost). A GC that ever
    // deleted a record above the snapshot seq fails the digest.
    Rng rng(77);
    for (int round = 0; round < 8; ++round) {
        SimulatedStorage disk;
        StorePolicy policy;
        policy.shards =
            static_cast<std::size_t>(rng.uniformInt(1, 5));
        policy.rotateBytes =
            static_cast<std::size_t>(rng.uniformInt(1024, 4096));
        std::string expected;
        {
            TrustStore store(disk, "srv", policy);
            store.recover();
            applyWorkload(
                store,
                static_cast<int>(rng.uniformInt(200, 1200)));
            if (rng.chance(0.5))
                store.checkpoint();
            expected = store.stateDigest();
        }
        disk.crashClean();

        TrustStore store(disk, "srv", policy);
        const RecoveryReport report = store.recover();
        EXPECT_EQ(report.skippedMalformed, 0u);
        EXPECT_FALSE(report.walTornTail);
        EXPECT_EQ(store.stateDigest(), expected)
            << "round " << round << " shards " << policy.shards;
    }
}

TEST(TrustStoreSharded, DigestIsNeverOnTheMutationPath)
{
    // stateDigest() merges every shard under every shard lock — a
    // correctness tool for recovery equivalence, not a serving-path
    // operation. Pin that no internal store path (appends, rotation,
    // snapshots, GC, recovery) reaches it.
    SimulatedStorage disk;
    StorePolicy policy;
    policy.rotateBytes = 1024;
    {
        TrustStore store(disk, "srv", policy);
        store.recover();
        applyWorkload(store, 600);
        store.checkpoint();
        EXPECT_EQ(store.digestCalls(), 0u);
    }
    disk.crashClean();
    TrustStore store(disk, "srv", policy);
    store.recover();
    EXPECT_EQ(store.digestCalls(), 0u);
    (void)store.stateDigest();
    EXPECT_EQ(store.digestCalls(), 1u);
}

} // namespace
