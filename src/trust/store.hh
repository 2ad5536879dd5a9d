/**
 * @file
 * Durable account/session store for the trust servers.
 *
 * TrustStore is the server's account, session and revocation table:
 * WebServer reads every row from it and writes every change through
 * it. Each change becomes a seq-numbered, typed WAL record before it
 * is applied to the live table, and records are periodically folded
 * into atomically-renamed snapshots. The table is *partitioned*: rows
 * are routed by key hash to one of `StorePolicy::shards` independent
 * shards, each with its own mutex, its own segmented log
 * (core/wal/segment.hh) and its own snapshot pair — so concurrent
 * WebServer handlers on different keys never serialize on a single
 * log append, and recovery replays shards in parallel via
 * core::parallelFor.
 *
 * Invariants (pinned by tests/trust/test_store.cc and the recovery
 * golden):
 *  - Per shard, record seq numbers are strictly increasing and
 *    consecutive; replay skips records at or below the shard
 *    snapshot's lastSeq and stops at the first hole, which makes
 *    replay(snapshot + suffix) == replay(full log) by construction
 *    and keeps "a prefix of acknowledged history, exactly as
 *    committed" the only reachable recovery outcome.
 *  - Segment GC deletes a sealed segment only when every record in
 *    it is covered by the *older* of the two retained snapshot
 *    generations (<stem>.snap and <stem>.snap.1). A corrupt newest
 *    snapshot therefore still degrades to previous-snapshot +
 *    longer replay, never to data loss.
 *  - Snapshots are written to a temp file, synced, then rename()d —
 *    readers never observe a half-written snapshot; the previous
 *    snapshot generation is rotated aside, not destroyed.
 *  - Compaction is scheduled off segment rolls: when the bytes
 *    appended since the last snapshot exceed
 *    max(rotateBytes, compactionFactor × last snapshot size), the
 *    shard snapshots and GCs — so retained log bytes, and with them
 *    recovery replay work, stay O(live state), not O(history).
 *
 * **Concurrency.** Each shard's mutex is a *leaf*: no TrustStore
 * method acquires any other lock while holding one, and cross-shard
 * aggregation (state(), stateDigest(), counters) locks shards one
 * at a time. WebServer may read and write from inside its own shard
 * critical sections without lock-order cycles.
 *
 * **stateDigest() is NOT a serving-path operation.** It merges and
 * canonically hashes the *entire* materialized state — O(live
 * accounts + sessions) work and allocation per call. It exists for
 * recovery equivalence checks and tests only; no per-request server
 * or bench path may call it (pinned by digestCalls() plus a
 * regression test).
 */

#ifndef TRUST_TRUST_STORE_HH
#define TRUST_TRUST_STORE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/wal/segment.hh"
#include "core/wal/wal.hh"

namespace trust::trust {

/** Durability/partitioning/compaction knobs. */
struct StorePolicy
{
    /** WAL sync policy (see core/wal/wal.hh). */
    core::wal::SyncPolicy sync = core::wal::SyncPolicy::everyRecord();

    /** Log partitions (clamped to [1, 64]). */
    std::size_t shards = 16;

    /** Per-shard segment roll threshold (bytes). */
    std::size_t rotateBytes = 256 * 1024;

    /**
     * Compaction trigger: when a shard's active segment rolls,
     * snapshot (and GC the segments the older snapshot generation
     * covers) once the bytes appended since the last snapshot exceed
     * max(rotateBytes, factor × last snapshot bytes). This keeps
     * long-running stores recoverable in O(live state); larger
     * factors trade recovery replay for lower snapshot write
     * amplification. Snapshots only accelerate recovery —
     * correctness never depends on one landing.
     */
    double compactionFactor = 2.0;
};

/** One session: the WebServer's live row and its persisted record. */
struct StoredSession
{
    std::string account;
    core::Bytes sessionKey;    // trustlint: secret
    core::Bytes expectedNonce; // trustlint: secret
    std::string currentTag; ///< Tag of the page last served.
    /**
     * Highest request id accepted in this session. Ids are
     * device-monotonic, so after MAC verification anything at or
     * below this is a duplicate (late retransmission) and is
     * rejected rather than re-served with a fresh nonce.
     */
    std::uint64_t lastRequestId = 0;
};

/** The replayed materialized state (one shard's partition, or the
 *  merged whole-store view returned by state()). */
struct StoreState
{
    /** account -> serialized RSA public key. */
    std::map<std::string, core::Bytes> accounts;
    std::map<std::uint64_t, StoredSession> sessions;
    std::vector<std::uint64_t> revokedSerials;
    /** Highest session id ever issued (0 = none). */
    std::uint64_t maxSessionId = 0;
    /** Seq of the last applied mutation (merged view: sum of shard
     *  seqs == total mutations ever applied). */
    std::uint64_t lastSeq = 0;
};

/** What recovering one shard found on boot. */
struct ShardRecovery
{
    bool snapshotLoaded = false;
    bool snapshotCorrupt = false;
    /** True when the newest snapshot was rejected and the previous
     *  generation (.snap.1) was loaded instead. */
    bool usedPreviousSnapshot = false;
    std::uint64_t snapshotSeq = 0;
    std::uint64_t walRecords = 0; ///< Valid records scanned.
    std::uint64_t replayed = 0;   ///< Records applied (> snapshot).
    std::uint64_t skippedMalformed = 0;
    bool walTornTail = false;
    std::string walTailReason;
    std::size_t walBytesDiscarded = 0;
    std::size_t segments = 0;        ///< Segment files scanned.
    std::size_t droppedSegments = 0; ///< Deleted after damage.
    /** True when replay stopped at a sequence hole (a record chain
     *  interrupted by damage to a middle segment). */
    bool seqGap = false;
};

/** Aggregated boot-recovery report (sums/ORs over the shards). */
struct RecoveryReport
{
    bool snapshotLoaded = false;  ///< Any shard loaded a snapshot.
    bool snapshotCorrupt = false; ///< Any shard rejected one.
    std::uint64_t snapshotSeq = 0; ///< Sum of shard snapshot seqs.
    std::uint64_t walRecords = 0;
    std::uint64_t replayed = 0;
    std::uint64_t skippedMalformed = 0;
    bool walTornTail = false;
    std::string walTailReason; ///< First non-empty shard reason.
    std::size_t walBytesDiscarded = 0;
    std::size_t segments = 0;
    std::size_t droppedSegments = 0;

    /** Per-shard detail, indexed by shard. */
    std::vector<ShardRecovery> shards;
};

/** Crash-recoverable mutation log + snapshotter for one server. */
class TrustStore
{
  public:
    /**
     * @param storage backing simulated disk (shared across stores).
     * @param name    file-name stem; shard s owns
     *                "<name>.s<ss>.seg-<firstSeq>" segment files and
     *                "<name>.s<ss>.snap{,.1,.tmp}" snapshots.
     */
    TrustStore(core::wal::SimulatedStorage &storage, std::string name,
               StorePolicy policy = {});

    /**
     * Boot-time recovery: per shard — load the newest valid
     * snapshot generation, scan + repair the segment chain, replay
     * the suffix. Shards recover concurrently via core::parallelFor;
     * the result is identical at any worker-thread count. Call
     * once, before any mutation. Idempotent on a clean store.
     */
    RecoveryReport recover();

    /** Merged materialized state (copy; thread-safe). O(live):
     *  for tests and audits; serving reads single rows below. */
    StoreState state() const;

    // --- Mutations (each durably logged before returning) ------------

    void putAccount(const std::string &account,
                    const core::Bytes &serializedKey);
    void eraseAccount(const std::string &account);
    void putSession(std::uint64_t id, const StoredSession &session);
    void eraseSession(std::uint64_t id);
    void setRevocations(const std::vector<std::uint64_t> &serials);

    /**
     * Replace session @p id with @p session (logged like putSession)
     * only if its stored expectedNonce still equals @p expectedNonce,
     * compared in constant time. Returns false, logging nothing, when
     * the session is gone or another request rotated its nonce.
     */
    bool replaceSessionIf(std::uint64_t id,
                          const core::Bytes &expectedNonce,
                          const StoredSession &session);

    /** Erase (and log) every session of @p account. */
    void eraseSessionsOf(const std::string &account);

    // --- Row reads (thread-safe; one shard lock at a time) ----------

    bool hasAccount(const std::string &account) const;
    /** Copy of session @p id, or nullopt. */
    std::optional<StoredSession> session(std::uint64_t id) const;
    /** The revoked device-certificate serials last set. */
    std::vector<std::uint64_t> revocations() const;
    /** Highest session id ever issued (0 = none). */
    std::uint64_t maxSessionId() const;

    /** Force out group-commit tails + a snapshot of every shard. */
    void checkpoint();

    /**
     * Canonical SHA-256 over the merged materialized state (hex).
     * Two stores with identical logical content digest identically
     * regardless of how they got there (full replay vs snapshot +
     * suffix) — the equality the recovery sweep pins.
     *
     * COST: O(live state) hashing per call (streamed via a k-way
     * merge over the shard maps, all shard locks held throughout).
     * Recovery/test-only — never call this on a per-request serving
     * or bench hot path (digestCalls() + a regression test pin
     * this).
     */
    std::string stateDigest() const;

    /** Times stateDigest() has run (hot-path regression hook). */
    std::uint64_t digestCalls() const;

    // --- Cheap aggregate accessors (no state merge) -------------------

    std::uint64_t mutations() const;
    std::uint64_t snapshotsWritten() const;
    std::size_t liveAccounts() const;
    std::size_t liveSessions() const;
    /** Total bytes across all live segment files. */
    std::size_t logBytes() const;
    /** Live segment files across all shards. */
    std::size_t segmentCount() const;
    /** Segments deleted by GC over this store's lifetime. */
    std::uint64_t segmentsGcd() const;
    /** Total snapshot blob bytes ever written. */
    std::uint64_t snapshotBytesWritten() const;
    /** Cumulative WAL frame bytes ever appended (never shrinks on
     *  GC) — write-amplification accounting for benches. */
    std::uint64_t walBytesAppended() const;
    /** Bytes of every store-owned file currently on storage. */
    std::size_t storageBytes() const;

    /**
     * Refresh the store gauges in the metrics registry from the
     * accessors above (live accounts/sessions, log bytes, segments,
     * snapshots, GC). The store keeps the only counts; the registry
     * gets a copy here so mutation paths never pay a cross-shard sum
     * or a registry lookup. Called by checkpoint() and recover();
     * benches may call it directly.
     */
    void publishMetrics() const;

    // --- Shard topology (tests + benches) -----------------------------

    std::size_t shardCount() const { return shards_.size(); }
    std::size_t shardForAccount(const std::string &account) const;
    std::size_t shardForSession(std::uint64_t id) const;
    /** File-name stem of shard @p shard ("<name>.s<ss>"). */
    std::string shardStem(std::size_t shard) const;

    const std::string &name() const { return name_; }

  private:
    enum class RecordType : std::uint8_t
    {
        AccountPut = 1,
        AccountErase = 2,
        SessionPut = 3,
        SessionErase = 4,
        Revocations = 5,
    };

    struct Shard
    {
        mutable std::mutex mutex; ///< Leaf lock; see file comment.
        std::unique_ptr<core::wal::SegmentedWalWriter> log;
        StoreState state; ///< This shard's key partition only.
        std::uint64_t nextSeq = 1;
        std::uint64_t mutations = 0;
        std::size_t bytesSinceSnapshot = 0;
        std::uint64_t snapshotsWritten = 0;
        std::uint64_t snapshotBytes = 0;
        /** Size of the newest snapshot blob (compaction trigger). */
        std::size_t lastSnapshotBytes = 0;
        /**
         * Seq covered by the current `.snap`. At the next snapshot
         * rotation this becomes the seq of `.snap.1` — and with it
         * the segment-GC bound (GC may only drop records the *older*
         * generation covers).
         */
        std::uint64_t lastSnapshotSeq = 0;
    };

    /** Append one mutation record to @p shard; caller holds mutex. */
    void appendLocked(Shard &shard, RecordType type,
                      const core::Bytes &body);

    /** Apply one decoded record to @p state (shared by replay). */
    static bool applyRecord(StoreState &state,
                            const core::Bytes &payload);

    /** Serialize / parse a shard snapshot blob (CRC-framed). */
    static core::Bytes serializeSnapshot(const StoreState &state);
    static bool parseSnapshot(const core::Bytes &blob,
                              StoreState *state);

    void maybeSnapshotLocked(Shard &shard, bool rolled);
    void writeSnapshotLocked(Shard &shard);
    ShardRecovery recoverShard(Shard &shard, std::size_t index);

    std::string snapFile(std::size_t shard) const;
    std::string prevSnapFile(std::size_t shard) const;
    std::string snapTmpFile(std::size_t shard) const;
    std::size_t indexOf(const Shard &shard) const;

    core::wal::SimulatedStorage &storage_;
    std::string name_;
    StorePolicy policy_;
    std::vector<std::unique_ptr<Shard>> shards_;
    mutable std::atomic<std::uint64_t> digestCalls_{0};
};

} // namespace trust::trust

#endif // TRUST_TRUST_STORE_HH
