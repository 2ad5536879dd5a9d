#include "trust/store.hh"

#include <algorithm>

#include "core/hex.hh"
#include "core/obs/obs.hh"
#include "core/parallel.hh"
#include "crypto/sha256.hh"

namespace trust::trust {

namespace {

constexpr std::uint32_t kSnapMagic = 0x50414E53u; // "SNAP" LE
constexpr std::uint32_t kSnapVersion = 1;

/**
 * FNV-1a over the account name. std::hash<std::string> is
 * implementation-defined; shard routing must be stable across
 * toolchains because segment files persist the routing decision.
 */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : s) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 1099511628211ull;
    }
    return h;
}

// --- Record layouts -----------------------------------------------------
//
// Each persisted row is listed once and shared by the WAL records,
// the replay decoder, the snapshot body and stateDigest(). The
// revocation list is one vector field (core::writeField/readField).

/** Account row: name, serialized RSA public key. */
auto
accountRow(core::FieldsOf<std::string> auto &account,
           core::FieldsOf<core::Bytes> auto &key)
{
    return std::tie(account, key);
}

/** Session row: id, then the StoredSession fields. */
auto
sessionRow(core::FieldsOf<std::uint64_t> auto &id,
           core::FieldsOf<StoredSession> auto &session)
{
    return std::tie(id, session.account, session.sessionKey,
                    session.expectedNonce, session.currentTag,
                    session.lastRequestId);
}

/** One record body: the fields of @p row, in order. */
template <typename... T>
core::Bytes
encodeRow(const std::tuple<T &...> &row)
{
    core::ByteWriter w;
    core::writeFields(w, row);
    return w.take();
}

/**
 * Visit the entries of map @p field across @p parts in key order.
 * Parts hold disjoint keys (one per shard), so this is a k-way merge
 * that never builds a merged copy.
 */
template <typename Map, typename Visit>
void
forEachInKeyOrder(const std::vector<const StoreState *> &parts,
                  Map StoreState::*field, Visit visit)
{
    std::vector<typename Map::const_iterator> it;
    std::vector<typename Map::const_iterator> end;
    for (const StoreState *part : parts) {
        it.push_back((part->*field).begin());
        end.push_back((part->*field).end());
    }
    for (;;) {
        std::size_t best = parts.size();
        for (std::size_t s = 0; s < parts.size(); ++s) {
            if (it[s] == end[s])
                continue;
            if (best == parts.size() || it[s]->first < it[best]->first)
                best = s;
        }
        if (best == parts.size())
            return;
        visit(*it[best]);
        ++it[best];
    }
}

/**
 * Canonical serialization of the union of @p parts (shared by
 * snapshots and stateDigest(); ordered maps → deterministic bytes):
 * maxSessionId, the accounts, the sessions, the revocation list.
 * @p flush runs after each row so a caller can stream @p w's bytes
 * elsewhere instead of accumulating them.
 */
template <typename Flush>
void
writeStateBody(core::ByteWriter &w,
               const std::vector<const StoreState *> &parts, Flush flush)
{
    std::uint64_t max_session = 0;
    std::size_t n_accounts = 0;
    std::size_t n_sessions = 0;
    for (const StoreState *part : parts) {
        max_session = std::max(max_session, part->maxSessionId);
        n_accounts += part->accounts.size();
        n_sessions += part->sessions.size();
    }
    w.writeU64(max_session);
    w.writeU32(static_cast<std::uint32_t>(n_accounts));
    forEachInKeyOrder(parts, &StoreState::accounts,
                      [&](const auto &entry) {
                          core::writeFields(
                              w, accountRow(entry.first, entry.second));
                          flush(w);
                      });
    w.writeU32(static_cast<std::uint32_t>(n_sessions));
    forEachInKeyOrder(parts, &StoreState::sessions,
                      [&](const auto &entry) {
                          core::writeFields(
                              w, sessionRow(entry.first, entry.second));
                          flush(w);
                      });
    // Revocations route to shard 0 by construction; the merged view
    // is the first part's list.
    core::writeField(w, parts.front()->revokedSerials);
}

} // namespace

TrustStore::TrustStore(core::wal::SimulatedStorage &storage,
                       std::string name, StorePolicy policy)
    : storage_(storage), name_(std::move(name)), policy_(policy)
{
    policy_.shards = std::clamp<std::size_t>(policy_.shards, 1, 64);
    policy_.rotateBytes = std::max<std::size_t>(policy_.rotateBytes,
                                                1024);
    core::wal::SegmentedWalOptions options;
    options.rotateBytes = policy_.rotateBytes;
    options.sync = policy_.sync;
    shards_.reserve(policy_.shards);
    for (std::size_t s = 0; s < policy_.shards; ++s) {
        auto shard = std::make_unique<Shard>();
        shard->log = std::make_unique<core::wal::SegmentedWalWriter>(
            storage_, shardStem(s), options);
        shards_.push_back(std::move(shard));
    }
}

std::string
TrustStore::shardStem(std::size_t shard) const
{
    std::string stem = name_;
    stem += ".s";
    stem += static_cast<char>('0' + shard / 10);
    stem += static_cast<char>('0' + shard % 10);
    return stem;
}

std::string
TrustStore::snapFile(std::size_t shard) const
{
    return shardStem(shard) + ".snap";
}

std::string
TrustStore::prevSnapFile(std::size_t shard) const
{
    return shardStem(shard) + ".snap.1";
}

std::string
TrustStore::snapTmpFile(std::size_t shard) const
{
    return shardStem(shard) + ".snap.tmp";
}

std::size_t
TrustStore::shardForAccount(const std::string &account) const
{
    return static_cast<std::size_t>(fnv1a(account) % shards_.size());
}

std::size_t
TrustStore::shardForSession(std::uint64_t id) const
{
    return static_cast<std::size_t>(id % shards_.size());
}

std::size_t
TrustStore::indexOf(const Shard &shard) const
{
    for (std::size_t s = 0; s < shards_.size(); ++s)
        if (shards_[s].get() == &shard)
            return s;
    return 0;
}

ShardRecovery
TrustStore::recoverShard(Shard &shard, std::size_t index)
{
    std::lock_guard<std::mutex> lock(shard.mutex);
    ShardRecovery report;
    shard.state = StoreState{};

    // A crash between snapshot sync and rename leaves the tmp file
    // behind; it was never promoted, so it is dead weight.
    storage_.remove(snapTmpFile(index));

    // Load the newest snapshot generation that parses. A corrupt
    // newest generation is *deleted* (never rotated back into the
    // fallback slot) and the previous generation is promoted to
    // `.snap`, so the on-disk invariant after recovery is: `.snap`,
    // when present, is valid and is the seq every later snapshot
    // rotation may GC up to.
    const std::string snap = snapFile(index);
    const std::string prev = prevSnapFile(index);
    if (storage_.exists(snap)) {
        StoreState loaded;
        if (parseSnapshot(storage_.readAll(snap), &loaded)) {
            shard.state = std::move(loaded);
            report.snapshotLoaded = true;
        } else {
            report.snapshotCorrupt = true;
            storage_.remove(snap);
        }
    }
    if (!report.snapshotLoaded && storage_.exists(prev)) {
        StoreState loaded;
        if (parseSnapshot(storage_.readAll(prev), &loaded)) {
            shard.state = std::move(loaded);
            report.snapshotLoaded = true;
            report.usedPreviousSnapshot = true;
            storage_.rename(prev, snap);
        } else {
            report.snapshotCorrupt = true;
            storage_.remove(prev);
        }
    }
    report.snapshotSeq = shard.state.lastSeq;

    // Scan + repair this shard's segment chain, then replay the
    // suffix past the snapshot. Replay stops at the first sequence
    // hole: records after a hole are not a prefix of history.
    const core::wal::SegmentedScan scan =
        core::wal::scanAndRepairSegments(storage_, shardStem(index));
    report.segments = scan.segments;
    report.droppedSegments = scan.droppedSegments;
    report.walRecords = scan.records.size();
    report.walTornTail = scan.tornTail;
    report.walTailReason = scan.tailReason;
    report.walBytesDiscarded = scan.bytesDiscarded;

    for (const core::Bytes &payload : scan.records) {
        // Peek the seq (second field) to skip pre-snapshot records.
        core::ByteReader r(payload);
        r.readU8();
        const std::uint64_t seq = r.readU64();
        if (!r.ok()) {
            ++report.skippedMalformed;
            continue;
        }
        if (seq <= shard.state.lastSeq)
            continue; // already folded into the snapshot
        if (seq != shard.state.lastSeq + 1) {
            report.seqGap = true;
            break;
        }
        if (applyRecord(shard.state, payload)) {
            shard.state.lastSeq = seq;
            ++report.replayed;
        } else {
            ++report.skippedMalformed;
        }
    }

    // Re-list the (now repaired) chain so the appender's view matches
    // the disk, and reset compaction bookkeeping conservatively: no
    // GC until the next snapshot rotation establishes a fresh bound.
    core::wal::SegmentedWalOptions options;
    options.rotateBytes = policy_.rotateBytes;
    options.sync = policy_.sync;
    shard.log = std::make_unique<core::wal::SegmentedWalWriter>(
        storage_, shardStem(index), options);
    shard.nextSeq = shard.state.lastSeq + 1;
    shard.bytesSinceSnapshot = 0;
    shard.lastSnapshotSeq = report.snapshotLoaded
                                ? report.snapshotSeq
                                : 0;
    shard.lastSnapshotBytes =
        report.snapshotLoaded ? storage_.size(snap) : 0;
    return report;
}

RecoveryReport
TrustStore::recover()
{
    const auto n = static_cast<int>(shards_.size());
    std::vector<ShardRecovery> reports(shards_.size());
    // Shards are disjoint (own files, own state, own mutex), so the
    // per-shard recoveries commute; the merge below runs in shard
    // index order, making the aggregate — and the recovered state —
    // identical at any worker-thread count.
    core::parallelFor(0, n, 1, [&](int begin, int end) {
        for (int s = begin; s < end; ++s)
            reports[static_cast<std::size_t>(s)] = recoverShard(
                *shards_[static_cast<std::size_t>(s)],
                static_cast<std::size_t>(s));
    });

    RecoveryReport report;
    for (const ShardRecovery &r : reports) {
        report.snapshotLoaded = report.snapshotLoaded || r.snapshotLoaded;
        report.snapshotCorrupt =
            report.snapshotCorrupt || r.snapshotCorrupt;
        report.snapshotSeq += r.snapshotSeq;
        report.walRecords += r.walRecords;
        report.replayed += r.replayed;
        report.skippedMalformed += r.skippedMalformed;
        report.walTornTail = report.walTornTail || r.walTornTail;
        if (report.walTailReason.empty())
            report.walTailReason = r.walTailReason;
        report.walBytesDiscarded += r.walBytesDiscarded;
        report.segments += r.segments;
        report.droppedSegments += r.droppedSegments;
    }
    report.shards = std::move(reports);
    publishMetrics();
    return report;
}

StoreState
TrustStore::state() const
{
    // Merge the shard partitions (disjoint key sets) one lock at a
    // time. Callers quiesce mutations before relying on cross-shard
    // consistency; within a shard the copy is always consistent.
    StoreState merged;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const Shard &shard = *shards_[s];
        std::lock_guard<std::mutex> lock(shard.mutex);
        for (const auto &[account, key] : shard.state.accounts)
            merged.accounts[account] = key;
        for (const auto &[id, session] : shard.state.sessions)
            merged.sessions[id] = session;
        if (!shard.state.revokedSerials.empty())
            merged.revokedSerials = shard.state.revokedSerials;
        merged.maxSessionId =
            std::max(merged.maxSessionId, shard.state.maxSessionId);
        merged.lastSeq += shard.state.lastSeq;
    }
    return merged;
}

bool
TrustStore::hasAccount(const std::string &account) const
{
    const Shard &shard = *shards_[shardForAccount(account)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    return shard.state.accounts.count(account) > 0;
}

std::optional<StoredSession>
TrustStore::session(std::uint64_t id) const
{
    const Shard &shard = *shards_[shardForSession(id)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.state.sessions.find(id);
    if (it == shard.state.sessions.end())
        return std::nullopt;
    return it->second;
}

std::vector<std::uint64_t>
TrustStore::revocations() const
{
    // Revocations live in shard 0 (see setRevocations()).
    const Shard &shard = *shards_[0];
    std::lock_guard<std::mutex> lock(shard.mutex);
    return shard.state.revokedSerials;
}

std::uint64_t
TrustStore::maxSessionId() const
{
    std::uint64_t max_id = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        max_id = std::max(max_id, shard->state.maxSessionId);
    }
    return max_id;
}

void
TrustStore::appendLocked(Shard &shard, RecordType type,
                         const core::Bytes &body)
{
    core::ByteWriter w;
    w.writeU8(static_cast<std::uint8_t>(type));
    w.writeU64(shard.nextSeq);
    w.writeRaw(body);
    const core::Bytes payload = w.take();
    const bool rolled = shard.log->append(shard.nextSeq, payload);
    // Mirror the append into the live state via the same decoder the
    // replay path uses: one code path, one semantics.
    if (applyRecord(shard.state, payload))
        shard.state.lastSeq = shard.nextSeq;
    ++shard.nextSeq;
    ++shard.mutations;
    shard.bytesSinceSnapshot += payload.size() + 8; // + frame header
    maybeSnapshotLocked(shard, rolled);
}

void
TrustStore::putAccount(const std::string &account,
                       const core::Bytes &serializedKey)
{
    Shard &shard = *shards_[shardForAccount(account)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    appendLocked(shard, RecordType::AccountPut,
                 encodeRow(accountRow(account, serializedKey)));
}

void
TrustStore::eraseAccount(const std::string &account)
{
    Shard &shard = *shards_[shardForAccount(account)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    appendLocked(shard, RecordType::AccountErase,
                 encodeRow(std::tie(account)));
}

void
TrustStore::putSession(std::uint64_t id, const StoredSession &session)
{
    Shard &shard = *shards_[shardForSession(id)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    appendLocked(shard, RecordType::SessionPut,
                 encodeRow(sessionRow(id, session)));
}

void
TrustStore::eraseSession(std::uint64_t id)
{
    Shard &shard = *shards_[shardForSession(id)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    appendLocked(shard, RecordType::SessionErase, encodeRow(std::tie(id)));
}

// trustlint: validator
bool
TrustStore::replaceSessionIf(std::uint64_t id,
                             const core::Bytes &expectedNonce,
                             const StoredSession &session)
{
    Shard &shard = *shards_[shardForSession(id)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.state.sessions.find(id);
    if (it == shard.state.sessions.end() ||
        !core::constantTimeEqual(it->second.expectedNonce,
                                 expectedNonce))
        return false;
    appendLocked(shard, RecordType::SessionPut,
                 encodeRow(sessionRow(id, session)));
    return true;
}

void
TrustStore::eraseSessionsOf(const std::string &account)
{
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        // Collect first: each logged erase also erases from the map.
        std::vector<std::uint64_t> ids;
        for (const auto &[id, session] : shard->state.sessions)
            if (session.account == account)
                ids.push_back(id);
        for (const std::uint64_t id : ids)
            appendLocked(*shard, RecordType::SessionErase,
                         encodeRow(std::tie(id)));
    }
}

void
TrustStore::setRevocations(const std::vector<std::uint64_t> &serials)
{
    // Revocation state is one whole-fleet value, not keyed data: it
    // lives in shard 0 so replay order against itself is total.
    Shard &shard = *shards_[0];
    std::lock_guard<std::mutex> lock(shard.mutex);
    appendLocked(shard, RecordType::Revocations,
                 encodeRow(std::tie(serials)));
}

void
TrustStore::checkpoint()
{
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        Shard &shard = *shards_[s];
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.log->flush();
        writeSnapshotLocked(shard);
    }
    publishMetrics();
}

// trustlint: untrusted-input
bool
TrustStore::applyRecord(StoreState &state, const core::Bytes &payload)
{
    core::ByteReader r(payload);
    const auto type = r.readU8();
    r.readU64(); // seq: tracked by the caller
    switch (static_cast<RecordType>(type)) {
      case RecordType::AccountPut: {
        std::string account;
        core::Bytes key;
        core::readFields(r, accountRow(account, key));
        if (!r.ok() || !r.atEnd())
            return false;
        state.accounts[account] = std::move(key);
        return true;
      }
      case RecordType::AccountErase: {
        std::string account;
        core::readField(r, account);
        if (!r.ok() || !r.atEnd())
            return false;
        state.accounts.erase(account);
        return true;
      }
      case RecordType::SessionPut: {
        std::uint64_t id = 0;
        StoredSession session;
        core::readFields(r, sessionRow(id, session));
        if (!r.ok() || !r.atEnd())
            return false;
        state.sessions[id] = std::move(session);
        if (id > state.maxSessionId)
            state.maxSessionId = id;
        return true;
      }
      case RecordType::SessionErase: {
        std::uint64_t id = 0;
        core::readField(r, id);
        if (!r.ok() || !r.atEnd())
            return false;
        state.sessions.erase(id);
        return true;
      }
      case RecordType::Revocations: {
        std::vector<std::uint64_t> serials;
        core::readField(r, serials);
        if (!r.ok() || !r.atEnd())
            return false;
        state.revokedSerials = std::move(serials);
        return true;
      }
    }
    return false;
}

core::Bytes
TrustStore::serializeSnapshot(const StoreState &state)
{
    // Canonical body: ordered maps serialize in key order, so two
    // logically equal states produce identical snapshot bytes.
    core::ByteWriter body;
    body.writeU64(state.lastSeq);
    writeStateBody(body, {&state}, [](core::ByteWriter &) {});

    const core::Bytes payload = body.take();
    core::ByteWriter w;
    w.writeU32(kSnapMagic);
    w.writeU32(kSnapVersion);
    w.writeU32(core::wal::crc32(payload));
    w.writeBytes(payload);
    return w.take();
}

// trustlint: untrusted-input
bool
TrustStore::parseSnapshot(const core::Bytes &blob, StoreState *state)
{
    core::ByteReader r(blob);
    if (r.readU32() != kSnapMagic || r.readU32() != kSnapVersion ||
        !r.ok())
        return false;
    const std::uint32_t expected_crc = r.readU32();
    const core::Bytes payload = r.readBytes();
    if (!r.ok() || !r.atEnd() ||
        core::wal::crc32(payload) != expected_crc)
        return false;

    // Counts are untrusted: every loop stops once the reader runs dry.
    StoreState out;
    core::ByteReader b(payload);
    out.lastSeq = b.readU64();
    out.maxSessionId = b.readU64();
    const std::uint32_t n_accounts = b.readU32();
    for (std::uint32_t i = 0; i < n_accounts && b.ok(); ++i) {
        std::string account;
        core::Bytes key;
        core::readFields(b, accountRow(account, key));
        out.accounts[account] = std::move(key);
    }
    const std::uint32_t n_sessions = b.readU32();
    for (std::uint32_t i = 0; i < n_sessions && b.ok(); ++i) {
        std::uint64_t id = 0;
        StoredSession session;
        core::readFields(b, sessionRow(id, session));
        out.sessions[id] = std::move(session);
    }
    core::readField(b, out.revokedSerials);
    if (!b.ok() || !b.atEnd())
        return false;
    *state = std::move(out);
    return true;
}

void
TrustStore::maybeSnapshotLocked(Shard &shard, bool rolled)
{
    if (!rolled)
        return;
    // Compaction trigger: snapshot once the log has outgrown the
    // live state by the configured factor. This keeps retained log
    // bytes — and recovery replay — O(live state) while bounding
    // snapshot write amplification (a snapshot is only re-written
    // after at least factor × its own size of fresh log).
    const auto floor_bytes = static_cast<double>(policy_.rotateBytes);
    const double threshold = std::max(
        floor_bytes, policy_.compactionFactor *
                         static_cast<double>(shard.lastSnapshotBytes));
    if (static_cast<double>(shard.bytesSinceSnapshot) >= threshold)
        writeSnapshotLocked(shard);
}

void
TrustStore::writeSnapshotLocked(Shard &shard)
{
    const std::size_t index = indexOf(shard);
    // The records being folded must be durable before the snapshot
    // claims to cover them.
    shard.log->flush();
    const core::Bytes blob = serializeSnapshot(shard.state);
    const std::string tmp = snapTmpFile(index);
    const std::string snap = snapFile(index);
    storage_.remove(tmp);
    storage_.append(tmp, blob);
    storage_.sync(tmp);
    // Two-generation retention: the old `.snap` rotates to `.snap.1`
    // before the new one is promoted. A crash at any point leaves at
    // least one valid generation reachable, and segment GC below is
    // bounded by the *older* surviving generation — so a corrupt
    // newest snapshot degrades to previous-snapshot + longer replay,
    // never to data loss.
    std::uint64_t gc_bound = 0;
    if (storage_.exists(snap)) {
        storage_.rename(snap, prevSnapFile(index));
        gc_bound = shard.lastSnapshotSeq;
    }
    storage_.rename(tmp, snap);
    shard.lastSnapshotSeq = shard.state.lastSeq;
    shard.lastSnapshotBytes = blob.size();
    shard.bytesSinceSnapshot = 0;
    ++shard.snapshotsWritten;
    shard.snapshotBytes += blob.size();
    shard.log->gc(gc_bound);
}

std::string
TrustStore::stateDigest() const
{
    // COST WARNING: hashes the entire store — O(live accounts +
    // sessions) per call. Recovery equivalence checks and tests
    // only; never call on a per-request path (digestCalls() exists
    // so tests can pin that).
    digestCalls_.fetch_add(1, std::memory_order_relaxed);

    // Hold every shard lock for the duration (index order; mutation
    // paths only ever hold ONE shard lock and never take another, so
    // the order is acyclic) and stream writeStateBody() — the
    // snapshot body's encoder — over all shard partitions through the
    // hash, one row at a time: a million-account digest never
    // materializes a merged copy. The merge makes the byte stream
    // independent of the shard count: equal logical content digests
    // equal regardless of partitioning or history (full replay vs
    // snapshot + suffix). lastSeq is excluded on purpose for the
    // same reason.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (const auto &shard : shards_)
        locks.emplace_back(shard->mutex);

    std::vector<const StoreState *> parts;
    for (const auto &shard : shards_)
        parts.push_back(&shard->state);
    crypto::Sha256 hash;
    core::ByteWriter w;
    writeStateBody(w, parts,
                   [&hash](core::ByteWriter &row) {
                       hash.update(row.take());
                   });
    hash.update(w.take());
    return core::hexEncode(hash.finish());
}

std::uint64_t
TrustStore::digestCalls() const
{
    return digestCalls_.load(std::memory_order_relaxed);
}

std::uint64_t
TrustStore::mutations() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->mutations;
    }
    return total;
}

std::uint64_t
TrustStore::snapshotsWritten() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->snapshotsWritten;
    }
    return total;
}

std::size_t
TrustStore::liveAccounts() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->state.accounts.size();
    }
    return total;
}

std::size_t
TrustStore::liveSessions() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->state.sessions.size();
    }
    return total;
}

std::size_t
TrustStore::logBytes() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->log->totalBytes();
    }
    return total;
}

std::size_t
TrustStore::segmentCount() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->log->segmentCount();
    }
    return total;
}

std::uint64_t
TrustStore::segmentsGcd() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->log->segmentsGcd();
    }
    return total;
}

std::uint64_t
TrustStore::snapshotBytesWritten() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->snapshotBytes;
    }
    return total;
}

std::uint64_t
TrustStore::walBytesAppended() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->log->bytesAppended();
    }
    return total;
}

std::size_t
TrustStore::storageBytes() const
{
    std::size_t total = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const Shard &shard = *shards_[s];
        std::lock_guard<std::mutex> lock(shard.mutex);
        total += shard.log->totalBytes();
        total += storage_.size(snapFile(s));
        total += storage_.size(prevSnapFile(s));
        total += storage_.size(snapTmpFile(s));
    }
    return total;
}

void
TrustStore::publishMetrics() const
{
    if (!core::obs::enabledFast())
        return;
    auto &m = core::obs::metrics();
    m.set("store/accounts", {{"store", name_}},
          static_cast<double>(liveAccounts()));
    m.set("store/sessions", {{"store", name_}},
          static_cast<double>(liveSessions()));
    m.set("store/log-bytes", {{"store", name_}},
          static_cast<double>(logBytes()));
    m.set("store/segments", {{"store", name_}},
          static_cast<double>(segmentCount()));
    m.set("store/snapshots", {{"store", name_}},
          static_cast<double>(snapshotsWritten()));
    m.set("store/snapshot-bytes", {{"store", name_}},
          static_cast<double>(snapshotBytesWritten()));
    m.set("store/segments-gcd", {{"store", name_}},
          static_cast<double>(segmentsGcd()));
}

} // namespace trust::trust
