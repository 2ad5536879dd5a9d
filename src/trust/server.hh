/**
 * @file
 * The TRUST-aware Web Server (Figs. 8-10 server side).
 *
 * Holds the CA-issued server certificate, two bounded tables of one
 * type (the outstanding handshake nonces and the reply cache) and
 * the frame-hash audit log the paper proposes for offline detection
 * of display tampering. The Server
 * Database of (account, user public key) bindings created at
 * registration, the per-session state of the continuous-
 * authentication protocol and the revoked-serial list are one table,
 * a TrustStore: the attached one, or the server's own private store
 * when none is attached. Every row is read from and written to that
 * table; the server keeps no copy.
 *
 * **Concurrency.** `handle()` is safe to call from many threads at
 * once: every mutable table is striped into locked shards keyed by
 * the natural request key (account, session id, or sender address),
 * so requests for different keys proceed in parallel and requests
 * for the same key serialize on one shard mutex. The discipline is
 * single-lock-at-a-time — no code path acquires a second shard
 * mutex while holding one (expensive crypto always runs between
 * lock scopes, re-validating state after reacquisition), which is
 * exactly the invariant trustlint's `lock-order` rule checks. The
 * store's shard mutexes are leaves: a store call may run inside an
 * account-shard scope and takes no further lock.
 * Decisions stay deterministic per key under any interleaving; see
 * DESIGN.md §11.
 */

#ifndef TRUST_TRUST_SERVER_HH
#define TRUST_TRUST_SERVER_HH

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/stats.hh"
#include "core/wal/storage.hh"
#include "crypto/cert.hh"
#include "hw/flock_hw.hh"
#include "trust/messages.hh"
#include "trust/store.hh"

namespace trust::trust {

/**
 * Admission-control knobs (virtual-queue model). Each of the
 * server's admission lanes drains at one request per serviceCost
 * ticks; an arriving request joins the lane's backlog and its reply
 * is delayed by the backlog ahead of it. A request whose queueing
 * delay would exceed maxQueueDelay is shed immediately with a typed
 * ServerBusy reply carrying the current drain estimate — overload
 * degrades to queued-then-rejected instead of unbounded latency.
 *
 * Off by default: admission couples requests through shared lane
 * state, so fleet runs (independent per-channel clocks) keep it
 * disabled to preserve cross-thread-count audit determinism; the
 * overload experiments run on a single-queue Ecosystem.
 */
struct AdmissionConfig
{
    bool enabled = false;

    /** Simulated service time charged per admitted request. */
    core::Tick serviceCost = core::microseconds(500);

    /** Maximum tolerated queueing delay (the queue's TTL). */
    core::Tick maxQueueDelay = core::milliseconds(20);
};

/** Server-side policy knobs. */
struct ServerPolicy
{
    /** Verify frame hashes online instead of logging for audit. */
    bool onlineFrameVerification = false;

    /**
     * Outstanding-nonce bounds: a registration or login page issues
     * a nonce that an abandoned handshake never consumes. Each of
     * the 16 account shards holds at most maxPendingHandshakes / 16
     * (at least 1) live nonces and each account at most 16 per
     * handshake kind, oldest evicted first. Nonces older than
     * handshakeTtl ticks (0 disables expiry) are dropped when their
     * shard next issues one, or by expireHandshakes(). A submit
     * whose nonce is gone is rejected as stale-nonce.
     */
    std::size_t maxPendingHandshakes = 4096;
    core::Tick handshakeTtl = core::seconds(120);

    /**
     * Reply-cache bounds, the same table policy keyed by sender:
     * replies older than dedupTtl ticks (0 disables expiry) are
     * dropped on their shard's next lookup or insert, and each
     * sender keeps at most maxDedupPerSender cached replies (oldest
     * evicted first) within a 128-reply shard.
     */
    core::Tick dedupTtl = core::seconds(120);
    std::size_t maxDedupPerSender = 16;

    /** Overload admission control (disabled by default). */
    AdmissionConfig admission;
};

/** Reply plus the admission queueing delay it should be held for. */
struct HandleResult
{
    core::Bytes reply;
    /** Ticks the reply is delayed by queued requests ahead of it. */
    core::Tick queueDelay = 0;
    /** True when the request was shed with a ServerBusy reply. */
    bool rejected = false;
};

/** The web service. */
class WebServer
{
  public:
    /**
     * @param domain   DNS-style service name ("www.xyz.com").
     * @param ca       issuing authority (also used for verification).
     * @param seed     CSPRNG seed.
     * @param rsa_bits server key size.
     */
    WebServer(std::string domain, crypto::CertificateAuthority &ca,
              std::uint64_t seed, std::size_t rsa_bits = 512,
              ServerPolicy policy = {});

    /**
     * Restart constructor: adopt a certificate the CA issued to a
     * previous life of this server instead of requesting a fresh
     * one — a reboot must not advance the CA's serial counter (the
     * fleet harness pins CA state byte-for-byte across a mid-storm
     * crash/recover). The same @p seed regenerates the same RSA key
     * pair, so @p cert (which covers that public key) stays valid.
     */
    WebServer(std::string domain,
              const crypto::CertificateAuthority &ca,
              crypto::Certificate cert, std::uint64_t seed,
              std::size_t rsa_bits = 512, ServerPolicy policy = {});

    const std::string &domain() const { return domain_; }
    const crypto::Certificate &certificate() const { return cert_; }
    const crypto::RsaPublicKey &publicKey() const { return keys_.pub; }

    /**
     * Dispatch one raw request payload and return the raw reply
     * (always produces a reply; errors become ErrorReply).
     * Thread-safe: any number of callers may dispatch concurrently.
     *
     * @param from sender address for duplicate suppression. When
     *        non-empty and the request carries a non-zero id, a
     *        repeat of an already-answered (from, id) pair returns
     *        the cached original reply ("dedup-hit") instead of
     *        re-executing the handler — this is what makes device
     *        retransmissions idempotent even though nonces are
     *        consumed on first use.
     * @param now caller's simulated time, used only to stamp and
     *        expire outstanding handshake nonces (0 = no time
     *        source; entries never expire by age).
     */
    core::Bytes handle(const core::Bytes &request,
                       const std::string &from = "",
                       core::Tick now = 0);

    /**
     * handle() plus admission control: when the policy's admission
     * lanes are enabled, the result carries the queueing delay the
     * caller should hold the reply for (the simulated time the
     * request spent queued behind others), or a ServerBusy reply
     * with rejected = true when the lane's TTL-bounded queue shed
     * it. With admission disabled this is exactly handle().
     */
    HandleResult handleTimed(const core::Bytes &request,
                             const std::string &from = "",
                             core::Tick now = 0);

    // --- Persistence -----------------------------------------------------

    /**
     * Adopt @p store as the server's account, session and
     * revocation table, in O(1): every handler reads its rows and
     * logs every change through it before the reply leaves the
     * server. New session ids continue above the store's highest.
     * nullptr goes back to the server's private store. Call after
     * TrustStore::recover(), before serving traffic (NOT thread-safe
     * against concurrent handle()).
     */
    void attachStore(TrustStore *store);

    // --- Typed handlers (Fig. 9 / Fig. 10 steps) -----------------------

    RegistrationPage
    handleRegistrationRequest(const RegistrationRequest &request,
                              core::Tick now = 0);

    RegistrationResult
    handleRegistrationSubmit(const RegistrationSubmit &submit);

    std::optional<LoginPage> handleLoginRequest(const LoginRequest &,
                                                core::Tick now = 0);

    /** Login: returns a ContentPage on success. */
    std::optional<ContentPage> handleLoginSubmit(const LoginSubmit &);

    /** Continuous auth: each page request yields the next page. */
    std::optional<ContentPage> handlePageRequest(const PageRequest &);

    // --- Account management --------------------------------------------

    bool accountRegistered(const std::string &account) const;

    /** The Identity Reset flow: drop the public-key binding. */
    bool resetIdentity(const std::string &account);

    /**
     * Install a certificate revocation snapshot from the CA: device
     * certificates whose serials appear here are refused at
     * registration (a lost device's certificate is revoked as part
     * of the Identity Reset flow).
     */
    void installRevocationList(std::vector<std::uint64_t> serials);

    /**
     * Wire-path CRL ingestion: verify the CA root signature over the
     * list, then merge the carried serials into the revocation list
     * by set union and advance the crlSeq high-water mark. Union is
     * commutative, associative and idempotent, so any delivery order
     * (and any redelivery) of a set of CRLs converges to the same
     * revoked set — the monotonicity property the storm tests pin.
     * Returns nullopt (and counts crl-rejected) on a bad signature.
     */
    std::optional<CrlAck> handleCrl(const CrlMessage &crl);

    /**
     * Wire-path identity reset: verify the CA root signature over
     * the authorization, then run resetIdentity(). Returns nullopt
     * (and counts reset-rejected) on a bad signature or wrong
     * domain; otherwise a RegistrationResult whose ok mirrors
     * whether the account existed.
     */
    std::optional<RegistrationResult>
    handleResetRequest(const ResetRequest &request);

    /** Highest CRL sequence number merged so far. */
    std::uint64_t crlHighWater() const;

    /** Copy of the store's revoked-serial list (test hook). */
    std::vector<std::uint64_t> revokedSerialsSnapshot() const;

    std::size_t registeredAccounts() const;
    std::size_t activeSessions() const;

    /** Total cached replies across the dedup shards. */
    std::size_t dedupEntries() const;

    /** Cached replies for one sender (per-sender cap test hook). */
    std::size_t dedupEntriesFor(const std::string &from) const;

    /** Outstanding (unconsumed, unevicted) handshake nonces. */
    std::size_t pendingHandshakes() const;

    /** Drop every handshake nonce issued before @p now - TTL. */
    void expireHandshakes(core::Tick now);

    // --- Audit -----------------------------------------------------------

    /**
     * Offline frame-hash audit: number of logged frames whose hash
     * does not belong to the expected view set of the page that was
     * being displayed (i.e. display-tampering detections). Each
     * distinct page's view set is rendered and hashed once per call,
     * outside the audit-log lock.
     */
    std::size_t auditFrameHashes() const;

    std::size_t auditLogSize() const;

    /** Snapshot of the event counters (accepted/rejected by cause). */
    core::CounterSet counters() const;

  private:
    /**
     * Insert-ordered rows of {key, issued, value}, bounded per key
     * and in total: the one policy behind the handshake nonces and
     * the reply cache. Rows are appended in issue order, so expiry
     * and the total cap only ever look at the front. Holds no lock;
     * each shard guards its table with its own mutex. The methods
     * are push/lookup, not insert/find: trustlint links calls by
     * bare name, so every std::find or vector insert in src/ would
     * otherwise taint their parameters.
     */
    template <typename Value>
    class BoundedTable
    {
      public:
        BoundedTable(std::size_t per_key_cap, std::size_t cap)
            : perKeyCap_(per_key_cap), cap_(cap)
        {
        }

        /**
         * Drop rows issued before @p now - @p ttl. A ttl of 0, or
         * now <= ttl (untimed callers pass now = 0), expires nothing.
         */
        void
        prune(core::Tick now, core::Tick ttl)
        {
            while (!rows_.empty() && ttl != 0 && now > ttl &&
                   rows_.front().issued < now - ttl)
                rows_.pop_front();
        }

        /**
         * Append a row: first evict the key's oldest rows while the
         * key is at its cap, then the table's oldest while the table
         * is over its cap (which must be at least 1).
         */
        void
        push(std::string key, core::Tick issued, Value value)
        {
            const auto any = [](const Value &) { return true; };
            while (countOf(key) >= perKeyCap_ && take(key, any)) {
            }
            rows_.push_back({std::move(key), issued, std::move(value)});
            while (rows_.size() > cap_)
                rows_.pop_front();
        }

        /** Oldest value under @p key that satisfies @p match. */
        template <typename Match>
        const Value *
        lookup(const std::string &key, Match match) const
        {
            for (const Row &row : rows_)
                if (row.key == key && match(row.value))
                    return &row.value;
            return nullptr;
        }

        /** Remove the row lookup() would return; false if none. */
        template <typename Match>
        bool
        take(const std::string &key, Match match)
        {
            for (auto it = rows_.begin(); it != rows_.end(); ++it) {
                if (it->key == key && match(it->value)) {
                    rows_.erase(it);
                    return true;
                }
            }
            return false;
        }

        std::size_t size() const { return rows_.size(); }

        std::size_t
        countOf(const std::string &key) const
        {
            return static_cast<std::size_t>(std::count_if(
                rows_.begin(), rows_.end(),
                [&key](const Row &row) { return row.key == key; }));
        }

      private:
        struct Row
        {
            std::string key;
            core::Tick issued = 0;
            Value value;
        };

        std::deque<Row> rows_;
        std::size_t perKeyCap_;
        std::size_t cap_;
    };

    /** One outstanding handshake nonce. */
    struct PendingNonce
    {
        core::Bytes nonce; // trustlint: secret
    };

    /** The original reply to one of a sender's request ids. */
    struct CachedReply
    {
        std::uint64_t requestId = 0;
        core::Bytes reply;
    };

    /**
     * Account-keyed stripe: the outstanding registration and login
     * nonces of the accounts hashing here, keyed by handshakeKey().
     * One account's handshake and binding changes always serialize
     * on one shard.
     */
    struct AccountShard
    {
        explicit AccountShard(std::size_t cap)
            : nonces(kNoncesPerAccount, cap)
        {
        }
        mutable std::mutex accountsMutex;
        BoundedTable<PendingNonce> nonces;
    };

    /** Sender-keyed reply-cache stripe. */
    struct DedupShard
    {
        explicit DedupShard(std::size_t per_sender)
            : replies(per_sender, kDedupPerShard)
        {
        }
        mutable std::mutex dedupMutex;
        BoundedTable<CachedReply> replies;
    };

    /** One admission lane: a virtual queue draining in real time. */
    struct AdmissionShard
    {
        std::mutex admissionMutex;
        core::Tick backlog = 0; ///< Unserved work in the lane.
        core::Tick lastNow = 0; ///< Last drain timestamp.
    };

    /**
     * One audit-log entry: the frame hash FLock reported and the tag
     * of the page it should have shown (the expected view set is
     * derived from the tag when the entry is checked).
     */
    struct AuditEntry
    {
        std::string account;
        std::uint64_t sessionId = 0;
        std::string tag;
        core::Bytes frameHash;
    };

    static constexpr std::size_t kAccountShards = 16;
    /** Outstanding nonces per account and handshake kind. */
    static constexpr std::size_t kNoncesPerAccount = 16;
    static constexpr std::size_t kDedupShards = 8;
    static constexpr std::size_t kDedupPerShard = 128;
    static constexpr std::size_t kAdmissionShards = 4;

    static std::size_t hashKey(std::string_view key);

    /** Allocate the lock-striped shard arrays (ctor helper). */
    void buildShards();

    AccountShard &accountShard(const std::string &account);
    DedupShard &dedupShard(const std::string &from);
    AdmissionShard &admissionShard(const std::string &from);

    /**
     * Admission decision for one request: drain the sender's lane
     * to @p now, then either enqueue (returns true, *queue_delay =
     * backlog including this request) or shed (returns false,
     * *queue_delay = current drain estimate for retryAfter).
     */
    bool admit(const std::string &from, core::Tick now,
               core::Tick *queue_delay);

    /** Route one decoded-kind payload to its typed handler. */
    core::Bytes dispatch(MsgKind kind, const core::Bytes &request,
                         std::uint64_t request_id, core::Tick now);

    /** Page content generator (deterministic per action). */
    core::Bytes pageFor(const std::string &tag) const;

    core::Bytes freshNonce();

    /** Nonce-table key of @p account's registration or login. */
    static std::string handshakeKey(bool login,
                                    const std::string &account);

    /** Constant-time match of a submitted nonce against a row. */
    static bool nonceMatches(const PendingNonce &pending,
                             const core::Bytes &nonce);

    /** Build, MAC and log a content page for a session. */
    ContentPage makeContentPage(std::uint64_t session_id,
                                StoredSession &session,
                                const std::string &tag,
                                std::uint64_t request_id = 0);

    ErrorReply error(const std::string &reason,
                     std::uint64_t request_id = 0);

    /**
     * Record one verdict: bump the named counter (unchanged
     * behaviour) and, when observability is on, mirror it into the
     * metrics registry and the decision audit log. Never called
     * with a shard mutex held.
     */
    void note(const std::string &event,
              const std::string &account = std::string(),
              const std::string &detail = std::string());

    void appendAuditEntry(AuditEntry entry);

    std::string domain_;
    crypto::RsaPublicKey caKey_;
    crypto::Csprng rng_;
    mutable std::mutex rngMutex_; ///< Guards rng_ after construction.
    crypto::RsaKeyPair keys_;
    crypto::Certificate cert_;
    ServerPolicy policy_;
    hw::FrameHashEngine frameHash_;

    std::vector<std::unique_ptr<AccountShard>> accountShards_;
    std::vector<std::unique_ptr<DedupShard>> dedupShards_;
    std::vector<std::unique_ptr<AdmissionShard>> admissionShards_;
    std::atomic<std::uint64_t> nextSessionId_{1};
    /** Backing disk and table of a server never given a store. */
    core::wal::SimulatedStorage ownStorage_;
    TrustStore ownStore_;
    TrustStore *store_; ///< The account/session/revocation table.

    mutable std::mutex auditMutex_;
    std::vector<AuditEntry> auditLog_;

    /** Makes each CRL merge's read-modify-write of the store's
     *  revocation list atomic. */
    mutable std::mutex revocationMutex_;
    std::uint64_t crlSeq_ = 0; ///< Guarded by revocationMutex_.

    mutable std::mutex countersMutex_;
    core::CounterSet counters_;
};

} // namespace trust::trust

#endif // TRUST_TRUST_SERVER_HH
