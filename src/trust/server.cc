#include "trust/server.hh"

#include <algorithm>
#include <map>

#include "core/logging.hh"
#include "core/obs/obs.hh"
#include "crypto/hmac.hh"
#include "crypto/sha256.hh"
#include "trust/flock.hh"
#include "trust/frames.hh"
#include "trust/store.hh"

namespace trust::trust {

std::size_t
WebServer::hashKey(std::string_view key)
{
    // FNV-1a: stable across platforms, so shard assignment (and with
    // it any eviction behaviour) is deterministic for a given input.
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : key) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
}

WebServer::AccountShard &
WebServer::accountShard(const std::string &account)
{
    return *accountShards_[hashKey(account) % kAccountShards];
}

WebServer::DedupShard &
WebServer::dedupShard(const std::string &from)
{
    return *dedupShards_[hashKey(from) % kDedupShards];
}

WebServer::AdmissionShard &
WebServer::admissionShard(const std::string &from)
{
    return *admissionShards_[hashKey(from) % kAdmissionShards];
}

WebServer::WebServer(std::string domain,
                     crypto::CertificateAuthority &ca,
                     std::uint64_t seed, std::size_t rsa_bits,
                     ServerPolicy policy)
    : domain_(std::move(domain)), caKey_(ca.rootKey()), rng_(seed),
      keys_(crypto::rsaGenerate(rsa_bits, rng_)),
      cert_(ca.issue(domain_, crypto::CertRole::WebServer, keys_.pub)),
      policy_(policy),
      frameHash_(hw::FrameHashEngine::Algorithm::Sha256),
      ownStore_(ownStorage_, "server"), store_(&ownStore_)
{
    buildShards();
}

WebServer::WebServer(std::string domain,
                     const crypto::CertificateAuthority &ca,
                     crypto::Certificate cert, std::uint64_t seed,
                     std::size_t rsa_bits, ServerPolicy policy)
    : domain_(std::move(domain)), caKey_(ca.rootKey()), rng_(seed),
      keys_(crypto::rsaGenerate(rsa_bits, rng_)),
      cert_(std::move(cert)), policy_(policy),
      frameHash_(hw::FrameHashEngine::Algorithm::Sha256),
      ownStore_(ownStorage_, "server"), store_(&ownStore_)
{
    // The adopted certificate must cover the key pair this seed
    // regenerates, or every signed page would fail verification.
    TRUST_ASSERT(cert_.subjectKey == keys_.pub,
                 "WebServer restart: certificate does not match the "
                 "key pair regenerated from the seed");
    buildShards();
}

void
WebServer::buildShards()
{
    // The handshake bound is striped: each shard holds an equal
    // slice of maxPendingHandshakes.
    const std::size_t handshake_cap = std::max<std::size_t>(
        1, policy_.maxPendingHandshakes / kAccountShards);
    accountShards_.reserve(kAccountShards);
    for (std::size_t i = 0; i < kAccountShards; ++i)
        accountShards_.push_back(
            std::make_unique<AccountShard>(handshake_cap));
    dedupShards_.reserve(kDedupShards);
    for (std::size_t i = 0; i < kDedupShards; ++i)
        dedupShards_.push_back(
            std::make_unique<DedupShard>(policy_.maxDedupPerSender));
    admissionShards_.reserve(kAdmissionShards);
    for (std::size_t i = 0; i < kAdmissionShards; ++i)
        admissionShards_.push_back(std::make_unique<AdmissionShard>());
}

void
WebServer::attachStore(TrustStore *store)
{
    store_ = store != nullptr ? store : &ownStore_;
    // Session ids continue above everything ever issued, so ids from
    // the pre-crash life are never reused for new sessions.
    nextSessionId_.store(store_->maxSessionId() + 1,
                         std::memory_order_relaxed);
}

core::Bytes
WebServer::pageFor(const std::string &tag) const
{
    // Deterministic page body: hash-expanded from (domain, tag).
    core::Bytes seed = crypto::Sha256::digest(domain_ + "/" + tag);
    core::Bytes page;
    page.reserve(1024);
    core::Bytes block = seed;
    while (page.size() < 1024) {
        block = crypto::Sha256::digest(block);
        page.insert(page.end(), block.begin(), block.end());
    }
    page.resize(1024);
    return page;
}

core::Bytes
WebServer::freshNonce()
{
    std::lock_guard<std::mutex> lock(rngMutex_);
    return rng_.randomBytes(16);
}

ErrorReply
WebServer::error(const std::string &reason, std::uint64_t request_id)
{
    note("error:" + reason);
    ErrorReply reply;
    reply.requestId = request_id;
    reply.domain = domain_;
    reply.reason = reason;
    return reply;
}

void
WebServer::note(const std::string &event, const std::string &account,
                const std::string &detail)
{
    {
        std::lock_guard<std::mutex> lock(countersMutex_);
        counters_.bump(event);
    }
    if (!core::obs::enabledFast())
        return;
    // Fixed field set (absent values as "-") keeps the canonical
    // line shape identical across verdict kinds.
    core::obs::audit().record(
        domain_, "verdict",
        {{"event", event},
         {"account", account.empty() ? "-" : account},
         {"detail", detail.empty() ? "-" : detail}});
}

void
WebServer::appendAuditEntry(AuditEntry entry)
{
    std::lock_guard<std::mutex> lock(auditMutex_);
    auditLog_.push_back(std::move(entry));
}

core::Bytes
WebServer::handle(const core::Bytes &request, const std::string &from,
                  core::Tick now)
{
    return handleTimed(request, from, now).reply;
}

bool
WebServer::admit(const std::string &from, core::Tick now,
                 core::Tick *queue_delay)
{
    *queue_delay = 0;
    if (!policy_.admission.enabled)
        return true;
    AdmissionShard &shard = admissionShard(from);
    std::lock_guard<std::mutex> lock(shard.admissionMutex);
    // The virtual queue drains one tick of backlog per tick of wall
    // clock (each queued request costs serviceCost ticks of work).
    if (now > shard.lastNow) {
        const core::Tick drained = now - shard.lastNow;
        shard.backlog = shard.backlog > drained
                            ? shard.backlog - drained
                            : 0;
        shard.lastNow = now;
    }
    const core::Tick cost = policy_.admission.serviceCost;
    if (shard.backlog + cost > policy_.admission.maxQueueDelay) {
        // Queue full: shed instead of queueing unbounded. The drain
        // estimate rides along as the ServerBusy retryAfter hint.
        *queue_delay = shard.backlog;
        return false;
    }
    shard.backlog += cost;
    *queue_delay = shard.backlog;
    return true;
}

HandleResult
WebServer::handleTimed(const core::Bytes &request,
                       const std::string &from, core::Tick now)
{
    TRUST_SPAN("server/handle");
    HandleResult result;
    const auto kind = peekKind(request);
    const auto id = peekRequestId(request);
    if (!kind || !id) {
        result.reply = error("malformed").serialize();
        return result;
    }

    // Duplicate suppression: retransmissions of an already-answered
    // request get the original reply verbatim, making the handlers
    // effectively idempotent (their nonces were consumed the first
    // time). Id 0 is the "no id" sentinel and is never cached.
    const bool dedupable = !from.empty() && *id != 0;
    if (dedupable) {
        bool hit = false;
        {
            DedupShard &shard = dedupShard(from);
            std::lock_guard<std::mutex> lock(shard.dedupMutex);
            shard.replies.prune(now, policy_.dedupTtl);
            const CachedReply *cached = shard.replies.lookup(
                from, [&id](const CachedReply &entry) {
                    return entry.requestId == *id;
                });
            if (cached != nullptr) {
                result.reply = cached->reply;
                hit = true;
            }
        }
        if (hit) {
            note("dedup-hit", from);
            return result;
        }
    }

    // Admission: dedup hits answer from cache above without queueing;
    // everything that would reach a handler must first win a slot in
    // the (virtual) per-lane queue or get a typed retryable shed.
    core::Tick queue_delay = 0;
    if (!admit(from, now, &queue_delay)) {
        note("admission-rejected", from);
        ServerBusy busy;
        busy.requestId = *id;
        busy.domain = domain_;
        busy.retryAfter = queue_delay > 0
                              ? queue_delay
                              : policy_.admission.maxQueueDelay;
        // The shed reply itself is not queued: it leaves immediately.
        result.reply = busy.serialize();
        result.rejected = true;
        return result;
    }
    result.queueDelay = queue_delay;

    core::Bytes reply = dispatch(*kind, request, *id, now);
    // Error and busy replies are never cached: an error may be the
    // product of a transport-corrupted request, and a busy verdict is
    // transient; the clean retransmission of the same id must reach
    // the real handler, not a stale rejection.
    const auto reply_kind = peekKind(reply);
    if (dedupable && reply_kind != MsgKind::ErrorReply &&
        reply_kind != MsgKind::ServerBusy) {
        DedupShard &shard = dedupShard(from);
        std::lock_guard<std::mutex> lock(shard.dedupMutex);
        shard.replies.prune(now, policy_.dedupTtl);
        // Per-sender cap: a chatty sender evicts its own oldest reply
        // rather than squeezing other senders out of the shard.
        shard.replies.push(from, now, {*id, reply});
    }
    result.reply = std::move(reply);
    return result;
}

core::Bytes
WebServer::dispatch(MsgKind kind, const core::Bytes &request,
                    std::uint64_t request_id, core::Tick now)
{
    switch (kind) {
      case MsgKind::RegistrationRequest: {
        const auto m = RegistrationRequest::deserialize(request);
        if (!m)
            return error("malformed", request_id).serialize();
        return handleRegistrationRequest(*m, now).serialize();
      }
      case MsgKind::RegistrationSubmit: {
        const auto m = RegistrationSubmit::deserialize(request);
        if (!m)
            return error("malformed", request_id).serialize();
        return handleRegistrationSubmit(*m).serialize();
      }
      case MsgKind::LoginRequest: {
        const auto m = LoginRequest::deserialize(request);
        if (!m)
            return error("malformed", request_id).serialize();
        const auto page = handleLoginRequest(*m, now);
        if (!page)
            return error("unknown-account", request_id).serialize();
        return page->serialize();
      }
      case MsgKind::LoginSubmit: {
        const auto m = LoginSubmit::deserialize(request);
        if (!m)
            return error("malformed", request_id).serialize();
        const auto page = handleLoginSubmit(*m);
        if (!page)
            return error("login-rejected", request_id).serialize();
        return page->serialize();
      }
      case MsgKind::PageRequest: {
        const auto m = PageRequest::deserialize(request);
        if (!m)
            return error("malformed", request_id).serialize();
        const auto page = handlePageRequest(*m);
        if (!page)
            return error("request-rejected", request_id).serialize();
        return page->serialize();
      }
      case MsgKind::CrlMessage: {
        const auto m = CrlMessage::deserialize(request);
        if (!m)
            return error("malformed", request_id).serialize();
        const auto ack = handleCrl(*m);
        if (!ack)
            return error("crl-rejected", request_id).serialize();
        return ack->serialize();
      }
      case MsgKind::ResetRequest: {
        const auto m = ResetRequest::deserialize(request);
        if (!m)
            return error("malformed", request_id).serialize();
        const auto result = handleResetRequest(*m);
        if (!result)
            return error("reset-rejected", request_id).serialize();
        return result->serialize();
      }
      default:
        return error("unexpected-kind", request_id).serialize();
    }
}

std::string
WebServer::handshakeKey(bool login, const std::string &account)
{
    // Registration and login nonces of one account are capped apart.
    return (login ? "login/" : "register/") + account;
}

// trustlint: validator
bool
WebServer::nonceMatches(const PendingNonce &pending,
                        const core::Bytes &nonce)
{
    return core::constantTimeEqual(pending.nonce, nonce);
}

RegistrationPage
WebServer::handleRegistrationRequest(const RegistrationRequest &request,
                                     core::Tick now)
{
    note("registration-request", request.account);
    RegistrationPage page;
    page.requestId = request.requestId;
    page.domain = domain_;
    page.nonce = freshNonce();
    page.pageContent = pageFor("register");
    page.serverCert = cert_.serialize();
    page.signature = crypto::rsaSign(keys_.priv, page.signedBody());
    {
        AccountShard &shard = accountShard(request.account);
        std::lock_guard<std::mutex> lock(shard.accountsMutex);
        shard.nonces.prune(now, policy_.handshakeTtl);
        shard.nonces.push(handshakeKey(false, request.account), now,
                            {page.nonce});
    }
    return page;
}

RegistrationResult
WebServer::handleRegistrationSubmit(const RegistrationSubmit &submit)
{
    RegistrationResult result;
    result.requestId = submit.requestId;
    result.domain = domain_;
    result.account = submit.account;
    result.ok = false;

    if (submit.domain != domain_) {
        result.reason = "wrong-domain";
        note("registration-rejected", submit.account, result.reason);
        return result;
    }

    // Phase 1 (shard lock): the nonce must be outstanding. It is
    // only *consumed* in phase 3, after the signature checks pass —
    // a failed submit leaves it available for a clean retry, which
    // matches the pre-sharding behaviour.
    const std::string key = handshakeKey(false, submit.account);
    const auto issued = [&submit](const PendingNonce &pending) {
        return nonceMatches(pending, submit.nonce);
    };
    {
        AccountShard &shard = accountShard(submit.account);
        std::lock_guard<std::mutex> lock(shard.accountsMutex);
        if (shard.nonces.lookup(key, issued) == nullptr)
            result.reason = "stale-nonce";
    }
    if (!result.reason.empty()) {
        note("registration-rejected", submit.account, result.reason);
        return result;
    }

    // Phase 2 (no locks held): verify the FLock device certificate
    // and the submit signature — the expensive RSA work.
    const auto device_cert =
        crypto::Certificate::deserialize(submit.deviceCert);
    if (!device_cert ||
        !crypto::verifyCertificate(*device_cert, caKey_, 0,
                                   crypto::CertRole::FlockDevice)) {
        result.reason = "bad-device-cert";
        note("registration-rejected", submit.account, result.reason);
        return result;
    }
    const std::vector<std::uint64_t> revoked = store_->revocations();
    if (std::find(revoked.begin(), revoked.end(), device_cert->serial) !=
        revoked.end()) {
        result.reason = "revoked-device-cert";
        note("registration-rejected", submit.account, result.reason);
        return result;
    }
    if (!crypto::rsaVerify(device_cert->subjectKey,
                           submit.signedBody(), submit.signature)) {
        result.reason = "bad-signature";
        note("registration-rejected", submit.account, result.reason);
        return result;
    }
    const auto user_key =
        crypto::RsaPublicKey::deserialize(submit.userPublicKey);
    if (!user_key) {
        result.reason = "bad-user-key";
        note("registration-rejected", submit.account, result.reason);
        return result;
    }

    // Log the registration frame hash for audit.
    appendAuditEntry({submit.account, 0, "register", submit.frameHash});

    // Phase 3 (shard lock): consume the nonce and commit the
    // binding. A concurrent submit of the same nonce loses the race
    // here and is rejected as stale.
    {
        AccountShard &shard = accountShard(submit.account);
        std::lock_guard<std::mutex> lock(shard.accountsMutex);
        if (!shard.nonces.take(key, issued)) {
            result.reason = "stale-nonce";
        } else {
            // Bind under the shard lock so the binding commits with
            // the nonce it consumed (the store's mutex is a leaf; see
            // TrustStore).
            store_->putAccount(submit.account, submit.userPublicKey);
            result.ok = true;
        }
    }
    if (!result.ok) {
        note("registration-rejected", submit.account, result.reason);
        return result;
    }
    note("registration-accepted", submit.account);
    return result;
}

std::optional<LoginPage>
WebServer::handleLoginRequest(const LoginRequest &request,
                              core::Tick now)
{
    if (!store_->hasAccount(request.account))
        return std::nullopt;
    note("login-request", request.account);
    LoginPage page;
    page.requestId = request.requestId;
    page.domain = domain_;
    page.nonce = freshNonce();
    page.pageContent = pageFor("login");
    page.signature = crypto::rsaSign(keys_.priv, page.signedBody());
    {
        AccountShard &shard = accountShard(request.account);
        std::lock_guard<std::mutex> lock(shard.accountsMutex);
        shard.nonces.prune(now, policy_.handshakeTtl);
        shard.nonces.push(handshakeKey(true, request.account), now,
                            {page.nonce});
    }
    return page;
}

ContentPage
WebServer::makeContentPage(std::uint64_t session_id,
                           StoredSession &session, const std::string &tag,
                           std::uint64_t request_id)
{
    session.currentTag = tag;
    session.expectedNonce = freshNonce();

    ContentPage page;
    page.requestId = request_id;
    page.domain = domain_;
    page.sessionId = session_id;
    page.nonce = session.expectedNonce;
    page.pageContent = sessionCipher(
        session.sessionKey, pageFor(tag), session_id);
    page.mac = crypto::hmacSha256(session.sessionKey, page.macBody());
    return page;
}

std::optional<ContentPage>
WebServer::handleLoginSubmit(const LoginSubmit &submit)
{
    if (submit.domain != domain_)
        return std::nullopt;

    // Phase 1 (shard lock): account known, nonce outstanding. The
    // nonce is consumed in phase 3 after the key/MAC checks.
    const std::string key = handshakeKey(true, submit.account);
    const auto issued = [&submit](const PendingNonce &pending) {
        return nonceMatches(pending, submit.nonce);
    };
    bool known = false;
    bool nonce_live = false;
    {
        AccountShard &shard = accountShard(submit.account);
        std::lock_guard<std::mutex> lock(shard.accountsMutex);
        known = store_->hasAccount(submit.account);
        nonce_live = shard.nonces.lookup(key, issued) != nullptr;
    }
    if (!known) {
        note("login-rejected:unknown-account", submit.account);
        return std::nullopt;
    }
    if (!nonce_live) {
        note("login-rejected:stale-nonce", submit.account);
        return std::nullopt;
    }

    // Phase 2 (no locks held): recover the session key, then
    // authenticate the message.
    const auto session_key =
        crypto::rsaDecrypt(keys_.priv, submit.encSessionKey);
    if (!session_key || session_key->size() != 32) {
        note("login-rejected:bad-session-key", submit.account);
        return std::nullopt;
    }
    if (!crypto::hmacSha256Verify(*session_key, submit.macBody(),
                                  submit.mac)) {
        note("login-rejected:bad-mac", submit.account);
        return std::nullopt;
    }

    // Phase 3 (shard lock): consume the nonce; a concurrent submit
    // of the same nonce loses the race and is rejected as stale.
    bool consumed = false;
    {
        AccountShard &shard = accountShard(submit.account);
        std::lock_guard<std::mutex> lock(shard.accountsMutex);
        consumed = shard.nonces.take(key, issued);
    }
    if (!consumed) {
        note("login-rejected:stale-nonce", submit.account);
        return std::nullopt;
    }

    const std::uint64_t session_id =
        nextSessionId_.fetch_add(1, std::memory_order_relaxed);
    StoredSession session;
    session.account = submit.account;
    session.sessionKey = *session_key;
    session.lastRequestId = submit.requestId;

    // Log the login frame hash.
    appendAuditEntry({submit.account, session_id, "login", submit.frameHash});

    ContentPage page =
        makeContentPage(session_id, session, "home", submit.requestId);
    store_->putSession(session_id, session);
    note("login-accepted", submit.account);
    return page;
}

/**
 * Minimum matched touches the risk field must report once the
 * window is full; requests below are rejected (Fig. 10 "update
 * identity risk" on the server side).
 */
constexpr std::uint32_t kMinRiskMatched = 2;

/** Window fill above which the risk policy is enforced. */
constexpr std::uint32_t kRiskEnforceWindow = 8;

std::optional<ContentPage>
WebServer::handlePageRequest(const PageRequest &request)
{
    if (request.domain != domain_)
        return std::nullopt;

    // Phase 1 (store shard lock): copy the session row.
    std::optional<StoredSession> session =
        store_->session(request.sessionId);
    if (!session) {
        note("request-rejected:no-session", request.account);
        return std::nullopt;
    }
    if (session->account != request.account) {
        note("request-rejected:account-mismatch", request.account);
        return std::nullopt;
    }

    // Phase 2 (no locks held): all verification runs against the
    // copy — only the FLock module holds the session key, so a valid
    // MAC proves the request left the trusted module.
    if (!crypto::hmacSha256Verify(session->sessionKey,
                                  request.macBody(), request.mac)) {
        note("request-rejected:bad-mac", request.account);
        return std::nullopt;
    }

    // Ids are device-monotonic within a session: after the MAC has
    // proven provenance, an id at or below the last accepted one is
    // a late retransmission that slipped past the reply cache.
    if (request.requestId != 0 &&
        request.requestId <= session->lastRequestId) {
        note("request-rejected:duplicate", request.account);
        return std::nullopt;
    }

    // Nonce freshness: must echo exactly the nonce issued with the
    // previous page (replay defence).
    if (!core::constantTimeEqual(request.nonce, session->expectedNonce)) {
        note("request-rejected:stale-nonce", request.account);
        return std::nullopt;
    }

    // Risk policy: the continuous-auth signal from FLock.
    if (request.riskWindow >= kRiskEnforceWindow &&
        request.riskMatched < kMinRiskMatched) {
        note("request-rejected:risk", request.account);
        return std::nullopt;
    }

    // Frame hash: log for offline audit (default) or verify online
    // against every view of the page last served — the online mode
    // pays one render + hash per view on each request.
    if (policy_.onlineFrameVerification) {
        const auto expected = expectedFrameHashes(
            pageFor(session->currentTag), kDisplay, frameHash_);
        const bool hash_known =
            std::find(expected.begin(), expected.end(),
                      request.frameHash) != expected.end();
        if (!hash_known) {
            note("request-rejected:frame-hash", request.account);
            return std::nullopt;
        }
    }
    appendAuditEntry({request.account, request.sessionId,
                      session->currentTag, request.frameHash});

    if (request.requestId != 0)
        session->lastRequestId = request.requestId;
    ContentPage page =
        makeContentPage(request.sessionId, *session,
                        "page/" + request.action, request.requestId);

    // Phase 3 (store shard lock): commit the rotated nonce. If
    // another thread consumed this session's nonce meanwhile
    // (same-key race), this request loses and is rejected as stale.
    if (!store_->replaceSessionIf(request.sessionId, request.nonce,
                                  *session)) {
        note("request-rejected:stale-nonce", request.account);
        return std::nullopt;
    }
    note("request-accepted", request.account);
    return page;
}

bool
WebServer::accountRegistered(const std::string &account) const
{
    return store_->hasAccount(account);
}

bool
WebServer::resetIdentity(const std::string &account)
{
    // Drop the key binding and any sessions (the user re-registers
    // from the new device).
    bool existed = false;
    {
        // Under the account shard lock, so a racing registration
        // commit cannot land between the check and the erase.
        AccountShard &shard = accountShard(account);
        std::lock_guard<std::mutex> lock(shard.accountsMutex);
        existed = store_->hasAccount(account);
        if (existed)
            store_->eraseAccount(account);
    }
    store_->eraseSessionsOf(account);
    if (existed)
        note("identity-reset", account);
    return existed;
}

void
WebServer::installRevocationList(std::vector<std::uint64_t> serials)
{
    std::sort(serials.begin(), serials.end());
    serials.erase(std::unique(serials.begin(), serials.end()),
                  serials.end());
    std::lock_guard<std::mutex> lock(revocationMutex_);
    store_->setRevocations(serials);
}

std::optional<CrlAck>
WebServer::handleCrl(const CrlMessage &crl)
{
    if (!crypto::rsaVerify(caKey_, crl.signedBody(),
                           crl.signature)) {
        note("crl-rejected", std::string(), "bad-signature");
        return std::nullopt;
    }
    CrlAck ack;
    ack.requestId = crl.requestId;
    ack.domain = domain_;
    {
        // Set union: sorted-unique merge of the delta into the
        // list. Serials only ever enter the set, never leave, and
        // union is order-independent — so interleaved, reordered or
        // duplicated CRL deliveries all converge to the same set.
        std::lock_guard<std::mutex> lock(revocationMutex_);
        const std::vector<std::uint64_t> cached = store_->revocations();
        std::vector<std::uint64_t> merged = crl.revokedSerials;
        std::sort(merged.begin(), merged.end());
        merged.insert(merged.end(), cached.begin(), cached.end());
        std::inplace_merge(merged.begin(),
                           merged.begin() +
                               static_cast<std::ptrdiff_t>(
                                   crl.revokedSerials.size()),
                           merged.end());
        merged.erase(std::unique(merged.begin(), merged.end()),
                     merged.end());
        store_->setRevocations(merged);
        crlSeq_ = std::max(crlSeq_, crl.crlSeq);
        ack.crlSeq = crlSeq_;
        ack.revokedCount = static_cast<std::uint32_t>(merged.size());
    }
    note("crl-accepted", std::string(),
         "seq" + std::to_string(crl.crlSeq));
    return ack;
}

std::optional<RegistrationResult>
WebServer::handleResetRequest(const ResetRequest &request)
{
    if (request.domain != domain_) {
        note("reset-rejected", request.account, "wrong-domain");
        return std::nullopt;
    }
    if (!crypto::rsaVerify(caKey_, request.signedBody(),
                           request.signature)) {
        note("reset-rejected", request.account, "bad-signature");
        return std::nullopt;
    }
    RegistrationResult result;
    result.requestId = request.requestId;
    result.domain = domain_;
    result.account = request.account;
    result.ok = resetIdentity(request.account);
    result.reason = result.ok ? "identity-reset" : "unknown-account";
    return result;
}

std::uint64_t
WebServer::crlHighWater() const
{
    std::lock_guard<std::mutex> lock(revocationMutex_);
    return crlSeq_;
}

std::vector<std::uint64_t>
WebServer::revokedSerialsSnapshot() const
{
    return store_->revocations();
}

std::size_t
WebServer::registeredAccounts() const
{
    return store_->liveAccounts();
}

std::size_t
WebServer::activeSessions() const
{
    return store_->liveSessions();
}

std::size_t
WebServer::pendingHandshakes() const
{
    std::size_t total = 0;
    for (const auto &shard : accountShards_) {
        std::lock_guard<std::mutex> lock(shard->accountsMutex);
        total += shard->nonces.size();
    }
    return total;
}

void
WebServer::expireHandshakes(core::Tick now)
{
    for (const auto &shard : accountShards_) {
        std::lock_guard<std::mutex> lock(shard->accountsMutex);
        shard->nonces.prune(now, policy_.handshakeTtl);
    }
}

std::size_t
WebServer::auditFrameHashes() const
{
    // Copy the evidence out under the lock and hash outside it, so
    // an audit never stalls the serving threads appending to the log.
    std::vector<std::pair<std::string, core::Bytes>> logged;
    {
        std::lock_guard<std::mutex> lock(auditMutex_);
        logged.reserve(auditLog_.size());
        for (const auto &entry : auditLog_)
            logged.emplace_back(entry.tag, entry.frameHash);
    }
    // The expected view set is a pure function of the tag: derive it
    // once per distinct page.
    std::map<std::string, std::vector<core::Bytes>> expected;
    std::size_t mismatches = 0;
    for (const auto &[tag, frame_hash] : logged) {
        const auto [it, fresh] = expected.try_emplace(tag);
        if (fresh)
            it->second =
                expectedFrameHashes(pageFor(tag), kDisplay, frameHash_);
        if (std::find(it->second.begin(), it->second.end(),
                      frame_hash) == it->second.end())
            ++mismatches;
    }
    return mismatches;
}

std::size_t
WebServer::auditLogSize() const
{
    std::lock_guard<std::mutex> lock(auditMutex_);
    return auditLog_.size();
}

core::CounterSet
WebServer::counters() const
{
    std::lock_guard<std::mutex> lock(countersMutex_);
    return counters_;
}

std::size_t
WebServer::dedupEntries() const
{
    std::size_t total = 0;
    for (const auto &shard : dedupShards_) {
        std::lock_guard<std::mutex> lock(shard->dedupMutex);
        total += shard->replies.size();
    }
    return total;
}

std::size_t
WebServer::dedupEntriesFor(const std::string &from) const
{
    std::size_t total = 0;
    for (const auto &shard : dedupShards_) {
        std::lock_guard<std::mutex> lock(shard->dedupMutex);
        total += shard->replies.countOf(from);
    }
    return total;
}

} // namespace trust::trust
