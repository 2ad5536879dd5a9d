/**
 * @file
 * TRUST wire messages: the concrete encoding of the registration
 * flow (Fig. 9) and the continuous-authentication flow (Fig. 10).
 *
 * Authenticity layers follow the paper: pages sent by the Web
 * Server are RSA-signed with its private key; the registration
 * submission is RSA-signed with the FLock device key; session-phase
 * messages carry an HMAC under the negotiated session key. Every
 * message embeds the current nonce so replays are detectable.
 */

#ifndef TRUST_TRUST_MESSAGES_HH
#define TRUST_TRUST_MESSAGES_HH

#include <optional>
#include <string>
#include <vector>

#include "core/bytes.hh"
#include "core/sim_clock.hh"

namespace trust::trust {

/** Message discriminator (first payload byte). */
enum class MsgKind : std::uint8_t
{
    RegistrationRequest = 1,
    RegistrationPage = 2,
    RegistrationSubmit = 3,
    RegistrationResult = 4,
    LoginRequest = 5,
    LoginPage = 6,
    LoginSubmit = 7,
    ContentPage = 8,
    PageRequest = 9,
    ErrorReply = 10,
    ServerBusy = 11,
    CrlMessage = 12,
    CrlAck = 13,
    ResetRequest = 14,
};

/** Read the kind byte of a raw payload (nullopt if empty/unknown). */
std::optional<MsgKind> peekKind(const core::Bytes &payload);

/**
 * Read the request id (second wire field of every message) without
 * a full decode; nullopt on truncated payloads. Ids are assigned
 * monotonically by the sending device, echoed verbatim in replies,
 * and are the key of the server's duplicate-suppression cache; 0
 * means "no id" and is never deduplicated.
 */
std::optional<std::uint64_t> peekRequestId(const core::Bytes &payload);

/** Device -> server: start account binding. */
struct RegistrationRequest
{
    std::uint64_t requestId = 0; ///< Sender-monotonic id (0 = none).
    std::string domain;
    std::string account;

    core::Bytes serialize() const;
    static std::optional<RegistrationRequest>
    deserialize(const core::Bytes &payload);
};

/** Server -> device: registration page + certificate + nonce. */
struct RegistrationPage
{
    std::uint64_t requestId = 0; ///< Sender-monotonic id (0 = none).
    std::string domain;
    core::Bytes nonce;       ///< Fresh 16-byte server nonce.
    core::Bytes pageContent; ///< Hyper-text page bytes.
    core::Bytes serverCert;  ///< CA-signed server certificate.
    core::Bytes signature;   ///< Server RSA signature over body.

    /** The byte string the signature covers. */
    core::Bytes signedBody() const;

    core::Bytes serialize() const;
    static std::optional<RegistrationPage>
    deserialize(const core::Bytes &payload);
};

/** Device -> server: the Fig. 9 binding submission. */
struct RegistrationSubmit
{
    std::uint64_t requestId = 0; ///< Sender-monotonic id (0 = none).
    std::string domain;
    std::string account;
    core::Bytes nonce;      ///< Echo of the server nonce.
    core::Bytes deviceCert; ///< CA-signed FLock device certificate.
    core::Bytes userPublicKey; ///< Fresh per-(user,domain) key.
    core::Bytes frameHash;  ///< Hash of the displayed frame.
    core::Bytes signature;  ///< FLock device RSA signature.

    core::Bytes signedBody() const;

    core::Bytes serialize() const;
    static std::optional<RegistrationSubmit>
    deserialize(const core::Bytes &payload);
};

/** Server -> device: binding outcome. */
struct RegistrationResult
{
    std::uint64_t requestId = 0; ///< Sender-monotonic id (0 = none).
    std::string domain;
    std::string account;
    bool ok = false;
    std::string reason;

    core::Bytes serialize() const;
    static std::optional<RegistrationResult>
    deserialize(const core::Bytes &payload);
};

/** Device -> server: request the login page. */
struct LoginRequest
{
    std::uint64_t requestId = 0; ///< Sender-monotonic id (0 = none).
    std::string domain;
    std::string account;

    core::Bytes serialize() const;
    static std::optional<LoginRequest>
    deserialize(const core::Bytes &payload);
};

/** Server -> device: login page with a fresh nonce. */
struct LoginPage
{
    std::uint64_t requestId = 0; ///< Sender-monotonic id (0 = none).
    std::string domain;
    core::Bytes nonce;
    core::Bytes pageContent;
    core::Bytes signature; ///< Server RSA signature over body.

    core::Bytes signedBody() const;

    core::Bytes serialize() const;
    static std::optional<LoginPage>
    deserialize(const core::Bytes &payload);
};

/** Device -> server: the Fig. 10 login submission. */
struct LoginSubmit
{
    std::uint64_t requestId = 0; ///< Sender-monotonic id (0 = none).
    std::string domain;
    std::string account;
    core::Bytes nonce;          ///< Echo of the login nonce.
    core::Bytes encSessionKey;  ///< RSA(server_pub, session key).
    core::Bytes frameHash;      ///< Hash of the displayed login frame.
    std::uint32_t riskMatched = 0; ///< x of "x out of n".
    std::uint32_t riskWindow = 0;  ///< n of "x out of n".
    core::Bytes mac;            ///< HMAC(session key, body).

    core::Bytes macBody() const;

    core::Bytes serialize() const;
    static std::optional<LoginSubmit>
    deserialize(const core::Bytes &payload);
};

/** Server -> device: content page inside a session. */
struct ContentPage
{
    std::uint64_t requestId = 0; ///< Sender-monotonic id (0 = none).
    std::string domain;
    std::uint64_t sessionId = 0;
    core::Bytes nonce;       ///< Nonce for the *next* request.
    core::Bytes pageContent; ///< Encrypted under the session key.
    core::Bytes mac;         ///< HMAC(session key, body).

    core::Bytes macBody() const;

    core::Bytes serialize() const;
    static std::optional<ContentPage>
    deserialize(const core::Bytes &payload);
};

/**
 * AES-CTR transform of ContentPage::pageContent: keyed by the first
 * 16 bytes of the session key, IV = @p session_id little-endian in
 * the low 8 bytes. The server encrypts and the FLock decrypts with
 * this one call.
 */
core::Bytes sessionCipher(const core::Bytes &session_key,
                          const core::Bytes &data,
                          std::uint64_t session_id);

/** Device -> server: one continuous-auth page request (Fig. 10). */
struct PageRequest
{
    std::uint64_t requestId = 0; ///< Sender-monotonic id (0 = none).
    std::string domain;
    std::string account;
    std::uint64_t sessionId = 0;
    core::Bytes nonce;     ///< Echo of the last issued nonce.
    std::string action;    ///< What the user tapped (link id).
    core::Bytes frameHash; ///< Hash of the frame the user acted on.
    std::uint32_t riskMatched = 0;
    std::uint32_t riskWindow = 0;
    core::Bytes mac;       ///< HMAC(session key, body).

    core::Bytes macBody() const;

    core::Bytes serialize() const;
    static std::optional<PageRequest>
    deserialize(const core::Bytes &payload);
};

/** Server -> device: rejection (bad MAC, stale nonce, risk...). */
struct ErrorReply
{
    std::uint64_t requestId = 0; ///< Sender-monotonic id (0 = none).
    std::string domain;
    std::string reason;

    core::Bytes serialize() const;
    static std::optional<ErrorReply>
    deserialize(const core::Bytes &payload);
};

/**
 * Typed overload shed: the server's admission controller refused to
 * queue the request. Unlike ErrorReply this is explicitly
 * *retryable* — the device keeps its exchange armed and backs off
 * at least @p retryAfter ticks before retransmitting.
 */
struct ServerBusy
{
    std::uint64_t requestId = 0; ///< Sender-monotonic id (0 = none).
    std::string domain;
    /** Server's estimate of its current queue drain time (ticks). */
    core::Tick retryAfter = 0;

    core::Bytes serialize() const;
    static std::optional<ServerBusy>
    deserialize(const core::Bytes &payload);
};

/**
 * CA -> server: a certificate revocation list delta. Servers merge
 * the carried serials into their local revocation cache (set union,
 * so applying CRLs in any order converges to the same revoked set)
 * and track the highest @p crlSeq seen. The signature is the CA
 * root key's, over signedBody() — which deliberately excludes the
 * request id so one signed CRL artifact can be redelivered to many
 * servers under fresh ids.
 */
struct CrlMessage
{
    std::uint64_t requestId = 0; ///< Sender-monotonic id (0 = none).
    std::string issuer;          ///< CA name, e.g. "TrustRootCA".
    std::uint64_t crlSeq = 0;    ///< CA-monotonic list sequence.
    std::vector<std::uint64_t> revokedSerials; ///< Certificate serials.
    core::Bytes signature;       ///< CA root RSA signature over body.

    /** The byte string the signature covers (no request id). */
    core::Bytes signedBody() const;

    core::Bytes serialize() const;
    static std::optional<CrlMessage>
    deserialize(const core::Bytes &payload);
};

/** Server -> CA: CRL applied; reports the cache's new high-water. */
struct CrlAck
{
    std::uint64_t requestId = 0; ///< Sender-monotonic id (0 = none).
    std::string domain;
    std::uint64_t crlSeq = 0;       ///< Server's max sequence seen.
    std::uint32_t revokedCount = 0; ///< Union cache size after merge.

    core::Bytes serialize() const;
    static std::optional<CrlAck>
    deserialize(const core::Bytes &payload);
};

/**
 * CA -> server: out-of-band authorized identity reset (Sec. IV-B
 * factory-reset flow). The CA vouches — by signing signedBody()
 * with its root key — that the account owner proved possession
 * through an out-of-band channel; the server erases the account
 * binding and every live session so the owner's replacement device
 * can re-register from scratch. @p authSeq makes each authorization
 * single-purpose (two resets of one account sign different bodies).
 */
struct ResetRequest
{
    std::uint64_t requestId = 0; ///< Sender-monotonic id (0 = none).
    std::string domain;
    std::string account;
    std::uint64_t authSeq = 0; ///< CA-monotonic authorization number.
    core::Bytes signature;     ///< CA root RSA signature over body.

    /** The byte string the signature covers (no request id). */
    core::Bytes signedBody() const;

    core::Bytes serialize() const;
    static std::optional<ResetRequest>
    deserialize(const core::Bytes &payload);
};

} // namespace trust::trust

#endif // TRUST_TRUST_MESSAGES_HH
