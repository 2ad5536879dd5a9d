#include "trust/messages.hh"

#include <utility>

#include "core/logging.hh"
#include "crypto/aes128.hh"

namespace trust::trust {

namespace {

using core::FieldsOf;

// --- Field lists --------------------------------------------------------
//
// Each message's fields in wire order, after the kind byte and the
// request id. For the eight authenticated messages the last field is
// the authenticator (signature or MAC), and signedBody()/macBody()
// cover every field before it; serialize(), deserialize() and the
// authenticated body all derive from the one list below.

auto
fields(FieldsOf<RegistrationRequest> auto &m)
{
    return std::tie(m.domain, m.account);
}

auto
fields(FieldsOf<RegistrationPage> auto &m)
{
    return std::tie(m.domain, m.nonce, m.pageContent, m.serverCert,
                    m.signature);
}

auto
fields(FieldsOf<RegistrationSubmit> auto &m)
{
    return std::tie(m.domain, m.account, m.nonce, m.deviceCert,
                    m.userPublicKey, m.frameHash, m.signature);
}

auto
fields(FieldsOf<RegistrationResult> auto &m)
{
    return std::tie(m.domain, m.account, m.ok, m.reason);
}

auto
fields(FieldsOf<LoginRequest> auto &m)
{
    return std::tie(m.domain, m.account);
}

auto
fields(FieldsOf<LoginPage> auto &m)
{
    return std::tie(m.domain, m.nonce, m.pageContent, m.signature);
}

auto
fields(FieldsOf<LoginSubmit> auto &m)
{
    return std::tie(m.domain, m.account, m.nonce, m.encSessionKey,
                    m.frameHash, m.riskMatched, m.riskWindow, m.mac);
}

auto
fields(FieldsOf<ContentPage> auto &m)
{
    return std::tie(m.domain, m.sessionId, m.nonce, m.pageContent,
                    m.mac);
}

auto
fields(FieldsOf<PageRequest> auto &m)
{
    return std::tie(m.domain, m.account, m.sessionId, m.nonce, m.action,
                    m.frameHash, m.riskMatched, m.riskWindow, m.mac);
}

auto
fields(FieldsOf<ErrorReply> auto &m)
{
    return std::tie(m.domain, m.reason);
}

auto
fields(FieldsOf<ServerBusy> auto &m)
{
    return std::tie(m.domain, m.retryAfter);
}

auto
fields(FieldsOf<CrlMessage> auto &m)
{
    return std::tie(m.issuer, m.crlSeq, m.revokedSerials, m.signature);
}

auto
fields(FieldsOf<CrlAck> auto &m)
{
    return std::tie(m.domain, m.crlSeq, m.revokedCount);
}

auto
fields(FieldsOf<ResetRequest> auto &m)
{
    return std::tie(m.domain, m.account, m.authSeq, m.signature);
}

// --- Encodings derived from a field list --------------------------------

/** kind ‖ id ‖ every field. */
template <typename M>
core::Bytes
encode(MsgKind kind, const M &m)
{
    core::ByteWriter w;
    w.writeU8(static_cast<std::uint8_t>(kind));
    w.writeU64(m.requestId);
    core::writeFields(w, fields(m));
    return w.take();
}

/**
 * kind ‖ [id] ‖ every field but the trailing authenticator. CRLs and
 * reset authorizations leave the id out (@p cover_id false) so one
 * signed artifact can be redelivered under fresh ids.
 */
template <typename M>
core::Bytes
authenticatedBody(MsgKind kind, const M &m, bool cover_id)
{
    const auto all = fields(m);
    constexpr std::size_t n = std::tuple_size_v<decltype(all)> - 1;
    const auto body = [&]<std::size_t... I>(std::index_sequence<I...>) {
        return std::tie(std::get<I>(all)...);
    }(std::make_index_sequence<n>{});

    core::ByteWriter w;
    w.writeU8(static_cast<std::uint8_t>(kind));
    if (cover_id)
        w.writeU64(m.requestId);
    core::writeFields(w, body);
    return w.take();
}

/** Inverse of encode(): nullopt on a wrong kind, short or long input. */
// trustlint: untrusted-input
template <typename M>
std::optional<M>
decode(MsgKind kind, const core::Bytes &payload)
{
    core::ByteReader r(payload);
    if (r.readU8() != static_cast<std::uint8_t>(kind))
        return std::nullopt;
    M m;
    m.requestId = r.readU64();
    core::readFields(r, fields(m));
    if (!r.ok() || !r.atEnd())
        return std::nullopt;
    return m;
}

} // namespace

// trustlint: untrusted-input
std::optional<MsgKind>
peekKind(const core::Bytes &payload)
{
    if (payload.empty())
        return std::nullopt;
    const std::uint8_t k = payload[0];
    if (k < 1 || k > 14)
        return std::nullopt;
    return static_cast<MsgKind>(k);
}

// trustlint: untrusted-input
std::optional<std::uint64_t>
peekRequestId(const core::Bytes &payload)
{
    if (!peekKind(payload))
        return std::nullopt;
    core::ByteReader r(payload);
    r.readU8();
    const std::uint64_t id = r.readU64();
    if (!r.ok())
        return std::nullopt;
    return id;
}

// --- RegistrationRequest -------------------------------------------------

core::Bytes
RegistrationRequest::serialize() const
{
    return encode(MsgKind::RegistrationRequest, *this);
}

// trustlint: untrusted-input
std::optional<RegistrationRequest>
RegistrationRequest::deserialize(const core::Bytes &payload)
{
    return decode<RegistrationRequest>(MsgKind::RegistrationRequest,
                                       payload);
}

// --- RegistrationPage ----------------------------------------------------

core::Bytes
RegistrationPage::signedBody() const
{
    return authenticatedBody(MsgKind::RegistrationPage, *this,
                             /*cover_id=*/true);
}

core::Bytes
RegistrationPage::serialize() const
{
    return encode(MsgKind::RegistrationPage, *this);
}

// trustlint: untrusted-input
std::optional<RegistrationPage>
RegistrationPage::deserialize(const core::Bytes &payload)
{
    return decode<RegistrationPage>(MsgKind::RegistrationPage, payload);
}

// --- RegistrationSubmit --------------------------------------------------

core::Bytes
RegistrationSubmit::signedBody() const
{
    return authenticatedBody(MsgKind::RegistrationSubmit, *this,
                             /*cover_id=*/true);
}

core::Bytes
RegistrationSubmit::serialize() const
{
    return encode(MsgKind::RegistrationSubmit, *this);
}

// trustlint: untrusted-input
std::optional<RegistrationSubmit>
RegistrationSubmit::deserialize(const core::Bytes &payload)
{
    return decode<RegistrationSubmit>(MsgKind::RegistrationSubmit,
                                      payload);
}

// --- RegistrationResult --------------------------------------------------

core::Bytes
RegistrationResult::serialize() const
{
    return encode(MsgKind::RegistrationResult, *this);
}

// trustlint: untrusted-input
std::optional<RegistrationResult>
RegistrationResult::deserialize(const core::Bytes &payload)
{
    return decode<RegistrationResult>(MsgKind::RegistrationResult,
                                      payload);
}

// --- LoginRequest ---------------------------------------------------------

core::Bytes
LoginRequest::serialize() const
{
    return encode(MsgKind::LoginRequest, *this);
}

// trustlint: untrusted-input
std::optional<LoginRequest>
LoginRequest::deserialize(const core::Bytes &payload)
{
    return decode<LoginRequest>(MsgKind::LoginRequest, payload);
}

// --- LoginPage --------------------------------------------------------------

core::Bytes
LoginPage::signedBody() const
{
    return authenticatedBody(MsgKind::LoginPage, *this,
                             /*cover_id=*/true);
}

core::Bytes
LoginPage::serialize() const
{
    return encode(MsgKind::LoginPage, *this);
}

// trustlint: untrusted-input
std::optional<LoginPage>
LoginPage::deserialize(const core::Bytes &payload)
{
    return decode<LoginPage>(MsgKind::LoginPage, payload);
}

// --- LoginSubmit ------------------------------------------------------------

core::Bytes
LoginSubmit::macBody() const
{
    return authenticatedBody(MsgKind::LoginSubmit, *this,
                             /*cover_id=*/true);
}

core::Bytes
LoginSubmit::serialize() const
{
    return encode(MsgKind::LoginSubmit, *this);
}

// trustlint: untrusted-input
std::optional<LoginSubmit>
LoginSubmit::deserialize(const core::Bytes &payload)
{
    return decode<LoginSubmit>(MsgKind::LoginSubmit, payload);
}

// --- ContentPage ------------------------------------------------------------

core::Bytes
ContentPage::macBody() const
{
    return authenticatedBody(MsgKind::ContentPage, *this,
                             /*cover_id=*/true);
}

core::Bytes
ContentPage::serialize() const
{
    return encode(MsgKind::ContentPage, *this);
}

// trustlint: untrusted-input
std::optional<ContentPage>
ContentPage::deserialize(const core::Bytes &payload)
{
    return decode<ContentPage>(MsgKind::ContentPage, payload);
}

core::Bytes
sessionCipher(const core::Bytes &session_key, const core::Bytes &data,
              std::uint64_t session_id)
{
    TRUST_ASSERT(session_key.size() >= 16,
                 "sessionCipher: key too short");
    const core::Bytes key(session_key.begin(), session_key.begin() + 16);
    core::Bytes iv(16, 0);
    for (int i = 0; i < 8; ++i)
        iv[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(session_id >> (8 * i));
    return crypto::Aes128(key).ctrTransform(iv, data);
}

// --- PageRequest ------------------------------------------------------------

core::Bytes
PageRequest::macBody() const
{
    return authenticatedBody(MsgKind::PageRequest, *this,
                             /*cover_id=*/true);
}

core::Bytes
PageRequest::serialize() const
{
    return encode(MsgKind::PageRequest, *this);
}

// trustlint: untrusted-input
std::optional<PageRequest>
PageRequest::deserialize(const core::Bytes &payload)
{
    return decode<PageRequest>(MsgKind::PageRequest, payload);
}

// --- ErrorReply -------------------------------------------------------------

core::Bytes
ErrorReply::serialize() const
{
    return encode(MsgKind::ErrorReply, *this);
}

// trustlint: untrusted-input
std::optional<ErrorReply>
ErrorReply::deserialize(const core::Bytes &payload)
{
    return decode<ErrorReply>(MsgKind::ErrorReply, payload);
}

// --- ServerBusy --------------------------------------------------------------

core::Bytes
ServerBusy::serialize() const
{
    return encode(MsgKind::ServerBusy, *this);
}

// trustlint: untrusted-input
std::optional<ServerBusy>
ServerBusy::deserialize(const core::Bytes &payload)
{
    return decode<ServerBusy>(MsgKind::ServerBusy, payload);
}

// --- CrlMessage --------------------------------------------------------------

core::Bytes
CrlMessage::signedBody() const
{
    return authenticatedBody(MsgKind::CrlMessage, *this,
                             /*cover_id=*/false);
}

core::Bytes
CrlMessage::serialize() const
{
    return encode(MsgKind::CrlMessage, *this);
}

// trustlint: untrusted-input
std::optional<CrlMessage>
CrlMessage::deserialize(const core::Bytes &payload)
{
    return decode<CrlMessage>(MsgKind::CrlMessage, payload);
}

// --- CrlAck ------------------------------------------------------------------

core::Bytes
CrlAck::serialize() const
{
    return encode(MsgKind::CrlAck, *this);
}

// trustlint: untrusted-input
std::optional<CrlAck>
CrlAck::deserialize(const core::Bytes &payload)
{
    return decode<CrlAck>(MsgKind::CrlAck, payload);
}

// --- ResetRequest ------------------------------------------------------------

core::Bytes
ResetRequest::signedBody() const
{
    return authenticatedBody(MsgKind::ResetRequest, *this,
                             /*cover_id=*/false);
}

core::Bytes
ResetRequest::serialize() const
{
    return encode(MsgKind::ResetRequest, *this);
}

// trustlint: untrusted-input
std::optional<ResetRequest>
ResetRequest::deserialize(const core::Bytes &payload)
{
    return decode<ResetRequest>(MsgKind::ResetRequest, payload);
}

} // namespace trust::trust
