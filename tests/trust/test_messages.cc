/** @file Round-trip and robustness tests for TRUST wire messages. */

#include <gtest/gtest.h>

#include "trust/messages.hh"
#include "tests/trust/message_fixtures.hh"

namespace {

using namespace trust::trust; // test-local: exercise the whole module
using trust::core::Bytes;
using trust::testing::allMessageWires;

TEST(Messages, PeekKind)
{
    RegistrationRequest request{0, "www.x.com", "alice"};
    EXPECT_EQ(peekKind(request.serialize()),
              MsgKind::RegistrationRequest);
    EXPECT_FALSE(peekKind({}).has_value());
    EXPECT_FALSE(peekKind({0}).has_value());
    EXPECT_FALSE(peekKind({99}).has_value());
}

TEST(Messages, RegistrationRequestRoundTrip)
{
    RegistrationRequest in{7, "www.x.com", "alice"};
    const auto out = RegistrationRequest::deserialize(in.serialize());
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->domain, "www.x.com");
    EXPECT_EQ(out->account, "alice");
}

TEST(Messages, RegistrationPageRoundTrip)
{
    RegistrationPage in;
    in.domain = "www.x.com";
    in.nonce = Bytes(16, 7);
    in.pageContent = Bytes{1, 2, 3};
    in.serverCert = Bytes{4, 5};
    in.signature = Bytes(64, 9);
    const auto out = RegistrationPage::deserialize(in.serialize());
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->nonce, in.nonce);
    EXPECT_EQ(out->signedBody(), in.signedBody());
    EXPECT_EQ(out->signature, in.signature);
}

TEST(Messages, SignedBodyExcludesSignature)
{
    RegistrationPage a;
    a.domain = "www.x.com";
    a.nonce = Bytes(16, 7);
    RegistrationPage b = a;
    b.signature = Bytes(64, 1);
    EXPECT_EQ(a.signedBody(), b.signedBody());
    EXPECT_NE(a.serialize(), b.serialize());
}

TEST(Messages, RegistrationSubmitRoundTrip)
{
    RegistrationSubmit in;
    in.domain = "www.x.com";
    in.account = "alice";
    in.nonce = Bytes(16, 1);
    in.deviceCert = Bytes{1};
    in.userPublicKey = Bytes{2, 3};
    in.frameHash = Bytes(32, 4);
    in.signature = Bytes(64, 5);
    const auto out = RegistrationSubmit::deserialize(in.serialize());
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->frameHash, in.frameHash);
    EXPECT_EQ(out->signedBody(), in.signedBody());
}

TEST(Messages, LoginFlowRoundTrips)
{
    LoginRequest lr{0, "www.x.com", "alice"};
    EXPECT_TRUE(LoginRequest::deserialize(lr.serialize()).has_value());

    LoginPage lp;
    lp.domain = "www.x.com";
    lp.nonce = Bytes(16, 2);
    lp.pageContent = Bytes(100, 3);
    lp.signature = Bytes(64, 4);
    const auto lp2 = LoginPage::deserialize(lp.serialize());
    ASSERT_TRUE(lp2.has_value());
    EXPECT_EQ(lp2->pageContent, lp.pageContent);

    LoginSubmit ls;
    ls.domain = "www.x.com";
    ls.account = "alice";
    ls.nonce = Bytes(16, 2);
    ls.encSessionKey = Bytes(64, 5);
    ls.frameHash = Bytes(32, 6);
    ls.riskMatched = 3;
    ls.riskWindow = 8;
    ls.mac = Bytes(32, 7);
    const auto ls2 = LoginSubmit::deserialize(ls.serialize());
    ASSERT_TRUE(ls2.has_value());
    EXPECT_EQ(ls2->riskMatched, 3u);
    EXPECT_EQ(ls2->riskWindow, 8u);
    EXPECT_EQ(ls2->macBody(), ls.macBody());
}

TEST(Messages, ContentAndPageRequestRoundTrips)
{
    ContentPage cp;
    cp.domain = "www.x.com";
    cp.sessionId = 42;
    cp.nonce = Bytes(16, 1);
    cp.pageContent = Bytes(200, 2);
    cp.mac = Bytes(32, 3);
    const auto cp2 = ContentPage::deserialize(cp.serialize());
    ASSERT_TRUE(cp2.has_value());
    EXPECT_EQ(cp2->sessionId, 42u);

    PageRequest pr;
    pr.domain = "www.x.com";
    pr.account = "alice";
    pr.sessionId = 42;
    pr.nonce = Bytes(16, 1);
    pr.action = "inbox";
    pr.frameHash = Bytes(32, 4);
    pr.riskMatched = 2;
    pr.riskWindow = 8;
    pr.mac = Bytes(32, 5);
    const auto pr2 = PageRequest::deserialize(pr.serialize());
    ASSERT_TRUE(pr2.has_value());
    EXPECT_EQ(pr2->action, "inbox");
    EXPECT_EQ(pr2->macBody(), pr.macBody());
}

TEST(Messages, ErrorReplyRoundTrip)
{
    ErrorReply in{0, "www.x.com", "stale-nonce"};
    const auto out = ErrorReply::deserialize(in.serialize());
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->reason, "stale-nonce");
}

TEST(Messages, ServerBusyRoundTrip)
{
    ServerBusy in{17, "www.x.com", trust::core::milliseconds(250)};
    const Bytes wire = in.serialize();
    EXPECT_EQ(peekKind(wire), MsgKind::ServerBusy);
    const auto out = ServerBusy::deserialize(wire);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->requestId, 17u);
    EXPECT_EQ(out->domain, "www.x.com");
    EXPECT_EQ(out->retryAfter, trust::core::milliseconds(250));
    // Every strict prefix is rejected without a panic.
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        const Bytes truncated(wire.begin(),
                              wire.begin() + static_cast<long>(cut));
        EXPECT_FALSE(ServerBusy::deserialize(truncated).has_value());
    }
}

TEST(Messages, WrongKindRejected)
{
    RegistrationRequest request{0, "www.x.com", "alice"};
    EXPECT_FALSE(
        LoginRequest::deserialize(request.serialize()).has_value());
}

TEST(Messages, TruncationRejected)
{
    PageRequest pr;
    pr.domain = "www.x.com";
    pr.nonce = Bytes(16, 1);
    pr.mac = Bytes(32, 5);
    Bytes wire = pr.serialize();
    for (std::size_t cut :
         {wire.size() - 1, wire.size() / 2, std::size_t{1}}) {
        Bytes truncated(wire.begin(),
                        wire.begin() + static_cast<long>(cut));
        EXPECT_FALSE(PageRequest::deserialize(truncated).has_value())
            << "cut=" << cut;
    }
}

TEST(Messages, TrailingJunkRejected)
{
    ContentPage cp;
    cp.domain = "www.x.com";
    cp.nonce = Bytes(16, 1);
    cp.mac = Bytes(32, 3);
    Bytes wire = cp.serialize();
    wire.push_back(0);
    EXPECT_FALSE(ContentPage::deserialize(wire).has_value());
}

TEST(Messages, MacBodyCoversRiskFields)
{
    PageRequest a, b;
    a.domain = b.domain = "www.x.com";
    a.riskMatched = 0;
    b.riskMatched = 8; // malware inflating its risk claim
    EXPECT_NE(a.macBody(), b.macBody());
}

TEST(Messages, RequestIdRoundTripsAndPeeks)
{
    RegistrationRequest rr{77, "www.x.com", "alice"};
    const Bytes wire = rr.serialize();
    EXPECT_EQ(peekRequestId(wire), 77u);
    const auto out = RegistrationRequest::deserialize(wire);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->requestId, 77u);

    PageRequest pr;
    pr.requestId = 0xDEADBEEFCAFEULL;
    pr.domain = "www.x.com";
    pr.nonce = Bytes(16, 1);
    pr.mac = Bytes(32, 2);
    EXPECT_EQ(peekRequestId(pr.serialize()), 0xDEADBEEFCAFEULL);

    // Truncated before the id completes: no value, no crash.
    EXPECT_FALSE(peekRequestId({}).has_value());
    EXPECT_FALSE(
        peekRequestId({static_cast<std::uint8_t>(1), 1, 2}).has_value());
}

TEST(Messages, RequestIdCoveredByAuthenticatedBodies)
{
    LoginSubmit a, b;
    a.domain = b.domain = "www.x.com";
    a.requestId = 1;
    b.requestId = 2; // an attacker re-labelling a captured submit
    EXPECT_NE(a.macBody(), b.macBody());

    RegistrationPage pa, pb;
    pa.domain = pb.domain = "www.x.com";
    pa.requestId = 1;
    pb.requestId = 2;
    EXPECT_NE(pa.signedBody(), pb.signedBody());
}

/** Give @p v a different value of the same type. */
void
bump(std::string &v)
{
    v += "x";
}

void
bump(Bytes &v)
{
    v.push_back(0x5a);
}

void
bump(std::uint32_t &v)
{
    ++v;
}

void
bump(std::uint64_t &v)
{
    ++v;
}

void
bump(std::vector<std::uint64_t> &v)
{
    v.push_back(77);
}

/**
 * Check one authenticated message type. Changing any @p covered field
 * (and the request id, when @p covers_id) changes the authenticated
 * body — so malware on the host cannot alter it undetected; changing
 * the authenticator @p auth (or the id, when the body leaves it out)
 * does not. Finally the wire must be exactly the body plus the
 * authenticator, so no field can travel outside the body.
 */
template <typename M, typename... F>
void
expectAuthenticates(const M &base, Bytes (M::*body)() const,
                    Bytes M::*auth, bool covers_id, F M::*...covered)
{
    const Bytes before = (base.*body)();
    const auto changes = [&](auto field) {
        M changed = base;
        bump(changed.*field);
        return (changed.*body)() != before;
    };
    int index = 0;
    const auto expect_covered = [&](auto field) {
        EXPECT_TRUE(changes(field)) << "covered field #" << index++;
    };
    (expect_covered(covered), ...);
    EXPECT_EQ(changes(&M::requestId), covers_id);
    EXPECT_FALSE(changes(auth));

    trust::core::ByteWriter id;
    id.writeU64(base.requestId);
    trust::core::ByteWriter tail;
    tail.writeBytes(base.*auth);
    Bytes expected = before;
    if (!covers_id)
        expected.insert(expected.begin() + 1, id.bytes().begin(),
                        id.bytes().end());
    expected.insert(expected.end(), tail.bytes().begin(),
                    tail.bytes().end());
    EXPECT_EQ(base.serialize(), expected);
}

TEST(Messages, AuthenticatedBodiesCoverEveryFieldButTheAuthenticator)
{
    const auto s = trust::testing::messageSamples();
    {
        using M = RegistrationPage;
        SCOPED_TRACE("RegistrationPage");
        expectAuthenticates(s.registrationPage, &M::signedBody,
                            &M::signature, true, &M::domain, &M::nonce,
                            &M::pageContent, &M::serverCert);
    }
    {
        using M = RegistrationSubmit;
        SCOPED_TRACE("RegistrationSubmit");
        expectAuthenticates(s.registrationSubmit, &M::signedBody,
                            &M::signature, true, &M::domain,
                            &M::account, &M::nonce, &M::deviceCert,
                            &M::userPublicKey, &M::frameHash);
    }
    {
        using M = LoginPage;
        SCOPED_TRACE("LoginPage");
        expectAuthenticates(s.loginPage, &M::signedBody, &M::signature,
                            true, &M::domain, &M::nonce,
                            &M::pageContent);
    }
    {
        using M = LoginSubmit;
        SCOPED_TRACE("LoginSubmit");
        expectAuthenticates(s.loginSubmit, &M::macBody, &M::mac, true,
                            &M::domain, &M::account, &M::nonce,
                            &M::encSessionKey, &M::frameHash,
                            &M::riskMatched, &M::riskWindow);
    }
    {
        using M = ContentPage;
        SCOPED_TRACE("ContentPage");
        expectAuthenticates(s.contentPage, &M::macBody, &M::mac, true,
                            &M::domain, &M::sessionId, &M::nonce,
                            &M::pageContent);
    }
    {
        using M = PageRequest;
        SCOPED_TRACE("PageRequest");
        expectAuthenticates(s.pageRequest, &M::macBody, &M::mac, true,
                            &M::domain, &M::account, &M::sessionId,
                            &M::nonce, &M::action, &M::frameHash,
                            &M::riskMatched, &M::riskWindow);
    }
    // The documented exception: one signed CRL / reset authorization
    // is redelivered under fresh request ids, so the id is unsigned.
    {
        using M = CrlMessage;
        SCOPED_TRACE("CrlMessage");
        expectAuthenticates(s.crlMessage, &M::signedBody, &M::signature,
                            false, &M::issuer, &M::crlSeq,
                            &M::revokedSerials);
    }
    {
        using M = ResetRequest;
        SCOPED_TRACE("ResetRequest");
        expectAuthenticates(s.resetRequest, &M::signedBody,
                            &M::signature, false, &M::domain,
                            &M::account, &M::authSeq);
    }
}

/** Try every typed decoder; none may crash. */
void
decodeAll(const Bytes &wire)
{
    (void)RegistrationRequest::deserialize(wire);
    (void)RegistrationPage::deserialize(wire);
    (void)RegistrationSubmit::deserialize(wire);
    (void)RegistrationResult::deserialize(wire);
    (void)LoginRequest::deserialize(wire);
    (void)LoginPage::deserialize(wire);
    (void)LoginSubmit::deserialize(wire);
    (void)ContentPage::deserialize(wire);
    (void)PageRequest::deserialize(wire);
    (void)ErrorReply::deserialize(wire);
    (void)ServerBusy::deserialize(wire);
    (void)CrlMessage::deserialize(wire);
    (void)CrlAck::deserialize(wire);
    (void)ResetRequest::deserialize(wire);
}

TEST(MessagesHardening, EveryTypeSurvivesEveryTruncation)
{
    for (const Bytes &wire : allMessageWires()) {
        // Each message round-trips whole...
        decodeAll(wire);
        // ...and every strict prefix is rejected without a panic.
        for (std::size_t cut = 0; cut < wire.size(); ++cut) {
            const Bytes truncated(
                wire.begin(),
                wire.begin() + static_cast<long>(cut));
            decodeAll(truncated);
            const auto kind = peekKind(wire);
            ASSERT_TRUE(kind.has_value());
            switch (*kind) {
              case MsgKind::PageRequest:
                EXPECT_FALSE(
                    PageRequest::deserialize(truncated).has_value());
                break;
              case MsgKind::ContentPage:
                EXPECT_FALSE(
                    ContentPage::deserialize(truncated).has_value());
                break;
              default:
                break;
            }
        }
    }
}

TEST(MessagesHardening, EveryTypeSurvivesSingleBitFlips)
{
    for (const Bytes &wire : allMessageWires()) {
        for (std::size_t byte = 0; byte < wire.size(); ++byte) {
            for (int bit = 0; bit < 8; ++bit) {
                Bytes flipped = wire;
                flipped[byte] ^=
                    static_cast<std::uint8_t>(1u << bit);
                decodeAll(flipped); // must not crash or throw
            }
        }
    }
}

} // namespace
