/**
 * @file
 * One representative, fully-populated instance of every TRUST wire
 * message type. Shared by the round-trip/hardening sweeps and the
 * wire-format golden, so both exercise every field of every decoder.
 */

#ifndef TRUST_TESTS_TRUST_MESSAGE_FIXTURES_HH
#define TRUST_TESTS_TRUST_MESSAGE_FIXTURES_HH

#include <vector>

#include "trust/messages.hh"

namespace trust::testing {

/** Every message type, each with every field set to a non-default. */
struct MessageSamples
{
    trust::RegistrationRequest registrationRequest;
    trust::RegistrationPage registrationPage;
    trust::RegistrationSubmit registrationSubmit;
    trust::RegistrationResult registrationResult;
    trust::LoginRequest loginRequest;
    trust::LoginPage loginPage;
    trust::LoginSubmit loginSubmit;
    trust::ContentPage contentPage;
    trust::PageRequest pageRequest;
    trust::ErrorReply errorReply;
    trust::ServerBusy serverBusy;
    trust::CrlMessage crlMessage;
    trust::CrlAck crlAck;
    trust::ResetRequest resetRequest;
};

inline MessageSamples
messageSamples()
{
    using core::Bytes;
    MessageSamples s;

    s.registrationRequest = {1, "www.x.com", "alice"};

    auto &rp = s.registrationPage;
    rp.requestId = 2;
    rp.domain = "www.x.com";
    rp.nonce = Bytes(16, 7);
    rp.pageContent = Bytes(64, 1);
    rp.serverCert = Bytes(48, 2);
    rp.signature = Bytes(64, 3);

    auto &rs = s.registrationSubmit;
    rs.requestId = 3;
    rs.domain = "www.x.com";
    rs.account = "alice";
    rs.nonce = Bytes(16, 4);
    rs.deviceCert = Bytes(48, 5);
    rs.userPublicKey = Bytes(32, 6);
    rs.frameHash = Bytes(32, 7);
    rs.signature = Bytes(64, 8);

    auto &result = s.registrationResult;
    result.requestId = 4;
    result.domain = "www.x.com";
    result.account = "alice";
    result.ok = true;
    result.reason = "ok";

    s.loginRequest = {5, "www.x.com", "alice"};

    auto &lp = s.loginPage;
    lp.requestId = 6;
    lp.domain = "www.x.com";
    lp.nonce = Bytes(16, 9);
    lp.pageContent = Bytes(64, 10);
    lp.signature = Bytes(64, 11);

    auto &ls = s.loginSubmit;
    ls.requestId = 7;
    ls.domain = "www.x.com";
    ls.account = "alice";
    ls.nonce = Bytes(16, 12);
    ls.encSessionKey = Bytes(64, 13);
    ls.frameHash = Bytes(32, 14);
    ls.riskMatched = 2;
    ls.riskWindow = 8;
    ls.mac = Bytes(32, 15);

    auto &cp = s.contentPage;
    cp.requestId = 8;
    cp.domain = "www.x.com";
    cp.sessionId = 42;
    cp.nonce = Bytes(16, 16);
    cp.pageContent = Bytes(128, 17);
    cp.mac = Bytes(32, 18);

    auto &pr = s.pageRequest;
    pr.requestId = 9;
    pr.domain = "www.x.com";
    pr.account = "alice";
    pr.sessionId = 42;
    pr.nonce = Bytes(16, 19);
    pr.action = "inbox";
    pr.frameHash = Bytes(32, 20);
    pr.riskMatched = 2;
    pr.riskWindow = 8;
    pr.mac = Bytes(32, 21);

    s.errorReply = {10, "www.x.com", "stale-nonce"};
    s.serverBusy = {11, "www.x.com", core::milliseconds(750)};

    auto &crl = s.crlMessage;
    crl.requestId = 12;
    crl.issuer = "TrustRootCA";
    crl.crlSeq = 3;
    crl.revokedSerials = {5, 9, 0x0102030405060708ULL};
    crl.signature = Bytes(64, 22);

    s.crlAck = {13, "www.x.com", 3, 7};

    auto &reset = s.resetRequest;
    reset.requestId = 14;
    reset.domain = "www.x.com";
    reset.account = "alice";
    reset.authSeq = 4;
    reset.signature = Bytes(64, 23);

    return s;
}

/** serialize() of every sample, in MsgKind order. */
inline std::vector<core::Bytes>
allMessageWires()
{
    const MessageSamples s = messageSamples();
    return {s.registrationRequest.serialize(),
            s.registrationPage.serialize(),
            s.registrationSubmit.serialize(),
            s.registrationResult.serialize(),
            s.loginRequest.serialize(),
            s.loginPage.serialize(),
            s.loginSubmit.serialize(),
            s.contentPage.serialize(),
            s.pageRequest.serialize(),
            s.errorReply.serialize(),
            s.serverBusy.serialize(),
            s.crlMessage.serialize(),
            s.crlAck.serialize(),
            s.resetRequest.serialize()};
}

} // namespace trust::testing

#endif // TRUST_TESTS_TRUST_MESSAGE_FIXTURES_HH
