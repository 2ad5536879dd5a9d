/**
 * @file
 * Pins the byte-level formats the project persists or sends: the
 * serialize() and authenticated-body bytes of every wire message,
 * and every file a fixed TrustStore mutation script leaves on
 * storage (WAL segments, snapshot generations) plus its stateDigest().
 * Round-trip tests cannot catch a field-order change made on both the
 * encode and decode side; this golden can. Regenerate after an
 * intentional format change with
 *     TRUST_UPDATE_GOLDEN=1 ctest -R WireFormatGolden
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/hex.hh"
#include "core/wal/storage.hh"
#include "crypto/sha256.hh"
#include "tests/trust/message_fixtures.hh"
#include "trust/store.hh"

namespace trust::trust {
namespace {

using core::Bytes;

void
line(std::string &out, const char *name, const char *what,
     const Bytes &bytes)
{
    out += name;
    out += ' ';
    out += what;
    out += ' ';
    out += core::hexEncode(bytes);
    out += '\n';
}

std::string
messageLines()
{
    const auto s = testing::messageSamples();
    std::string out;
    line(out, "RegistrationRequest", "wire",
         s.registrationRequest.serialize());
    line(out, "RegistrationPage", "wire",
         s.registrationPage.serialize());
    line(out, "RegistrationPage", "signed",
         s.registrationPage.signedBody());
    line(out, "RegistrationSubmit", "wire",
         s.registrationSubmit.serialize());
    line(out, "RegistrationSubmit", "signed",
         s.registrationSubmit.signedBody());
    line(out, "RegistrationResult", "wire",
         s.registrationResult.serialize());
    line(out, "LoginRequest", "wire", s.loginRequest.serialize());
    line(out, "LoginPage", "wire", s.loginPage.serialize());
    line(out, "LoginPage", "signed", s.loginPage.signedBody());
    line(out, "LoginSubmit", "wire", s.loginSubmit.serialize());
    line(out, "LoginSubmit", "mac", s.loginSubmit.macBody());
    line(out, "ContentPage", "wire", s.contentPage.serialize());
    line(out, "ContentPage", "mac", s.contentPage.macBody());
    line(out, "PageRequest", "wire", s.pageRequest.serialize());
    line(out, "PageRequest", "mac", s.pageRequest.macBody());
    line(out, "ErrorReply", "wire", s.errorReply.serialize());
    line(out, "ServerBusy", "wire", s.serverBusy.serialize());
    line(out, "CrlMessage", "wire", s.crlMessage.serialize());
    line(out, "CrlMessage", "signed", s.crlMessage.signedBody());
    line(out, "CrlAck", "wire", s.crlAck.serialize());
    line(out, "ResetRequest", "wire", s.resetRequest.serialize());
    line(out, "ResetRequest", "signed", s.resetRequest.signedBody());
    return out;
}

StoredSession
sessionRow(std::uint64_t id)
{
    StoredSession s;
    s.account = "user" + std::to_string(id % 17);
    s.sessionKey = Bytes(32, static_cast<std::uint8_t>(id));
    s.expectedNonce = Bytes(16, static_cast<std::uint8_t>(id * 3));
    s.currentTag = "page/" + std::to_string(id);
    s.lastRequestId = id * 1000 + 7;
    return s;
}

/**
 * A fixed mutation script over four 1 KiB-segment shards: enough
 * traffic to roll segments, compact into both snapshot generations
 * and GC, then a checkpoint and a log suffix past it.
 */
std::string
storeLines()
{
    core::wal::SimulatedStorage disk;
    StorePolicy policy;
    policy.shards = 4;
    policy.rotateBytes = 1024;
    TrustStore store(disk, "srv", policy);
    store.recover();

    for (int i = 0; i < 40; ++i)
        store.putAccount("user" + std::to_string(i),
                         Bytes(40, static_cast<std::uint8_t>(i)));
    for (int i = 0; i < 40; i += 3)
        store.eraseAccount("user" + std::to_string(i));
    for (std::uint64_t id = 1; id <= 60; ++id)
        store.putSession(id, sessionRow(id));
    for (std::uint64_t id = 1; id <= 60; id += 4)
        store.eraseSession(id);
    store.setRevocations({11, 22, 33});
    store.checkpoint();

    store.putAccount("late", Bytes{1, 2, 3});
    store.putSession(61, sessionRow(61));
    store.eraseSession(2);
    store.setRevocations({11, 22, 33, 44});

    std::string out;
    for (const std::string &file : disk.list()) {
        const Bytes content = disk.readAll(file);
        out += "file " + file + " " + std::to_string(content.size()) +
               " " + core::hexEncode(crypto::Sha256::digest(content)) +
               "\n";
    }
    out += "digest " + store.stateDigest() + "\n";
    return out;
}

std::string
goldenPath()
{
    return std::string(TRUST_SOURCE_DIR) +
           "/tests/golden/wire_format.golden";
}

TEST(WireFormatGolden, MessageAndStoreBytesMatchGolden)
{
    const std::string actual = messageLines() + storeLines();

    if (std::getenv("TRUST_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(goldenPath(), std::ios::binary);
        ASSERT_TRUE(out.good()) << goldenPath();
        out << actual;
        GTEST_SKIP() << "golden regenerated at " << goldenPath();
    }

    std::ifstream in(goldenPath(), std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden; run with TRUST_UPDATE_GOLDEN=1";
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(actual, buf.str())
        << "wire/WAL/snapshot bytes drifted from the committed golden; "
           "if the format change is intentional regenerate with "
           "TRUST_UPDATE_GOLDEN=1";
}

} // namespace
} // namespace trust::trust
