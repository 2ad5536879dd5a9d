/** @file Tests for ecosystem wiring, capture glue and revocation. */

#include <gtest/gtest.h>

#include "tests/trust/fixtures.hh"
#include "touch/behavior.hh"
#include "trust/scenario.hh"

namespace {

using trust::core::Rng;
using trust::testing::goodCapture;
using trust::testing::trustCa;
using trust::testing::trustFingers;
using trust::touch::UserBehavior;
using trust::trust::captureTouch;
using trust::trust::Ecosystem;
using trust::trust::EcosystemConfig;
using trust::trust::makeOptimizedScreen;
using trust::trust::WebServer;

UserBehavior
behavior(std::uint64_t user = 3)
{
    return UserBehavior::forUser(
        user, {trust::touch::homeScreenLayout(),
               trust::touch::keyboardLayout()});
}

TEST(OptimizedScreen, TilesPlacedOnHotSpots)
{
    const auto b = behavior();
    auto screen = makeOptimizedScreen(b, 4, 7.0, 42);
    ASSERT_EQ(screen.sensors().size(), 4u);
    // The optimized layout captures natural touches far more often
    // than its area fraction.
    Rng rng(43);
    int covered = 0;
    const int trials = 2000;
    for (int i = 0; i < trials; ++i)
        if (screen.sensorAt(b.sampleTouch(rng, 0).position) >= 0)
            ++covered;
    const double capture_rate =
        static_cast<double>(covered) / trials;
    EXPECT_GT(capture_rate, 2.0 * screen.coverageFraction());
}

TEST(OptimizedScreen, DeterministicForSeed)
{
    const auto b = behavior();
    auto s1 = makeOptimizedScreen(b, 3, 6.0, 7);
    auto s2 = makeOptimizedScreen(b, 3, 6.0, 7);
    ASSERT_EQ(s1.sensors().size(), s2.sensors().size());
    for (std::size_t i = 0; i < s1.sensors().size(); ++i)
        EXPECT_EQ(s1.sensors()[i].region, s2.sensors()[i].region);
}

TEST(CaptureGlue, OffTileTouchNotCovered)
{
    const auto b = behavior();
    auto screen = makeOptimizedScreen(b, 1, 5.0, 8);
    Rng rng(9);
    trust::touch::TouchEvent event;
    // A corner the optimizer will not choose (status strip).
    event.position = {1.0, 1.0};
    const auto capture =
        captureTouch(screen, event, &trustFingers()[0], rng);
    EXPECT_FALSE(capture.sample.covered);
    EXPECT_TRUE(capture.sample.minutiae.empty());
}

TEST(CaptureGlue, NullFingerYieldsZeroQuality)
{
    const auto b = behavior();
    auto screen = makeOptimizedScreen(b, 1, 7.0, 10);
    Rng rng(11);
    trust::touch::TouchEvent event;
    event.position = screen.sensors()[0].region.center();
    const auto capture = captureTouch(screen, event, nullptr, rng);
    EXPECT_TRUE(capture.sample.covered);
    EXPECT_DOUBLE_EQ(capture.sample.quality, 0.0);
    EXPECT_TRUE(capture.sample.minutiae.empty());
}

TEST(CaptureGlue, LargerWindowMoreMinutiae)
{
    const auto b = behavior();
    auto screen = makeOptimizedScreen(b, 1, 9.0, 12);
    Rng rng(13);
    trust::touch::TouchEvent event;
    event.position = screen.sensors()[0].region.center();
    event.speed = 0.02;
    double small_sum = 0.0, large_sum = 0.0;
    for (int i = 0; i < 25; ++i) {
        small_sum += static_cast<double>(
            captureTouch(screen, event, &trustFingers()[0], rng, 3.0)
                .sample.minutiae.size());
        large_sum += static_cast<double>(
            captureTouch(screen, event, &trustFingers()[0], rng, 8.0)
                .sample.minutiae.size());
    }
    EXPECT_GT(large_sum, small_sum * 1.5);
}

TEST(Ecosystem, ServersAndDevicesAttach)
{
    EcosystemConfig config;
    config.seed = 501;
    Ecosystem eco(config);
    auto &server = eco.addServer("www.a.com");
    EXPECT_EQ(server.domain(), "www.a.com");
    EXPECT_EQ(eco.servers().size(), 1u);

    auto &device =
        eco.addDevice("phone", behavior(), trustFingers()[0]);
    EXPECT_EQ(eco.devices().size(), 1u);
    EXPECT_GE(device.flock().enrolledFingerCount(), 1);
    ASSERT_TRUE(device.flock().deviceCertificate().has_value());
    EXPECT_TRUE(trust::crypto::verifyCertificate(
        *device.flock().deviceCertificate(), eco.ca().rootKey(), 0,
        trust::crypto::CertRole::FlockDevice));
}

TEST(Ecosystem, ServerRepliesThroughNetwork)
{
    EcosystemConfig config;
    config.seed = 502;
    Ecosystem eco(config);
    (void)eco.addServer("www.a.com");

    trust::core::Bytes reply;
    eco.network().attach("probe",
                         [&](const trust::net::Message &m) {
                             reply = m.payload;
                         });
    eco.network().send(
        "probe", "www.a.com",
        trust::trust::RegistrationRequest{0, "www.a.com", "u"}
            .serialize());
    eco.settle();
    EXPECT_EQ(trust::trust::peekKind(reply),
              trust::trust::MsgKind::RegistrationPage);
}

TEST(Revocation, RevokedDeviceCertCannotRegister)
{
    auto &ca = trustCa();
    auto flock = trust::testing::makeFlock("revoked-dev", 601,
                                           trustFingers()[0]);
    WebServer server("www.x.com", ca, 602);

    // Revoke the device certificate (lost device).
    const auto serial = flock.deviceCertificate()->serial;
    ca.revoke(serial);
    server.installRevocationList({serial});

    const auto page =
        server.handleRegistrationRequest({0, "www.x.com", "alice"});
    const auto submit = flock.handleRegistrationPage(
        page, "alice", trust::core::Bytes(64, 1),
        goodCapture(trustFingers()[0], 603));
    ASSERT_TRUE(submit.has_value());
    const auto result = server.handleRegistrationSubmit(*submit);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.reason, "revoked-device-cert");
    EXPECT_FALSE(server.accountRegistered("alice"));
}

TEST(Revocation, OtherDevicesUnaffected)
{
    auto &ca = trustCa();
    auto revoked = trust::testing::makeFlock("revoked-2", 611,
                                             trustFingers()[0]);
    auto healthy = trust::testing::makeFlock("healthy-2", 612,
                                             trustFingers()[1]);
    WebServer server("www.x.com", ca, 613);
    server.installRevocationList(
        {revoked.deviceCertificate()->serial});

    const auto page =
        server.handleRegistrationRequest({0, "www.x.com", "bob"});
    const auto submit = healthy.handleRegistrationPage(
        page, "bob", trust::core::Bytes(64, 1),
        goodCapture(trustFingers()[1], 614));
    ASSERT_TRUE(submit.has_value());
    EXPECT_TRUE(server.handleRegistrationSubmit(*submit).ok);
}

} // namespace

namespace duration_and_policy {

using trust::testing::makeFlock;
using trust::trust::MobileDevice;

TEST(CaptureGlue, UltraQuickTapYieldsNoUsableCapture)
{
    // Sec. IV-A countermeasure: a touch shorter than the scan time
    // cannot produce a valid fingerprint.
    const auto b = behavior();
    auto screen = makeOptimizedScreen(b, 1, 7.0, 21);
    Rng rng(22);
    trust::touch::TouchEvent event;
    event.position = screen.sensors()[0].region.center();
    event.duration = trust::core::microseconds(200); // 0.2 ms blip
    const auto quick =
        captureTouch(screen, event, &trustFingers()[0], rng);
    EXPECT_TRUE(quick.sample.covered);
    EXPECT_DOUBLE_EQ(quick.sample.quality, 0.0);

    // The same touch held for a normal tap works.
    event.duration = trust::core::milliseconds(100);
    bool usable = false;
    for (int i = 0; i < 10 && !usable; ++i) {
        const auto held =
            captureTouch(screen, event, &trustFingers()[0], rng);
        usable = held.sample.quality > 0.4;
    }
    EXPECT_TRUE(usable);
}

TEST(DevicePolicy, AutoLogoutOnHardFailure)
{
    trust::trust::EcosystemConfig config;
    config.seed = 7001;
    trust::trust::Ecosystem eco(config);
    auto &server = eco.addServer("www.bank.com");
    const auto b = behavior(9);
    auto &device = eco.addDevice("phone-policy", b, trustFingers()[0]);
    trust::trust::DevicePolicy policy;
    policy.autoLogoutOnHardFailure = true;
    device.setPolicy(policy);

    Rng rng(7002);
    const auto outcome = trust::trust::runBrowsingSession(
        eco.queue(), device, server, b, trustFingers()[0], rng, 5, "alice");
    ASSERT_TRUE(outcome.loggedIn);

    // Thief touches on the sensor until the hard-failure response
    // fires: the device itself ends the remote session.
    trust::touch::TouchEvent touch;
    touch.position = device.screen().sensors()[0].region.center();
    touch.speed = 0.05;
    for (int i = 0;
         i < 40 && device.sessionActive("www.bank.com"); ++i) {
        device.onTouch(touch, &trustFingers()[1]);
        eco.settle();
    }
    EXPECT_FALSE(device.sessionActive("www.bank.com"));
    EXPECT_GE(device.counters().get("auto-logout"), 1u);
}

} // namespace duration_and_policy
