#include "unit_costs.hh"

#include <algorithm>
#include <functional>

#include "core/rng.hh"
#include "core/wal/storage.hh"
#include "crypto/aes128.hh"
#include "crypto/csprng.hh"
#include "crypto/rsa.hh"
#include "fingerprint/synthesis.hh"
#include "touch/behavior.hh"
#include "touch/ui.hh"
#include "trust/capture_glue.hh"
#include "trust/device.hh"
#include "trust/frames.hh"
#include "trust/messages.hh"
#include "trust/scenario.hh"
#include "trust/store.hh"

#include "spans.hh"
#include "stats.hh"

namespace perfbench {

namespace {

namespace core = trust::core;
namespace crypto = trust::crypto;
namespace proto = trust::trust;

/** Median wall time of @p reps calls of fn(i), in @p scale units/ns. */
double
medianCall(int reps, double scale, const std::function<void(int)> &fn)
{
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        const std::int64_t start = nowNs();
        fn(i);
        samples.push_back(static_cast<double>(nowNs() - start) * scale);
    }
    return median(std::move(samples));
}

core::Bytes
seededBytes(core::Rng &rng, std::size_t n)
{
    core::Bytes out(n);
    for (auto &b : out)
        b = static_cast<std::uint8_t>(rng.next());
    return out;
}

constexpr double kUs = 1e-3;
constexpr double kMs = 1e-6;

} // namespace

std::vector<UnitCost>
measureUnitCosts(std::uint64_t seed)
{
    std::vector<UnitCost> out;
    core::Rng rng(seed ^ 0x0417C057ull);
    const trust::hw::DisplaySpec display;
    const trust::hw::FrameHashEngine engine;
    const core::Bytes page = seededBytes(rng, 1024);
    const auto views = proto::standardViews();
    volatile std::size_t sink = 0;

    out.push_back({"frames.render_hash_us", "us",
                   medianCall(24, kUs, [&](int i) {
                       const core::Bytes frame = proto::renderFrame(
                           page, views[static_cast<std::size_t>(i) %
                                       views.size()],
                           display);
                       sink = sink + engine.hashFrame(frame).size();
                   })});
    out.push_back({"frames.expected_set_ms", "ms",
                   medianCall(5, kMs, [&](int) {
                       sink = sink + proto::expectedFrameHashes(
                                         page, display, engine)
                                         .size();
                   })});

    // One provisioned device: placement, FLock module, enrolled owner.
    {
        const auto behavior = trust::touch::UserBehavior::forUser(
            seed + 1, {trust::touch::homeScreenLayout(),
                       trust::touch::keyboardLayout(),
                       trust::touch::browserLayout()});
        core::Rng finger_rng(seed + 2);
        const auto finger =
            trust::fingerprint::synthesizeFinger(seed + 1, finger_rng);
        crypto::Csprng ca_rng(seed + 3);
        crypto::CertificateAuthority ca("TrustRootCA", 512, ca_rng);
        proto::MobileDevice device(
            "unit-phone",
            proto::makeOptimizedScreen(behavior, 4, 7.0, seed + 4),
            proto::FlockModule("unit-flock", ca.rootKey(), seed + 5),
            seed + 6);
        device.enrollOwner(finger);
        trust::touch::TouchEvent press;
        press.position = device.screen().sensors()[0].region.center();
        press.speed = 0.05;
        press.gesture = trust::touch::GestureType::Tap;
        std::vector<proto::CaptureSample> samples;
        core::Rng capture_rng(seed + 7);
        for (int i = 0; i < 24; ++i)
            samples.push_back(proto::captureTouch(device.screen(), press,
                                                  &finger, capture_rng)
                                  .sample);
        out.push_back(
            {"flock.process_touch_us", "us",
             medianCall(24, kUs, [&](int i) {
                 sink = sink + static_cast<std::size_t>(
                                   device.flock().processTouch(
                                       samples[static_cast<std::size_t>(i)]));
             })});
    }

    crypto::Csprng key_rng(seed + 8);
    out.push_back({"crypto.rsa_keygen_ms", "ms",
                   medianCall(5, kMs, [&](int) {
                       sink = sink + crypto::rsaGenerate(512, key_rng)
                                         .pub.modulusBytes();
                   })});
    const crypto::RsaKeyPair keys = crypto::rsaGenerate(512, key_rng);
    const core::Bytes message = seededBytes(rng, 256);
    const core::Bytes signature = crypto::rsaSign(keys.priv, message);
    out.push_back({"crypto.rsa_verify_us", "us",
                   medianCall(64, kUs, [&](int) {
                       sink = sink + (crypto::rsaVerify(keys.pub, message,
                                                        signature)
                                          ? 1
                                          : 0);
                   })});

    const crypto::Aes128 aes(seededBytes(rng, 16));
    const core::Bytes iv = seededBytes(rng, 16);
    out.push_back({"crypto.aes_ctr_kb_us", "us",
                   medianCall(64, kUs, [&](int) {
                       sink = sink + aes.ctrTransform(iv, page).size();
                   })});

    proto::PageRequest request;
    request.requestId = 7;
    request.domain = "www.perf0.com";
    request.account = "user0";
    request.sessionId = 42;
    request.nonce = seededBytes(rng, 16);
    request.action = "link-3";
    request.frameHash = seededBytes(rng, 32);
    request.riskMatched = 3;
    request.riskWindow = 8;
    request.mac = seededBytes(rng, 32);
    out.push_back({"messages.page_request_codec_us", "us",
                   medianCall(256, kUs, [&](int) {
                       const auto decoded = proto::PageRequest::deserialize(
                           request.serialize());
                       sink = sink + (decoded ? decoded->action.size() : 0);
                   })});

    core::wal::SimulatedStorage storage;
    proto::TrustStore store(storage, "unit");
    store.recover();
    proto::StoredSession session;
    session.account = "user0";
    session.sessionKey = seededBytes(rng, 16);
    session.expectedNonce = seededBytes(rng, 16);
    session.currentTag = "home";
    out.push_back({"store.put_session_us", "us",
                   medianCall(256, kUs, [&](int i) {
                       session.lastRequestId =
                           static_cast<std::uint64_t>(i) + 1;
                       store.putSession(
                           static_cast<std::uint64_t>(i % 32) + 1, session);
                   })});
    return out;
}

} // namespace perfbench
