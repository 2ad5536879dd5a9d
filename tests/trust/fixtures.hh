/**
 * @file
 * Shared fixtures for the trust-module tests: synthetic fingers,
 * a CA, and helpers to build provisioned FLock modules and capture
 * samples without the full hardware stack.
 */

#ifndef TRUST_TESTS_TRUST_FIXTURES_HH
#define TRUST_TESTS_TRUST_FIXTURES_HH

#include <vector>

#include "core/rng.hh"
#include "fingerprint/capture.hh"
#include "fingerprint/synthesis.hh"
#include "trust/flock.hh"
#include "trust/scenario.hh"

namespace trust::testing {

/** Deterministic master fingers shared across trust tests. */
inline const std::vector<fingerprint::MasterFinger> &
trustFingers()
{
    static const std::vector<fingerprint::MasterFinger> pool = [] {
        core::Rng rng(777001);
        std::vector<fingerprint::MasterFinger> fingers;
        for (std::uint64_t id = 0; id < 4; ++id)
            fingers.push_back(fingerprint::synthesizeFinger(id, rng));
        return fingers;
    }();
    return pool;
}

/** Shared CA (512-bit for speed). */
inline crypto::CertificateAuthority &
trustCa()
{
    static crypto::Csprng rng(std::uint64_t{777002});
    static crypto::CertificateAuthority ca("TestCA", 512, rng);
    return ca;
}

/** Build a provisioned FLock module with the owner enrolled. */
inline trust::FlockModule
makeFlock(const std::string &id, std::uint64_t seed,
          const fingerprint::MasterFinger &owner)
{
    trust::FlockModule flock(id, trustCa().rootKey(), seed);
    trust::certifyFlock(trustCa(), flock);

    // Enroll three good views of the owner's finger.
    core::Rng rng(seed ^ 0xABCD);
    std::vector<std::vector<fingerprint::Minutia>> views;
    while (views.size() < 3) {
        fingerprint::CaptureConditions cc;
        cc.windowRows = 90;
        cc.windowCols = 90;
        cc.pressure = 0.95;
        const auto cap =
            fingerprint::captureTemplateFast(owner, cc, rng);
        if (cap.minutiae.size() >= 8)
            views.push_back(cap.minutiae);
    }
    flock.enrollFinger(views);
    return flock;
}

/** A good-quality covered capture of @p finger. */
inline trust::CaptureSample
goodCapture(const fingerprint::MasterFinger &finger, std::uint64_t seed)
{
    core::Rng rng(seed);
    trust::CaptureSample sample;
    fingerprint::CaptureConditions cc;
    cc.windowRows = 90;
    cc.windowCols = 90;
    cc.pressure = 0.95;
    // Retry until the stochastic dropout leaves enough minutiae.
    do {
        const auto cap =
            fingerprint::captureTemplateFast(finger, cc, rng);
        sample.minutiae = cap.minutiae;
        sample.quality = cap.quality;
    } while (sample.minutiae.size() < 8);
    sample.covered = true;
    return sample;
}

/** A covered but hopeless (smudged) capture. */
inline trust::CaptureSample
lowQualityCapture()
{
    trust::CaptureSample sample;
    sample.covered = true;
    sample.quality = 0.05;
    return sample;
}

/** An off-sensor touch. */
inline trust::CaptureSample
uncoveredCapture()
{
    return {};
}

} // namespace trust::testing

#endif // TRUST_TESTS_TRUST_FIXTURES_HH
