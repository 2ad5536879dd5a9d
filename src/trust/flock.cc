#include "trust/flock.hh"

#include <algorithm>

#include "core/logging.hh"
#include "core/obs/obs.hh"
#include "crypto/aes128.hh"
#include "crypto/hmac.hh"
#include "crypto/sha256.hh"
#include "fingerprint/minutiae.hh"

namespace trust::trust {

namespace {

/** Modeled fingerprint-processor time for one template match. */
constexpr core::Tick kMatchLatency = core::milliseconds(3);

/** Matcher settings for continuous opportunistic verification. */
constexpr fingerprint::MatchParams kMatchParams{};

/**
 * Stricter matcher settings for explicit authentication events
 * (unlock, registration, login, identity-transfer authorization)
 * where a false accept grants real privileges. They trade a higher
 * per-attempt FRR (the user just presses again) for a much lower
 * FAR.
 */
constexpr fingerprint::MatchParams kStrictMatchParams{
    .minPairedFloor = 7, .minVotes = 18, .acceptThreshold = 0.50};

constexpr int kMinMatchableMinutiae = 6; ///< Evidence floor for matching.
constexpr int kRiskWindow = 8;           ///< n of the k-of-n policy.
constexpr int kRiskRequiredMatches = 2;  ///< k of the k-of-n policy.

} // namespace

FlockModule::FlockModule(std::string device_id,
                         crypto::RsaPublicKey ca_key, std::uint64_t seed,
                         FlockConfig config)
    : deviceId_(std::move(device_id)), caKey_(std::move(ca_key)),
      config_(config), rng_(seed),
      deviceKeys_(crypto::rsaGenerate(config.rsaBits, rng_)),
      risk_(kRiskWindow, kRiskRequiredMatches)
{
    busyTime_ += cryptoModel_.rsaKeygen1024;
}

void
FlockModule::installDeviceCertificate(const crypto::Certificate &cert)
{
    TRUST_ASSERT(cert.subjectKey == deviceKeys_.pub,
                 "installDeviceCertificate: certificate for another key");
    deviceCert_ = cert;
    store_.put("device/cert", cert.serialize());
}

int
FlockModule::enrollFinger(
    const std::vector<std::vector<fingerprint::Minutia>> &views)
{
    TRUST_ASSERT(!views.empty(), "enrollFinger: no views");
    std::vector<fingerprint::FingerprintTemplate> templates;
    templates.reserve(views.size());
    for (const auto &view : views) {
        fingerprint::FingerprintTemplate t(view);
        // Pay the pair-indexing cost once here so every later match
        // (continuous auth runs thousands) reuses the memoized index.
        t.pairIndex(kMatchParams);
        templates.push_back(std::move(t));
    }
    fingers_.push_back(std::move(templates));
    const int index = static_cast<int>(fingers_.size()) - 1;
    // Persist templates in the protected store.
    core::ByteWriter w;
    w.writeU32(static_cast<std::uint32_t>(views.size()));
    for (const auto &view : views)
        w.writeBytes(fingerprint::serializeMinutiae(view));
    store_.put("finger/" + std::to_string(index), w.take());
    busyTime_ += store_.writeLatency();
    return index;
}

bool
FlockModule::matchesFinger(const CaptureSample &capture, int finger,
                           bool strict) const
{
    const auto &views = fingers_[static_cast<std::size_t>(finger)];
    return fingerprint::matchBestTemplate(
               views, capture.minutiae,
               strict ? kStrictMatchParams : kMatchParams)
        .accepted;
}

std::vector<FingerMatch>
FlockModule::matchAll(const CaptureSample &capture, bool strict) const
{
    TRUST_SPAN("flock/match");
    const auto &params = strict ? kStrictMatchParams : kMatchParams;

    // Flatten (finger, view) so one batch covers every enrolled
    // template; the query-side pair features are built once inside
    // matchTemplatesBatch and shared by every comparison.
    std::vector<FingerMatch> out;
    std::vector<const fingerprint::FingerprintTemplate *> flat;
    for (std::size_t f = 0; f < fingers_.size(); ++f) {
        for (std::size_t v = 0; v < fingers_[f].size(); ++v) {
            out.push_back({static_cast<int>(f), static_cast<int>(v), {}});
            flat.push_back(&fingers_[f][v]);
        }
    }
    const auto results = fingerprint::matchTemplatesBatch(
        flat, capture.minutiae, params);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i].result = results[i];
    return out;
}

int
FlockModule::firstMatchingFinger(const CaptureSample &capture,
                                 bool strict) const
{
    // matchAll returns enrollment order, so the first accepted entry
    // is the lowest-index matching finger.
    for (const FingerMatch &m : matchAll(capture, strict))
        if (m.result.accepted)
            return m.finger;
    return -1;
}

bool
FlockModule::verifyCapture(const CaptureSample &capture) const
{
    if (!capture.covered || capture.quality < kMinCaptureQuality)
        return false;
    return firstMatchingFinger(capture, /*strict=*/true) >= 0;
}

TouchOutcome
FlockModule::processTouch(const CaptureSample &capture)
{
    TRUST_SPAN("flock/process-touch");
    TouchOutcome outcome;
    if (!capture.covered) {
        outcome = TouchOutcome::NotCovered;
    } else if (capture.quality < kMinCaptureQuality ||
               capture.minutiae.size() <
                   static_cast<std::size_t>(
                       kMinMatchableMinutiae)) {
        // Too little ridge evidence to judge either way: treat as a
        // quality discard, not as contradicting evidence. When the
        // loss is attributable to sensor hardware faults the capture
        // is excluded from the window entirely — a failing tile must
        // degrade coverage, not manufacture impostor evidence.
        outcome = capture.hardwareDegraded
                      ? TouchOutcome::SensorDegraded
                      : TouchOutcome::LowQuality;
    } else {
        busyTime_ += kMatchLatency;
        const bool matched =
            firstMatchingFinger(capture, /*strict=*/false) >= 0;
        outcome = matched ? TouchOutcome::Matched
                          : TouchOutcome::Rejected;
    }
    risk_.record(outcome);
    noteTouch(outcome);
    return outcome;
}

void
FlockModule::noteTouch(TouchOutcome outcome)
{
    if (!core::obs::enabledFast())
        return;
    namespace obs = core::obs;
    obs::metrics().add("flock/touch", {{"outcome", toString(outcome)}});
    const RiskReport rr = risk_.report();
    const bool violated = risk_.violated();
    obs::audit().record(
        deviceId_, "touch",
        {{"outcome", toString(outcome)},
         {"matched", std::to_string(rr.matched)},
         {"window", std::to_string(rr.windowTouches)},
         {"violated", violated ? "1" : "0"},
         {"hard", risk_.hardFailure() ? "1" : "0"}});
    if (violated != lastViolated_) {
        // Edge-record every k-of-n transition: these are the events
        // a lock post-mortem replays first.
        lastViolated_ = violated;
        obs::audit().record(
            deviceId_, "risk-transition",
            {{"violated", violated ? "1" : "0"},
             {"matched", std::to_string(rr.matched)},
             {"window", std::to_string(rr.windowTouches)}});
        obs::tracer().instant("flock/risk-transition",
                              {{"violated", violated ? "1" : "0"}});
    }
}

core::Bytes
FlockModule::frameHashFor(const core::Bytes &frame)
{
    busyTime_ += frameHash_.hashLatency(
        static_cast<std::int64_t>(frame.size()));
    return frameHash_.hashFrame(frame);
}

std::optional<RegistrationSubmit>
FlockModule::handleRegistrationPage(const RegistrationPage &page,
                                    const std::string &account,
                                    const core::Bytes &frame,
                                    const CaptureSample &capture,
                                    std::uint64_t now,
                                    std::uint64_t request_id)
{
    if (!deviceCert_)
        return std::nullopt;

    // Verify the server certificate chain and the page signature.
    const auto cert = crypto::Certificate::deserialize(page.serverCert);
    busyTime_ += cryptoModel_.rsaVerify1024 * 2;
    if (!cert || cert->subject != page.domain ||
        !crypto::verifyCertificate(*cert, caKey_, now,
                                   crypto::CertRole::WebServer))
        return std::nullopt;
    if (!crypto::rsaVerify(cert->subjectKey, page.signedBody(),
                           page.signature))
        return std::nullopt;

    // The registration touch must carry a usable fingerprint: this
    // is the template that will own the binding.
    if (!capture.covered ||
        capture.quality < kMinCaptureQuality ||
        capture.minutiae.size() < 5)
        return std::nullopt;

    // The registration capture must verify against a finger the
    // owner enrolled during device setup: the binding references
    // that enrolled multi-view template, never a one-off partial
    // capture (which would be too thin to match again later).
    const int finger = firstMatchingFinger(capture, /*strict=*/true);
    if (finger < 0)
        return std::nullopt;

    DomainBinding binding;
    binding.account = account;
    binding.userKeys = crypto::rsaGenerate(config_.rsaBits, rng_);
    busyTime_ += cryptoModel_.rsaKeygen1024;
    binding.serverKey = cert->subjectKey;
    binding.fingerIndex = finger;

    RegistrationSubmit submit;
    submit.requestId = request_id;
    submit.domain = page.domain;
    submit.account = account;
    submit.nonce = page.nonce;
    submit.deviceCert = deviceCert_->serialize();
    submit.userPublicKey = binding.userKeys.pub.serialize();
    submit.frameHash = frameHashFor(frame);
    submit.signature =
        crypto::rsaSign(deviceKeys_.priv, submit.signedBody());
    busyTime_ += cryptoModel_.rsaSign1024;

    // Persist the binding.
    core::ByteWriter w;
    w.writeString(binding.account);
    w.writeBytes(binding.userKeys.priv.serialize());
    w.writeBytes(binding.serverKey.serialize());
    w.writeU32(static_cast<std::uint32_t>(binding.fingerIndex));
    if (!store_.put("domain/" + page.domain, w.take())) {
        core::warn("FLock protected store full; binding not persisted");
        return std::nullopt;
    }
    busyTime_ += store_.writeLatency();
    bindings_[page.domain] = std::move(binding);
    if (core::obs::enabledFast())
        core::obs::audit().record(
            deviceId_, "registration-submit",
            {{"domain", page.domain},
             {"account", account},
             {"finger", std::to_string(finger)}});
    return submit;
}

bool
FlockModule::hasBinding(const std::string &domain) const
{
    return bindings_.count(domain) > 0;
}

std::optional<LoginSubmit>
FlockModule::handleLoginPage(const LoginPage &page,
                             const core::Bytes &frame,
                             const CaptureSample &capture,
                             std::uint64_t request_id, bool resume)
{
    auto it = bindings_.find(page.domain);
    if (it == bindings_.end())
        return std::nullopt;
    const DomainBinding &binding = it->second;

    busyTime_ += cryptoModel_.rsaVerify1024;
    if (!crypto::rsaVerify(binding.serverKey, page.signedBody(),
                           page.signature))
        return std::nullopt;

    // The login touch must verify against the bound finger.
    if (!capture.covered ||
        capture.quality < kMinCaptureQuality)
        return std::nullopt;
    busyTime_ += kMatchLatency;
    if (!matchesFinger(capture, binding.fingerIndex, /*strict=*/true))
        return std::nullopt;

    // A fresh login starts a new risk epoch; a resume after a
    // network outage keeps the accumulated window so the k-of-n
    // history spans the outage.
    if (!resume)
        risk_.reset();
    risk_.record(TouchOutcome::Matched);
    if (core::obs::enabledFast()) {
        const RiskReport rr = risk_.report();
        core::obs::audit().record(
            deviceId_, resume ? "risk-epoch-resume" : "risk-epoch-new",
            {{"domain", page.domain},
             {"matched", std::to_string(rr.matched)},
             {"window", std::to_string(rr.windowTouches)}});
        lastViolated_ = risk_.violated();
    }

    Session session;
    session.sessionKey = rng_.randomBytes(32);
    session.established = false;

    LoginSubmit submit;
    submit.requestId = request_id;
    submit.domain = page.domain;
    submit.account = binding.account;
    submit.nonce = page.nonce;
    submit.encSessionKey =
        crypto::rsaEncrypt(binding.serverKey, session.sessionKey, rng_);
    busyTime_ += cryptoModel_.rsaVerify1024; // public-key op
    submit.frameHash = frameHashFor(frame);
    const RiskReport rr = risk_.report();
    submit.riskMatched = static_cast<std::uint32_t>(rr.matched);
    submit.riskWindow = static_cast<std::uint32_t>(
        std::max(rr.windowTouches, 1));
    submit.mac =
        crypto::hmacSha256(session.sessionKey, submit.macBody());

    sessions_[page.domain] = std::move(session);
    if (core::obs::enabledFast())
        core::obs::audit().record(
            deviceId_, "login-submit",
            {{"domain", page.domain},
             {"matched", std::to_string(submit.riskMatched)},
             {"window", std::to_string(submit.riskWindow)}});
    return submit;
}

bool
FlockModule::acceptContentPage(const ContentPage &page)
{
    auto it = sessions_.find(page.domain);
    if (it == sessions_.end())
        return false;
    Session &session = it->second;

    if (!crypto::hmacSha256Verify(session.sessionKey, page.macBody(),
                                  page.mac))
        return false;
    if (session.established && page.sessionId != session.sessionId)
        return false;

    session.sessionId = page.sessionId;
    session.nextNonce = page.nonce;
    session.established = true;
    return true;
}

std::optional<PageRequest>
FlockModule::makePageRequest(const std::string &domain,
                             const std::string &action,
                             const core::Bytes &frame,
                             const CaptureSample &capture,
                             std::uint64_t request_id)
{
    auto it = sessions_.find(domain);
    if (it == sessions_.end() || !it->second.established)
        return std::nullopt;
    Session &session = it->second;
    auto binding_it = bindings_.find(domain);
    if (binding_it == bindings_.end())
        return std::nullopt;

    // Opportunistic continuous authentication (Fig. 6 inside
    // Fig. 10): every touch updates the risk window.
    processTouch(capture);

    PageRequest request;
    request.requestId = request_id;
    request.domain = domain;
    request.account = binding_it->second.account;
    request.sessionId = session.sessionId;
    request.nonce = session.nextNonce;
    request.action = action;
    request.frameHash = frameHashFor(frame);
    const RiskReport rr = risk_.report();
    request.riskMatched = static_cast<std::uint32_t>(rr.matched);
    request.riskWindow =
        static_cast<std::uint32_t>(std::max(rr.windowTouches, 1));
    request.mac =
        crypto::hmacSha256(session.sessionKey, request.macBody());
    busyTime_ += cryptoModel_.shaLatency(
        static_cast<std::int64_t>(request.macBody().size()));
    return request;
}

std::optional<core::Bytes>
FlockModule::decryptPageContent(const std::string &domain,
                                const core::Bytes &encrypted) const
{
    auto it = sessions_.find(domain);
    if (it == sessions_.end() || !it->second.established)
        return std::nullopt;
    return sessionCipher(it->second.sessionKey, encrypted,
                         it->second.sessionId);
}

void
FlockModule::endSession(const std::string &domain)
{
    sessions_.erase(domain);
}

bool
FlockModule::sessionActive(const std::string &domain) const
{
    auto it = sessions_.find(domain);
    return it != sessions_.end() && it->second.established;
}

std::optional<core::Bytes>
FlockModule::exportIdentity(const crypto::RsaPublicKey &new_device_key,
                            const CaptureSample &authorization)
{
    // The user authorizes the transfer with a verified fingerprint
    // (Sec. IV-B, Identity Transfer).
    if (!verifyCapture(authorization))
        return std::nullopt;

    core::ByteWriter bundle;
    bundle.writeU32(static_cast<std::uint32_t>(fingers_.size()));
    for (const auto &views : fingers_) {
        bundle.writeU32(static_cast<std::uint32_t>(views.size()));
        for (const auto &view : views)
            bundle.writeBytes(
                fingerprint::serializeMinutiae(view.minutiae));
    }
    bundle.writeU32(static_cast<std::uint32_t>(bindings_.size()));
    for (const auto &[domain, binding] : bindings_) {
        bundle.writeString(domain);
        bundle.writeString(binding.account);
        bundle.writeBytes(binding.userKeys.priv.serialize());
        bundle.writeBytes(binding.serverKey.serialize());
        bundle.writeU32(static_cast<std::uint32_t>(binding.fingerIndex));
    }
    const core::Bytes plain = bundle.take();

    // Hybrid encryption to the new device's public key.
    const core::Bytes aes_key = rng_.randomBytes(16);
    const core::Bytes iv = rng_.randomBytes(16);
    const core::Bytes ciphertext =
        crypto::Aes128(aes_key).ctrTransform(iv, plain);

    core::ByteWriter out;
    out.writeBytes(crypto::rsaEncrypt(new_device_key, aes_key, rng_));
    out.writeBytes(iv);
    out.writeBytes(ciphertext);
    busyTime_ += cryptoModel_.aesLatency(
        static_cast<std::int64_t>(plain.size()));
    return out.take();
}

// The bundle crosses devices, so it is parsed as untrusted input:
// any truncation or bit flip must yield `false`, never a crash.
// trustlint: untrusted-input
bool
FlockModule::importIdentity(const core::Bytes &bundle)
{
    core::ByteReader outer(bundle);
    const core::Bytes enc_key = outer.readBytes();
    const core::Bytes iv = outer.readBytes();
    const core::Bytes ciphertext = outer.readBytes();
    if (!outer.ok() || !outer.atEnd() || iv.size() != 16)
        return false;

    const auto aes_key = crypto::rsaDecrypt(deviceKeys_.priv, enc_key);
    if (!aes_key || aes_key->size() != 16)
        return false;
    const core::Bytes plain =
        crypto::Aes128(*aes_key).ctrTransform(iv, ciphertext);

    core::ByteReader r(plain);
    const std::uint32_t finger_count = r.readU32();
    std::vector<std::vector<fingerprint::FingerprintTemplate>> fingers;
    for (std::uint32_t f = 0; f < finger_count && r.ok(); ++f) {
        const std::uint32_t view_count = r.readU32();
        std::vector<fingerprint::FingerprintTemplate> views;
        for (std::uint32_t v = 0; v < view_count && r.ok(); ++v)
            views.emplace_back(
                fingerprint::deserializeMinutiae(r.readBytes()));
        fingers.push_back(std::move(views));
    }
    const std::uint32_t binding_count = r.readU32();
    std::map<std::string, DomainBinding> bindings;
    for (std::uint32_t b = 0; b < binding_count && r.ok(); ++b) {
        const std::string domain = r.readString();
        DomainBinding binding;
        binding.account = r.readString();
        const auto priv =
            crypto::RsaPrivateKey::deserialize(r.readBytes());
        const auto server =
            crypto::RsaPublicKey::deserialize(r.readBytes());
        binding.fingerIndex = static_cast<int>(r.readU32());
        if (!priv || !server)
            return false;
        binding.userKeys = {priv->publicKey(), *priv};
        binding.serverKey = *server;
        bindings[domain] = std::move(binding);
    }
    if (!r.ok() || !r.atEnd())
        return false;

    fingers_ = std::move(fingers);
    bindings_ = std::move(bindings);
    sessions_.clear();
    risk_.reset();
    return true;
}

void
FlockModule::factoryReset()
{
    fingers_.clear();
    bindings_.clear();
    sessions_.clear();
    risk_.reset();
    store_.wipeAll();
}

} // namespace trust::trust
