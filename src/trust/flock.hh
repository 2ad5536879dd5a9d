/**
 * @file
 * FLock module logic (Fig. 5): the tamper-isolated trust anchor of
 * every mobile device. Holds the build-in device key pair, the
 * biometric templates and all per-domain records in protected
 * storage; performs every protocol cryptographic operation so that
 * neither keys nor fingerprints ever reach the untrusted host SoC.
 */

#ifndef TRUST_TRUST_FLOCK_HH
#define TRUST_TRUST_FLOCK_HH

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "crypto/cert.hh"
#include "crypto/csprng.hh"
#include "crypto/rsa.hh"
#include "fingerprint/pipeline.hh"
#include "hw/flock_hw.hh"
#include "trust/identity_risk.hh"
#include "trust/messages.hh"

namespace trust::trust {

/** Fig. 6 quality gate: captures below it carry no evidence. */
inline constexpr double kMinCaptureQuality = 0.45;

/** The panel every device renders on and every server audits. */
inline constexpr hw::DisplaySpec kDisplay{};

/** Configuration of a FLock module instance. */
struct FlockConfig
{
    std::size_t rsaBits = 512; ///< Key size (sim default).
};

/** One enrolled view's score against a capture (see matchAll). */
struct FingerMatch
{
    int finger = 0; ///< Enrolled finger index.
    int view = 0;   ///< View index within the finger.
    fingerprint::MatchResult result;
};

/** One captured fingerprint sample handed to FLock by the sensor. */
struct CaptureSample
{
    std::vector<fingerprint::Minutia> minutiae;
    double quality = 0.0;
    bool covered = false; ///< False when no sensor saw the touch.
    /**
     * True when the capturing tile reported hardware faults (dead
     * rows, stuck columns, a noise burst) over the scanned window.
     * Degraded captures that still pass the quality gate are matched
     * normally; ones that fail it are classified SensorDegraded
     * rather than LowQuality so the fault carries no impostor
     * evidence into the risk window.
     */
    bool hardwareDegraded = false;
};

/** The FLock module. */
class FlockModule
{
  public:
    /**
     * @param device_id unique module identifier (certificate subject).
     * @param ca_key    provisioned CA root public key.
     * @param seed      entropy seed of the internal CSPRNG.
     */
    FlockModule(std::string device_id, crypto::RsaPublicKey ca_key,
                std::uint64_t seed, FlockConfig config = {});

    const std::string &deviceId() const { return deviceId_; }
    const crypto::RsaPublicKey &devicePublicKey() const
    {
        return deviceKeys_.pub;
    }

    /** Install the CA-issued device certificate. */
    void installDeviceCertificate(const crypto::Certificate &cert);
    const std::optional<crypto::Certificate> &deviceCertificate() const
    {
        return deviceCert_;
    }

    // --- Local identity management (Fig. 6) ---------------------------

    /**
     * Enroll a finger: one or more minutiae views captured during
     * setup. Returns the finger index.
     */
    int enrollFinger(
        const std::vector<std::vector<fingerprint::Minutia>> &views);

    int enrolledFingerCount() const
    {
        return static_cast<int>(fingers_.size());
    }

    /**
     * Verify one capture against the enrolled fingers (any-of).
     * Pure match; does not touch the risk window.
     */
    bool verifyCapture(const CaptureSample &capture) const;

    /**
     * Score a capture against every view of every enrolled finger in
     * one batch: the query-side pair features are built once and
     * shared by every (finger, view) comparison. Results come back
     * in enrollment order (finger, then view). This is the matching
     * hot path behind verifyCapture/processTouch and therefore
     * behind every WebServer page interaction.
     */
    std::vector<FingerMatch> matchAll(const CaptureSample &capture,
                                      bool strict = false) const;

    /**
     * Full Fig. 6 per-touch processing: coverage check, quality
     * gate, match, risk-window update. Returns the outcome.
     */
    TouchOutcome processTouch(const CaptureSample &capture);

    /** Current risk state. */
    RiskReport risk() const { return risk_.report(); }

    /** k-of-n policy violation (response should fire). */
    bool riskViolated() const { return risk_.violated(); }

    /** Hard failure: repeated explicit rejections in the window. */
    bool riskHardFailure() const { return risk_.hardFailure(); }

    /** Reset the risk window (after unlock / re-auth). */
    void resetRisk() { risk_.reset(); }

    // --- Remote identity management (Figs. 9-10) ----------------------

    /**
     * Process a registration page: verify the server certificate
     * against the CA and the page signature; on a valid fingerprint
     * capture, create the per-domain binding (fresh user key pair +
     * template + server key) and emit the signed submission.
     * Returns nullopt when verification or the capture fails.
     *
     * @param frame the actual displayed frame (repeater tap).
     * @param request_id id stamped into the submission (0 = none);
     *        retransmissions reuse the id so the server can reply
     *        idempotently.
     */
    std::optional<RegistrationSubmit>
    handleRegistrationPage(const RegistrationPage &page,
                           const std::string &account,
                           const core::Bytes &frame,
                           const CaptureSample &capture,
                           std::uint64_t now = 0,
                           std::uint64_t request_id = 0);

    /** True if a binding for @p domain exists. */
    bool hasBinding(const std::string &domain) const;

    /**
     * Process a login page: verify the stored server key's
     * signature, match the capture against the domain's bound
     * template, mint a session key and emit the login submission.
     *
     * @param request_id id stamped into the submission (0 = none).
     * @param resume     true when re-establishing a session after a
     *        network outage: the risk window is NOT reset, so the
     *        k-of-n history survives the outage and the re-handshake
     *        cannot be used to launder a bad window.
     */
    std::optional<LoginSubmit>
    handleLoginPage(const LoginPage &page, const core::Bytes &frame,
                    const CaptureSample &capture,
                    std::uint64_t request_id = 0, bool resume = false);

    /**
     * Verify and accept a content page for the domain's session:
     * checks the MAC and stores the next-request nonce.
     */
    bool acceptContentPage(const ContentPage &page);

    /**
     * Build the next authenticated page request for a touch on
     * @p action. The capture (possibly absent) first updates the
     * risk window, whose state is embedded in the request. Requires
     * an accepted content page (nonce in hand).
     */
    std::optional<PageRequest>
    makePageRequest(const std::string &domain, const std::string &action,
                    const core::Bytes &frame,
                    const CaptureSample &capture,
                    std::uint64_t request_id = 0);

    /** Decrypt a session-encrypted page body. */
    std::optional<core::Bytes>
    decryptPageContent(const std::string &domain,
                       const core::Bytes &encrypted) const;

    /** End the session for a domain (logout). */
    void endSession(const std::string &domain);

    /** True while a session is live for the domain. */
    bool sessionActive(const std::string &domain) const;

    // --- Identity transfer / reset (Sec. IV-B) -------------------------

    /**
     * Export all bindings encrypted to a new device's public key.
     * Requires a valid fingerprint capture to authorize. Hybrid
     * encryption: RSA wraps a fresh AES key, AES-CTR wraps the
     * bundle.
     */
    std::optional<core::Bytes>
    exportIdentity(const crypto::RsaPublicKey &new_device_key,
                   const CaptureSample &authorization);

    /** Import a bundle produced by another module's exportIdentity. */
    bool importIdentity(const core::Bytes &bundle);

    /** Wipe everything (lost-device reset). */
    void factoryReset();

    /** Number of stored domain bindings. */
    std::size_t bindingCount() const { return bindings_.size(); }

    /** Modeled hardware time consumed by FLock operations so far. */
    core::Tick busyTime() const { return busyTime_; }

    /** The frame hash engine (shared with benches for sizing). */
    const hw::FrameHashEngine &frameHashEngine() const
    {
        return frameHash_;
    }

  private:
    struct DomainBinding
    {
        std::string account;
        crypto::RsaKeyPair userKeys;
        crypto::RsaPublicKey serverKey;
        int fingerIndex = 0;
    };

    struct Session
    {
        core::Bytes sessionKey; // trustlint: secret
        std::uint64_t sessionId = 0;
        core::Bytes nextNonce; // trustlint: secret
        bool established = false;
    };

    /** Match a capture against one enrolled finger. */
    bool matchesFinger(const CaptureSample &capture, int finger,
                       bool strict = false) const;

    /**
     * Score a capture against every view of every enrolled finger
     * (batch multi-template matching) and return the lowest-index
     * finger with an accepted view, or -1.
     */
    int firstMatchingFinger(const CaptureSample &capture,
                            bool strict) const;

    core::Bytes frameHashFor(const core::Bytes &frame);

    /** Audit/metrics for one continuous-auth outcome (obs-gated). */
    void noteTouch(TouchOutcome outcome);

    std::string deviceId_;
    crypto::RsaPublicKey caKey_;
    FlockConfig config_;
    crypto::Csprng rng_;
    crypto::RsaKeyPair deviceKeys_;
    std::optional<crypto::Certificate> deviceCert_;
    hw::FrameHashEngine frameHash_;
    hw::CryptoProcessorModel cryptoModel_;
    hw::ProtectedStore store_;

    // finger -> enrolled views, each carrying its memoized pair
    // index so continuous-auth matches skip template re-indexing.
    std::vector<std::vector<fingerprint::FingerprintTemplate>> fingers_;
    IdentityRisk risk_;
    bool lastViolated_ = false; ///< Audit: edge-detects k-of-n trips.
    std::map<std::string, DomainBinding> bindings_;
    std::map<std::string, Session> sessions_;
    core::Tick busyTime_ = 0;
};

} // namespace trust::trust

#endif // TRUST_TRUST_FLOCK_HH
