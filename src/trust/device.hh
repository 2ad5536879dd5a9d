/**
 * @file
 * The mobile device of Figs. 8-10: biometric touchscreen hardware,
 * the trusted FLock module, and the UNTRUSTED host SoC running the
 * browser. Per the threat model (Sec. IV-B assumption i) the host
 * may be controlled by malware; the MalwareProfile lets experiments
 * switch on frame tampering and request forgery and observe that
 * the server rejects or audits them.
 */

#ifndef TRUST_TRUST_DEVICE_HH
#define TRUST_TRUST_DEVICE_HH

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/sim_clock.hh"
#include "core/stats.hh"
#include "net/network.hh"
#include "trust/capture_glue.hh"
#include "trust/frames.hh"

namespace trust::trust {

/** Device-side response policy (the Fig. 6 pre-defined responses). */
struct DevicePolicy
{
    /**
     * End every remote session when the risk window hard-fails
     * (the paper's "logging out automatically" response). Off by
     * default so experiments can observe the server-side policy in
     * isolation.
     */
    bool autoLogoutOnHardFailure = false;
};

/** Host-side malware capabilities. */
struct MalwareProfile
{
    /** Tamper with displayed frames (phishing overlay). */
    bool tamperFrames = false;

    /** Forge page requests without going through FLock. */
    bool forgeRequests = false;
};

/**
 * Retransmission policy for network exchanges: every request is
 * resent with exponential backoff and jitter until a reply with the
 * matching id arrives or the attempt budget is spent. Defaults span
 * 0.25 s..4 s, so the cumulative schedule (~0.25+0.5+1+2+4 s) rides
 * out a multi-second partition within the 8-attempt budget.
 */
struct RetryPolicy
{
    /** Uniform +/- fraction applied to each timeout (desyncs flows). */
    static constexpr double kJitterFraction = 0.2;

    core::Tick initialTimeout = core::milliseconds(250);
    double backoffFactor = 2.0;
    core::Tick maxTimeout = core::milliseconds(4000);
    int maxAttempts = 8;

    /**
     * Timeout armed for send attempt @p attempt (1-based): the
     * initial timeout grown by backoffFactor^(attempt-1), clamped to
     * maxTimeout. Overflow-safe for any attempt count — the running
     * value is clamped *before* each doubling/multiply, so a huge
     * attempt number (or maxTimeout = 0 meaning "no cap") saturates
     * at a quarter of the Tick range instead of wrapping to a tiny
     * timeout that would retransmit in a hot loop.
     */
    core::Tick timeoutForAttempt(int attempt) const;
};

/** Typed outcome of the last finished network exchange. */
enum class OpError
{
    None = 0,       ///< Completed (or nothing attempted yet).
    RetryExhausted, ///< No matching reply within maxAttempts sends.
    ServerError,    ///< Server answered with a typed ErrorReply.
    BadReply,       ///< Reply failed authenticity/decode checks.
};

/** A mobile device with an integrated FLock module. */
class MobileDevice
{
  public:
    /**
     * @param name   network endpoint name of the device.
     * @param screen biometric touchscreen hardware.
     * @param flock  the trusted module (moved in).
     * @param seed   host-side RNG seed (view choice, malware).
     */
    MobileDevice(std::string name, hw::BiometricTouchscreen screen,
                 FlockModule flock, std::uint64_t seed);

    const std::string &name() const { return name_; }
    FlockModule &flock() { return flock_; }
    const FlockModule &flock() const { return flock_; }
    hw::BiometricTouchscreen &screen() { return screen_; }
    const hw::BiometricTouchscreen &screen() const { return screen_; }

    /** Install the host-compromise profile. */
    void setMalware(const MalwareProfile &profile)
    {
        malware_ = profile;
    }

    /** Install the local response policy. */
    void setPolicy(const DevicePolicy &policy) { policy_ = policy; }

    /** Install the retransmission policy. */
    void setRetryPolicy(const RetryPolicy &policy)
    {
        retryPolicy_ = policy;
    }
    const RetryPolicy &retryPolicy() const { return retryPolicy_; }

    /** Outcome of the most recently finished exchange. */
    OpError lastError() const { return lastError_; }

    /** Register the device endpoint on the network. */
    void attachToNetwork(net::Network &network);

    /**
     * Enroll the owner's finger from repeated setup touches on a
     * sensor tile (multi-view enrollment). Returns true when at
     * least one good view enrolled.
     */
    bool enrollOwner(const fingerprint::MasterFinger &finger,
                     int capture_attempts = 6);

    // --- Asynchronous protocol operations ------------------------------

    /** Fig. 9 step 1: ask @p domain for its registration page. */
    void startRegistration(const std::string &domain,
                           const std::string &account);

    /** Fig. 10 step 1: ask @p domain for its login page. */
    void startLogin(const std::string &domain);

    /**
     * True when a live session's exchange exhausted its retries (the
     * outage outlasted the backoff schedule) and the session must be
     * re-established before further page requests.
     */
    bool sessionNeedsResume(const std::string &domain) const;

    /**
     * Re-handshake after an outage: runs the Fig. 10 login exchange
     * again but flags it as a resumption, so FLock keeps the
     * accumulated k-of-n risk window instead of starting a fresh
     * epoch.
     */
    void resumeSession(const std::string &domain);

    /**
     * One user touch. Completes any pending protocol step that was
     * waiting for a touch (registration / login confirmation) or,
     * inside a live session, issues the next authenticated page
     * request with the touch's opportunistic capture.
     */
    void onTouch(const touch::TouchEvent &event,
                 const fingerprint::MasterFinger *finger);

    /**
     * Adopt a binding that arrived through the Sec. IV-B identity
     * transfer (FlockModule::importIdentity) instead of through this
     * device's own registration exchange: mark @p domain registered
     * under @p account so startLogin()/resumeSession() work — the
     * server kept the transferred user key, so no re-registration
     * happens and the old device's binding simply moves here.
     */
    void adoptTransferredIdentity(const std::string &domain,
                                  const std::string &account);

    // --- State inspection -----------------------------------------------

    bool registrationComplete(const std::string &domain) const;
    bool sessionActive(const std::string &domain) const;

    /** Pages successfully received and decrypted in sessions. */
    std::uint64_t pagesReceived() const
    {
        return counters_.get("content-page-accepted");
    }

    const core::CounterSet &counters() const { return counters_; }

  private:
    enum class Await
    {
        Nothing,
        RegistrationPageMsg,
        RegistrationTouch,
        RegistrationResultMsg,
        LoginPageMsg,
        LoginTouch,
        LoginReplyMsg,
        PageReplyMsg,
    };

    struct PendingOp
    {
        Await await = Await::Nothing;
        std::string domain;
        std::string account;
        std::optional<RegistrationPage> regPage;
        std::optional<LoginPage> loginPage;
        /**
         * Retransmission state of the in-flight exchange: opId keys
         * the armed timeout callbacks (a reset invalidates them),
         * requestId is the wire id replies must echo, request holds
         * the exact bytes to resend.
         */
        std::uint64_t opId = 0;
        std::uint64_t requestId = 0;
        core::Bytes request;
        int attempts = 0;
        core::Tick nextTimeout = 0;
        bool resume = false; ///< Login runs as a session resumption.
    };

    /** A page on screen, as the host drew it. */
    struct ShownPage
    {
        core::Bytes plaintext;
        ViewTransform view;    ///< Zoom/scroll the host picked.
        bool tampered = false; ///< Malware overlaid the frame.
        std::uint64_t sessionId = 0;
    };

    /** Host browser state for one domain. */
    struct DomainState
    {
        std::string account;
        bool registered = false;
        bool needsResume = false; ///< Session lost an exchange to retries.
        std::optional<ShownPage> shown; ///< Live session's current page.
    };

    /** Put a page on screen: pick a view; malware may overlay it. */
    ShownPage showPage(core::Bytes plaintext, std::uint64_t session_id = 0);

    /** Render @p page's frame; runs only when FLock hashes it. */
    static core::Bytes frameOf(const ShownPage &page);

    void handleMessage(const net::Message &message);
    void completeRegistrationTouch(const touch::TouchEvent &event,
                                   const fingerprint::MasterFinger *f);
    void completeLoginTouch(const touch::TouchEvent &event,
                            const fingerprint::MasterFinger *f);
    void maybeForgeRequest();
    void applyRiskPolicy();

    /** True when @p await blocks on a network reply. */
    static bool awaitingNetwork(Await await);

    /** Allocate the next wire request id (device-monotonic). */
    std::uint64_t nextRequestId() { return ++lastRequestId_; }

    /**
     * Send @p request as a fresh retransmittable exchange: record
     * it in pending_, transmit, and arm the first timeout.
     */
    void beginExchange(std::uint64_t request_id,
                       core::Bytes request);

    /** Arm (or re-arm) the retransmission timer for pending_. */
    void armRetryTimer();

    /** Timeout fired for exchange @p op_id (may be stale). */
    void onOpTimeout(std::uint64_t op_id);

    /**
     * Close the async trace span / audit trail of the in-flight
     * exchange with the given result tag (obs-gated no-op).
     */
    void noteExchangeEnd(const char *result);

    void startLoginInternal(const std::string &domain, bool resume);

    std::string name_;
    hw::BiometricTouchscreen screen_;
    FlockModule flock_;
    core::Rng hostRng_;
    MalwareProfile malware_;
    DevicePolicy policy_;
    net::Network *network_ = nullptr;

    PendingOp pending_;
    std::map<std::string, DomainState> domains_;
    RetryPolicy retryPolicy_;
    OpError lastError_ = OpError::None;
    std::uint64_t lastRequestId_ = 0;
    std::uint64_t lastOpId_ = 0;
    core::CounterSet counters_;
};

} // namespace trust::trust

#endif // TRUST_TRUST_DEVICE_HH
