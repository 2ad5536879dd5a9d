/**
 * @file
 * Local identity management (Sec. IV-A, Fig. 6): unlock via a
 * fingerprint-backed button, then continuous opportunistic
 * verification of every touch, with pre-defined responses (lock the
 * device / halt interaction) when the k-of-n identity-risk policy
 * fires.
 */

#ifndef TRUST_TRUST_LOCAL_MANAGER_HH
#define TRUST_TRUST_LOCAL_MANAGER_HH

#include "core/stats.hh"
#include "trust/capture_glue.hh"

namespace trust::trust {

/** Lock state of the device UI. */
enum class LockState
{
    Locked,
    Unlocked,
};

/** The Fig. 6 state machine. */
class LocalIdentityManager
{
  public:
    LocalIdentityManager(hw::BiometricTouchscreen &screen,
                         FlockModule &flock);

    LockState state() const { return state_; }

    /**
     * Unlock attempt: the unlock button is displayed over a sensor
     * tile, so the touch must produce a verifiable fingerprint
     * (only an authorized user may unlock). On success the risk
     * window resets and the device unlocks.
     */
    bool attemptUnlock(const touch::TouchEvent &event,
                       const fingerprint::MasterFinger *finger,
                       core::Rng &rng);

    /**
     * One touch during normal (unlocked) interaction: runs the
     * opportunistic pipeline, updates the risk window and applies
     * the response policy. Returns the per-touch outcome.
     */
    TouchOutcome processTouch(const touch::TouchEvent &event,
                              const fingerprint::MasterFinger *finger,
                              core::Rng &rng);

    /** Risk snapshot from the FLock module. */
    RiskReport risk() const { return flock_.risk(); }

    /** Event counters (locks, outcomes, unlock attempts). */
    const core::CounterSet &counters() const { return counters_; }

  private:
    void applyPolicy();

    hw::BiometricTouchscreen &screen_;
    FlockModule &flock_;
    LockState state_ = LockState::Locked;
    core::CounterSet counters_;
};

} // namespace trust::trust

#endif // TRUST_TRUST_LOCAL_MANAGER_HH
