#include "trust/local_manager.hh"

namespace trust::trust {

LocalIdentityManager::LocalIdentityManager(
    hw::BiometricTouchscreen &screen, FlockModule &flock)
    : screen_(screen), flock_(flock)
{
}

bool
LocalIdentityManager::attemptUnlock(
    const touch::TouchEvent &event,
    const fingerprint::MasterFinger *finger, core::Rng &rng)
{
    counters_.bump("unlock-attempt");
    const TouchCapture capture =
        captureTouch(screen_, event, finger, rng);

    // The unlock button sits over a sensor; a touch that somehow
    // missed every tile cannot unlock.
    if (!capture.sample.covered) {
        counters_.bump("unlock-miss-sensor");
        return false;
    }
    if (!flock_.verifyCapture(capture.sample)) {
        counters_.bump("unlock-rejected");
        return false;
    }
    flock_.resetRisk();
    state_ = LockState::Unlocked;
    counters_.bump("unlock-accepted");
    return true;
}

TouchOutcome
LocalIdentityManager::processTouch(
    const touch::TouchEvent &event,
    const fingerprint::MasterFinger *finger, core::Rng &rng)
{
    const TouchCapture capture =
        captureTouch(screen_, event, finger, rng);
    const TouchOutcome outcome = flock_.processTouch(capture.sample);

    switch (outcome) {
      case TouchOutcome::Matched:
        counters_.bump("touch-matched");
        break;
      case TouchOutcome::Rejected:
        counters_.bump("touch-rejected");
        break;
      case TouchOutcome::LowQuality:
        counters_.bump("touch-low-quality");
        break;
      case TouchOutcome::NotCovered:
        counters_.bump("touch-not-covered");
        break;
      case TouchOutcome::SensorDegraded:
        counters_.bump("touch-sensor-degraded");
        break;
    }

    applyPolicy();
    return outcome;
}

// Pre-defined responses when the risk policies fire: lock on
// repeated explicit match rejections, else on a k-of-n violation.
void
LocalIdentityManager::applyPolicy()
{
    if (state_ != LockState::Unlocked)
        return;
    const char *lock = flock_.riskHardFailure() ? "lock:hard-failure"
                       : flock_.riskViolated()  ? "lock:window-violation"
                                                : nullptr;
    if (!lock)
        return;
    state_ = LockState::Locked;
    counters_.bump(lock);
    flock_.resetRisk();
}

} // namespace trust::trust
