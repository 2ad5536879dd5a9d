#include "trust/device.hh"

#include <algorithm>
#include <limits>

#include "core/logging.hh"
#include "core/obs/obs.hh"
#include "fingerprint/capture.hh"

namespace trust::trust {

core::Tick
RetryPolicy::timeoutForAttempt(int attempt) const
{
    // Saturation ceiling: a quarter of the Tick range, leaving the
    // jitter multiplier (and the event queue's now + wait addition)
    // headroom before the arithmetic could wrap.
    constexpr core::Tick kCeiling =
        std::numeric_limits<core::Tick>::max() / 4;
    const core::Tick cap =
        maxTimeout == 0 ? kCeiling : std::min(maxTimeout, kCeiling);
    core::Tick t = std::min(initialTimeout, cap);
    if (attempt <= 1 || t == 0)
        return t;
    int steps = attempt - 1;
    if (backoffFactor == 2.0) {
        // Fast path for the default factor. The clamp runs *before*
        // the shift — naive `initial << attempts` growth wraps long
        // before the attempt counter looks unreasonable.
        while (steps-- > 0) {
            if (t > (cap >> 1))
                return cap;
            t <<= 1;
        }
        return t;
    }
    while (steps-- > 0) {
        const double grown = static_cast<double>(t) * backoffFactor;
        if (grown >= static_cast<double>(cap)) {
            t = cap;
            if (backoffFactor >= 1.0)
                return cap; // saturated: further steps are no-ops
        } else {
            t = static_cast<core::Tick>(grown);
        }
        if (t == 0)
            return 0; // shrinking factor bottomed out
    }
    return t;
}

MobileDevice::MobileDevice(std::string name,
                           hw::BiometricTouchscreen screen,
                           FlockModule flock, std::uint64_t seed)
    : name_(std::move(name)), screen_(std::move(screen)),
      flock_(std::move(flock)), hostRng_(seed)
{
}

void
MobileDevice::attachToNetwork(net::Network &network)
{
    network_ = &network;
    network.attach(name_, [this](const net::Message &message) {
        handleMessage(message);
    });
}

bool
MobileDevice::enrollOwner(const fingerprint::MasterFinger &finger,
                          int capture_attempts)
{
    // Setup flow: the enrollment UI draws a target over the first
    // sensor tile and asks for several deliberate (slow) touches.
    if (screen_.sensors().empty())
        return false;
    const core::Vec2 target = screen_.sensors()[0].region.center();

    std::vector<std::vector<fingerprint::Minutia>> views;
    for (int i = 0; i < capture_attempts; ++i) {
        touch::TouchEvent event;
        event.position = target;
        event.speed = 0.02; // deliberate enrollment touches
        // Enrollment is a guided setup flow: the full tile is
        // scanned so the enrolled views cover the finger area that
        // later opportunistic windows sample from.
        const double tile_mm = screen_.sensors()[0].region.width();
        const TouchCapture capture = captureTouch(
            screen_, event, &finger, hostRng_, tile_mm);
        if (capture.sample.covered &&
            capture.sample.quality >= kMinCaptureQuality &&
            capture.sample.minutiae.size() >= 5)
            views.push_back(capture.sample.minutiae);
    }
    if (views.empty())
        return false;
    flock_.enrollFinger(views);
    counters_.bump("owner-enrolled");
    return true;
}

MobileDevice::ShownPage
MobileDevice::showPage(core::Bytes plaintext, std::uint64_t session_id)
{
    // The host browser picks a view (zoom/scroll) to render.
    const auto views = standardViews();
    ShownPage page{std::move(plaintext),
                   views[static_cast<std::size_t>(hostRng_.uniformInt(
                       0, static_cast<std::int64_t>(views.size()) - 1))],
                   malware_.tamperFrames, session_id};
    if (page.tampered)
        counters_.bump("malware:frame-tampered");
    return page;
}

core::Bytes
MobileDevice::frameOf(const ShownPage &page)
{
    core::Bytes frame = renderFrame(page.plaintext, page.view, kDisplay);
    if (page.tampered) {
        // Malware overlays fake content: any byte change moves the
        // frame hash outside the server's expected set.
        for (std::size_t i = 0; i < 64 && i < frame.size(); ++i)
            frame[i * 7 % frame.size()] ^= 0x5a;
    }
    return frame;
}

bool
MobileDevice::awaitingNetwork(Await await)
{
    switch (await) {
      case Await::RegistrationPageMsg:
      case Await::RegistrationResultMsg:
      case Await::LoginPageMsg:
      case Await::LoginReplyMsg:
      case Await::PageReplyMsg:
        return true;
      case Await::Nothing:
      case Await::RegistrationTouch:
      case Await::LoginTouch:
        return false;
    }
    return false;
}

void
MobileDevice::beginExchange(std::uint64_t request_id,
                            core::Bytes request)
{
    pending_.opId = ++lastOpId_;
    pending_.requestId = request_id;
    pending_.request = std::move(request);
    pending_.attempts = 1;
    pending_.nextTimeout = retryPolicy_.timeoutForAttempt(1);
    if (core::obs::enabledFast()) {
        core::obs::metrics().add("device/exchanges");
        core::obs::tracer().asyncBegin(
            "device/exchange", pending_.opId,
            {{"domain", pending_.domain}});
        core::obs::audit().record(
            name_, "exchange-begin",
            {{"op", std::to_string(pending_.opId)},
             {"domain", pending_.domain}});
    }
    network_->send(name_, pending_.domain, pending_.request);
    armRetryTimer();
}

void
MobileDevice::noteExchangeEnd(const char *result)
{
    if (!core::obs::enabledFast() || pending_.opId == 0)
        return;
    core::obs::tracer().asyncEnd("device/exchange", pending_.opId,
                                 {{"result", result}});
    core::obs::audit().record(
        name_, "exchange-end",
        {{"op", std::to_string(pending_.opId)},
         {"result", result},
         {"attempts", std::to_string(pending_.attempts)}});
}

void
MobileDevice::armRetryTimer()
{
    const double jitter =
        1.0 +
        RetryPolicy::kJitterFraction * (2.0 * hostRng_.uniform() - 1.0);
    const auto wait = static_cast<core::Tick>(
        static_cast<double>(pending_.nextTimeout) * jitter);
    const std::uint64_t op_id = pending_.opId;
    // The event queue has no cancellation: a timer outliving its
    // exchange fires as a no-op because the opId no longer matches.
    network_->queue().scheduleAfter(
        wait, [this, op_id] { onOpTimeout(op_id); });
}

void
MobileDevice::onOpTimeout(std::uint64_t op_id)
{
    if (op_id != pending_.opId || !awaitingNetwork(pending_.await))
        return; // stale timer: the exchange already finished
    if (pending_.attempts >= retryPolicy_.maxAttempts) {
        counters_.bump("op-retry-exhausted");
        noteExchangeEnd("retry-exhausted");
        lastError_ = OpError::RetryExhausted;
        if (pending_.await == Await::LoginReplyMsg ||
            pending_.await == Await::PageReplyMsg)
            domains_[pending_.domain].needsResume = true;
        pending_ = PendingOp{};
        return;
    }
    ++pending_.attempts;
    network_->send(name_, pending_.domain, pending_.request);
    counters_.bump("op-retransmit");
    if (core::obs::enabledFast()) {
        core::obs::tracer().instant(
            "device/retransmit",
            {{"op", std::to_string(pending_.opId)},
             {"attempt", std::to_string(pending_.attempts)}});
        core::obs::audit().record(
            name_, "retransmit",
            {{"op", std::to_string(pending_.opId)},
             {"attempt", std::to_string(pending_.attempts)},
             {"timeout", std::to_string(pending_.nextTimeout)}});
    }
    pending_.nextTimeout =
        retryPolicy_.timeoutForAttempt(pending_.attempts);
    armRetryTimer();
}

void
MobileDevice::startRegistration(const std::string &domain,
                                const std::string &account)
{
    TRUST_ASSERT(network_, "device not attached to a network");
    pending_ = PendingOp{};
    pending_.await = Await::RegistrationPageMsg;
    pending_.domain = domain;
    pending_.account = account;
    domains_[domain].account = account;
    RegistrationRequest request;
    request.requestId = nextRequestId();
    request.domain = domain;
    request.account = account;
    beginExchange(request.requestId, request.serialize());
    counters_.bump("registration-started");
}

void
MobileDevice::startLoginInternal(const std::string &domain,
                                 bool resume)
{
    TRUST_ASSERT(network_, "device not attached to a network");
    auto it = domains_.find(domain);
    if (it == domains_.end() || !it->second.registered) {
        counters_.bump("login-without-registration");
        return;
    }
    pending_ = PendingOp{};
    pending_.await = Await::LoginPageMsg;
    pending_.domain = domain;
    pending_.account = it->second.account;
    pending_.resume = resume;
    LoginRequest request;
    request.requestId = nextRequestId();
    request.domain = domain;
    request.account = pending_.account;
    beginExchange(request.requestId, request.serialize());
    counters_.bump(resume ? "session-resume-started"
                          : "login-started");
}

void
MobileDevice::startLogin(const std::string &domain)
{
    startLoginInternal(domain, /*resume=*/false);
}

bool
MobileDevice::sessionNeedsResume(const std::string &domain) const
{
    auto it = domains_.find(domain);
    return it != domains_.end() && it->second.needsResume;
}

void
MobileDevice::resumeSession(const std::string &domain)
{
    startLoginInternal(domain, /*resume=*/true);
}

void
MobileDevice::adoptTransferredIdentity(const std::string &domain,
                                       const std::string &account)
{
    DomainState &state = domains_[domain];
    state.registered = true;
    state.account = account;
    counters_.bump("identity-adopted");
}

void
MobileDevice::handleMessage(const net::Message &message)
{
    // Decode failures and id mismatches never tear down the pending
    // exchange: the armed retransmission (and the server's reply
    // cache) recover from lost, duplicated or corrupted replies.
    const auto kind = peekKind(message.payload);
    const auto reply_id = peekRequestId(message.payload);
    if (!kind || !reply_id) {
        counters_.bump("malformed-reply");
        return;
    }

    switch (*kind) {
      case MsgKind::RegistrationPage: {
        if (pending_.await != Await::RegistrationPageMsg ||
            *reply_id != pending_.requestId) {
            counters_.bump("stale-reply");
            return;
        }
        const auto page =
            RegistrationPage::deserialize(message.payload);
        if (!page || page->domain != pending_.domain) {
            counters_.bump("bad-registration-page");
            lastError_ = OpError::BadReply;
            return;
        }
        noteExchangeEnd("registration-page");
        pending_.regPage = *page;
        pending_.await = Await::RegistrationTouch;
        counters_.bump("registration-page-shown");
        break;
      }
      case MsgKind::RegistrationResult: {
        if (pending_.await != Await::RegistrationResultMsg ||
            *reply_id != pending_.requestId) {
            counters_.bump("stale-reply");
            return;
        }
        const auto result =
            RegistrationResult::deserialize(message.payload);
        if (!result) {
            counters_.bump("bad-registration-result");
            lastError_ = OpError::BadReply;
            return;
        }
        noteExchangeEnd(result->ok ? "registration-ok"
                                   : "registration-failed");
        if (result->ok) {
            domains_[result->domain].registered = true;
            counters_.bump("registration-complete");
            lastError_ = OpError::None;
        } else {
            counters_.bump("registration-failed");
            lastError_ = OpError::ServerError;
        }
        pending_ = PendingOp{};
        break;
      }
      case MsgKind::LoginPage: {
        if (pending_.await != Await::LoginPageMsg ||
            *reply_id != pending_.requestId) {
            counters_.bump("stale-reply");
            return;
        }
        const auto page = LoginPage::deserialize(message.payload);
        if (!page || page->domain != pending_.domain) {
            counters_.bump("bad-login-page");
            lastError_ = OpError::BadReply;
            return;
        }
        noteExchangeEnd("login-page");
        pending_.loginPage = *page;
        pending_.await = Await::LoginTouch;
        counters_.bump("login-page-shown");
        break;
      }
      case MsgKind::ContentPage: {
        if ((pending_.await != Await::LoginReplyMsg &&
             pending_.await != Await::PageReplyMsg) ||
            *reply_id != pending_.requestId) {
            // Duplicate delivery of an already-consumed page: FLock
            // must not re-accept it (its nonce would regress).
            counters_.bump("stale-reply");
            return;
        }
        const auto page = ContentPage::deserialize(message.payload);
        if (!page) {
            counters_.bump("bad-content-page");
            lastError_ = OpError::BadReply;
            return;
        }
        if (!flock_.acceptContentPage(*page)) {
            counters_.bump("content-page-mac-rejected");
            lastError_ = OpError::BadReply;
            return;
        }
        auto plain = flock_.decryptPageContent(page->domain,
                                               page->pageContent);
        if (!plain) {
            counters_.bump("content-page-decrypt-failed");
            lastError_ = OpError::BadReply;
            return;
        }
        noteExchangeEnd("content-page");
        DomainState &state = domains_[page->domain];
        state.shown = showPage(std::move(*plain), page->sessionId);
        state.needsResume = false;
        counters_.bump("content-page-accepted");
        lastError_ = OpError::None;
        pending_ = PendingOp{};
        maybeForgeRequest();
        break;
      }
      case MsgKind::ServerBusy: {
        if (!awaitingNetwork(pending_.await) ||
            *reply_id != pending_.requestId) {
            counters_.bump("unmatched-busy-reply");
            return;
        }
        const auto busy = ServerBusy::deserialize(message.payload);
        if (!busy) {
            counters_.bump("bad-busy-reply");
            return;
        }
        // Typed overload shed: the request never reached a handler,
        // so the exchange stays armed and the already-scheduled
        // retransmission timer resends it — but not sooner than the
        // server's drain estimate. Raising nextTimeout only affects
        // the timer armed *after* the next retransmission, which is
        // exactly the backoff the server asked for.
        counters_.bump("server-busy-reply");
        pending_.nextTimeout =
            std::max(pending_.nextTimeout,
                     std::min(busy->retryAfter,
                              retryPolicy_.timeoutForAttempt(
                                  retryPolicy_.maxAttempts)));
        break;
      }
      case MsgKind::ErrorReply: {
        if (!awaitingNetwork(pending_.await) ||
            *reply_id != pending_.requestId) {
            // An error for somebody else's request (e.g. a reply to
            // malware-forged traffic) must not stomp a genuine
            // in-flight exchange.
            counters_.bump("unmatched-error-reply");
            return;
        }
        const auto reply = ErrorReply::deserialize(message.payload);
        if (reply && reply->reason == "malformed") {
            // The server could not even parse the request, yet the
            // id survived: the payload was damaged in transit. The
            // armed retransmission resends the intact bytes.
            counters_.bump("corrupted-request-reply");
            return;
        }
        noteExchangeEnd("server-error");
        counters_.bump("server-error-reply");
        lastError_ = OpError::ServerError;
        pending_ = PendingOp{};
        break;
      }
      default:
        counters_.bump("unexpected-reply");
        break;
    }
}

void
MobileDevice::completeRegistrationTouch(
    const touch::TouchEvent &event, const fingerprint::MasterFinger *f)
{
    // A deliberate button press rests the whole fingertip on the
    // tile; scan a wider window than an incidental tap.
    const TouchCapture capture =
        captureTouch(screen_, event, f, hostRng_, 6.0);
    const auto submit = flock_.handleRegistrationPage(
        *pending_.regPage, pending_.account,
        frameOf(showPage(pending_.regPage->pageContent)), capture.sample,
        /*now=*/0, nextRequestId());
    if (!submit) {
        counters_.bump("registration-touch-rejected");
        pending_ = PendingOp{};
        return;
    }
    pending_.await = Await::RegistrationResultMsg;
    beginExchange(submit->requestId, submit->serialize());
    counters_.bump("registration-submitted");
}

void
MobileDevice::completeLoginTouch(const touch::TouchEvent &event,
                                 const fingerprint::MasterFinger *f)
{
    const TouchCapture capture =
        captureTouch(screen_, event, f, hostRng_, 6.0);
    const auto submit = flock_.handleLoginPage(
        *pending_.loginPage,
        frameOf(showPage(pending_.loginPage->pageContent)),
        capture.sample, nextRequestId(), pending_.resume);
    if (!submit) {
        counters_.bump("login-touch-rejected");
        pending_ = PendingOp{};
        return;
    }
    pending_.await = Await::LoginReplyMsg;
    beginExchange(submit->requestId, submit->serialize());
    counters_.bump("login-submitted");
}

void
MobileDevice::applyRiskPolicy()
{
    if (!policy_.autoLogoutOnHardFailure ||
        !flock_.riskHardFailure())
        return;
    for (const auto &[domain, state] : domains_) {
        if (state.shown && flock_.sessionActive(domain)) {
            flock_.endSession(domain);
            counters_.bump("auto-logout");
        }
    }
    flock_.resetRisk();
}

void
MobileDevice::onTouch(const touch::TouchEvent &event,
                      const fingerprint::MasterFinger *finger)
{
    switch (pending_.await) {
      case Await::RegistrationTouch:
        completeRegistrationTouch(event, finger);
        return;
      case Await::LoginTouch:
        completeLoginTouch(event, finger);
        return;
      case Await::Nothing: {
        // Free navigation: pick the first live session and issue an
        // authenticated page request for the touched element.
        for (const auto &[domain, state] : domains_) {
            if (!state.shown || !flock_.sessionActive(domain))
                continue;
            const TouchCapture capture =
                captureTouch(screen_, event, finger, hostRng_);
            const std::string action =
                event.target.empty() ? "tap" : event.target;
            const auto request = flock_.makePageRequest(
                domain, action, frameOf(*state.shown), capture.sample,
                nextRequestId());
            applyRiskPolicy();
            if (!request || !flock_.sessionActive(domain)) {
                counters_.bump("page-request-unavailable");
                return;
            }
            pending_.await = Await::PageReplyMsg;
            pending_.domain = domain;
            beginExchange(request->requestId, request->serialize());
            counters_.bump("page-request-sent");
            return;
        }
        counters_.bump("touch-without-session");
        return;
      }
      default: {
        // Waiting on the network; touches meanwhile still feed the
        // local risk window opportunistically.
        const TouchCapture capture =
            captureTouch(screen_, event, finger, hostRng_);
        flock_.processTouch(capture.sample);
        applyRiskPolicy();
        counters_.bump("touch-while-waiting");
        return;
      }
    }
}

void
MobileDevice::maybeForgeRequest()
{
    if (!malware_.forgeRequests || !network_)
        return;
    // Malware on the host knows account/session ids (it can read the
    // browser) but NOT the session key inside FLock: its MAC is
    // garbage and its risk field is whatever it claims.
    for (const auto &[domain, state] : domains_) {
        if (!state.shown)
            continue;
        PageRequest forged;
        forged.domain = domain;
        // Malware can read the account string off the host browser.
        forged.account = state.account;
        forged.sessionId = state.shown->sessionId;
        forged.nonce = hostRng_.next() % 2 ? core::Bytes(16, 0)
                                           : core::Bytes{};
        forged.action = "transfer-funds";
        forged.frameHash = core::Bytes(32, 0);
        forged.riskMatched = 8;
        forged.riskWindow = 8;
        forged.mac = core::Bytes(32, 0);
        network_->send(name_, domain, forged.serialize());
        counters_.bump("malware:request-forged");
    }
}

bool
MobileDevice::registrationComplete(const std::string &domain) const
{
    auto it = domains_.find(domain);
    return it != domains_.end() && it->second.registered;
}

bool
MobileDevice::sessionActive(const std::string &domain) const
{
    return flock_.sessionActive(domain);
}

} // namespace trust::trust
