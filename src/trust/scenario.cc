#include "trust/scenario.hh"

#include "core/logging.hh"
#include "core/obs/obs.hh"

namespace trust::trust {

Ecosystem::Ecosystem(const EcosystemConfig &config)
    : config_(config), network_(queue_, config.latency),
      caRng_(config.seed ^ 0xCAFECAFEULL),
      ca_(std::make_unique<crypto::CertificateAuthority>(
          "TrustRootCA", config.rsaBits, caRng_)),
      nextSeed_(config.seed * 7919 + 17)
{
    // The live ecosystem's queue becomes the observability time
    // source: audit records get raw sim ticks, trace spans anchor
    // to them.
    core::obs::setClockSource(&queue_);
}

Ecosystem::~Ecosystem()
{
    core::obs::setClockSource(nullptr);
}

WebServer &
Ecosystem::addServer(const std::string &domain)
{
    auto server = std::make_unique<WebServer>(
        domain, *ca_, nextSeed_++, config_.rsaBits,
        config_.serverPolicy);
    WebServer &ref = *server;
    network_.attach(domain, [this, &ref](const net::Message &message) {
        // The sender address keys the server's duplicate-suppression
        // cache, making device retransmissions idempotent; sim time
        // lets the server age out abandoned handshake nonces.
        sendReply(queue_, network_, ref.domain(), message.from,
                  ref.handleTimed(message.payload, message.from,
                                  queue_.now()));
    });
    servers_.push_back(std::move(server));
    return ref;
}

MobileDevice &
Ecosystem::addDevice(const std::string &name,
                     const touch::UserBehavior &behavior,
                     const fingerprint::MasterFinger &owner)
{
    const std::uint64_t screen_seed = nextSeed_++;
    const std::uint64_t flock_seed = nextSeed_++;
    const std::uint64_t device_seed = nextSeed_++;
    DeviceParts parts = stageDevice(
        behavior, config_.sensorTiles, config_.tileSideMm, screen_seed,
        name + "-flock", ca_->rootKey(), flock_seed, config_.rsaBits);
    certifyFlock(*ca_, parts.flock);

    auto device = std::make_unique<MobileDevice>(
        name, std::move(parts.screen), std::move(parts.flock),
        device_seed);
    MobileDevice &ref = *device;
    ref.attachToNetwork(network_);
    if (!ref.enrollOwner(owner))
        core::warn("owner enrollment produced no usable view");
    devices_.push_back(std::move(device));
    return ref;
}

hw::BiometricTouchscreen
makeOptimizedScreen(const touch::UserBehavior &behavior, int tiles,
                    double tile_side_mm, std::uint64_t seed)
{
    core::Rng rng(seed);

    placement::PlacementProblem problem;
    problem.screen = behavior.screen();
    problem.density = behavior.densityMap(47, 26, 4000, rng);
    problem.sensorSideMm = tile_side_mm;
    problem.sensorCount = tiles;

    const placement::Placement placement =
        placement::placeGreedy(problem);

    hw::TouchPanelSpec panel_spec;
    panel_spec.screen = behavior.screen();
    return hw::BiometricTouchscreen(
        panel_spec, placement::toPlacedSensors(placement));
}

DeviceParts
stageDevice(const touch::UserBehavior &behavior, int tiles,
            double tile_side_mm, std::uint64_t screen_seed,
            std::string flock_id, const crypto::RsaPublicKey &ca_key,
            std::uint64_t flock_seed, std::size_t rsa_bits)
{
    hw::BiometricTouchscreen screen =
        makeOptimizedScreen(behavior, tiles, tile_side_mm, screen_seed);
    return {std::move(screen),
            FlockModule(std::move(flock_id), ca_key, flock_seed,
                        {.rsaBits = rsa_bits})};
}

void
certifyFlock(crypto::CertificateAuthority &ca, FlockModule &flock)
{
    flock.installDeviceCertificate(
        ca.issue(flock.deviceId(), crypto::CertRole::FlockDevice,
                 flock.devicePublicKey()));
}

void
sendReply(core::EventQueue &queue, net::Network &network,
          const std::string &from_domain, const std::string &to,
          HandleResult handled)
{
    if (handled.queueDelay > 0) {
        queue.scheduleAfter(
            handled.queueDelay,
            [&network, from_domain, to,
             reply = std::move(handled.reply)] {
                network.send(from_domain, to, reply);
            });
    } else {
        network.send(from_domain, to, handled.reply);
    }
}

touch::TouchEvent
criticalTouch(const MobileDevice &device)
{
    TRUST_ASSERT(!device.screen().sensors().empty(),
                 "criticalTouch: device has no sensor tiles");
    touch::TouchEvent event;
    event.position = device.screen().sensors()[0].region.center();
    event.speed = 0.05; // deliberate press
    event.gesture = touch::GestureType::Tap;
    event.target = "critical-button";
    return event;
}

SessionOutcome
runBrowsingSession(core::EventQueue &queue, MobileDevice &device,
                   WebServer &server,
                   const touch::UserBehavior &behavior,
                   const fingerprint::MasterFinger &finger,
                   core::Rng &rng, int clicks,
                   const std::string &account)
{
    SessionOutcome outcome;
    const std::string &domain = server.domain();

    // Registration (Fig. 9). A rejected confirmation touch (per
    // touch FRR of partial prints) just means the user presses the
    // button again, re-requesting the page.
    for (int attempt = 0;
         attempt < 16 && !device.registrationComplete(domain);
         ++attempt) {
        device.startRegistration(domain, account);
        queue.run();
        device.onTouch(criticalTouch(device), &finger);
        queue.run();
    }
    outcome.registered = device.registrationComplete(domain);
    if (!outcome.registered)
        return outcome;

    // Login (Fig. 10 steps 1-3), same retry discipline.
    for (int attempt = 0;
         attempt < 16 && !device.sessionActive(domain); ++attempt) {
        device.startLogin(domain);
        queue.run();
        device.onTouch(criticalTouch(device), &finger);
        queue.run();
    }
    outcome.loggedIn = device.sessionActive(domain);
    if (!outcome.loggedIn)
        return outcome;

    // Natural browsing: every touch is a navigation plus an
    // opportunistic authentication sample.
    const std::uint64_t rejected_before =
        device.counters().get("server-error-reply");
    const auto touches = touch::generateSession(
        behavior, rng, queue.now() + core::seconds(1),
        clicks);
    for (const auto &event : touches) {
        // If an outage outlasted the retransmission budget, the
        // session must be re-established (Fig. 10 re-handshake) with
        // a deliberate confirmation press before browsing resumes.
        for (int attempt = 0;
             attempt < 16 && device.sessionNeedsResume(domain);
             ++attempt) {
            device.resumeSession(domain);
            queue.run();
            device.onTouch(criticalTouch(device), &finger);
            queue.run();
        }
        device.onTouch(event, &finger);
        queue.run();
    }
    outcome.pagesReceived =
        static_cast<int>(device.pagesReceived()) - 1; // minus login page
    outcome.requestsRejected = static_cast<int>(
        device.counters().get("server-error-reply") - rejected_before);
    return outcome;
}

} // namespace trust::trust
