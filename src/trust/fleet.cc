#include "trust/fleet.hh"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "core/logging.hh"
#include "core/obs/obs.hh"
#include "core/parallel.hh"
#include "core/rng.hh"
#include "fingerprint/synthesis.hh"
#include "touch/behavior.hh"

namespace trust::trust {

namespace {

/**
 * Per-channel seed base: a pure function of (fleet seed, channel
 * index), never of construction or execution order, so channel i is
 * the same simulation no matter how many threads build or run it.
 */
std::uint64_t
channelSeedBase(std::uint64_t fleet_seed, int index)
{
    return fleet_seed * 0x9E3779B97F4A7C15ull +
           (static_cast<std::uint64_t>(index) + 1) * 0x100000001B3ull;
}

} // namespace

struct Fleet::Channel
{
    int index = 0;
    std::uint64_t seedBase = 0;
    std::string name;
    std::string account;
    core::EventQueue queue;
    net::Network network;
    // Provisioning artifacts staged across the build phases (the
    // parts are consumed by the device ctor).
    std::optional<touch::UserBehavior> behavior;
    std::optional<fingerprint::MasterFinger> finger;
    std::optional<DeviceParts> parts;
    std::unique_ptr<MobileDevice> device;
    WebServer *server = nullptr;
    core::obs::AuditLog buffer; ///< This channel's audit capture.
    ChannelResult result;
    std::uint64_t dispatches = 0;

    Channel(int idx, const FleetConfig &config)
        : index(idx), seedBase(channelSeedBase(config.seed, idx)),
          name("fleet-phone-" + std::to_string(idx)),
          account("user" + std::to_string(idx)),
          network(queue, config.latency)
    {
    }
};

Fleet::Fleet(const FleetConfig &config, FleetHooks hooks)
    : config_(config), hooks_(std::move(hooks)),
      caRng_(config.seed ^ 0xF1EE7CA0ull),
      ca_(std::make_unique<crypto::CertificateAuthority>(
          "TrustRootCA", config.rsaBits, caRng_))
{
    // Shared servers (serial: key generation and certificate issue
    // draw from the CA's RNG and serial counter in a fixed order).
    const auto n_servers =
        static_cast<std::size_t>(std::max(config_.servers, 1));
    servers_.resize(n_servers);
    stores_.resize(n_servers);
    recoveries_.resize(n_servers);
    for (std::size_t s = 0; s < n_servers; ++s)
        startServer(s, std::nullopt);

    const int n = std::max(config_.devices, 0);
    channels_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        channels_.push_back(std::make_unique<Channel>(i, config_));

    // Provisioning that touches only channel-private state runs in
    // parallel: behaviour synthesis and staging (sensor placement,
    // FLock key generation).
    forEachChannel([this](Channel &ch) {
        const std::uint64_t uid = static_cast<std::uint64_t>(ch.index) + 1;
        ch.behavior.emplace(touch::UserBehavior::forUser(
            uid, {touch::homeScreenLayout(), touch::keyboardLayout(),
                  touch::browserLayout()}));
        core::Rng finger_rng(ch.seedBase + 1);
        ch.finger.emplace(fingerprint::synthesizeFinger(uid, finger_rng));
        ch.parts.emplace(stageDevice(
            *ch.behavior, config_.sensorTiles, config_.tileSideMm,
            ch.seedBase + 2, ch.name + "-flock", ca_->rootKey(),
            ch.seedBase + 3, config_.rsaBits));
    });

    // Certificate issue is the one provisioning step with shared
    // mutable state (the CA's serial counter and RNG): strictly in
    // channel order so every certificate is deterministic. Device
    // assembly and network wiring ride along (both cheap).
    for (int i = 0; i < n; ++i) {
        Channel &ch = *channels_[static_cast<std::size_t>(i)];
        certifyFlock(*ca_, ch.parts->flock);
        ch.device = std::make_unique<MobileDevice>(
            ch.name, std::move(ch.parts->screen),
            std::move(ch.parts->flock), ch.seedBase + 4);
        ch.parts.reset();
        ch.device->attachToNetwork(ch.network);
        ch.server =
            servers_[static_cast<std::size_t>(i) %
                     servers_.size()]
                .get();
        Channel *chp = &ch;
        // The handler resolves chp->server at dispatch time (not a
        // captured pointer): a mid-storm restart swaps the channel's
        // server for its recovered successor and in-flight traffic
        // lands on the new instance.
        ch.network.attach(
            ch.server->domain(), [this, chp](const net::Message &m) {
                WebServer *srv = chp->server;
                if (hooks_.beforeDispatch)
                    hooks_.beforeDispatch(chp->index);
                HandleResult handled = srv->handleTimed(
                    m.payload, m.from, chp->queue.now());
                if (hooks_.afterDispatch)
                    hooks_.afterDispatch(chp->index);
                ++chp->dispatches;
                sendReply(chp->queue, chp->network, srv->domain(),
                          m.from, std::move(handled));
            });
    }

    // Owner enrollment is channel-private again — and the heaviest
    // provisioning step (full fingerprint pipeline per view).
    forEachChannel([](Channel &ch) {
        if (!ch.device->enrollOwner(*ch.finger))
            core::warn("fleet: owner enrollment produced no usable view");
    });
}

Fleet::~Fleet() = default;

void
Fleet::startServer(std::size_t index,
                   std::optional<crypto::Certificate> adopted)
{
    const std::string domain =
        "www.fleet" + std::to_string(index) + ".com";
    // The same seed at construction and restart regenerates the same
    // key pair, which an adopted certificate covers.
    const std::uint64_t seed = config_.seed * 2654435761ull +
                               static_cast<std::uint64_t>(index) + 1;
    auto server =
        adopted ? std::make_unique<WebServer>(
                      domain, *ca_, std::move(*adopted), seed,
                      config_.rsaBits, config_.serverPolicy)
                : std::make_unique<WebServer>(
                      domain, *ca_, seed, config_.rsaBits,
                      config_.serverPolicy);
    if (config_.storage) {
        // Durable tier: recover whatever a previous Fleet (or a
        // crash) left in this server's log, then log every new
        // mutation. Recovery runs before any traffic.
        stores_[index] = std::make_unique<TrustStore>(
            *config_.storage, "server" + std::to_string(index),
            config_.storePolicy);
        recoveries_[index] = stores_[index]->recover();
        server->attachStore(stores_[index].get());
    }
    servers_[index] = std::move(server);
}

void
Fleet::forEachChannel(const std::function<void(Channel &)> &body)
{
    const int n = static_cast<int>(channels_.size());
    core::parallelFor(0, n, 1, [&](int begin, int end) {
        for (int i = begin; i < end; ++i) {
            Channel &ch = *channels_[static_cast<std::size_t>(i)];
            // While this capture is alive, the executing thread's
            // obs::audit()/simNow() resolve to this channel's buffer
            // and clock — concurrently running channels never
            // interleave records in the global log.
            core::obs::ScopedChannelObs capture(&ch.queue, &ch.buffer);
            body(ch);
        }
    });
}

void
Fleet::runChannel(Channel &channel)
{
    core::Rng rng(channel.seedBase + 5);
    channel.result.outcome = runBrowsingSession(
        channel.queue, *channel.device, *channel.server,
        *channel.behavior, *channel.finger, rng, config_.clicks,
        channel.account);
    channel.result.messages = channel.network.messagesSent();
    channel.result.wireBytes = channel.network.bytesSent();
    channel.result.simEnd = channel.queue.now();
}

void
Fleet::mergeAuditBuffers()
{
    // Total order from simulation data only: records sort by their
    // own sim tick, ties broken by channel index then the channel-
    // local sequence number. (channel, seq) is unique, so the order
    // — and with it the merged log's bytes — is independent of the
    // worker-thread count.
    std::vector<std::pair<int, core::obs::AuditRecord>> tagged;
    for (const auto &channel : channels_) {
        for (auto &record : channel->buffer.snapshot())
            tagged.emplace_back(channel->index, std::move(record));
        channel->buffer.clear();
    }
    std::sort(tagged.begin(), tagged.end(),
              [](const auto &a, const auto &b) {
                  if (a.second.tick != b.second.tick)
                      return a.second.tick < b.second.tick;
                  if (a.first != b.first)
                      return a.first < b.first;
                  return a.second.seq < b.second.seq;
              });
    for (auto &[channel, record] : tagged)
        core::obs::audit().absorb(std::move(record));
}

FleetResult
Fleet::run()
{
    forEachChannel([this](Channel &ch) { runChannel(ch); });
    mergeAuditBuffers();

    FleetResult out;
    out.channels.reserve(channels_.size());
    for (const auto &channel : channels_) {
        out.channels.push_back(channel->result);
        if (channel->result.outcome.registered &&
            channel->result.outcome.loggedIn)
            ++out.sessionsOk;
        out.pagesServed += static_cast<std::uint64_t>(
            std::max(channel->result.outcome.pagesReceived, 0));
        out.dispatches += channel->dispatches;
    }
    return out;
}

// --- Storm orchestration -------------------------------------------------

Storm::Storm(const StormConfig &config, FleetHooks hooks)
    : config_(config), fleet_(config.fleet, std::move(hooks))
{
    TRUST_ASSERT(config_.lossVictims >= 0 && config_.upgraders >= 0 &&
                     config_.compromised >= 0 &&
                     config_.lossVictims + config_.upgraders +
                             config_.compromised <=
                         config_.fleet.devices,
                 "Storm: role counts exceed the fleet size");
    TRUST_ASSERT(!config_.restartServersMidStorm ||
                     config_.fleet.storage != nullptr,
                 "Storm: a mid-storm restart needs fleet.storage");
}

StormRole
Storm::role(int channel) const
{
    if (channel < config_.lossVictims)
        return StormRole::LossVictim;
    if (channel < config_.lossVictims + config_.upgraders)
        return StormRole::Upgrader;
    if (channel <
        config_.lossVictims + config_.upgraders + config_.compromised)
        return StormRole::Compromised;
    return StormRole::Bystander;
}

void
Storm::pushCrl()
{
    // One signed CRL artifact per push, carrying every serial the CA
    // has revoked so far, delivered to every server in index order.
    CrlMessage crl;
    crl.issuer = fleet_.ca_->name();
    crl.crlSeq = ++crlSeq_;
    crl.revokedSerials = fleet_.ca_->revokedSerials();
    crl.signature = fleet_.ca_->signWithRootKey(crl.signedBody());
    const core::Bytes wire = crl.serialize();
    for (auto &server : fleet_.servers_) {
        ++result_.crlDeliveries;
        if (CrlAck::deserialize(server->handle(wire)))
            ++result_.crlAcks;
    }
}

bool
Storm::pushReset(Fleet::Channel &channel)
{
    ResetRequest reset;
    reset.domain = channel.server->domain();
    reset.account = channel.account;
    reset.authSeq = ++authSeq_;
    reset.signature =
        fleet_.ca_->signWithRootKey(reset.signedBody());
    const auto verdict = RegistrationResult::deserialize(
        channel.server->handle(reset.serialize()));
    return verdict && verdict->ok;
}

bool
Storm::attemptRevokedRegistration(Fleet::Channel &channel,
                                  const std::string &account,
                                  const crypto::Certificate &cert)
{
    // A phone in the wrong hands can't produce the owner's
    // fingerprint, so it never gets past its own FLock gate; what
    // the storm must show is that even a protocol-level replay of
    // the registration exchange dies on the server's revocation
    // check before any signature is considered. Request ids stay 0
    // ("no id") so these probes never enter the dedup cache.
    const std::string from = channel.name + "-stolen";
    RegistrationRequest request;
    request.domain = channel.server->domain();
    request.account = account;
    const auto page =
        RegistrationPage::deserialize(channel.server->handle(
            request.serialize(), from, channel.queue.now()));
    if (!page)
        return false;
    RegistrationSubmit submit;
    submit.domain = channel.server->domain();
    submit.account = account;
    submit.nonce = page->nonce;
    submit.deviceCert = cert.serialize();
    submit.userPublicKey = cert.subjectKey.serialize();
    submit.frameHash = core::Bytes(32, 0);
    submit.signature =
        core::Bytes(cert.subjectKey.modulusBytes(), 0);
    const auto verdict =
        RegistrationResult::deserialize(channel.server->handle(
            submit.serialize(), from, channel.queue.now()));
    return verdict && !verdict->ok &&
           verdict->reason == "revoked-device-cert";
}

void
Storm::runBaseline()
{
    result_.baseline = fleet_.run();
}

void
Storm::runLossWave()
{
    const int n = static_cast<int>(fleet_.channels_.size());
    const int victims = config_.lossVictims;

    // Serial: the CA learns of the losses — revoke every lost
    // phone's certificate, push the CRL, authorize the resets.
    std::vector<crypto::Certificate> lost_certs;
    lost_certs.reserve(static_cast<std::size_t>(victims));
    for (int i = 0; i < victims; ++i) {
        Fleet::Channel &ch = *fleet_.channels_[static_cast<std::size_t>(i)];
        const auto &cert = ch.device->flock().deviceCertificate();
        TRUST_ASSERT(cert.has_value(),
                     "Storm: loss victim has no device certificate");
        lost_certs.push_back(*cert);
        fleet_.ca_->revoke(cert->serial);
    }
    pushCrl();
    for (int i = 0; i < victims; ++i)
        if (pushReset(*fleet_.channels_[static_cast<std::size_t>(i)]))
            ++result_.resetsApplied;

    // Parallel: whoever found the lost phones probes the servers
    // with the stale certificates, while replacement phones are
    // staged (channel-private provisioning).
    std::vector<std::optional<DeviceParts>> staged(
        static_cast<std::size_t>(n));
    std::vector<int> thief_hits(static_cast<std::size_t>(n), 0);
    fleet_.forEachChannel([&](Fleet::Channel &ch) {
        if (role(ch.index) != StormRole::LossVictim)
            return;
        const auto i = static_cast<std::size_t>(ch.index);
        thief_hits[i] = attemptRevokedRegistration(
                            ch, "mallory" + std::to_string(i),
                            lost_certs[i])
                            ? 1
                            : 0;
        const FleetConfig &fc = fleet_.config_;
        staged[i].emplace(stageDevice(
            *ch.behavior, fc.sensorTiles, fc.tileSideMm,
            ch.seedBase + 16, ch.name + "-flock-r",
            fleet_.ca_->rootKey(), ch.seedBase + 17, fc.rsaBits));
    });
    fleet_.mergeAuditBuffers();
    for (int hit : thief_hits)
        result_.thiefRejections += hit;

    // Serial: replacement certificates issue in channel order (the
    // CA's serial counter and RNG are shared state), and the new
    // phone takes over the channel's network endpoint.
    for (int i = 0; i < victims; ++i) {
        Fleet::Channel &ch =
            *fleet_.channels_[static_cast<std::size_t>(i)];
        std::optional<DeviceParts> &parts =
            staged[static_cast<std::size_t>(i)];
        certifyFlock(*fleet_.ca_, parts->flock);
        // The replacement phone is a new network endpoint: reusing
        // the lost phone's name would collide with the server's
        // per-sender dedup cache and replay stale baseline replies
        // into the fresh registration.
        ch.network.detach(ch.name);
        ch.device = std::make_unique<MobileDevice>(
            ch.name + "-r", std::move(parts->screen),
            std::move(parts->flock), ch.seedBase + 18);
        parts.reset();
        ch.device->attachToNetwork(ch.network);
    }

    // Parallel: the re-registration burst — victims enroll and bind
    // from scratch while every other channel keeps browsing, so the
    // burst hits the servers under correlated load.
    std::vector<int> re_registered(static_cast<std::size_t>(n), 0);
    fleet_.forEachChannel([&](Fleet::Channel &ch) {
        const bool victim = role(ch.index) == StormRole::LossVictim;
        core::Rng rng(ch.seedBase + 19);
        if (victim && !ch.device->enrollOwner(*ch.finger))
            core::warn("storm: replacement enrollment produced no "
                       "usable view");
        const SessionOutcome outcome = runBrowsingSession(
            ch.queue, *ch.device, *ch.server, *ch.behavior, *ch.finger,
            rng, config_.stormClicks, ch.account);
        if (victim && outcome.registered && outcome.loggedIn)
            re_registered[static_cast<std::size_t>(ch.index)] = 1;
    });
    fleet_.mergeAuditBuffers();
    for (int done : re_registered)
        result_.reRegistrations += done;
}

void
Storm::runUpgradeDay()
{
    const int n = static_cast<int>(fleet_.channels_.size());

    // Parallel: stage every upgrader's new phone (channel-private).
    std::vector<std::optional<DeviceParts>> staged(
        static_cast<std::size_t>(n));
    fleet_.forEachChannel([&](Fleet::Channel &ch) {
        if (role(ch.index) != StormRole::Upgrader)
            return;
        const FleetConfig &fc = fleet_.config_;
        staged[static_cast<std::size_t>(ch.index)].emplace(stageDevice(
            *ch.behavior, fc.sensorTiles, fc.tileSideMm,
            ch.seedBase + 24, ch.name + "-flock-u",
            fleet_.ca_->rootKey(), ch.seedBase + 25, fc.rsaBits));
    });
    fleet_.mergeAuditBuffers();

    // Serial: new certificates issue in channel order and the old
    // phones' certificates retire — upgrade day is also a mass
    // revocation event, pushed as one CRL.
    for (int i = 0; i < n; ++i) {
        if (role(i) != StormRole::Upgrader)
            continue;
        Fleet::Channel &ch =
            *fleet_.channels_[static_cast<std::size_t>(i)];
        certifyFlock(*fleet_.ca_,
                     staged[static_cast<std::size_t>(i)]->flock);
        const auto &old_cert = ch.device->flock().deviceCertificate();
        TRUST_ASSERT(old_cert.has_value(),
                     "Storm: upgrader has no device certificate");
        fleet_.ca_->revoke(old_cert->serial);
    }
    pushCrl();

    // Parallel: the transfers themselves. Export is authorized by
    // the owner's finger on the old phone; the bundle imports into
    // the staged phone; the old phone is wiped and (negative
    // storyline) fails a pre-reset session resumption before the
    // new phone adopts the identity and logs straight in — no
    // re-registration, the server kept the transferred user key.
    std::vector<int> transferred(static_cast<std::size_t>(n), 0);
    fleet_.forEachChannel([&](Fleet::Channel &ch) {
        if (role(ch.index) != StormRole::Upgrader)
            return;
        const auto i = static_cast<std::size_t>(ch.index);
        std::optional<DeviceParts> &parts = staged[i];
        core::Rng rng(ch.seedBase + 26);
        std::optional<core::Bytes> bundle;
        for (int attempt = 0; attempt < 16 && !bundle; ++attempt) {
            const TouchCapture auth =
                captureTouch(ch.device->screen(),
                             criticalTouch(*ch.device), &*ch.finger,
                             rng, 6.0);
            bundle = ch.device->flock().exportIdentity(
                parts->flock.devicePublicKey(), auth.sample);
        }
        if (!bundle || !parts->flock.importIdentity(*bundle)) {
            core::warn("storm: identity transfer failed");
            parts.reset();
            return;
        }
        ch.device->flock().factoryReset();
        ch.device->resumeSession(ch.server->domain());
        ch.queue.run();
        ch.device->onTouch(criticalTouch(*ch.device), &*ch.finger);
        ch.queue.run();
        // New phone, new endpoint (see the loss-wave note on
        // dedup-cache collisions with the retired name).
        ch.network.detach(ch.device->name());
        ch.device = std::make_unique<MobileDevice>(
            ch.name + "-u", std::move(parts->screen),
            std::move(parts->flock), ch.seedBase + 27);
        parts.reset();
        ch.device->attachToNetwork(ch.network);
        ch.device->adoptTransferredIdentity(ch.server->domain(),
                                            ch.account);
        const SessionOutcome outcome = runBrowsingSession(
            ch.queue, *ch.device, *ch.server, *ch.behavior, *ch.finger,
            rng, config_.stormClicks, ch.account);
        if (outcome.loggedIn)
            transferred[i] = 1;
    });
    fleet_.mergeAuditBuffers();
    for (int done : transferred)
        result_.transfersCompleted += done;
}

void
Storm::restartServers()
{
    // Phase barrier: nothing is in flight, every accepted mutation
    // is synced (the fleet store policy defaults to every-record
    // sync), so a clean crash loses nothing and the rebuilt servers
    // continue byte-identically. Each successor adopts its
    // predecessor's certificate — a reboot must not advance the
    // CA's serial counter — and regenerates the same keys from the
    // same seed, so that certificate still covers them.
    fleet_.config_.storage->crashClean();
    const std::size_t n_servers = fleet_.servers_.size();
    for (std::size_t s = 0; s < n_servers; ++s) {
        fleet_.startServer(s, fleet_.servers_[s]->certificate());
        result_.restartRecoveries.push_back(fleet_.recoveries_[s]);
    }
    for (auto &channel : fleet_.channels_)
        channel->server =
            fleet_.servers_[static_cast<std::size_t>(
                                channel->index) %
                            n_servers]
                .get();
}

/** Impostor touches driven into each compromised device. */
constexpr int kImpostorTouches = 10;

void
Storm::runCompromisedCloseout()
{
    const int n = static_cast<int>(fleet_.channels_.size());

    // Parallel: the compromised-device storyline. An impostor
    // finger drives the phone; the k-of-n risk window drains and
    // both sides log the lockout (flock risk-transition, server
    // request-rejected verdicts).
    std::vector<int> locked(static_cast<std::size_t>(n), 0);
    fleet_.forEachChannel([&](Fleet::Channel &ch) {
        if (role(ch.index) != StormRole::Compromised)
            return;
        core::Rng impostor_rng(ch.seedBase + 33);
        const fingerprint::MasterFinger impostor =
            fingerprint::synthesizeFinger(
                static_cast<std::uint64_t>(ch.index) + 7777,
                impostor_rng);
        for (int t = 0; t < kImpostorTouches; ++t) {
            ch.device->onTouch(criticalTouch(*ch.device), &impostor);
            ch.queue.run();
        }
        if (ch.device->flock().riskViolated())
            locked[static_cast<std::size_t>(ch.index)] = 1;
    });
    fleet_.mergeAuditBuffers();
    for (int hit : locked)
        result_.lockouts += hit;

    // Serial: the CA locks the compromised identities out for good —
    // revocation, one more CRL wave, authorized resets.
    for (int i = 0; i < n; ++i) {
        if (role(i) != StormRole::Compromised)
            continue;
        Fleet::Channel &ch =
            *fleet_.channels_[static_cast<std::size_t>(i)];
        const auto &cert = ch.device->flock().deviceCertificate();
        TRUST_ASSERT(cert.has_value(),
                     "Storm: compromised channel has no certificate");
        fleet_.ca_->revoke(cert->serial);
    }
    pushCrl();
    for (int i = 0; i < n; ++i) {
        if (role(i) != StormRole::Compromised)
            continue;
        if (pushReset(*fleet_.channels_[static_cast<std::size_t>(i)]))
            ++result_.resetsApplied;
    }

    // Parallel: close-out. Compromised phones try to re-register
    // with their revoked certificates (typed rejection); every
    // legitimate channel runs a verification burst that must
    // complete (or be rejected with a typed reason).
    std::vector<int> refused(static_cast<std::size_t>(n), 0);
    std::vector<int> verified(static_cast<std::size_t>(n), 0);
    std::vector<int> tried(static_cast<std::size_t>(n), 0);
    fleet_.forEachChannel([&](Fleet::Channel &ch) {
        const auto i = static_cast<std::size_t>(ch.index);
        if (role(ch.index) == StormRole::Compromised) {
            const auto &cert = ch.device->flock().deviceCertificate();
            refused[i] =
                cert && attemptRevokedRegistration(ch, ch.account, *cert)
                    ? 1
                    : 0;
            return;
        }
        tried[i] = 1;
        const std::uint64_t pages_before = ch.device->pagesReceived();
        core::Rng rng(ch.seedBase + 35);
        const SessionOutcome outcome = runBrowsingSession(
            ch.queue, *ch.device, *ch.server, *ch.behavior, *ch.finger,
            rng, config_.verifyClicks, ch.account);
        if (ch.device->pagesReceived() > pages_before ||
            outcome.requestsRejected > 0)
            verified[i] = 1;
    });
    fleet_.mergeAuditBuffers();
    for (int hit : refused)
        result_.revokedRejections += hit;
    for (int i = 0; i < n; ++i) {
        result_.postStormTotal += tried[static_cast<std::size_t>(i)];
        result_.postStormOk += verified[static_cast<std::size_t>(i)];
    }
}

StormResult
Storm::run()
{
    runBaseline();
    runLossWave();
    runUpgradeDay();
    if (config_.restartServersMidStorm)
        restartServers();
    runCompromisedCloseout();
    if (!fleet_.servers_.empty())
        result_.crlSerialsFinal =
            fleet_.servers_[0]->revokedSerialsSnapshot().size();
    return result_;
}

// --- Synthetic population ------------------------------------------------

namespace {

/**
 * Zipf(s) sampler over [0, n) via the precomputed normalized CDF —
 * O(n) doubles once, O(log n) per draw. Fine up to the million-
 * account sweep (8 MB of CDF) and exactly reproducible from the Rng.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::size_t n, double exponent)
    {
        cdf_.reserve(n);
        double total = 0.0;
        for (std::size_t rank = 1; rank <= n; ++rank) {
            total += 1.0 /
                     std::pow(static_cast<double>(rank), exponent);
            cdf_.push_back(total);
        }
        for (double &c : cdf_)
            c /= total;
    }

    std::size_t draw(core::Rng &rng) const
    {
        const double u = rng.uniform();
        const auto it =
            std::lower_bound(cdf_.begin(), cdf_.end(), u);
        if (it == cdf_.end())
            return cdf_.size() - 1;
        return static_cast<std::size_t>(it - cdf_.begin());
    }

  private:
    std::vector<double> cdf_;
};

/** Deterministic "serialized public key" for account @p index —
 *  arithmetic, not Rng, so rotation generation k is reproducible
 *  independent of how many draws preceded it. */
core::Bytes
populationKey(std::size_t index, std::uint64_t generation,
              std::size_t key_bytes)
{
    core::Bytes key(key_bytes);
    for (std::size_t j = 0; j < key_bytes; ++j)
        key[j] = static_cast<std::uint8_t>(
            (index * 131 + j * 17 + generation * 101) & 0xff);
    return key;
}

/** Zipf exponent for account activity (1.0 ≈ web traffic). */
constexpr double kZipfExponent = 1.0;

// Churn mix (relative weights, normalized by weightedIndex).
constexpr double kSessionRefreshWeight = 0.82; ///< putSession (rolling nonce).
constexpr double kSessionEraseWeight = 0.06;   ///< eraseSession (logout).
constexpr double kAccountRotateWeight = 0.12;  ///< putAccount (key rotation).

/** Flash-crowd window, as fractions of the event count. */
constexpr double kFlashCrowdStartFraction = 0.4;
constexpr double kFlashCrowdLengthFraction = 0.2;

/** Serialized "public key" size. */
constexpr std::size_t kKeyBytes = 24;

/** Peak-storage sampling stride (events between samples). */
constexpr std::size_t kSampleEvery = 4096;

StoredSession
populationSessionRow(std::size_t index, std::uint64_t refresh)
{
    StoredSession session;
    session.account = populationAccount(index);
    session.sessionKey = populationKey(index, refresh * 2 + 1, 16);
    session.expectedNonce = populationKey(index, refresh * 2 + 2, 12);
    session.currentTag = "t" + std::to_string(refresh & 0xff);
    session.lastRequestId = refresh;
    return session;
}

} // namespace

std::string
populationAccount(std::size_t index)
{
    return "u" + std::to_string(index);
}

std::uint64_t
populationSession(std::size_t index)
{
    return static_cast<std::uint64_t>(index) + 1;
}

PopulationStats
runPopulation(TrustStore &store, const PopulationConfig &config)
{
    PopulationStats stats;
    stats.accounts = config.accounts;
    core::Rng rng(config.seed);
    const ZipfSampler zipf(config.accounts, kZipfExponent);

    // Rotation/refresh generation per account index keeps every
    // regenerated key and session row distinct and reproducible.
    std::vector<std::uint32_t> generation(config.accounts, 0);
    std::vector<bool> hasSession(config.accounts, false);

    // Enrollment: every account registered once, one live session
    // each — the "live state" the bounded-recovery claim is about.
    for (std::size_t i = 0; i < config.accounts; ++i) {
        store.putAccount(populationAccount(i),
                         populationKey(i, 0, kKeyBytes));
        store.putSession(populationSession(i),
                         populationSessionRow(i, 0));
        hasSession[i] = true;
    }
    stats.peakStorageBytes = store.storageBytes();

    // Hot set for the flash crowd: the top Zipf ranks.
    const std::size_t hotSet = std::max<std::size_t>(
        16, std::min(config.accounts, config.accounts / 1000 + 16));
    const auto crowdStart = static_cast<std::size_t>(
        kFlashCrowdStartFraction * static_cast<double>(config.events));
    const auto crowdEnd =
        crowdStart +
        static_cast<std::size_t>(kFlashCrowdLengthFraction *
                                 static_cast<double>(config.events));

    const std::vector<double> weights = {kSessionRefreshWeight,
                                         kSessionEraseWeight,
                                         kAccountRotateWeight};

    for (std::size_t e = 0; e < config.events; ++e) {
        std::size_t index;
        const bool inCrowd =
            config.flashCrowd && e >= crowdStart && e < crowdEnd;
        if (inCrowd && rng.chance(config.flashCrowdBias))
            index = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(hotSet) - 1));
        else
            index = zipf.draw(rng);

        switch (rng.weightedIndex(weights)) {
        case 0: // Session refresh (continuous-auth heartbeat).
            ++generation[index];
            store.putSession(populationSession(index),
                             populationSessionRow(index,
                                                  generation[index]));
            hasSession[index] = true;
            ++stats.sessionRefreshes;
            break;
        case 1: // Logout.
            if (hasSession[index]) {
                store.eraseSession(populationSession(index));
                hasSession[index] = false;
            }
            ++stats.sessionErases;
            break;
        default: // Key rotation.
            ++generation[index];
            store.putAccount(populationAccount(index),
                             populationKey(index, generation[index],
                                           kKeyBytes));
            ++stats.accountRotations;
            break;
        }
        ++stats.events;

        if ((e + 1) % kSampleEvery == 0)
            stats.peakStorageBytes = std::max(
                stats.peakStorageBytes, store.storageBytes());
    }

    stats.peakStorageBytes =
        std::max(stats.peakStorageBytes, store.storageBytes());
    stats.finalStorageBytes = store.storageBytes();
    stats.finalLogBytes = store.logBytes();
    stats.finalSegments = store.segmentCount();
    stats.segmentsGcd = store.segmentsGcd();
    stats.snapshotsWritten = store.snapshotsWritten();
    stats.snapshotBytesWritten = store.snapshotBytesWritten();
    stats.walBytesAppended = store.walBytesAppended();
    stats.liveAccounts = store.liveAccounts();
    stats.liveSessions = store.liveSessions();
    store.publishMetrics();
    return stats;
}

} // namespace trust::trust
