#include "rig.hh"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/parallel.hh"
#include "core/rng.hh"
#include "crypto/rsa.hh"
#include "fingerprint/synthesis.hh"
#include "touch/session.hh"
#include "touch/ui.hh"
#include "trust/capture_glue.hh"
#include "trust/messages.hh"
#include "trust/scenario.hh"

namespace perfbench {

namespace {

/** Channel seed base: a pure function of (seed, generation, index). */
std::uint64_t
channelSeedBase(std::uint64_t seed, std::uint64_t generation, int index)
{
    return seed * 0x9E3779B97F4A7C15ull +
           generation * 0xD1B54A32D192ED03ull +
           (static_cast<std::uint64_t>(index) + 1) * 0x100000001B3ull;
}

/**
 * Server CSPRNG seed, shared by first start and every restart. The
 * deployment — CA, server keys and the phones' FLock modules — does
 * not depend on the workload seed, which drives the users (fingers,
 * touches) and their traffic: RSA key generation time varies
 * several-fold between keys, and would otherwise swamp what a seed
 * changes about the work.
 */
std::uint64_t
serverSeed(std::uint64_t generation, std::size_t index)
{
    return 2654435761ull + generation * 40503ull +
           static_cast<std::uint64_t>(index) + 1;
}

/** FLock module CSPRNG seed of channel @p index (deployment). */
std::uint64_t
flockSeed(std::uint64_t generation, int index)
{
    return 0xF10C4ull + generation * 0x9E3779B97F4A7C15ull +
           static_cast<std::uint64_t>(index) * 7919ull;
}

/** Deliberate press on the critical button (first sensor tile). */
trust::touch::TouchEvent
criticalTouch(proto::MobileDevice &device)
{
    trust::touch::TouchEvent event;
    event.position = device.screen().sensors()[0].region.center();
    event.speed = 0.05;
    event.gesture = trust::touch::GestureType::Tap;
    event.target = "critical-button";
    return event;
}

DeviceTally
tallyOf(const proto::MobileDevice &device)
{
    const core::CounterSet &c = device.counters();
    return {c.get("op-retry-exhausted"), c.get("server-error-reply"),
            c.get("server-busy-reply"), c.get("op-retransmit")};
}

void
useThreads(int threads)
{
    if (core::parallelThreadCount() != threads)
        core::setParallelThreads(threads);
}

core::Bytes
randomBytes(core::Rng &rng, std::size_t n)
{
    core::Bytes out(n);
    for (auto &b : out)
        b = static_cast<std::uint8_t>(rng.next());
    return out;
}

// Fleet defaults: 4 sensor tiles of 7 mm, 512-bit RSA everywhere.
constexpr int kSensorTiles = 4;
constexpr double kTileSideMm = 7.0;
constexpr std::size_t kRsaBits = 512;

} // namespace

int
requestKindIndex(const core::Bytes &payload)
{
    const auto kind = proto::peekKind(payload);
    if (!kind)
        return -1;
    switch (*kind) {
      case proto::MsgKind::RegistrationRequest: return 0;
      case proto::MsgKind::RegistrationSubmit: return 1;
      case proto::MsgKind::LoginRequest: return 2;
      case proto::MsgKind::LoginSubmit: return 3;
      case proto::MsgKind::PageRequest: return 4;
      default: return -1;
    }
}

SetupTimes &
SetupTimes::operator+=(const SetupTimes &other)
{
    servers += other.servers;
    flockKeygen += other.flockKeygen;
    placement += other.placement;
    enroll += other.enroll;
    population += other.population;
    warmup += other.warmup;
    return *this;
}

struct Rig::Channel
{
    int index = 0;
    std::uint64_t seedBase = 0;
    std::string name;
    std::string account;
    core::EventQueue queue;
    net::Network network;
    std::optional<trust::touch::UserBehavior> behavior;
    std::optional<trust::fingerprint::MasterFinger> finger;
    std::optional<trust::hw::BiometricTouchscreen> screen;
    std::optional<proto::FlockModule> flock;
    std::unique_ptr<proto::MobileDevice> device;
    proto::WebServer *server = nullptr;
    core::Rng rng;
    std::uint64_t interactions = 0;
    std::uint64_t currentInteraction = 0;
    ChannelStats stats;

    Channel(int idx, std::uint64_t seed_base)
        : index(idx), seedBase(seed_base),
          name("perf-phone-" + std::to_string(idx)),
          account("user" + std::to_string(idx)), network(queue),
          rng(seed_base + 5)
    {
    }
};

Rig::Rig(const RigConfig &config)
    : config_(config),
      caRng_(0xF1EE7CA0ull ^ (config.generation << 32))
{
}

Rig::~Rig() = default;

template <typename Fn>
void
Rig::timedStep(const char *name, double &total, Fn &&fn)
{
    const std::int32_t span = mainSpans_.open(name);
    fn();
    mainSpans_.close(span);
    total += static_cast<double>(
                 mainSpans_.spans()[static_cast<std::size_t>(span)]
                     .durationNs()) /
             1e9;
}

void
Rig::startServers()
{
    useThreads(config_.setupThreads);
    const auto n = static_cast<std::size_t>(std::max(config_.servers, 1));
    timedStep("setup.servers", setup_.servers, [&] {
        ca_ = std::make_unique<crypto::CertificateAuthority>(
            "TrustRootCA", kRsaBits, caRng_);
        for (std::size_t s = 0; s < n; ++s) {
            servers_.push_back(std::make_unique<proto::WebServer>(
                "www.perf" + std::to_string(s) + ".com", *ca_,
                serverSeed(config_.generation, s),
                kRsaBits));
            stores_.push_back(std::make_unique<proto::TrustStore>(
                storage_, "server" + std::to_string(s)));
            stores_.back()->recover();
        }
    });
    if (config_.populationPerServer > 0) {
        timedStep("setup.population", setup_.population, [&] {
            core::parallelFor(0, static_cast<int>(n), 1,
                              [&](int begin, int end) {
                                  for (int s = begin; s < end; ++s)
                                      loadPopulation(
                                          *stores_[static_cast<std::size_t>(s)],
                                          static_cast<std::size_t>(s));
                              });
        });
    }
    timedStep("setup.servers", setup_.servers, [&] {
        for (std::size_t s = 0; s < n; ++s)
            servers_[s]->attachStore(stores_[s].get());
    });
}

void
Rig::loadPopulation(proto::TrustStore &store, std::size_t server)
{
    // Real serialized RSA keys, so attachStore imports every account;
    // a small pool of them is shared round-robin by the accounts.
    constexpr std::size_t kKeyPool = 4;
    crypto::Csprng key_rng(serverSeed(config_.generation, server) ^
                           0xB6D5ull);
    std::vector<core::Bytes> keys;
    for (std::size_t k = 0; k < kKeyPool; ++k)
        keys.push_back(
            crypto::rsaGenerate(kRsaBits, key_rng).pub.serialize());

    core::Rng rng(config_.seed ^ (server + 1) * 0x9E3779B97F4A7C15ull);
    const auto count = static_cast<std::size_t>(config_.populationPerServer);
    for (std::size_t i = 0; i < count; ++i) {
        const std::string account = "bg" + std::to_string(i);
        store.putAccount(account, keys[i % kKeyPool]);
        proto::StoredSession session;
        session.account = account;
        session.sessionKey = randomBytes(rng, 16);
        session.expectedNonce = randomBytes(rng, 16);
        session.currentTag = "home";
        session.lastRequestId = 1;
        store.putSession(static_cast<std::uint64_t>(i) + 1, session);
    }
}

void
Rig::addDevices(int count)
{
    useThreads(config_.setupThreads);
    const int first = channelCount();
    const int end = first + count;
    for (int i = first; i < end; ++i)
        channels_.push_back(std::make_unique<Channel>(
            i, channelSeedBase(config_.seed, config_.generation, i)));

    auto each = [&](auto &&fn) {
        core::parallelFor(first, end, 1, [&](int b, int e) {
            for (int i = b; i < e; ++i)
                fn(*channels_[static_cast<std::size_t>(i)]);
        });
    };

    timedStep("setup.placement", setup_.placement, [&] {
        each([&](Channel &ch) {
            const auto uid = static_cast<std::uint64_t>(ch.index) + 1;
            ch.behavior.emplace(trust::touch::UserBehavior::forUser(
                uid, {trust::touch::homeScreenLayout(),
                      trust::touch::keyboardLayout(),
                      trust::touch::browserLayout()}));
            core::Rng finger_rng(ch.seedBase + 1);
            ch.finger.emplace(
                trust::fingerprint::synthesizeFinger(uid, finger_rng));
            ch.screen.emplace(proto::makeOptimizedScreen(
                *ch.behavior, kSensorTiles, kTileSideMm,
                ch.seedBase + 2));
        });
    });

    timedStep("setup.flock_keygen", setup_.flockKeygen, [&] {
        each([&](Channel &ch) {
            proto::FlockConfig flock_config;
            flock_config.rsaBits = kRsaBits;
            ch.flock.emplace(ch.name + "-flock", ca_->rootKey(),
                             flockSeed(config_.generation, ch.index),
                             flock_config);
        });
        // Certificates issue in channel order: the CA's serial
        // counter is shared state.
        for (int i = first; i < end; ++i) {
            Channel &ch = *channels_[static_cast<std::size_t>(i)];
            ch.flock->installDeviceCertificate(
                ca_->issue(ch.name + "-flock",
                           crypto::CertRole::FlockDevice,
                           ch.flock->devicePublicKey()));
            ch.device = std::make_unique<proto::MobileDevice>(
                ch.name, std::move(*ch.screen), std::move(*ch.flock),
                ch.seedBase + 4);
            ch.screen.reset();
            ch.flock.reset();
            ch.device->attachToNetwork(ch.network);
            ch.server = servers_[static_cast<std::size_t>(i) %
                                 servers_.size()]
                            .get();
            Channel *chp = &ch;
            ch.network.attach(ch.server->domain(),
                              [this, chp](const net::Message &m) {
                                  dispatch(*chp, m);
                              });
        }
    });

    timedStep("setup.enroll", setup_.enroll, [&] {
        each([&](Channel &ch) { enrollUser(ch); });
    });
}

void
Rig::enrollUser(Channel &ch)
{
    // A phone's set-up flow: enroll, then confirm with deliberate
    // presses that the strict (registration/login) matcher checks. A
    // user whose presses are mostly rejected enrolls again; a finger
    // that still fails is another user's turn — some synthesized
    // prints are too poor to ever confirm a registration.
    constexpr int kUsers = 4;
    constexpr int kEnrollments = 3;
    constexpr int kPresses = 8;
    constexpr int kNeeded = 5;
    core::Rng rng(ch.seedBase + 6);
    for (int user = 0; user < kUsers; ++user) {
        if (user > 0) {
            core::Rng finger_rng(ch.seedBase + 6 + static_cast<std::uint64_t>(user));
            ch.finger.emplace(trust::fingerprint::synthesizeFinger(
                static_cast<std::uint64_t>(ch.index) + 1 +
                    static_cast<std::uint64_t>(user) * 1000003ull,
                finger_rng));
        }
        for (int enrollment = 0; enrollment < kEnrollments; ++enrollment) {
            if (!ch.device->enrollOwner(*ch.finger))
                continue;
            int accepted = 0;
            for (int press = 0; press < kPresses; ++press)
                accepted += ch.device->flock().verifyCapture(
                                proto::captureTouch(
                                    ch.device->screen(),
                                    criticalTouch(*ch.device), &*ch.finger,
                                    rng, 6.0)
                                    .sample)
                                ? 1
                                : 0;
            if (accepted >= kNeeded)
                return;
        }
    }
    throw std::runtime_error("no user of " + ch.name +
                             " confirms an enrollment");
}

void
Rig::dispatch(Channel &ch, const net::Message &m)
{
    // The handler resolves the channel's server at dispatch time: a
    // restart swaps it for the recovered successor.
    proto::WebServer *srv = ch.server;
    std::int32_t span = -1;
    const std::int64_t start = config_.traced ? nowNs() : 0;
    if (config_.traced && recording_)
        span = ch.stats.spans.open("dispatch", ch.currentInteraction);
    proto::HandleResult handled =
        srv->handleTimed(m.payload, m.from, ch.queue.now());
    if (span >= 0)
        ch.stats.spans.close(span);
    if (config_.traced) {
        const int kind = requestKindIndex(m.payload);
        if (kind >= 0)
            ch.stats.kindUs[static_cast<std::size_t>(kind)].push_back(
                static_cast<double>(nowNs() - start) / 1e3);
    }
    if (recording_)
        ++ch.stats.dispatches;
    if (handled.queueDelay > 0) {
        core::Bytes reply = std::move(handled.reply);
        const std::string to = m.from;
        Channel *chp = &ch;
        ch.queue.scheduleAfter(handled.queueDelay, [chp, srv, to, reply] {
            chp->network.send(srv->domain(), to, reply);
        });
    } else {
        ch.network.send(srv->domain(), m.from, handled.reply);
    }
}

template <typename Action>
void
Rig::interact(Channel &ch, Action &&action)
{
    ch.currentInteraction = ++ch.interactions;
    std::int32_t span = -1;
    if (config_.traced && recording_)
        span = ch.stats.spans.open("interaction", ch.currentInteraction);
    const std::int64_t start = nowNs();
    action();
    ch.queue.run();
    const std::int64_t end = nowNs();
    if (span >= 0)
        ch.stats.spans.close(span);
    ch.currentInteraction = 0;
    if (recording_) {
        ch.stats.interactionMs.push_back(
            static_cast<double>(end - start) / 1e6);
        ch.stats.busyNs += end - start;
    }
}

void
Rig::registerChannel(Channel &ch)
{
    const std::string domain = ch.server->domain();
    for (int attempt = 0;
         attempt < 16 && !ch.device->registrationComplete(domain);
         ++attempt) {
        const DeviceTally before = tallyOf(*ch.device);
        interact(ch, [&] {
            ch.device->startRegistration(domain, ch.account);
        });
        interact(ch, [&] {
            ch.device->onTouch(criticalTouch(*ch.device), &*ch.finger);
        });
        const bool done = ch.device->registrationComplete(domain);
        if (recording_) {
            ch.stats.ops.record(done, before, tallyOf(*ch.device));
            ++ch.stats.touches;
            ch.stats.touchesCompleted += done ? 1 : 0;
        }
    }
}

void
Rig::loginChannel(Channel &ch, bool resume)
{
    const std::string domain = ch.server->domain();
    auto pending = [&] {
        return resume ? ch.device->sessionNeedsResume(domain)
                      : !ch.device->sessionActive(domain);
    };
    for (int attempt = 0; attempt < 16 && pending(); ++attempt) {
        const DeviceTally before = tallyOf(*ch.device);
        interact(ch, [&] {
            if (resume)
                ch.device->resumeSession(domain);
            else
                ch.device->startLogin(domain);
        });
        interact(ch, [&] {
            ch.device->onTouch(criticalTouch(*ch.device), &*ch.finger);
        });
        const bool done = !pending();
        if (recording_) {
            ch.stats.ops.record(done, before, tallyOf(*ch.device));
            ++ch.stats.touches;
            ch.stats.touchesCompleted += done ? 1 : 0;
        }
    }
}

void
Rig::clickChannel(Channel &ch,
                  const std::vector<trust::touch::TouchEvent> &touches)
{
    for (const auto &event : touches) {
        // An outage that outlasted the retry budget forces the
        // Fig. 10 re-handshake before browsing resumes.
        loginChannel(ch, /*resume=*/true);
        const DeviceTally before = tallyOf(*ch.device);
        const std::uint64_t pages = ch.device->pagesReceived();
        interact(ch, [&] { ch.device->onTouch(event, &*ch.finger); });
        const bool done = ch.device->pagesReceived() > pages;
        if (recording_) {
            ch.stats.ops.record(done, before, tallyOf(*ch.device));
            ++ch.stats.touches;
            ch.stats.touchesCompleted += done ? 1 : 0;
        }
    }
}

void
Rig::registerAndLogin(int threads)
{
    useThreads(threads);
    core::parallelFor(0, channelCount(), 1, [&](int b, int e) {
        for (int i = b; i < e; ++i) {
            Channel &ch = *channels_[static_cast<std::size_t>(i)];
            registerChannel(ch);
            if (ch.device->registrationComplete(ch.server->domain()))
                loginChannel(ch, /*resume=*/false);
        }
    });
}

void
Rig::browse(int clicks, int threads)
{
    useThreads(threads);
    core::parallelFor(0, channelCount(), 1, [&](int b, int e) {
        for (int i = b; i < e; ++i) {
            Channel &ch = *channels_[static_cast<std::size_t>(i)];
            clickChannel(ch, trust::touch::generateSession(
                                 *ch.behavior, ch.rng,
                                 ch.queue.now() + core::seconds(1),
                                 clicks));
        }
    });
}

void
Rig::sweepPages(int per_channel, int threads)
{
    std::vector<trust::touch::UiElement> elements;
    for (const auto &layout : {trust::touch::homeScreenLayout(),
                               trust::touch::keyboardLayout(),
                               trust::touch::browserLayout()})
        elements.insert(elements.end(), layout.elements.begin(),
                        layout.elements.end());
    const int n = channelCount();
    const int servers = static_cast<int>(servers_.size());
    const auto count = static_cast<std::size_t>(
        per_channel > 0 ? per_channel
                        : (static_cast<int>(elements.size()) + n / servers -
                           1) / std::max(n / servers, 1));
    useThreads(threads);
    core::parallelFor(0, n, 1, [&](int b, int e) {
        for (int i = b; i < e; ++i) {
            Channel &ch = *channels_[static_cast<std::size_t>(i)];
            // The channel's place among those sharing its server picks
            // its slice of the pages; the user's hand picks the spot.
            const auto first =
                static_cast<std::size_t>(i / servers) * count;
            std::vector<trust::touch::TouchEvent> touches;
            for (std::size_t k = first;
                 k < first + count && k < elements.size(); ++k) {
                trust::touch::TouchEvent event;
                const core::Vec2 center = elements[k].rect.center();
                event.position = {center.x + ch.rng.normal(0.0, 1.0),
                                  center.y + ch.rng.normal(0.0, 1.0)};
                event.gesture = trust::touch::GestureType::Tap;
                event.speed = 0.12;
                event.target = elements[k].id;
                touches.push_back(event);
            }
            clickChannel(ch, touches);
        }
    });
}

void
Rig::warmup(bool fill_caches, int clicks, int threads)
{
    timedStep("setup.warmup", setup_.warmup, [&] {
        registerAndLogin(threads);
        if (fill_caches)
            sweepPages(0, threads);
        if (clicks > 0)
            browse(clicks, threads);
    });
}

RestartReport
Rig::crashAndRestart(int threads)
{
    useThreads(threads);
    RestartReport report;
    auto step = [&](const char *name, double &total, auto &&fn) {
        const std::int64_t start = nowNs();
        fn();
        const std::int64_t end = nowNs();
        mainSpans_.add(name, start, end);
        total += static_cast<double>(end - start) / 1e9;
    };

    // Servers restart one after another, as trust::Storm restarts
    // them; each store recovers its shards on the worker pool.
    const std::int32_t span = mainSpans_.open("recover");
    storage_.crashClean();
    for (std::size_t s = 0; s < servers_.size(); ++s) {
        const std::string domain = servers_[s]->domain();
        crypto::Certificate cert = servers_[s]->certificate();
        auto store = std::make_unique<proto::TrustStore>(
            storage_, "server" + std::to_string(s));
        step("recover.store", report.storeRecoverS,
             [&] { report.replayed += store->recover().replayed; });
        std::unique_ptr<proto::WebServer> fresh;
        step("recover.restart", report.serverRestartS, [&] {
            fresh = std::make_unique<proto::WebServer>(
                domain, *ca_, std::move(cert),
                serverSeed(config_.generation, s), kRsaBits);
        });
        step("recover.attach", report.attachS,
             [&] { fresh->attachStore(store.get()); });
        servers_[s] = std::move(fresh);
        stores_[s] = std::move(store);
    }
    for (auto &channel : channels_)
        channel->server = servers_[static_cast<std::size_t>(channel->index) %
                                   servers_.size()]
                              .get();
    mainSpans_.close(span);
    report.wallS = static_cast<double>(
                       mainSpans_.spans()[static_cast<std::size_t>(span)]
                           .durationNs()) /
                   1e9;

    for (std::size_t s = 0; s < servers_.size(); ++s) {
        report.storedAccounts += stores_[s]->liveAccounts();
        report.importedAccounts += servers_[s]->registeredAccounts();
    }
    return report;
}

std::vector<std::string>
Rig::storeDigests() const
{
    std::vector<std::string> digests;
    for (const auto &store : stores_)
        digests.push_back(store->stateDigest());
    return digests;
}

const ChannelStats &
Rig::stats(int channel) const
{
    return channels_[static_cast<std::size_t>(channel)]->stats;
}

bool
Rig::channelReady(int channel) const
{
    const Channel &ch = *channels_[static_cast<std::size_t>(channel)];
    const std::string &domain = ch.server->domain();
    return ch.device->registrationComplete(domain) &&
           ch.device->sessionActive(domain);
}

ChannelOutcome
Rig::outcome(int channel) const
{
    const Channel &ch = *channels_[static_cast<std::size_t>(channel)];
    const std::string &domain = ch.server->domain();
    ChannelOutcome out;
    out.registered = ch.device->registrationComplete(domain);
    out.loggedIn = ch.device->sessionActive(domain);
    out.pages = ch.device->pagesReceived();
    out.errorReplies = ch.device->counters().get("server-error-reply");
    out.messages = ch.network.messagesSent();
    out.attempted = ch.stats.ops.attempted;
    out.failed = ch.stats.ops.failed;
    out.simNow = ch.queue.now();
    return out;
}

std::uint64_t
Rig::wireMessages() const
{
    std::uint64_t total = 0;
    for (const auto &ch : channels_)
        total += ch->network.messagesSent();
    return total;
}

std::uint64_t
Rig::wireBytes() const
{
    std::uint64_t total = 0;
    for (const auto &ch : channels_)
        total += ch->network.bytesSent();
    return total;
}

std::uint64_t
Rig::retransmits() const
{
    std::uint64_t total = 0;
    for (const auto &ch : channels_)
        total += tallyOf(*ch->device).retransmits;
    return total;
}

std::uint64_t
Rig::serverCounter(const std::string &name) const
{
    std::uint64_t total = 0;
    for (const auto &server : servers_)
        total += server->counters().get(name);
    return total;
}

std::pair<std::uint64_t, std::uint64_t>
Rig::serverVerdicts() const
{
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    for (const auto &server : servers_) {
        const core::CounterSet counters = server->counters();
        for (const auto &[name, value] : counters.all()) {
            for (const char *verdict : {"registration", "login", "request"}) {
                const std::string prefix = verdict;
                if (name == prefix + "-accepted")
                    accepted += value;
                else if (name.rfind(prefix + "-rejected", 0) == 0)
                    rejected += value;
            }
        }
    }
    return {accepted, rejected};
}

StoreCounters
Rig::storeCounters() const
{
    StoreCounters c;
    for (const auto &store : stores_) {
        c.mutations += store->mutations();
        c.walBytes += store->walBytesAppended();
        c.snapshots += store->snapshotsWritten();
        c.logBytes += store->logBytes();
    }
    c.syncs = storage_.syncCount();
    return c;
}

} // namespace perfbench

