/**
 * @file
 * The benchmark's serving rig: one CA, a set of WebServers each with
 * a TrustStore over shared simulated storage, and device channels.
 *
 * A channel is one MobileDevice on its own event queue and network,
 * bound to one server, as in trust::Fleet. The rig installs its own
 * network handler in front of WebServer::handleTimed, so it can time
 * every server dispatch from outside the program, and it plays the
 * user the way runBrowsingSession does, timing every user action
 * (a MobileDevice call plus the drain of the channel's queue).
 * Channels run concurrently through core::parallelFor; each touches
 * only its own state and the thread-safe servers, so what a channel
 * computes does not depend on the worker-thread count.
 */

#ifndef PERFBENCH_RIG_HH
#define PERFBENCH_RIG_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/sim_clock.hh"
#include "core/wal/storage.hh"
#include "crypto/cert.hh"
#include "crypto/csprng.hh"
#include "net/network.hh"
#include "touch/behavior.hh"
#include "touch/session.hh"
#include "trust/device.hh"
#include "trust/server.hh"
#include "trust/store.hh"

#include "spans.hh"
#include "stats.hh"

namespace perfbench {

namespace core = trust::core;
namespace crypto = trust::crypto;
namespace net = trust::net;
namespace proto = trust::trust;

/** Request kinds a device sends, in metric-name order. */
inline constexpr std::array<const char *, 5> kRequestKinds = {
    "registration_request", "registration_submit", "login_request",
    "login_submit", "page_request"};

/** Index into kRequestKinds of a raw request, or -1. */
int requestKindIndex(const core::Bytes &payload);

/** Static rig parameters. */
struct RigConfig
{
    std::uint64_t seed = 1;
    /** Distinguishes rigs built from one seed (onboard rounds). */
    std::uint64_t generation = 0;
    int servers = 4;
    /** Worker threads while provisioning. */
    int setupThreads = 4;
    /** Record interaction/dispatch spans while recording. */
    bool traced = false;
    /** Background accounts stored per server before it serves. */
    int populationPerServer = 0;
};

/** Wall seconds of each set-up step (summed over calls). */
struct SetupTimes
{
    double servers = 0.0;
    double flockKeygen = 0.0;
    double placement = 0.0;
    double enroll = 0.0;
    double population = 0.0;
    double warmup = 0.0;

    SetupTimes &operator+=(const SetupTimes &other);
};

/** One channel's observable protocol outcome (determinism gate). */
struct ChannelOutcome
{
    bool registered = false;
    bool loggedIn = false;
    std::uint64_t pages = 0;
    std::uint64_t errorReplies = 0;
    std::uint64_t messages = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    core::Tick simNow = 0;

    bool operator==(const ChannelOutcome &) const = default;
};

/** What a channel measured while the rig was recording. */
struct ChannelStats
{
    OpCounts ops;
    std::uint64_t touches = 0;
    std::uint64_t touchesCompleted = 0;
    std::uint64_t dispatches = 0;
    std::vector<double> interactionMs;
    std::int64_t busyNs = 0;
    /** Interaction and dispatch spans (traced rigs only). */
    SpanLog spans;
    /** Dispatch µs per request kind, set-up included (traced only). */
    std::array<std::vector<double>, kRequestKinds.size()> kindUs;
};

/** Times and checks of one crash → recover → restart → attach. */
struct RestartReport
{
    double wallS = 0.0;        ///< Crash to every server ready.
    double storeRecoverS = 0.0; ///< Σ TrustStore::recover.
    double serverRestartS = 0.0; ///< Σ restart constructor.
    double attachS = 0.0;       ///< Σ WebServer::attachStore.
    std::uint64_t replayed = 0;
    std::uint64_t storedAccounts = 0;
    std::uint64_t importedAccounts = 0;
};

/** Storage-layer counters summed over the rig's stores. */
struct StoreCounters
{
    std::uint64_t mutations = 0;
    std::uint64_t walBytes = 0;
    std::uint64_t syncs = 0;
    std::uint64_t snapshots = 0;
    std::uint64_t logBytes = 0;
};

class Rig
{
  public:
    explicit Rig(const RigConfig &config);
    ~Rig();

    Rig(const Rig &) = delete;
    Rig &operator=(const Rig &) = delete;

    /** Start the servers, each with a recovered, attached store. */
    void startServers();

    /** Provision @p count device channels (round-robin binding). */
    void addDevices(int count);

    /** Register then log in every channel (fingerprint retries). */
    void registerAndLogin(int threads);

    /** Every channel issues @p clicks natural browsing touches. */
    void browse(int clicks, int threads);

    /**
     * First visits: the channels sharing a server tap disjoint slices
     * of the UI elements' pages, @p per_channel each, so every server
     * serves a fixed set of distinct pages whatever the seed. With
     * @p per_channel 0 the slices cover every page once per server.
     */
    void sweepPages(int per_channel, int threads);

    /**
     * Set-up step: registerAndLogin, then optionally a full
     * sweepPages (fills the page caches) and @p clicks natural clicks
     * (enough to fill the k-of-n risk windows).
     */
    void warmup(bool fill_caches, int clicks, int threads);

    /**
     * Clean crash of the storage, then rebuild the servers one by
     * one: TrustStore::recover, restart constructor (same seed,
     * adopted certificate), attachStore.
     */
    RestartReport crashAndRestart(int threads);

    /** stateDigest() of every store (recovery check only). */
    std::vector<std::string> storeDigests() const;

    /**
     * Toggle measurement of interactions, dispatches and operations
     * (and their spans, on traced rigs).
     */
    void setRecording(bool on) { recording_ = on; }

    int channelCount() const { return static_cast<int>(channels_.size()); }
    const ChannelStats &stats(int channel) const;
    ChannelOutcome outcome(int channel) const;
    bool channelReady(int channel) const;

    /** Σ network messages / bytes sent over every channel. */
    std::uint64_t wireMessages() const;
    std::uint64_t wireBytes() const;
    /** Σ device retransmissions. */
    std::uint64_t retransmits() const;

    StoreCounters storeCounters() const;
    /** Σ over the live servers of their counter @p name. */
    std::uint64_t serverCounter(const std::string &name) const;
    /**
     * Σ over the live servers of their accepted and rejected
     * registration, login and page verdicts.
     */
    std::pair<std::uint64_t, std::uint64_t> serverVerdicts() const;
    const SetupTimes &setupTimes() const { return setup_; }
    /** Set-up spans recorded on the main thread. */
    const SpanLog &mainSpans() const { return mainSpans_; }

  private:
    struct Channel;

    void enrollUser(Channel &channel);
    void dispatch(Channel &channel, const net::Message &message);
    template <typename Action>
    void interact(Channel &channel, Action &&action);
    void registerChannel(Channel &channel);
    void loginChannel(Channel &channel, bool resume);
    void clickChannel(Channel &channel,
                      const std::vector<trust::touch::TouchEvent> &touches);
    void loadPopulation(proto::TrustStore &store, std::size_t server);
    template <typename Fn>
    void timedStep(const char *name, double &total, Fn &&fn);

    RigConfig config_;
    core::wal::SimulatedStorage storage_;
    crypto::Csprng caRng_;
    std::unique_ptr<crypto::CertificateAuthority> ca_;
    std::vector<std::unique_ptr<proto::WebServer>> servers_;
    std::vector<std::unique_ptr<proto::TrustStore>> stores_;
    std::vector<std::unique_ptr<Channel>> channels_;
    SetupTimes setup_;
    SpanLog mainSpans_;
    bool recording_ = false;
};

} // namespace perfbench

#endif // PERFBENCH_RIG_HH
