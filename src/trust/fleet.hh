/**
 * @file
 * Fleet-scale serving: many independent device↔server channels
 * executed concurrently against shared, thread-safe WebServers.
 *
 * Each channel is a self-contained serial sub-simulation — its own
 * event queue, network and device — touching no other channel's
 * state; the only shared mutable objects are the sharded WebServers
 * (safe by design, see server.hh) and the observability singletons
 * (thread-safe). Channels are executed with core::parallelFor, so
 * the set of channels run and everything each one computes is
 * independent of the worker-thread count.
 *
 * **Deterministic audit merge.** While a channel runs, a
 * ScopedChannelObs capture redirects the executing thread's
 * obs::audit() and obs::simNow() to the channel's private buffer and
 * clock. After the run, the per-channel buffers are merged into the
 * global audit log ordered by (tick, channel, per-channel seq) — a
 * total order derived only from simulation data — so the merged log
 * is byte-identical at 1, 4 or 16 threads. The fleet golden test
 * pins this.
 */

#ifndef TRUST_TRUST_FLEET_HH
#define TRUST_TRUST_FLEET_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/obs/audit.hh"
#include "net/network.hh"
#include "trust/scenario.hh"
#include "trust/store.hh"

namespace trust::trust {

/** Fleet-wide configuration. */
struct FleetConfig
{
    std::uint64_t seed = 1;
    int devices = 8;   ///< Independent device↔server channels.
    int servers = 2;   ///< Shared web servers (round-robin binding).
    int clicks = 5;    ///< Browsing touches per channel session.
    int sensorTiles = 4;
    double tileSideMm = 7.0;
    std::size_t rsaBits = 512;
    ServerPolicy serverPolicy;
    net::LatencyModel latency;

    /**
     * Optional durability layer: when set, each server gets a
     * TrustStore over this storage (WAL "server<i>.wal" + snapshot),
     * recovered before serving — so a fleet constructed over the
     * storage left behind by a crashed predecessor resumes from its
     * durable state. The storage must outlive the Fleet. nullptr =
     * each server serves from its own private store.
     */
    core::wal::SimulatedStorage *storage = nullptr;
    StorePolicy storePolicy;
};

/** What one channel's session produced. */
struct ChannelResult
{
    SessionOutcome outcome;
    std::uint64_t messages = 0;  ///< Channel network messages sent.
    std::uint64_t wireBytes = 0; ///< Channel network bytes sent.
    core::Tick simEnd = 0;       ///< Channel sim time at completion.
};

/** Aggregated fleet run outcome. */
struct FleetResult
{
    std::vector<ChannelResult> channels;
    int sessionsOk = 0;          ///< Registered AND logged in.
    std::uint64_t pagesServed = 0;
    std::uint64_t dispatches = 0; ///< Server requests handled.
};

/**
 * Per-dispatch instrumentation hooks, called on the worker thread
 * executing the channel immediately around WebServer::handle().
 * Benches install wall-clock timers here (the fleet itself never
 * reads a wall clock). Must be thread-safe; invoked concurrently
 * from different channels.
 */
struct FleetHooks
{
    std::function<void(int channel)> beforeDispatch;
    std::function<void(int channel)> afterDispatch;
};

/**
 * The running fleet. Construction provisions every channel with the
 * same four steps as Ecosystem::addDevice (scenario.hh), and Storm
 * provisions its replacement and upgrade phones the same way:
 *  1. stage — stageDevice(): sensor placement and FLock keys.
 *     Channel-private, so it runs in parallel.
 *  2. certify — certifyFlock(): the CA issues the device
 *     certificate. Serial in channel order, so the CA's serial
 *     counter assignment is deterministic.
 *  3. assemble and attach — the MobileDevice constructor, then
 *     MobileDevice::attachToNetwork(); server endpoints answer
 *     through sendReply(). Serial, in the same pass as step 2.
 *  4. enrol — MobileDevice::enrollOwner(). Channel-private, in
 *     parallel.
 * Servers are built by startServer(), which the mid-storm restart
 * reuses.
 */
class Fleet
{
  public:
    explicit Fleet(const FleetConfig &config, FleetHooks hooks = {});
    ~Fleet();

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    /**
     * Run every channel's browsing session (registration → login →
     * clicks), concurrently across the global thread pool, then
     * merge the per-channel audit buffers into the global log in
     * (tick, channel, seq) order. Call once.
     */
    FleetResult run();

    WebServer &server(int index) { return *servers_[static_cast<std::size_t>(index)]; }
    int serverCount() const { return static_cast<int>(servers_.size()); }

    /** Recovery report of server @p index (empty without storage). */
    const RecoveryReport &recovery(int index) const
    {
        return recoveries_[static_cast<std::size_t>(index)];
    }

    /** Persistent store of server @p index (null without storage) —
     *  read-only: tests pin store invariants over fleet traffic. */
    const TrustStore *store(int index) const
    {
        return stores_[static_cast<std::size_t>(index)].get();
    }

  private:
    friend class Storm;

    struct Channel;

    /**
     * Build server @p index (and, with storage, its recovered
     * TrustStore) into slot @p index. A restart passes the
     * predecessor's certificate in @p adopted so the CA is not
     * asked again.
     */
    void startServer(std::size_t index,
                     std::optional<crypto::Certificate> adopted);
    /**
     * Run @p body on every channel across the global thread pool,
     * each under its channel's audit capture (records stay in the
     * channel buffer until mergeAuditBuffers()).
     */
    void forEachChannel(const std::function<void(Channel &)> &body);
    void runChannel(Channel &channel);
    void mergeAuditBuffers();

    FleetConfig config_;
    FleetHooks hooks_;
    crypto::Csprng caRng_;
    std::unique_ptr<crypto::CertificateAuthority> ca_;
    std::vector<std::unique_ptr<WebServer>> servers_;
    std::vector<std::unique_ptr<TrustStore>> stores_;
    std::vector<RecoveryReport> recoveries_;
    std::vector<std::unique_ptr<Channel>> channels_;
};

// --- Ecosystem storms ----------------------------------------------------

/** Part a channel plays in the storm narrative (by channel index). */
enum class StormRole
{
    LossVictim,  ///< Phone lost: reset + re-registration burst.
    Upgrader,    ///< Phone-upgrade day: identity transfer.
    Compromised, ///< Impostor drives the phone until lockout.
    Bystander,   ///< Correlated background load.
};

/**
 * Storm layout over a fleet: channels [0, lossVictims) are loss
 * victims, the next upgraders channels transfer their identity to a
 * new phone, the next compromised channels play the impostor
 * storyline, and the rest are bystanders. The sum of the three
 * role counts must not exceed fleet.devices.
 */
struct StormConfig
{
    FleetConfig fleet;

    int lossVictims = 2;
    int upgraders = 2;
    int compromised = 1;

    /** Browsing clicks per channel in the storm-phase sessions. */
    int stormClicks = 2;
    /** Clicks in the post-storm legitimate verification burst. */
    int verifyClicks = 2;

    /**
     * Crash every server at the phase-2 → phase-3 barrier and
     * rebuild it from its recovered TrustStore (requires
     * fleet.storage). The rebuilt server adopts its original
     * certificate, so the CA's serial counter — and with it every
     * later certificate and the audit log — is byte-identical to
     * the uncrashed storm.
     */
    bool restartServersMidStorm = false;
};

/** Aggregated storm outcome (per-wave completion accounting). */
struct StormResult
{
    /** Phase 0: ordinary fleet traffic before the storm. */
    FleetResult baseline;

    // Phase 1 — device-loss wave.
    int resetsApplied = 0;     ///< CA-authorized identity resets.
    int thiefRejections = 0;   ///< Stolen phones refused (revoked cert).
    int reRegistrations = 0;   ///< Victims re-registered + logged in.

    // Phase 2 — phone-upgrade day.
    int transfersCompleted = 0; ///< New phones logged in via transfer.

    // Phase 3 — compromised devices + close-out.
    int lockouts = 0;           ///< Impostor runs ending risk-violated.
    int revokedRejections = 0;  ///< Revoked re-registrations refused.
    int postStormOk = 0;        ///< Legit channels that completed.
    int postStormTotal = 0;     ///< Legit channels that tried.

    std::uint64_t crlDeliveries = 0;  ///< CRL messages sent to servers.
    std::uint64_t crlAcks = 0;        ///< Acknowledged installs.
    std::uint64_t crlSerialsFinal = 0; ///< Final union size (server 0).

    /** Recovery reports of the mid-storm restart (if enabled). */
    std::vector<RecoveryReport> restartRecoveries;
};

/**
 * Scripted correlated-event storm over a Fleet: device-loss waves
 * (CA revocation + CRL push + out-of-band reset + re-registration
 * bursts), a phone-upgrade-day mass identity transfer (Sec. IV-B
 * export/import), and a compromised-device storyline whose k-of-n
 * lockout, revocation and typed re-registration rejection are all
 * visible in the decision audit log.
 *
 * Determinism contract: parallel stages touch only channel-private
 * state plus the thread-safe servers and run under per-channel
 * audit capture (merged in (tick, channel, seq) order at each stage
 * barrier); every CA interaction — revocation, CRL signing and
 * delivery, reset authorizations, certificate issue — runs serially
 * in channel order between stages. The storm audit log is therefore
 * byte-identical at any worker-thread count, and (because the
 * persistent tier replays to exactly the committed state and a
 * restarted server adopts its original certificate) byte-identical
 * across the mid-storm crash/recover variant too. The storm golden
 * test pins both.
 */
class Storm
{
  public:
    explicit Storm(const StormConfig &config, FleetHooks hooks = {});

    Storm(const Storm &) = delete;
    Storm &operator=(const Storm &) = delete;

    /** Run all storm phases. Call once. */
    StormResult run();

    Fleet &fleet() { return fleet_; }
    StormRole role(int channel) const;

  private:
    void runBaseline();
    void runLossWave();
    void runUpgradeDay();
    void restartServers();
    void runCompromisedCloseout();

    /** Sign + deliver a CRL carrying every revoked serial so far. */
    void pushCrl();

    /** Sign + deliver one out-of-band identity reset. */
    bool pushReset(Fleet::Channel &channel);

    /**
     * Wire-level registration attempt presenting @p cert (stolen or
     * compromised phone): true when the server refused it with the
     * typed revoked-device-cert rejection.
     */
    bool attemptRevokedRegistration(Fleet::Channel &channel,
                                    const std::string &account,
                                    const crypto::Certificate &cert);

    StormConfig config_;
    Fleet fleet_;
    StormResult result_;
    std::uint64_t crlSeq_ = 0;
    std::uint64_t authSeq_ = 0;
};

// --- Synthetic population (million-account scaling harness) --------------

/**
 * Zipf-distributed synthetic account population, driven straight
 * into a TrustStore: real crypto channels are ~10^4× too expensive
 * at a million accounts, and the persistent tier only ever sees the
 * mutation stream anyway. The workload is a pure function of the
 * seed (one core::Rng, no wall clock), so every sweep point replays
 * exactly.
 *
 * Shape: every account is enrolled once (putAccount), then `events`
 * churn mutations hit accounts drawn from a Zipf distribution —
 * session refreshes (the dominant continuous-auth traffic; one live
 * session per account, so live state stays O(accounts)), logouts,
 * and key rotations. An optional flash crowd concentrates a window
 * of arrivals onto the hottest accounts, modeling the paper's
 * upgrade-day/incident surges. The Zipf exponent (1.0), the churn
 * mix (82 % refresh, 6 % logout, 12 % rotation) and the crowd
 * window (events 40-60 %) are fixed next to runPopulation.
 */
struct PopulationConfig
{
    std::uint64_t seed = 1;
    std::size_t accounts = 10 * 1000;
    std::size_t events = 50 * 1000; ///< Churn mutations after enroll.

    /** Flash crowd: a window of events biased to the hottest
     *  accounts (off = pure Zipf throughout). */
    bool flashCrowd = true;
    double flashCrowdBias = 0.8; ///< P(window event hits the hot set).
};

/** What the population run did and what it cost on storage. */
struct PopulationStats
{
    std::size_t accounts = 0;
    std::uint64_t events = 0;
    std::uint64_t sessionRefreshes = 0;
    std::uint64_t sessionErases = 0;
    std::uint64_t accountRotations = 0;

    /** Max of storageBytes() over the sampled run — the bounded-
     *  by-live-state claim is about this, not the final value. */
    std::size_t peakStorageBytes = 0;
    std::size_t finalStorageBytes = 0;
    std::size_t finalLogBytes = 0;
    std::size_t finalSegments = 0;
    std::uint64_t segmentsGcd = 0;
    std::uint64_t snapshotsWritten = 0;
    std::uint64_t snapshotBytesWritten = 0;
    std::uint64_t walBytesAppended = 0;
    std::size_t liveAccounts = 0;
    std::size_t liveSessions = 0;
};

/** Account name of population index @p index ("u<index>"). */
std::string populationAccount(std::size_t index);

/** Stable session id of population index @p index (index + 1). */
std::uint64_t populationSession(std::size_t index);

/**
 * Enroll `config.accounts` accounts into @p store and drive
 * `config.events` churn mutations through it (see PopulationConfig).
 * The store should be freshly recovered; call store.checkpoint()
 * afterwards if the bench wants a final snapshot generation.
 */
PopulationStats runPopulation(TrustStore &store,
                              const PopulationConfig &config);

} // namespace trust::trust

#endif // TRUST_TRUST_FLEET_HH
