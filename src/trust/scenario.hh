/**
 * @file
 * Ecosystem wiring (Fig. 8): one CA, any number of TRUST web
 * servers and FLock devices joined by the simulated network.
 * Provides the canonical construction path used by the examples,
 * tests and benches: touch-behaviour-driven sensor placement,
 * device provisioning (keys + CA certificate + owner enrollment)
 * and ready-made end-to-end session drivers.
 */

#ifndef TRUST_TRUST_SCENARIO_HH
#define TRUST_TRUST_SCENARIO_HH

#include <memory>
#include <vector>

#include "net/network.hh"
#include "placement/placement.hh"
#include "touch/session.hh"
#include "trust/device.hh"
#include "trust/server.hh"

namespace trust::trust {

/** Ecosystem-wide configuration. */
struct EcosystemConfig
{
    std::uint64_t seed = 1;
    int sensorTiles = 4;       ///< Tiles per device screen.
    double tileSideMm = 7.0;   ///< Tile side (mm).
    std::size_t rsaBits = 512; ///< Key size everywhere (sim speed).
    ServerPolicy serverPolicy;
    FlockConfig flockConfig;
    net::LatencyModel latency;
};

/** The running ecosystem. Non-copyable (owns the event queue). */
class Ecosystem
{
  public:
    explicit Ecosystem(const EcosystemConfig &config);
    ~Ecosystem();

    Ecosystem(const Ecosystem &) = delete;
    Ecosystem &operator=(const Ecosystem &) = delete;

    core::EventQueue &queue() { return queue_; }
    net::Network &network() { return network_; }
    crypto::CertificateAuthority &ca() { return *ca_; }
    const EcosystemConfig &config() const { return config_; }

    /** Spin up a web server for @p domain and attach it. */
    WebServer &addServer(const std::string &domain);

    /**
     * Build a device whose sensor placement is optimized for the
     * given user behaviour, provision its FLock module (device key
     * certificate), enroll the owner finger and attach it.
     */
    MobileDevice &addDevice(const std::string &name,
                            const touch::UserBehavior &behavior,
                            const fingerprint::MasterFinger &owner);

    /** Deliver everything currently in flight. */
    void settle() { queue_.run(); }

    std::vector<std::unique_ptr<WebServer>> &servers()
    {
        return servers_;
    }
    std::vector<std::unique_ptr<MobileDevice>> &devices()
    {
        return devices_;
    }

  private:
    EcosystemConfig config_;
    core::EventQueue queue_;
    net::Network network_;
    crypto::Csprng caRng_;
    std::unique_ptr<crypto::CertificateAuthority> ca_;
    std::vector<std::unique_ptr<WebServer>> servers_;
    std::vector<std::unique_ptr<MobileDevice>> devices_;
    std::uint64_t nextSeed_;
};

/**
 * Build a biometric touchscreen whose tiles are placed by the
 * greedy optimizer against the behaviour's touch density.
 */
hw::BiometricTouchscreen
makeOptimizedScreen(const touch::UserBehavior &behavior, int tiles,
                    double tile_side_mm, std::uint64_t seed);

/**
 * Deliberate press on the critical button. Registration and login
 * confirmation buttons are drawn over the device's first sensor
 * tile (the paper's critical-button countermeasure). The device is
 * taken by const reference, so a same-named helper on a non-const
 * device in another namespace is preferred by overload resolution
 * rather than made ambiguous by argument-dependent lookup.
 */
touch::TouchEvent criticalTouch(const MobileDevice &device);

/** Outcome of a scripted end-to-end browsing session. */
struct SessionOutcome
{
    bool registered = false;
    bool loggedIn = false;
    int pagesReceived = 0;
    int requestsRejected = 0;
};

/**
 * Drive one device through registration, login and @p clicks
 * natural browsing touches against @p server. The critical
 * registration/login buttons are displayed over the device's first
 * sensor tile, per the paper's critical-button countermeasure.
 *
 * @param finger physical finger doing the touching (the enrolled
 *               owner for genuine runs; another finger to play an
 *               impostor).
 */
SessionOutcome runBrowsingSession(Ecosystem &ecosystem,
                                  MobileDevice &device,
                                  WebServer &server,
                                  const touch::UserBehavior &behavior,
                                  const fingerprint::MasterFinger &finger,
                                  core::Rng &rng, int clicks,
                                  const std::string &account);

/**
 * Same driver on a bare event queue: the device and server must
 * already be attached to a network pumped by @p queue. This is the
 * form the fleet runner uses — each independent channel owns its own
 * queue and runs this concurrently with the others.
 */
SessionOutcome runBrowsingSession(core::EventQueue &queue,
                                  MobileDevice &device,
                                  WebServer &server,
                                  const touch::UserBehavior &behavior,
                                  const fingerprint::MasterFinger &finger,
                                  core::Rng &rng, int clicks,
                                  const std::string &account);

} // namespace trust::trust

#endif // TRUST_TRUST_SCENARIO_HH
