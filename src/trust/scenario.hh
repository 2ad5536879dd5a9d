/**
 * @file
 * Ecosystem wiring (Fig. 8): one CA, any number of TRUST web
 * servers and FLock devices joined by the simulated network.
 * Provides the canonical construction path used by the examples,
 * tests and benches: touch-behaviour-driven sensor placement,
 * device provisioning (keys + CA certificate + owner enrollment)
 * and the end-to-end session driver. The provisioning steps and the
 * server reply path are free functions, so the Fleet and Storm
 * harnesses (fleet.hh) build their devices and endpoints the same
 * way.
 */

#ifndef TRUST_TRUST_SCENARIO_HH
#define TRUST_TRUST_SCENARIO_HH

#include <memory>
#include <string>
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

/** A phone's parts, staged before the CA certifies its FLock. */
struct DeviceParts
{
    hw::BiometricTouchscreen screen;
    FlockModule flock;
};

/**
 * Provisioning step 1 (stage): place the screen's sensor tiles for
 * @p behavior and generate the FLock module's @p rsa_bits keys.
 * Touches no shared state, so harnesses run it in parallel across
 * devices.
 */
DeviceParts stageDevice(const touch::UserBehavior &behavior, int tiles,
                        double tile_side_mm, std::uint64_t screen_seed,
                        std::string flock_id,
                        const crypto::RsaPublicKey &ca_key,
                        std::uint64_t flock_seed, std::size_t rsa_bits);

/**
 * Provisioning step 2 (certify): the CA issues a FlockDevice
 * certificate to the module's own id and public key, and the module
 * installs it. Draws the CA's serial counter, so harnesses call it
 * serially in device order.
 */
void certifyFlock(crypto::CertificateAuthority &ca, FlockModule &flock);

/**
 * Send a server's reply from @p from_domain to @p to. A request that
 * waited in the server's admission queue is answered late by exactly
 * that queueing delay; the common zero-delay path is a direct send
 * with no extra event.
 */
void sendReply(core::EventQueue &queue, net::Network &network,
               const std::string &from_domain, const std::string &to,
               HandleResult handled);

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
 * natural browsing touches against @p server. The device and server
 * must already be attached to a network pumped by @p queue (an
 * Ecosystem's queue(), or a fleet channel's private queue). The
 * critical registration/login buttons are displayed over the
 * device's first sensor tile, per the paper's critical-button
 * countermeasure.
 *
 * @param finger physical finger doing the touching (the enrolled
 *               owner for genuine runs; another finger to play an
 *               impostor).
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
