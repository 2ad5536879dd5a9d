/**
 * @file
 * trust_sim: configurable command-line driver for the whole stack.
 *
 * Runs a parameterized ecosystem simulation and prints a summary —
 * the knobs the benches sweep, exposed for ad-hoc exploration.
 *
 * Usage:
 *   trust_sim [--devices N] [--clicks N] [--tiles N] [--tile-mm X]
 *             [--seed N] [--attack none|replay|tamper|mitm|malware]
 *             [--rsa-bits N]
 *
 * Examples:
 *   trust_sim --devices 4 --clicks 50
 *   trust_sim --attack malware --clicks 30
 *   trust_sim --tiles 8 --tile-mm 10 --attack replay
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/rng.hh"
#include "fingerprint/synthesis.hh"
#include "net/adversary.hh"
#include "touch/behavior.hh"
#include "trust/scenario.hh"

namespace core = trust::core;
namespace fp = trust::fingerprint;
namespace net = trust::net;
namespace touch = trust::touch;
namespace proto = trust::trust;

namespace {

struct Options
{
    int devices = 1;
    int clicks = 20;
    int tiles = 4;
    double tileMm = 7.0;
    std::uint64_t seed = 1;
    std::size_t rsaBits = 512;
    std::string attack = "none";
};

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--devices N] [--clicks N] [--tiles N] "
                 "[--tile-mm X] [--seed N]\n"
                 "          [--attack none|replay|tamper|mitm|malware] "
                 "[--rsa-bits N]\n",
                 argv0);
}

bool
parse(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *name) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", name);
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--devices") {
            const char *v = next("--devices");
            if (!v)
                return false;
            opt.devices = std::atoi(v);
        } else if (arg == "--clicks") {
            const char *v = next("--clicks");
            if (!v)
                return false;
            opt.clicks = std::atoi(v);
        } else if (arg == "--tiles") {
            const char *v = next("--tiles");
            if (!v)
                return false;
            opt.tiles = std::atoi(v);
        } else if (arg == "--tile-mm") {
            const char *v = next("--tile-mm");
            if (!v)
                return false;
            opt.tileMm = std::atof(v);
        } else if (arg == "--seed") {
            const char *v = next("--seed");
            if (!v)
                return false;
            opt.seed = static_cast<std::uint64_t>(std::atoll(v));
        } else if (arg == "--rsa-bits") {
            const char *v = next("--rsa-bits");
            if (!v)
                return false;
            opt.rsaBits = static_cast<std::size_t>(std::atoi(v));
        } else if (arg == "--attack") {
            const char *v = next("--attack");
            if (!v)
                return false;
            opt.attack = v;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return false;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage(argv[0]);
            return false;
        }
    }
    if (opt.devices < 1 || opt.clicks < 0 || opt.tiles < 1 ||
        opt.tileMm <= 0.0 || opt.rsaBits < 128) {
        std::fprintf(stderr, "invalid option values\n");
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parse(argc, argv, opt))
        return 2;

    std::printf("trust_sim: %d device(s), %d clicks, %d x %.1f mm "
                "tiles, attack=%s, RSA-%zu, seed=%llu\n\n",
                opt.devices, opt.clicks, opt.tiles, opt.tileMm,
                opt.attack.c_str(), opt.rsaBits,
                static_cast<unsigned long long>(opt.seed));

    proto::EcosystemConfig config;
    config.seed = opt.seed;
    config.sensorTiles = opt.tiles;
    config.tileSideMm = opt.tileMm;
    config.rsaBits = opt.rsaBits;
    proto::Ecosystem eco(config);
    auto &server = eco.addServer("www.bank.com");

    std::shared_ptr<net::ReplayAttacker> replayer;
    if (opt.attack == "replay") {
        replayer = std::make_shared<net::ReplayAttacker>(
            eco.network(), "www.bank.com");
        eco.network().setAdversary(replayer);
    } else if (opt.attack == "tamper") {
        eco.network().setAdversary(std::make_shared<net::Tamperer>(
            core::Rng(opt.seed), 0.3, 2));
    } else if (opt.attack == "mitm") {
        proto::PageRequest forged;
        forged.domain = "www.bank.com";
        forged.mac = core::Bytes(32, 0);
        eco.network().setAdversary(
            std::make_shared<net::MitmSubstitutor>(
                "www.bank.com", forged.serialize()));
    } else if (opt.attack != "none" && opt.attack != "malware") {
        std::fprintf(stderr, "unknown attack '%s'\n",
                     opt.attack.c_str());
        return 2;
    }

    core::Rng rng(opt.seed * 7 + 3);
    core::Rng finger_rng(opt.seed * 11 + 5);
    const std::vector<touch::UiLayout> layouts = {
        touch::homeScreenLayout(), touch::keyboardLayout(),
        touch::browserLayout()};

    int sessions_ok = 0;
    std::uint64_t pages = 0;
    for (int d = 0; d < opt.devices; ++d) {
        const auto finger = fp::synthesizeFinger(
            static_cast<std::uint64_t>(d) + 1, finger_rng);
        const auto behavior = touch::UserBehavior::forUser(
            opt.seed * 31 + static_cast<std::uint64_t>(d), layouts);
        auto &device = eco.addDevice("phone-" + std::to_string(d),
                                     behavior, finger);
        if (opt.attack == "malware") {
            proto::MalwareProfile malware;
            malware.forgeRequests = true;
            malware.tamperFrames = true;
            device.setMalware(malware);
        }
        const auto outcome = proto::runBrowsingSession(
            eco.queue(), device, server, behavior, finger, rng, opt.clicks,
            "user" + std::to_string(d));
        std::printf("phone-%d: registered=%d loggedIn=%d pages=%d "
                    "rejected=%d coverage=%.1f%%\n",
                    d, outcome.registered, outcome.loggedIn,
                    outcome.pagesReceived, outcome.requestsRejected,
                    device.screen().coverageFraction() * 100.0);
        if (outcome.registered && outcome.loggedIn)
            ++sessions_ok;
        pages += static_cast<std::uint64_t>(
            std::max(outcome.pagesReceived, 0));
    }
    eco.settle();

    std::printf("\n--- summary ---\n");
    std::printf("sessions ok:        %d/%d\n", sessions_ok,
                opt.devices);
    std::printf("pages served:       %llu\n",
                static_cast<unsigned long long>(pages));
    std::printf("network messages:   %llu (%llu KB)\n",
                static_cast<unsigned long long>(
                    eco.network().messagesSent()),
                static_cast<unsigned long long>(
                    eco.network().bytesSent() / 1024));
    if (replayer)
        std::printf("replays injected:   %llu\n",
                    static_cast<unsigned long long>(
                        replayer->replaysInjected()));
    std::printf("audit:              %zu mismatches in %zu frames\n",
                server.auditFrameHashes(), server.auditLogSize());
    std::printf("\nserver counters:\n");
    const auto server_counters = server.counters();
    for (const auto &[name, value] : server_counters.all())
        std::printf("  %-36s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
    return 0;
}
