/**
 * @file
 * Reproduces the **Fig. 8** remote-identity-management ecosystem at
 * scale: one CA, several TRUST web servers and a growing fleet of
 * FLock devices all registering, logging in and browsing. Reports
 * protocol success rates, wire traffic, and wall-clock simulation
 * throughput as the fleet grows, emitting the sweep through the
 * shared BENCH_*.json envelope (writeBenchJson) instead of ad-hoc
 * printf-only reporting.
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <chrono>
#include <cstdio>
#include <vector>

#include "core/csv.hh"
#include "core/rng.hh"
#include "fingerprint/synthesis.hh"
#include "touch/behavior.hh"
#include "trust/scenario.hh"

namespace core = trust::core;
namespace fp = trust::fingerprint;
namespace touch = trust::touch;
namespace proto = trust::trust;

namespace {

/** One fleet-size data point of the scaling sweep. */
struct ScalePoint
{
    int devices = 0;
    int servers = 0;
    int sessionsOk = 0;
    std::uint64_t pages = 0;
    std::uint64_t messages = 0;
    std::uint64_t wireBytes = 0;
    double wallSec = 0.0;
};

std::vector<ScalePoint>
runEcosystemScaling()
{
    std::vector<ScalePoint> points;
    for (int n_devices : {1, 2, 4, 8}) {
        const auto t0 = std::chrono::steady_clock::now();

        proto::EcosystemConfig config;
        config.seed = 80 + static_cast<std::uint64_t>(n_devices);
        proto::Ecosystem eco(config);
        const int n_servers = 2;
        std::vector<proto::WebServer *> servers;
        servers.push_back(&eco.addServer("www.bank.com"));
        servers.push_back(&eco.addServer("mail.example.com"));

        core::Rng rng(90 + static_cast<std::uint64_t>(n_devices));
        core::Rng finger_rng(91);
        const std::vector<touch::UiLayout> layouts = {
            touch::homeScreenLayout(), touch::keyboardLayout(),
            touch::browserLayout()};

        ScalePoint point;
        point.devices = n_devices;
        point.servers = n_servers;
        for (int d = 0; d < n_devices; ++d) {
            const auto finger = fp::synthesizeFinger(
                static_cast<std::uint64_t>(d) + 1, finger_rng);
            const auto behavior = touch::UserBehavior::forUser(
                static_cast<std::uint64_t>(d) + 1, layouts);
            auto &device = eco.addDevice(
                "phone-" + std::to_string(d), behavior, finger);
            auto &server =
                *servers[static_cast<std::size_t>(d % n_servers)];
            const auto outcome = proto::runBrowsingSession(
                eco.queue(), device, server, behavior, finger, rng, 10,
                "user" + std::to_string(d));
            if (outcome.registered && outcome.loggedIn)
                ++point.sessionsOk;
            point.pages += static_cast<std::uint64_t>(
                std::max(outcome.pagesReceived, 0));
        }

        point.messages = eco.network().messagesSent();
        point.wireBytes = eco.network().bytesSent();
        point.wallSec = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        points.push_back(point);
    }
    return points;
}

void
printEcosystemScaling(const std::vector<ScalePoint> &points)
{
    std::printf("=== Fig. 8 ecosystem: scaling the fleet ===\n");
    core::Table table({"devices", "servers", "sessions ok",
                       "pages served", "msgs", "wire KB",
                       "sim wall (s)"});
    for (const auto &p : points) {
        table.addRow(
            {std::to_string(p.devices), std::to_string(p.servers),
             std::to_string(p.sessionsOk) + "/" +
                 std::to_string(p.devices),
             std::to_string(p.pages), std::to_string(p.messages),
             core::Table::num(
                 static_cast<double>(p.wireBytes) / 1024.0, 1),
             core::Table::num(p.wallSec, 2)});
    }
    table.print();
    std::printf("\nEvery device independently binds, authenticates "
                "and browses; wire traffic grows linearly with the "
                "fleet (no cross-device state).\n");
}

void
writeJson(const std::vector<ScalePoint> &points)
{
    trust::benchutil::writeBenchJson(
        "BENCH_fig8.json", "fig8_ecosystem",
        [&](core::obs::JsonWriter &w) {
            w.key("results");
            w.beginArray();
            for (const auto &p : points) {
                w.beginObject();
                w.kv("devices", p.devices);
                w.kv("servers", p.servers);
                w.kv("sessions_ok", p.sessionsOk);
                w.kv("pages_served", p.pages);
                w.kv("messages", p.messages);
                w.kv("wire_bytes", p.wireBytes);
                w.kv("wall_s", p.wallSec);
                w.endObject();
            }
            w.endArray();
        });
}

void
BM_FullSession(benchmark::State &state)
{
    core::Rng finger_rng(99);
    const auto finger = fp::synthesizeFinger(1, finger_rng);
    const auto behavior = touch::UserBehavior::forUser(
        3, {touch::homeScreenLayout(), touch::browserLayout()});
    for (auto _ : state) {
        proto::EcosystemConfig config;
        config.seed = 123;
        proto::Ecosystem eco(config);
        auto &server = eco.addServer("www.bank.com");
        auto &device = eco.addDevice("phone", behavior, finger);
        core::Rng rng(7);
        auto outcome = proto::runBrowsingSession(
            eco.queue(), device, server, behavior, finger, rng, 5, "u");
        benchmark::DoNotOptimize(outcome);
    }
}
BENCHMARK(BM_FullSession)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    const auto obs_opts = trust::benchutil::parseObsFlags(argc, argv);
    const auto points = runEcosystemScaling();
    printEcosystemScaling(points);
    writeJson(points);
    std::printf("\n");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    trust::benchutil::writeObsOutputs(obs_opts);
    return 0;
}
