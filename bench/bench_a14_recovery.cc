/**
 * @file
 * Ablation **A14**: crash-recoverable persistent serving tier.
 *
 * Three experiments over the WAL + snapshot + admission stack:
 *
 *  1. Durable-store write/recovery cost: a fixed mutation workload
 *     appended under sync-every-record vs group-commit, then crashed
 *     and recovered with and without snapshots. Reports append
 *     throughput, sync counts, replayed records, and recovery wall
 *     time — the classic durability/latency trade, made measurable
 *     on the simulated disk.
 *
 *  2. Fleet crash/restart/recover replay at {1, 4, 16} worker
 *     threads: phase-1 fleet traffic persists through per-server
 *     TrustStores; the process "crashes" (unsynced bytes drop);
 *     phase-2 recovers every server from disk and serves a second
 *     generation. The phase-2 per-channel protocol outcomes must be
 *     identical at every thread count.
 *
 *  3. Overload admission sweep: bursts of concurrent requests at a
 *     single tick against an admission-enabled server. Reports
 *     admitted/shed per burst size and drives every shed request to
 *     eventual completion via retry-after backoff (100% completion
 *     or the bench fails).
 *
 * Writes BENCH_recovery.json.
 *
 * Flags: --mutations=N --devices=N (default 2000/8).
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/csv.hh"
#include "core/parallel.hh"
#include "crypto/csprng.hh"
#include "trust/fleet.hh"
#include "trust/store.hh"

namespace core = trust::core;
namespace proto = trust::trust;
namespace wal = trust::core::wal;

namespace {

struct RecoveryFlags
{
    int mutations = 2000;
    int devices = 8;
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

// ------------------------------------------------------------------ //
// Experiment 1: store append + recovery cost                          //
// ------------------------------------------------------------------ //

struct StoreRunStats
{
    std::string label;
    double appendSec = 0.0;
    std::uint64_t syncs = 0;
    std::size_t walBytes = 0;
    std::size_t segments = 0;
    std::uint64_t segmentsGcd = 0;
    std::size_t snapshots = 0;
    std::uint64_t snapshotBytes = 0;
    double recoverSec = 0.0;
    std::uint64_t replayed = 0;
    bool snapshotLoaded = false;
};

proto::StoredSession
benchSession(int i)
{
    proto::StoredSession s;
    s.account = "user" + std::to_string(i % 64);
    s.sessionKey = core::Bytes(32, static_cast<std::uint8_t>(i));
    s.expectedNonce = core::Bytes(16, static_cast<std::uint8_t>(i + 1));
    s.currentTag = "page/" + std::to_string(i % 7);
    s.lastRequestId = static_cast<std::uint64_t>(i);
    return s;
}

StoreRunStats
runStoreWorkload(const std::string &label, int mutations,
                 const proto::StorePolicy &policy)
{
    StoreRunStats stats;
    stats.label = label;
    wal::SimulatedStorage disk;
    {
        proto::TrustStore store(disk, "srv", policy);
        store.recover();
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < mutations; ++i) {
            switch (i % 4) {
              case 0:
                store.putAccount("user" + std::to_string(i % 64),
                                 core::Bytes(64, 1));
                break;
              case 1:
              case 2:
                store.putSession(
                    static_cast<std::uint64_t>(i % 128),
                    benchSession(i));
                break;
              default:
                store.eraseSession(
                    static_cast<std::uint64_t>(i % 128));
                break;
            }
        }
        stats.appendSec = secondsSince(t0);
        stats.snapshots = store.snapshotsWritten();
        stats.snapshotBytes = store.snapshotBytesWritten();
        stats.walBytes = store.logBytes();
        stats.segments = store.segmentCount();
        stats.segmentsGcd = store.segmentsGcd();
        store.publishMetrics();
    }
    stats.syncs = disk.syncCount();
    disk.crashClean();

    proto::TrustStore recovered(disk, "srv", policy);
    const auto t1 = std::chrono::steady_clock::now();
    const proto::RecoveryReport report = recovered.recover();
    stats.recoverSec = secondsSince(t1);
    stats.replayed = report.replayed;
    stats.snapshotLoaded = report.snapshotLoaded;
    return stats;
}

// ------------------------------------------------------------------ //
// Experiment 2: fleet crash/restart/recover replay                    //
// ------------------------------------------------------------------ //

struct FleetPhaseDecision
{
    bool registered = false;
    bool loggedIn = false;
    int pages = 0;
    std::uint64_t messages = 0;

    bool operator==(const FleetPhaseDecision &o) const = default;
};

struct FleetRecoveryStats
{
    int threads = 0;
    double phase1Sec = 0.0;
    double recoverSec = 0.0;
    double phase2Sec = 0.0;
    std::uint64_t replayed = 0;
    int sessionsOk = 0;
    std::vector<FleetPhaseDecision> decisions;
};

proto::FleetConfig
recoveryFleetConfig(const RecoveryFlags &flags,
                    wal::SimulatedStorage *disk)
{
    proto::FleetConfig config;
    config.seed = 1414;
    config.devices = flags.devices;
    config.servers = 2;
    config.clicks = 2;
    config.storage = disk;
    config.storePolicy.rotateBytes = 4096;
    config.storePolicy.compactionFactor = 1.0;
    return config;
}

FleetRecoveryStats
runFleetRecovery(const RecoveryFlags &flags, int threads)
{
    FleetRecoveryStats stats;
    stats.threads = threads;
    core::setParallelThreads(threads);

    wal::SimulatedStorage disk;
    {
        proto::Fleet fleet(recoveryFleetConfig(flags, &disk));
        const auto t0 = std::chrono::steady_clock::now();
        (void)fleet.run();
        stats.phase1Sec = secondsSince(t0);
    }
    disk.crashClean();

    const auto t1 = std::chrono::steady_clock::now();
    proto::Fleet fleet(recoveryFleetConfig(flags, &disk));
    stats.recoverSec = secondsSince(t1);
    for (int s = 0; s < fleet.serverCount(); ++s)
        stats.replayed += fleet.recovery(s).replayed;

    const auto t2 = std::chrono::steady_clock::now();
    const proto::FleetResult result = fleet.run();
    stats.phase2Sec = secondsSince(t2);
    stats.sessionsOk = result.sessionsOk;
    stats.decisions.reserve(result.channels.size());
    for (const auto &channel : result.channels) {
        stats.decisions.push_back({channel.outcome.registered,
                                   channel.outcome.loggedIn,
                                   channel.outcome.pagesReceived,
                                   channel.messages});
    }
    core::setParallelThreads(0);
    return stats;
}

// ------------------------------------------------------------------ //
// Experiment 3: overload admission sweep                              //
// ------------------------------------------------------------------ //

struct OverloadStats
{
    int burst = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    int drainRounds = 0; ///< retry-after rounds until all completed
};

OverloadStats
runOverloadBurst(int burst)
{
    OverloadStats stats;
    stats.burst = burst;

    trust::crypto::Csprng ca_rng(99);
    trust::crypto::CertificateAuthority ca("TrustRootCA", 512,
                                           ca_rng);
    proto::ServerPolicy policy;
    policy.admission.enabled = true; // defaults: 500 us / 20 ms
    proto::WebServer server("www.bench.com", ca, 14, 512, policy);

    // The whole burst lands on one tick; shed requests retry at the
    // server-provided retry-after hint (plus one service cost of
    // slack so drained lanes re-admit deterministically).
    struct PendingRequest
    {
        core::Bytes wire;
        std::string from;
        core::Tick due = 0;
    };
    std::vector<PendingRequest> pending;
    pending.reserve(static_cast<std::size_t>(burst));
    for (int i = 0; i < burst; ++i) {
        proto::RegistrationRequest request{
            static_cast<std::uint64_t>(i + 1), "www.bench.com",
            "user" + std::to_string(i)};
        pending.push_back({request.serialize(),
                           "device" + std::to_string(i),
                           core::seconds(1)});
    }

    while (!pending.empty()) {
        ++stats.drainRounds;
        std::vector<PendingRequest> retry;
        for (const PendingRequest &p : pending) {
            const proto::HandleResult result =
                server.handleTimed(p.wire, p.from, p.due);
            if (!result.rejected) {
                ++stats.admitted;
                continue;
            }
            ++stats.shed;
            const auto busy =
                proto::ServerBusy::deserialize(result.reply);
            const core::Tick wait =
                (busy ? busy->retryAfter : core::Tick{0}) +
                policy.admission.serviceCost;
            retry.push_back({p.wire, p.from, p.due + wait});
        }
        pending = std::move(retry);
        if (stats.drainRounds > 1000)
            break; // wedged — reported as incomplete below
    }
    return stats;
}

// ------------------------------------------------------------------ //
// Reporting                                                           //
// ------------------------------------------------------------------ //

void
writeJson(const RecoveryFlags &flags,
          const std::vector<StoreRunStats> &stores,
          const std::vector<FleetRecoveryStats> &fleets,
          bool identical, const std::vector<OverloadStats> &bursts,
          bool allCompleted)
{
    trust::benchutil::writeBenchJson(
        "BENCH_recovery.json", "a14_recovery",
        [&](core::obs::JsonWriter &w) {
            w.kv("hardware_threads",
                 static_cast<std::uint64_t>(
                     std::thread::hardware_concurrency()));
            w.kv("mutations", flags.mutations);
            w.kv("devices", flags.devices);
            w.kv("identical_phase2_decisions", identical);
            w.kv("overload_all_completed", allCompleted);
            w.key("store_runs");
            w.beginArray();
            for (const auto &s : stores) {
                w.beginObject();
                w.kv("label", s.label);
                w.kv("append_s", s.appendSec);
                w.kv("syncs", s.syncs);
                w.kv("wal_bytes",
                     static_cast<std::uint64_t>(s.walBytes));
                w.kv("segments",
                     static_cast<std::uint64_t>(s.segments));
                w.kv("segments_gcd", s.segmentsGcd);
                w.kv("snapshots",
                     static_cast<std::uint64_t>(s.snapshots));
                w.kv("snapshot_bytes", s.snapshotBytes);
                w.kv("recover_s", s.recoverSec);
                w.kv("replayed", s.replayed);
                w.kv("snapshot_loaded", s.snapshotLoaded);
                w.endObject();
            }
            w.endArray();
            w.key("fleet_recovery");
            w.beginArray();
            for (const auto &f : fleets) {
                w.beginObject();
                w.kv("threads", f.threads);
                w.kv("phase1_s", f.phase1Sec);
                w.kv("recover_s", f.recoverSec);
                w.kv("phase2_s", f.phase2Sec);
                w.kv("replayed", f.replayed);
                w.kv("sessions_ok", f.sessionsOk);
                w.endObject();
            }
            w.endArray();
            w.key("overload");
            w.beginArray();
            for (const auto &b : bursts) {
                w.beginObject();
                w.kv("burst", b.burst);
                w.kv("admitted", b.admitted);
                w.kv("shed", b.shed);
                w.kv("drain_rounds", b.drainRounds);
                w.endObject();
            }
            w.endArray();
        });
}

void
runAll(const RecoveryFlags &flags)
{
    std::printf("=== A14: crash-recoverable persistent serving tier "
                "===\n\n");

    // 1. Store append/recovery cost under the two sync policies.
    proto::StorePolicy every_record; // defaults
    proto::StorePolicy group16;
    group16.sync = wal::SyncPolicy::groupCommit(16);
    // Eager compaction: 1 KiB segments and no growth factor, so each
    // shard snapshots on (nearly) every segment roll.
    proto::StorePolicy snapshotting;
    snapshotting.rotateBytes = 1024;
    snapshotting.compactionFactor = 0.0;

    std::vector<StoreRunStats> stores;
    stores.push_back(runStoreWorkload("sync-every-record",
                                      flags.mutations, every_record));
    stores.push_back(
        runStoreWorkload("group-commit-16", flags.mutations, group16));
    stores.push_back(runStoreWorkload(
        "every-record+compact1K", flags.mutations, snapshotting));

    core::Table store_table({"policy", "append", "syncs", "wal KiB",
                             "snaps", "recover", "replayed"});
    for (const auto &s : stores) {
        store_table.addRow(
            {s.label, core::Table::num(s.appendSec * 1e3, 2) + " ms",
             std::to_string(s.syncs),
             core::Table::num(
                 static_cast<double>(s.walBytes) / 1024.0, 1),
             std::to_string(s.snapshots),
             core::Table::num(s.recoverSec * 1e3, 2) + " ms",
             std::to_string(s.replayed)});
    }
    store_table.print();

    // 2. Fleet crash/restart/recover at 1/4/16 threads.
    std::printf("\nfleet crash/restart/recover (%d devices, 2 "
                "servers):\n",
                flags.devices);
    std::vector<FleetRecoveryStats> fleets;
    for (const int threads : {1, 4, 16})
        fleets.push_back(runFleetRecovery(flags, threads));

    bool identical = true;
    for (const auto &f : fleets)
        identical =
            identical && f.decisions == fleets.front().decisions;

    core::Table fleet_table({"threads", "phase1", "recover",
                             "phase2", "replayed", "sessions ok"});
    for (const auto &f : fleets) {
        fleet_table.addRow(
            {std::to_string(f.threads),
             core::Table::num(f.phase1Sec, 2) + " s",
             core::Table::num(f.recoverSec * 1e3, 2) + " ms",
             core::Table::num(f.phase2Sec, 2) + " s",
             std::to_string(f.replayed),
             std::to_string(f.sessionsOk) + "/" +
                 std::to_string(flags.devices)});
    }
    fleet_table.print();
    std::printf("phase-2 decisions identical across thread counts: "
                "%s\n",
                identical ? "yes" : "NO (determinism violation)");

    // 3. Overload sweep: queued, then rejected, then completed.
    std::printf("\noverload admission sweep (500 us service cost, "
                "20 ms queue bound):\n");
    std::vector<OverloadStats> bursts;
    bool all_completed = true;
    core::Table overload_table(
        {"burst", "admitted", "shed", "drain rounds", "completed"});
    // The 20 ms queue bound holds 40 requests per admission lane;
    // 4 lanes saturate at ~160 concurrent requests, so the sweep
    // spans under-, near-, and far-over-capacity bursts.
    for (const int burst : {32, 256, 1024}) {
        bursts.push_back(runOverloadBurst(burst));
        const auto &b = bursts.back();
        const bool completed =
            b.admitted == static_cast<std::uint64_t>(b.burst);
        all_completed = all_completed && completed;
        overload_table.addRow(
            {std::to_string(b.burst), std::to_string(b.admitted),
             std::to_string(b.shed), std::to_string(b.drainRounds),
             completed ? "yes" : "NO"});
    }
    overload_table.print();
    std::printf("all bursts eventually completed: %s\n",
                all_completed ? "yes" : "NO");

    writeJson(flags, stores, fleets, identical, bursts,
              all_completed);
}

/** Raw WAL append+sync microbenchmark on the simulated disk. */
void
BM_WalAppendSynced(benchmark::State &state)
{
    wal::SimulatedStorage disk;
    wal::WalWriter writer(disk, "log");
    const core::Bytes payload(128, 0x5A);
    for (auto _ : state) {
        writer.append(payload);
        benchmark::DoNotOptimize(disk.size("log"));
    }
}
BENCHMARK(BM_WalAppendSynced)->Unit(benchmark::kMicrosecond);

RecoveryFlags
parseRecoveryFlags(int &argc, char **argv)
{
    RecoveryFlags flags;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const auto match = [&](std::string_view prefix, int &dest) {
            if (arg.substr(0, prefix.size()) != prefix)
                return false;
            dest = std::atoi(
                std::string(arg.substr(prefix.size())).c_str());
            return true;
        };
        if (match("--mutations=", flags.mutations) ||
            match("--devices=", flags.devices))
            continue;
        argv[out++] = argv[i];
    }
    argc = out;
    flags.mutations = std::max(flags.mutations, 1);
    flags.devices = std::max(flags.devices, 1);
    return flags;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto obs_opts = trust::benchutil::parseObsFlags(argc, argv);
    const RecoveryFlags flags = parseRecoveryFlags(argc, argv);
    runAll(flags);
    std::printf("\n");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    trust::benchutil::writeObsOutputs(obs_opts);
    return 0;
}
