/** @file Fleet-scale serving: concurrent device↔server channels on
 *  the sharded WebServer must produce (a) byte-identical merged audit
 *  logs across worker-thread counts, pinned by a committed golden,
 *  and (b) identical protocol decisions under a many-channels/
 *  few-servers stress load (the stress test is part of the TSan CI
 *  job).
 *
 *  Regenerate the golden after an intentional format change with
 *      TRUST_UPDATE_GOLDEN=1 ctest -R Fleet
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/obs/obs.hh"
#include "core/parallel.hh"
#include "trust/fleet.hh"

namespace {

namespace obs = trust::core::obs;
using trust::trust::Fleet;
using trust::trust::FleetConfig;
using trust::trust::FleetHooks;
using trust::trust::FleetResult;

FleetConfig
smallFleetConfig()
{
    FleetConfig config;
    config.seed = 9100;
    config.devices = 5;
    config.servers = 2;
    config.clicks = 2;
    return config;
}

/** One fault-free fleet run with the audit log captured. */
std::string
runFleetAudit(int threads)
{
    trust::core::setParallelThreads(threads);
    obs::resetAll();
    obs::setEnabled(true);
    {
        Fleet fleet(smallFleetConfig());
        const FleetResult result = fleet.run();
        EXPECT_EQ(result.channels.size(), 5u);
        EXPECT_EQ(result.sessionsOk, 5);
    }
    obs::setEnabled(false);
    std::string log = obs::audit().serialize();
    obs::resetAll();
    trust::core::setParallelThreads(0);
    return log;
}

std::string
goldenPath()
{
    return std::string(TRUST_SOURCE_DIR) +
           "/tests/golden/fleet_audit.golden";
}

TEST(Fleet, GoldenByteIdenticalAcrossThreadCounts)
{
    const std::string log1 = runFleetAudit(1);
    const std::string log4 = runFleetAudit(4);
    const std::string log16 = runFleetAudit(16);

    // The merged audit log is a pure function of simulation data:
    // per-channel buffers ordered by (tick, channel, seq), never by
    // scheduling order.
    EXPECT_EQ(log1, log4);
    EXPECT_EQ(log1, log16);

    // Every channel's protocol activity is present in the merge.
    ASSERT_FALSE(log1.empty());
    for (int d = 0; d < 5; ++d) {
        EXPECT_NE(log1.find("fleet-phone-" + std::to_string(d)),
                  std::string::npos)
            << "channel " << d << " missing from merged audit";
    }

    // Records stay a well-formed audit stream after the merge:
    // dense seq, monotone ticks.
    const auto records = obs::AuditLog::parse(log1);
    ASSERT_TRUE(records.has_value());
    ASSERT_GT(records->size(), 20u);
    for (std::size_t i = 0; i < records->size(); ++i) {
        EXPECT_EQ((*records)[i].seq, i);
        if (i > 0) {
            EXPECT_GE((*records)[i].tick, (*records)[i - 1].tick);
        }
    }

    if (std::getenv("TRUST_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(goldenPath(), std::ios::binary);
        ASSERT_TRUE(out.good()) << goldenPath();
        out << log1;
        GTEST_SKIP() << "golden regenerated at " << goldenPath();
    }

    std::ifstream in(goldenPath(), std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden; run with TRUST_UPDATE_GOLDEN=1";
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(log1, buf.str())
        << "fleet audit log drifted from the committed golden; if "
           "the change is intentional regenerate with "
           "TRUST_UPDATE_GOLDEN=1";
}

/** Snapshot of the decisions a fleet run produced. */
struct Decisions
{
    std::vector<int> pages;
    std::vector<std::uint64_t> messages;
    int sessionsOk = 0;
    std::uint64_t dispatches = 0;

    bool operator==(const Decisions &o) const = default;
};

Decisions
decisionsOf(const FleetResult &result)
{
    Decisions d;
    d.sessionsOk = result.sessionsOk;
    d.dispatches = result.dispatches;
    for (const auto &channel : result.channels) {
        d.pages.push_back(channel.outcome.pagesReceived);
        d.messages.push_back(channel.messages);
    }
    return d;
}

/**
 * Many channels, one shared server: the worst-case contention shape
 * for the sharded tables. Run under TSan in CI; here we also assert
 * the outcome is thread-count independent and every dispatch fired
 * its hooks.
 */
TEST(Fleet, ConcurrentDispatchStress)
{
    FleetConfig config;
    config.seed = 9200;
    config.devices = 8;
    config.servers = 1; // all channels hammer the same server
    config.clicks = 3;

    obs::setEnabled(false);

    const auto runAt = [&](int threads, std::atomic<std::uint64_t> *counted) {
        trust::core::setParallelThreads(threads);
        FleetHooks hooks;
        if (counted != nullptr) {
            hooks.beforeDispatch = [counted](int) {
                counted->fetch_add(1, std::memory_order_relaxed);
            };
        }
        Fleet fleet(config, hooks);
        const FleetResult result = fleet.run();
        trust::core::setParallelThreads(0);
        return result;
    };

    std::atomic<std::uint64_t> hookCalls{0};
    const FleetResult serial = runAt(1, nullptr);
    const FleetResult wide = runAt(16, &hookCalls);

    EXPECT_EQ(serial.sessionsOk, 8);
    EXPECT_EQ(decisionsOf(serial), decisionsOf(wide));
    EXPECT_EQ(hookCalls.load(), wide.dispatches);
    EXPECT_GT(wide.dispatches, 0u);

    // The shared server saw every channel's session. Device-side
    // re-requests leave a few superseded handshake nonces behind —
    // they stay under the policy bound and TTL expiry clears them.
    Fleet probe(config);
    (void)probe.run();
    EXPECT_EQ(probe.serverCount(), 1);
    EXPECT_EQ(probe.server(0).activeSessions(), 8u);
    EXPECT_LE(probe.server(0).pendingHandshakes(),
              trust::trust::ServerPolicy{}.maxPendingHandshakes);
    probe.server(0).expireHandshakes(trust::core::seconds(100000));
    EXPECT_EQ(probe.server(0).pendingHandshakes(), 0u);
}

// --- Synthetic population ------------------------------------------------

TEST(Population, IsSeedDeterministic)
{
    using trust::trust::PopulationConfig;
    using trust::trust::PopulationStats;
    using trust::trust::TrustStore;
    using trust::trust::StorePolicy;

    PopulationConfig config;
    config.seed = 42;
    config.accounts = 500;
    config.events = 3000;

    std::vector<std::string> digests;
    std::vector<PopulationStats> stats;
    for (int run = 0; run < 2; ++run) {
        trust::core::wal::SimulatedStorage disk;
        TrustStore store(disk, "pop");
        store.recover();
        stats.push_back(trust::trust::runPopulation(store, config));
        digests.push_back(store.stateDigest());
    }
    EXPECT_EQ(digests[0], digests[1]);
    EXPECT_EQ(stats[0].sessionRefreshes, stats[1].sessionRefreshes);
    EXPECT_EQ(stats[0].sessionErases, stats[1].sessionErases);
    EXPECT_EQ(stats[0].accountRotations, stats[1].accountRotations);
    EXPECT_EQ(stats[0].events, config.events);
    EXPECT_EQ(stats[0].liveAccounts, config.accounts);
    // One session per account, minus whoever's last event was a
    // logout — never more than the population.
    EXPECT_LE(stats[0].liveSessions, config.accounts);
    EXPECT_GT(stats[0].liveSessions, 0u);

    // A different seed must actually change the workload.
    trust::core::wal::SimulatedStorage disk;
    TrustStore store(disk, "pop");
    store.recover();
    config.seed = 43;
    (void)trust::trust::runPopulation(store, config);
    EXPECT_NE(store.stateDigest(), digests[0]);
}

TEST(Population, WorkloadIsShardLayoutInvariant)
{
    using trust::trust::PopulationConfig;
    using trust::trust::TrustStore;
    using trust::trust::StorePolicy;

    PopulationConfig config;
    config.seed = 7;
    config.accounts = 400;
    config.events = 2000;

    std::vector<std::string> digests;
    for (const std::size_t shards : {std::size_t{1}, std::size_t{16}}) {
        trust::core::wal::SimulatedStorage disk;
        StorePolicy policy;
        policy.shards = shards;
        policy.rotateBytes = 4096;
        TrustStore store(disk, "pop", policy);
        store.recover();
        (void)trust::trust::runPopulation(store, config);
        digests.push_back(store.stateDigest());
    }
    EXPECT_EQ(digests[0], digests[1]);
}

TEST(Population, FlashCrowdConcentratesOnTheHotSet)
{
    using trust::trust::PopulationConfig;
    using trust::trust::TrustStore;

    // With the crowd biased to the hot set, hot accounts must see a
    // strictly larger share of refreshes than under pure Zipf with
    // the same seed. Measure via session lastRequestId generations.
    const auto hotRefreshes = [](bool flash_crowd) {
        PopulationConfig config;
        config.seed = 11;
        config.accounts = 1000;
        config.events = 8000;
        config.flashCrowd = flash_crowd;
        config.flashCrowdBias = 0.95;
        trust::core::wal::SimulatedStorage disk;
        TrustStore store(disk, "pop");
        store.recover();
        (void)trust::trust::runPopulation(store, config);
        std::uint64_t hot = 0;
        const auto state = store.state();
        for (const auto &[id, row] : state.sessions)
            if (id <= 32) // hot set = top Zipf ranks
                hot += row.lastRequestId;
        return hot;
    };
    EXPECT_GT(hotRefreshes(true), hotRefreshes(false));
}

TEST(Population, FleetTrafficNeverTouchesTheDigest)
{
    // The serving path (real fleet traffic through WebServer into
    // the persistent tier) must never compute a state digest — the
    // store pins it as a recovery/test-only operation.
    trust::core::wal::SimulatedStorage disk;
    FleetConfig config;
    config.devices = 4;
    config.servers = 2;
    config.clicks = 1;
    config.storage = &disk;
    Fleet fleet(config);
    (void)fleet.run();
    for (int s = 0; s < fleet.serverCount(); ++s) {
        ASSERT_NE(fleet.store(s), nullptr);
        EXPECT_EQ(fleet.store(s)->digestCalls(), 0u);
    }
}

} // namespace
