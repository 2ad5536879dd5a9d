/** @file Decision-audit replay: a seeded end-to-end session (registration,
 *  login, browsing, a thief takeover, transport faults) must produce a
 *  byte-identical audit log across reruns AND across worker-thread
 *  counts, matching the committed golden. The log alone must explain
 *  why the session locked. Also fuzz-sweeps the audit and trace
 *  readers over real artifacts.
 *
 *  Regenerate the golden after an intentional format change with
 *      TRUST_UPDATE_GOLDEN=1 ctest -R AuditReplay
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/obs/obs.hh"
#include "core/parallel.hh"
#include "core/rng.hh"
#include "net/faults.hh"
#include "tests/support/fuzz.hh"
#include "tests/trust/fixtures.hh"
#include "touch/behavior.hh"
#include "trust/scenario.hh"

namespace {

namespace obs = trust::core::obs;
using trust::core::Rng;
using trust::net::FaultConfig;
using trust::net::FaultModel;
using trust::testing::trustFingers;
using trust::trust::Ecosystem;
using trust::trust::EcosystemConfig;
using trust::trust::runBrowsingSession;

struct ScenarioArtifacts
{
    std::string audit;
    std::string trace;
};

/**
 * One seeded session: register + log in + browse with the owner,
 * through a mildly lossy network, then hand the phone to a thief
 * until the risk window trips. Everything the trust stack decides
 * lands in the audit log.
 */
ScenarioArtifacts
runScenario()
{
    obs::resetAll();
    obs::setEnabled(true);
    {
        EcosystemConfig config;
        config.seed = 1200;
        Ecosystem eco(config);
        auto &server = eco.addServer("www.bank.com");
        const auto behavior = trust::touch::UserBehavior::forUser(
            21, {trust::touch::homeScreenLayout(),
                 trust::touch::keyboardLayout()});
        auto &device =
            eco.addDevice("phone-audit", behavior, trustFingers()[0]);

        // A mildly hostile transport so retry/backoff decisions show
        // up in the log too (seeded: fully deterministic).
        FaultConfig faults;
        faults.dropRate = 0.10;
        eco.network().setFaultModel(
            std::make_shared<FaultModel>(1201, faults));

        Rng rng(1202);
        (void)runBrowsingSession(eco.queue(), device, server, behavior,
                                 trustFingers()[0], rng, 10, "alice");

        // Thief takeover: deliberate on-sensor touches with a finger
        // that was never enrolled, until k-of-n trips.
        trust::touch::TouchEvent touch;
        touch.position =
            device.screen().sensors()[0].region.center();
        touch.speed = 0.05;
        touch.gesture = trust::touch::GestureType::Tap;
        for (int i = 0; i < 12; ++i) {
            device.onTouch(touch, &trustFingers()[1]);
            eco.settle();
        }
    }
    obs::setEnabled(false);
    ScenarioArtifacts out{obs::audit().serialize(),
                          obs::tracer().toChromeJson()};
    obs::resetAll();
    return out;
}

std::string
goldenPath()
{
    return std::string(TRUST_SOURCE_DIR) +
           "/tests/golden/decision_audit.golden";
}

TEST(AuditReplay, GoldenByteIdenticalAcrossThreadCounts)
{
    trust::core::setParallelThreads(1);
    const std::string log1 = runScenario().audit;
    trust::core::setParallelThreads(4);
    const std::string log4 = runScenario().audit;
    trust::core::setParallelThreads(0); // back to automatic

    // Decisions — and their audit trail — do not depend on the
    // worker-thread count.
    EXPECT_EQ(log1, log4);

    // The log explains the lock: touches stopped matching and the
    // risk window tripped.
    EXPECT_NE(log1.find("kind=touch"), std::string::npos);
    EXPECT_NE(log1.find("outcome=rejected"), std::string::npos);
    EXPECT_NE(log1.find("kind=risk-transition"), std::string::npos);
    EXPECT_NE(log1.find("violated=1"), std::string::npos);
    EXPECT_NE(log1.find("kind=verdict"), std::string::npos);
    EXPECT_NE(log1.find("kind=exchange-begin"), std::string::npos);

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
        << "audit log drifted from the committed golden; if the "
           "change is intentional regenerate with "
           "TRUST_UPDATE_GOLDEN=1";
}

TEST(AuditReplay, AuditLogRoundTripsAndSurvivesFuzz)
{
    const std::string text = runScenario().audit;
    ASSERT_FALSE(text.empty());

    // Total parse, then line-exact re-serialisation.
    const auto records = obs::AuditLog::parse(text);
    ASSERT_TRUE(records.has_value());
    ASSERT_GT(records->size(), 20u);
    std::string rebuilt;
    for (const auto &r : *records) {
        rebuilt += obs::AuditLog::serializeRecord(r);
        rebuilt += '\n';
    }
    EXPECT_EQ(rebuilt, text);

    // Sequence numbers are dense and ticks never go backwards.
    for (std::size_t i = 0; i < records->size(); ++i) {
        EXPECT_EQ((*records)[i].seq, i);
        if (i > 0) {
            EXPECT_GE((*records)[i].tick, (*records)[i - 1].tick);
        }
    }

    // Hardened reader: truncations and bit flips never crash.
    trust::testing::truncationSweep(text, [](const std::string &cut) {
        (void)obs::AuditLog::parse(cut);
    });
    Rng rng(1203);
    trust::testing::bitFlipSweep(
        text, rng,
        [](const std::string &flipped) {
            (void)obs::AuditLog::parse(flipped);
        },
        256);

    // Targeted malformations are rejected, not mis-parsed.
    EXPECT_FALSE(obs::AuditLog::parseLine("").has_value());
    EXPECT_FALSE(
        obs::AuditLog::parseLine("seq=0 t=1 actor=a").has_value());
    EXPECT_FALSE(obs::AuditLog::parseLine(
                     "t=1 seq=0 actor=a kind=k x=1")
                     .has_value()); // prefix order is fixed
    EXPECT_FALSE(obs::AuditLog::parseLine(
                     "seq=zero t=1 actor=a kind=k x=1")
                     .has_value());
    EXPECT_FALSE(obs::AuditLog::parseLine(
                     "seq=0  t=1 actor=a kind=k x=1")
                     .has_value()); // double space = empty token
}

TEST(AuditReplay, TraceExportNestsPipelineSpans)
{
    const std::string trace = runScenario().trace;
    const auto events = obs::parseChromeTrace(trace);
    ASSERT_TRUE(events.has_value());
    ASSERT_FALSE(events->empty());

    // Touch processing appears as complete spans, and each template
    // match nests inside some flock/process-touch span.
    bool sawExtract = false, sawNested = false;
    for (const auto &outer : *events) {
        if (outer.name != "flock/process-touch" || outer.phase != "X")
            continue;
        sawExtract = true;
        for (const auto &inner : *events) {
            if (inner.name != "flock/match" || inner.phase != "X")
                continue;
            if (inner.ts >= outer.ts &&
                inner.ts + inner.dur <= outer.ts + outer.dur) {
                sawNested = true;
                break;
            }
        }
        if (sawNested)
            break;
    }
    EXPECT_TRUE(sawExtract);
    EXPECT_TRUE(sawNested);

    // The protocol exchanges show up as id-matched async pairs.
    int begins = 0, ends = 0;
    for (const auto &e : *events) {
        if (e.name == "device/exchange")
            (e.phase == "b" ? begins : ends) += 1;
    }
    EXPECT_GT(begins, 0);
    EXPECT_GT(ends, 0);

    // The trace reader survives the same fuzz families.
    trust::testing::truncationSweep(
        trace,
        [](const std::string &cut) {
            (void)obs::parseChromeTrace(cut);
        },
        32);
    Rng rng(1204);
    trust::testing::bitFlipSweep(
        trace, rng,
        [](const std::string &flipped) {
            (void)obs::parseChromeTrace(flipped);
        },
        64);
}

} // namespace
