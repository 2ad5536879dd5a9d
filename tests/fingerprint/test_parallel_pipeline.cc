/**
 * @file
 * Determinism and caching tests for the fingerprint pipeline under
 * capture-level parallelism: the kernels run serially inside one
 * capture, and many captures run concurrently on the pool (as fleet
 * channels do). Every capture must produce bitwise-identical
 * templates and match scores whether it ran alone or beside others,
 * the Gabor kernel-bank cache must be reused across extractions,
 * and a deserialized template must rebuild its memoized pair index
 * transparently.
 */

#include <gtest/gtest.h>

#include "core/parallel.hh"
#include "fingerprint/capture.hh"
#include "fingerprint/enhance.hh"
#include "fingerprint/matcher.hh"
#include "fingerprint/pipeline.hh"
#include "tests/fingerprint/fixtures.hh"

namespace {

using trust::core::parallelFor;
using trust::core::Rng;
using trust::core::setParallelThreads;
using trust::fingerprint::captureImpression;
using trust::fingerprint::CaptureConditions;
using trust::fingerprint::extractTemplate;
using trust::fingerprint::FingerprintTemplate;
using trust::fingerprint::matchBestTemplate;
using trust::fingerprint::matchMinutiae;
using trust::fingerprint::matchTemplate;
using trust::fingerprint::matchTemplatesBatch;
using trust::testing::fingerPool;

/** Restores automatic pool sizing when a test returns. */
struct ThreadGuard
{
    ~ThreadGuard() { setParallelThreads(0); }
};

CaptureConditions
goodConditions()
{
    CaptureConditions cc;
    cc.windowRows = 80;
    cc.windowCols = 80;
    cc.pressure = 1.0;
    cc.motionBlur = 0.0;
    cc.noiseSigma = 0.02;
    return cc;
}

/** A deterministic impression (fresh Rng per call, same seed). */
trust::fingerprint::FingerprintImage
impression(std::uint64_t seed, std::size_t finger = 0)
{
    Rng rng(seed);
    return captureImpression(fingerPool()[finger], goodConditions(),
                             rng);
}

/** Extract every capture, one pool task per capture. */
std::vector<std::optional<FingerprintTemplate>>
extractAll(const std::vector<trust::fingerprint::FingerprintImage> &imgs)
{
    std::vector<std::optional<FingerprintTemplate>> out(imgs.size());
    parallelFor(0, static_cast<int>(imgs.size()), 1, [&](int b, int e) {
        for (int i = b; i < e; ++i)
            out[static_cast<std::size_t>(i)] =
                extractTemplate(imgs[static_cast<std::size_t>(i)]);
    });
    return out;
}

TEST(ParallelPipeline, ExtractionIdenticalAcrossThreadCounts)
{
    ThreadGuard guard;
    std::vector<trust::fingerprint::FingerprintImage> imgs;
    for (std::uint64_t s = 0; s < 8; ++s)
        imgs.push_back(impression(42 + s, s % 2));

    setParallelThreads(1);
    const auto serial = extractAll(imgs);
    ASSERT_TRUE(serial.front().has_value());

    for (const int threads : {2, 4, 8}) {
        setParallelThreads(threads);
        // Bitwise equality: minutiae positions/angles and the
        // quality score, not approximate closeness.
        EXPECT_EQ(extractAll(imgs), serial) << "threads=" << threads;
    }
}

TEST(ParallelPipeline, MatchScoresIdenticalAcrossThreadCounts)
{
    ThreadGuard guard;
    std::vector<FingerprintTemplate> views;
    for (std::uint64_t s = 0; s < 4; ++s) {
        auto tpl = extractTemplate(impression(50 + s, s % 2));
        ASSERT_TRUE(tpl.has_value());
        views.push_back(std::move(*tpl));
    }
    const auto query = extractTemplate(impression(60));
    ASSERT_TRUE(query.has_value());

    setParallelThreads(1);
    const auto serial = matchTemplatesBatch(views, query->minutiae);
    const auto serial_best = matchBestTemplate(views, query->minutiae);
    ASSERT_EQ(serial.size(), views.size());

    // Several channels matching against the same shared templates at
    // once (their pair indexes are built lazily under contention).
    constexpr int kChannels = 8;
    for (const int threads : {4, 8}) {
        setParallelThreads(threads);
        for (auto &v : views)
            v.invalidatePairIndex();
        std::vector<std::vector<trust::fingerprint::MatchResult>>
            batches(kChannels);
        std::vector<trust::fingerprint::MatchResult> bests(kChannels);
        parallelFor(0, kChannels, 1, [&](int b, int e) {
            for (int i = b; i < e; ++i) {
                const auto slot = static_cast<std::size_t>(i);
                batches[slot] =
                    matchTemplatesBatch(views, query->minutiae);
                bests[slot] = matchBestTemplate(views, query->minutiae);
            }
        });
        for (int ch = 0; ch < kChannels; ++ch) {
            const auto &parallel = batches[static_cast<std::size_t>(ch)];
            ASSERT_EQ(parallel.size(), serial.size());
            for (std::size_t i = 0; i < serial.size(); ++i) {
                EXPECT_EQ(parallel[i].accepted, serial[i].accepted);
                EXPECT_EQ(parallel[i].score, serial[i].score);
                EXPECT_EQ(parallel[i].votes, serial[i].votes);
                EXPECT_EQ(parallel[i].paired, serial[i].paired);
            }
            const auto &best = bests[static_cast<std::size_t>(ch)];
            EXPECT_EQ(best.accepted, serial_best.accepted);
            EXPECT_EQ(best.score, serial_best.score);
        }
    }
}

TEST(ParallelPipeline, TemplateMatchEqualsRawMatcher)
{
    const auto tpl = extractTemplate(impression(70));
    const auto query = extractTemplate(impression(71));
    ASSERT_TRUE(tpl.has_value() && query.has_value());
    const auto via_index = matchTemplate(*tpl, query->minutiae);
    const auto raw = matchMinutiae(tpl->minutiae, query->minutiae);
    EXPECT_EQ(via_index.accepted, raw.accepted);
    EXPECT_EQ(via_index.score, raw.score);
    EXPECT_EQ(via_index.votes, raw.votes);
}

TEST(ParallelPipeline, SerdeRoundTripRebuildsPairIndex)
{
    const auto tpl = extractTemplate(impression(80));
    const auto query = extractTemplate(impression(81));
    ASSERT_TRUE(tpl.has_value() && query.has_value());
    (void)tpl->pairIndex(); // warm the original's index

    const auto parsed =
        FingerprintTemplate::deserialize(tpl->serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, *tpl);

    // The index is not serialized; first use after deserialization
    // rebuilds it and matching behaves exactly as before.
    const auto index = parsed->pairIndex();
    ASSERT_NE(index, nullptr);
    EXPECT_EQ(index->pairCount(), tpl->pairIndex()->pairCount());
    const auto a = matchTemplate(*tpl, query->minutiae);
    const auto b = matchTemplate(*parsed, query->minutiae);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.score, b.score);
}

TEST(ParallelPipeline, PairIndexInvalidationRebuilds)
{
    auto tpl = extractTemplate(impression(90));
    ASSERT_TRUE(tpl.has_value());
    const auto before = tpl->pairIndex();
    ASSERT_GE(tpl->minutiae.size(), 1u);
    tpl->minutiae.pop_back();
    tpl->invalidatePairIndex();
    const auto after = tpl->pairIndex();
    ASSERT_NE(after, nullptr);
    EXPECT_NE(after, before);
    EXPECT_LE(after->pairCount(), before->pairCount());
}

TEST(ParallelPipeline, CopyCarriesIndexSnapshot)
{
    const auto tpl = extractTemplate(impression(95));
    ASSERT_TRUE(tpl.has_value());
    const auto index = tpl->pairIndex();
    const FingerprintTemplate copy(*tpl);
    EXPECT_EQ(copy, *tpl);
    EXPECT_EQ(copy.pairIndex(), index); // shares the snapshot
}

TEST(ParallelPipeline, GaborKernelBankCachedAcrossExtractions)
{
    trust::fingerprint::clearGaborKernelCache();
    EXPECT_EQ(trust::fingerprint::gaborKernelCacheSize(), 0u);
    const auto img = impression(100);
    ASSERT_TRUE(extractTemplate(img).has_value());
    const auto after_first =
        trust::fingerprint::gaborKernelCacheSize();
    EXPECT_GE(after_first, 1u);
    // Same image -> same (fmin, fmax) key: the repeat extraction
    // reuses the cached banks instead of rebuilding them. (Different
    // captures may add entries: the var-freq key is data-dependent.)
    ASSERT_TRUE(extractTemplate(img).has_value());
    EXPECT_EQ(trust::fingerprint::gaborKernelCacheSize(), after_first);
}

} // namespace
