/**
 * @file
 * End-to-end template extraction: the full image-domain pipeline the
 * FLock fingerprint processor runs on a captured impression
 * (normalize -> orientation -> Gabor -> binarize -> thin -> extract
 * minutiae -> quality gate), packaged as one call.
 */

#ifndef TRUST_FINGERPRINT_PIPELINE_HH
#define TRUST_FINGERPRINT_PIPELINE_HH

#include <memory>
#include <mutex>
#include <optional>

#include "core/bytes.hh"
#include "fingerprint/image.hh"
#include "fingerprint/matcher.hh"
#include "fingerprint/minutiae.hh"
#include "fingerprint/quality.hh"

namespace trust::fingerprint {

/**
 * A stored fingerprint template: minutiae plus capture quality, and
 * a lazily built, memoized pair-feature index so enrollment pays
 * the template-side indexing cost once instead of on every match.
 * The index is not serialized; it is rebuilt on first use after
 * deserialization.
 */
struct FingerprintTemplate
{
    std::vector<Minutia> minutiae; // trustlint: secret
    double quality = 0.0;

    FingerprintTemplate() = default;
    FingerprintTemplate(std::vector<Minutia> m, double q = 0.0)
        : minutiae(std::move(m)), quality(q)
    {
    }
    FingerprintTemplate(const FingerprintTemplate &o);
    FingerprintTemplate(FingerprintTemplate &&o) noexcept;
    FingerprintTemplate &operator=(const FingerprintTemplate &o);
    FingerprintTemplate &operator=(FingerprintTemplate &&o) noexcept;

    /**
     * The memoized template-side pair index for the given matcher
     * geometry. Built on first use (thread-safe) and rebuilt only
     * if @p params carries different geometric tolerances than the
     * cached index. Returns a shared pointer so concurrent matchers
     * keep a stable snapshot. Callers that mutate `minutiae` must
     * call invalidatePairIndex() afterwards.
     */
    std::shared_ptr<const PairIndex>
    pairIndex(const MatchParams &params = {}) const;

    /** Drop the memoized index (after editing `minutiae`). */
    void invalidatePairIndex();

    core::Bytes serialize() const;
    static std::optional<FingerprintTemplate>
    deserialize(const core::Bytes &data);

    bool
    operator==(const FingerprintTemplate &o) const
    {
        return minutiae == o.minutiae && quality == o.quality;
    }

  private:
    mutable std::mutex indexMutex_;
    mutable std::shared_ptr<const PairIndex> index_;
};

/**
 * Match a query against one template through its memoized pair
 * index (equivalent to matchMinutiae on the raw minutiae, minus the
 * per-call template indexing cost).
 */
MatchResult matchTemplate(const FingerprintTemplate &tmpl,
                          const std::vector<Minutia> &query,
                          const MatchParams &params = {});

/**
 * Score one query against many enrolled templates. The query-side
 * pair features are built once and shared across the whole batch.
 * Results come back in template order.
 */
std::vector<MatchResult>
matchTemplatesBatch(const std::vector<FingerprintTemplate> &views,
                    const std::vector<Minutia> &query,
                    const MatchParams &params = {});

/**
 * Same batched scoring over non-owning template pointers, so a
 * caller can flatten templates gathered from several fingers (see
 * FlockModule::matchAll) without copying them.
 */
std::vector<MatchResult>
matchTemplatesBatch(const std::vector<const FingerprintTemplate *> &views,
                    const std::vector<Minutia> &query,
                    const MatchParams &params = {});

/**
 * Best-of batch comparison (the multi-view enrollment decision):
 * folds matchTemplatesBatch results in view order.
 */
MatchResult
matchBestTemplate(const std::vector<FingerprintTemplate> &views,
                  const std::vector<Minutia> &query,
                  const MatchParams &params = {});

/** Pipeline configuration. */
struct PipelineParams
{
    QualityParams quality;
    ExtractionParams extraction;
    double minAcceptQuality = 0.45; ///< Gate threshold (Fig. 6 step 2).
    int gaborRadius = 6;
    double gaborSigma = 3.0;
};

/**
 * Run the full extraction pipeline on a captured impression.
 * Returns nullopt when the quality gate rejects the capture.
 */
std::optional<FingerprintTemplate>
extractTemplate(const FingerprintImage &capture,
                const PipelineParams &params = {});

/**
 * Quality assessment only (the cheap pre-check hardware runs before
 * committing to full extraction).
 */
QualityReport assessCapture(const FingerprintImage &capture,
                            const PipelineParams &params = {});

} // namespace trust::fingerprint

#endif // TRUST_FINGERPRINT_PIPELINE_HH
