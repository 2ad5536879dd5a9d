#include "fingerprint/pipeline.hh"

#include "core/obs/obs.hh"
#include "fingerprint/enhance.hh"
#include "fingerprint/skeleton.hh"

namespace trust::fingerprint {

FingerprintTemplate::FingerprintTemplate(const FingerprintTemplate &o)
    : minutiae(o.minutiae), quality(o.quality)
{
    std::lock_guard<std::mutex> lock(o.indexMutex_);
    index_ = o.index_;
}

FingerprintTemplate::FingerprintTemplate(FingerprintTemplate &&o) noexcept
    : minutiae(std::move(o.minutiae)), quality(o.quality)
{
    std::lock_guard<std::mutex> lock(o.indexMutex_);
    index_ = std::move(o.index_);
}

FingerprintTemplate &
FingerprintTemplate::operator=(const FingerprintTemplate &o)
{
    if (this == &o)
        return *this;
    minutiae = o.minutiae;
    quality = o.quality;
    std::shared_ptr<const PairIndex> index;
    {
        std::lock_guard<std::mutex> lock(o.indexMutex_);
        index = o.index_;
    }
    std::lock_guard<std::mutex> lock(indexMutex_);
    index_ = std::move(index);
    return *this;
}

FingerprintTemplate &
FingerprintTemplate::operator=(FingerprintTemplate &&o) noexcept
{
    if (this == &o)
        return *this;
    minutiae = std::move(o.minutiae);
    quality = o.quality;
    std::shared_ptr<const PairIndex> index;
    {
        std::lock_guard<std::mutex> lock(o.indexMutex_);
        index = std::move(o.index_);
    }
    std::lock_guard<std::mutex> lock(indexMutex_);
    index_ = std::move(index);
    return *this;
}

std::shared_ptr<const PairIndex>
FingerprintTemplate::pairIndex(const MatchParams &params) const
{
    {
        std::lock_guard<std::mutex> lock(indexMutex_);
        if (index_ && index_->compatibleWith(params))
            return index_;
    }
    auto index = std::make_shared<const PairIndex>(
        buildPairIndex(minutiae, params));
    std::lock_guard<std::mutex> lock(indexMutex_);
    // A concurrent builder may have won; keep whichever is cached
    // if compatible so every caller shares one snapshot.
    if (!index_ || !index_->compatibleWith(params))
        index_ = std::move(index);
    return index_;
}

void
FingerprintTemplate::invalidatePairIndex()
{
    std::lock_guard<std::mutex> lock(indexMutex_);
    index_.reset();
}

MatchResult
matchTemplate(const FingerprintTemplate &tmpl,
              const std::vector<Minutia> &query,
              const MatchParams &params)
{
    if (tmpl.minutiae.size() < 2 || query.size() < 2)
        return {};
    return matchMinutiae(tmpl.minutiae, *tmpl.pairIndex(params), query,
                         params);
}

std::vector<MatchResult>
matchTemplatesBatch(const std::vector<const FingerprintTemplate *> &views,
                    const std::vector<Minutia> &query,
                    const MatchParams &params)
{
    TRUST_SPAN("fp/match-batch");
    // The query-side pair features depend only on the matcher
    // geometry, never on a template, so one build is shared across
    // the whole batch (the batched multi-template hot path).
    const QueryPairs query_pairs = buildQueryPairs(query, params);
    std::vector<MatchResult> results(views.size());
    for (std::size_t i = 0; i < views.size(); ++i) {
        const FingerprintTemplate &t = *views[i];
        if (t.minutiae.size() < 2 || query.size() < 2)
            continue;
        results[i] = matchMinutiae(t.minutiae, *t.pairIndex(params),
                                   query, query_pairs, params);
    }
    if (core::obs::enabledFast())
        core::obs::metrics().add("fp/templates-matched", {},
                                 views.size());
    return results;
}

std::vector<MatchResult>
matchTemplatesBatch(const std::vector<FingerprintTemplate> &views,
                    const std::vector<Minutia> &query,
                    const MatchParams &params)
{
    std::vector<const FingerprintTemplate *> ptrs;
    ptrs.reserve(views.size());
    for (const FingerprintTemplate &t : views)
        ptrs.push_back(&t);
    return matchTemplatesBatch(ptrs, query, params);
}

MatchResult
matchBestTemplate(const std::vector<FingerprintTemplate> &views,
                  const std::vector<Minutia> &query,
                  const MatchParams &params)
{
    MatchResult best;
    for (const MatchResult &r :
         matchTemplatesBatch(views, query, params)) {
        if (r.score > best.score || (r.accepted && !best.accepted))
            best = r;
    }
    return best;
}

core::Bytes
FingerprintTemplate::serialize() const
{
    core::ByteWriter w;
    w.writeDouble(quality);
    w.writeBytes(serializeMinutiae(minutiae));
    return w.take();
}

std::optional<FingerprintTemplate>
FingerprintTemplate::deserialize(const core::Bytes &data)
{
    core::ByteReader r(data);
    FingerprintTemplate t;
    t.quality = r.readDouble();
    const core::Bytes m = r.readBytes();
    if (!r.ok() || !r.atEnd())
        return std::nullopt;
    t.minutiae = deserializeMinutiae(m);
    if (t.minutiae.empty() && !m.empty() && m != serializeMinutiae({}))
        return std::nullopt;
    return t;
}

QualityReport
assessCapture(const FingerprintImage &capture,
              const PipelineParams &params)
{
    return assessQuality(capture, params.quality);
}

std::optional<FingerprintTemplate>
extractTemplate(const FingerprintImage &capture,
                const PipelineParams &params)
{
    TRUST_SPAN("fp/extract");
    QualityReport quality;
    {
        TRUST_SPAN("fp/quality");
        quality = assessQuality(capture, params.quality);
    }
    if (quality.score < params.minAcceptQuality) {
        if (core::obs::enabledFast())
            core::obs::metrics().add("fp/extract-rejected",
                                     {{"reason", "quality"}});
        return std::nullopt;
    }

    FingerprintImage work = capture;
    core::Grid<float> orientation;
    double period = 9.0;
    {
        TRUST_SPAN("fp/enhance");
        normalizeImage(work);
        orientation = estimateOrientation(work);
        period = estimateRidgePeriod(work, orientation);
        if (period < 3.0 || period > 25.0)
            period = 9.0; // nominal 500 dpi ridge pitch fallback
        gaborEnhance(work, orientation, 1.0 / period,
                     params.gaborRadius, params.gaborSigma);
    }

    FingerprintTemplate out;
    out.quality = quality.score;
    {
        TRUST_SPAN("fp/minutiae");
        const auto skeleton = thin(binarize(work));
        out.minutiae = extractMinutiae(skeleton, work.mask(),
                                       orientation, params.extraction);
    }
    if (out.minutiae.empty()) {
        if (core::obs::enabledFast())
            core::obs::metrics().add("fp/extract-rejected",
                                     {{"reason", "no-minutiae"}});
        return std::nullopt;
    }
    if (core::obs::enabledFast())
        core::obs::metrics().add("fp/extract-ok");
    return out;
}

} // namespace trust::fingerprint
