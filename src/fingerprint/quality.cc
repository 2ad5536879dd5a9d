#include "fingerprint/quality.hh"

#include <algorithm>
#include <cmath>

#include "core/geometry.hh"
#include "fingerprint/enhance.hh"

namespace trust::fingerprint {

QualityReport
assessQuality(const FingerprintImage &capture, const QualityParams &params)
{
    QualityReport report;
    if (capture.empty())
        return report;

    report.coverage = capture.validFraction();
    report.contrast = std::sqrt(capture.intensityVariance());

    if (report.coverage < 0.02) {
        // Nothing to measure; leave the remaining metrics at zero.
        return report;
    }

    // Every probe below reads the orientation field at even rows and
    // columns only (strength: 4 + 6i; coherence: 2 + 4i with +/-2
    // offsets), so a stride-2 field computes the exact values the
    // probes consume at a quarter of the atan2 cost.
    const auto orientation = estimateOrientation(capture, 6, 2);

    // Ridge strength: mean absolute response of the centered signal
    // along the orientation normal over a sparse probe set.
    double strength_sum = 0.0;
    int strength_count = 0;
    for (int r = 4; r < capture.rows() - 4; r += 6) {
        for (int c = 4; c < capture.cols() - 4; c += 6) {
            if (!capture.valid(r, c))
                continue;
            const double theta = orientation(r, c);
            const double nx = -std::sin(theta), ny = std::cos(theta);
            double local_min = 1.0, local_max = 0.0;
            bool ok = true;
            for (int t = -4; t <= 4; ++t) {
                const int rr = r + static_cast<int>(std::lround(ny * t));
                const int cc = c + static_cast<int>(std::lround(nx * t));
                if (!capture.inBounds(rr, cc) || !capture.valid(rr, cc)) {
                    ok = false;
                    break;
                }
                local_min =
                    std::min<double>(local_min, capture.pixel(rr, cc));
                local_max =
                    std::max<double>(local_max, capture.pixel(rr, cc));
            }
            if (!ok)
                continue;
            strength_sum += local_max - local_min;
            ++strength_count;
        }
    }
    report.ridgeStrength =
        strength_count ? strength_sum / strength_count : 0.0;

    // Coherence: how well neighbouring orientations agree.
    double coherence_sum = 0.0;
    int coherence_count = 0;
    for (int r = 2; r < capture.rows() - 2; r += 4) {
        for (int c = 2; c < capture.cols() - 2; c += 4) {
            if (!capture.valid(r, c))
                continue;
            const double here = orientation(r, c);
            double agree = 0.0;
            int n = 0;
            for (int dr = -2; dr <= 2; dr += 2) {
                for (int dc = -2; dc <= 2; dc += 2) {
                    if (!capture.inBounds(r + dr, c + dc) ||
                        !capture.valid(r + dr, c + dc))
                        continue;
                    const double diff = core::orientationDiff(
                        here, orientation(r + dr, c + dc));
                    agree += 1.0 - diff / (3.14159265358979 / 2.0);
                    ++n;
                }
            }
            if (n) {
                coherence_sum += agree / n;
                ++coherence_count;
            }
        }
    }
    report.coherence =
        coherence_count ? coherence_sum / coherence_count : 0.0;

    const double cover_f =
        std::clamp(report.coverage / params.minCoverage, 0.0, 1.0);
    const double contrast_f =
        std::clamp(report.contrast / params.minContrast, 0.0, 1.0);
    const double strength_f = std::clamp(
        report.ridgeStrength / params.minRidgeStrength, 0.0, 1.0);
    report.score = cover_f * contrast_f * strength_f * report.coherence;
    return report;
}

} // namespace trust::fingerprint
