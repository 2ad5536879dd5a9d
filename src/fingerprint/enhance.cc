#include "fingerprint/enhance.hh"

#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <numbers>
#include <unordered_map>
#include <vector>

#include "core/geometry.hh"
#include "core/obs/obs.hh"
#include "core/simd/simd.hh"

namespace trust::fingerprint {

namespace {

namespace simd = core::simd;

constexpr double kPi = std::numbers::pi;

/** A bank of quantized Gabor kernels (orientation x frequency). */
using GaborBank = std::vector<std::vector<float>>;

/** Exact-value cache key; doubles compared by bit pattern. */
struct GaborBankKey
{
    int radius = 0;
    int orientBins = 0;
    int freqBins = 0;
    std::uint64_t sigmaBits = 0;
    std::uint64_t fminBits = 0;
    std::uint64_t fmaxBits = 0;

    bool operator==(const GaborBankKey &o) const = default;
};

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

struct GaborBankKeyHash
{
    std::size_t
    operator()(const GaborBankKey &k) const
    {
        std::uint64_t h = 1469598103934665603ull; // FNV-1a
        const auto mix = [&h](std::uint64_t v) {
            h = (h ^ v) * 1099511628211ull;
        };
        mix(static_cast<std::uint64_t>(k.radius));
        mix(static_cast<std::uint64_t>(k.orientBins));
        mix(static_cast<std::uint64_t>(k.freqBins));
        mix(k.sigmaBits);
        mix(k.fminBits);
        mix(k.fmaxBits);
        return static_cast<std::size_t>(h);
    }
};

std::mutex g_bank_mutex;
std::unordered_map<GaborBankKey, std::shared_ptr<const GaborBank>,
                   GaborBankKeyHash>
    g_bank_cache;

/** Bound on cached banks; the cache is cleared when exceeded. */
constexpr std::size_t kBankCacheCap = 64;

/** Payload bytes of every cached bank; caller holds g_bank_mutex. */
std::size_t
cacheBytesLocked()
{
    std::size_t bytes = 0;
    // trustlint: allow(unordered-iter) -- commutative byte sum; order never reaches a decision
    for (const auto &[key, bank] : g_bank_cache)
        for (const auto &kernel : *bank)
            bytes += kernel.size() * sizeof(float);
    return bytes;
}

/** Publish the cache footprint gauge (outside the cache lock). */
void
publishCacheBytes(std::size_t bytes)
{
    if (core::obs::enabledFast())
        core::obs::metrics().set("fp/gabor-cache-bytes", {},
                                 static_cast<double>(bytes));
}

/**
 * Build one Gabor kernel bank: orient_bins orientations times
 * freq_bins frequencies linearly spaced over [fmin, fmax], each
 * kernel normalized so a perfect ridge response is ~1.
 */
GaborBank
buildGaborBank(int radius, double sigma, int orient_bins, int freq_bins,
               double fmin, double fmax)
{
    const int size = 2 * radius + 1;
    const double fstep =
        freq_bins > 1 ? (fmax - fmin) / (freq_bins - 1) : 0.0;

    GaborBank bank(
        static_cast<std::size_t>(orient_bins * freq_bins),
        std::vector<float>(static_cast<std::size_t>(size * size)));
    for (int ob = 0; ob < orient_bins; ++ob) {
        const double theta = kPi * (ob + 0.5) / orient_bins;
        const double nx = -std::sin(theta);
        const double ny = std::cos(theta);
        for (int fb = 0; fb < freq_bins; ++fb) {
            const double f = fmin + fstep * fb;
            auto &kernel = bank[static_cast<std::size_t>(
                ob * freq_bins + fb)];
            double sum_pos = 0.0;
            for (int dr = -radius; dr <= radius; ++dr) {
                for (int dc = -radius; dc <= radius; ++dc) {
                    const double along = dc * nx + dr * ny;
                    const double env = std::exp(
                        -(dr * dr + dc * dc) / (2.0 * sigma * sigma));
                    const double v =
                        env * std::cos(2.0 * kPi * f * along);
                    kernel[static_cast<std::size_t>(
                        (dr + radius) * size + (dc + radius))] =
                        static_cast<float>(v);
                    if (v > 0)
                        sum_pos += v;
                }
            }
            if (sum_pos > 0) {
                for (auto &v : kernel)
                    v = static_cast<float>(v / sum_pos);
            }
        }
    }
    return bank;
}

/**
 * Fetch a kernel bank from the process-wide cache, building it on
 * first use. Thread-safe; a duplicate concurrent build of the same
 * key is harmless (one copy wins, both are identical).
 */
std::shared_ptr<const GaborBank>
gaborKernelBank(int radius, double sigma, int orient_bins,
                int freq_bins, double fmin, double fmax)
{
    const GaborBankKey key{radius,
                           orient_bins,
                           freq_bins,
                           doubleBits(sigma),
                           doubleBits(fmin),
                           doubleBits(fmax)};
    {
        std::lock_guard<std::mutex> lock(g_bank_mutex);
        const auto it = g_bank_cache.find(key);
        if (it != g_bank_cache.end())
            return it->second;
    }

    auto bank = std::make_shared<const GaborBank>(buildGaborBank(
        radius, sigma, orient_bins, freq_bins, fmin, fmax));

    std::shared_ptr<const GaborBank> cached;
    std::size_t bytes = 0;
    {
        std::lock_guard<std::mutex> lock(g_bank_mutex);
        if (g_bank_cache.size() >= kBankCacheCap)
            g_bank_cache.clear();
        const auto [it, inserted] = g_bank_cache.emplace(key, bank);
        cached = it->second;
        bytes = cacheBytesLocked();
    }
    publishCacheBytes(bytes);
    return cached;
}

} // namespace

std::size_t
gaborKernelCacheSize()
{
    std::lock_guard<std::mutex> lock(g_bank_mutex);
    return cacheBytesLocked();
}

std::size_t
gaborKernelCacheBankCount()
{
    std::lock_guard<std::mutex> lock(g_bank_mutex);
    return g_bank_cache.size();
}

void
clearGaborKernelCache()
{
    {
        std::lock_guard<std::mutex> lock(g_bank_mutex);
        g_bank_cache.clear();
    }
    publishCacheBytes(0);
}

// --------------------------------------------------------------------
// Normalization.
// --------------------------------------------------------------------

namespace {

/**
 * One normalized pixel, exactly the op chain the vector lanes run:
 * widen, shift to the target moments, clamp to [0, 1], narrow.
 */
inline float
normalizeOne(float pix, double mean, double scale, double target_mean)
{
    double v = target_mean + (static_cast<double>(pix) - mean) * scale;
    v = v > 0.0 ? v : 0.0; // vmax semantics (ties take the bound)
    v = v < 1.0 ? v : 1.0; // vmin semantics
    return static_cast<float>(v);
}

template <class P>
void
normalizeRows(FingerprintImage &image, double mean, double scale,
              double target_mean, int r0, int r1)
{
    using F64 = typename P::F64;
    const int cols = image.cols();
    float *pix = image.pixels().data().data();
    const std::uint8_t *mask = image.mask().data().data();
    const F64 mean_b = F64::set1(mean);
    const F64 scale_b = F64::set1(scale);
    const F64 target_b = F64::set1(target_mean);
    const F64 zero = F64::zero();
    const F64 one = F64::set1(1.0);

    for (int r = r0; r < r1; ++r) {
        float *row = pix + static_cast<std::size_t>(r) * cols;
        const std::uint8_t *mrow =
            mask + static_cast<std::size_t>(r) * cols;
        int c = 0;
        for (; c + 2 <= cols; c += 2) {
            if (mrow[c] && mrow[c + 1]) {
                F64 v = add(target_b,
                            mul(sub(F64::load2f(row + c), mean_b),
                                scale_b));
                v = vmin(vmax(v, zero), one);
                store2f(row + c, v);
            } else {
                if (mrow[c])
                    row[c] = normalizeOne(row[c], mean, scale,
                                          target_mean);
                if (mrow[c + 1])
                    row[c + 1] = normalizeOne(row[c + 1], mean, scale,
                                              target_mean);
            }
        }
        if (c < cols && mrow[c])
            row[c] = normalizeOne(row[c], mean, scale, target_mean);
    }
}

} // namespace

void
normalizeImage(FingerprintImage &image, double target_mean,
               double target_var)
{
    const double mean = image.meanIntensity();
    const double var = image.intensityVariance();
    if (var <= 1e-12)
        return;
    const double scale = std::sqrt(target_var / var);
    TRUST_SIMD_DISPATCH(normalizeRows, image, mean, scale, target_mean,
                        0, image.rows());
}

// --------------------------------------------------------------------
// Orientation field.
// --------------------------------------------------------------------

namespace {

/**
 * Fused gradient + double-angle products: P1 = gx^2 - gy^2 and
 * P2 = 2 gx gy as SoA float planes (borders stay zero, matching the
 * zero gradients the per-pixel version had there).
 */
template <class P>
void
orientationProducts(const FingerprintImage &image, float *p1, float *p2,
                    int r0, int r1)
{
    using F32 = typename P::F32;
    const int cols = image.cols();
    const float *pix = image.pixels().data().data();
    const F32 half = F32::set1(0.5f);
    const F32 two = F32::set1(2.0f);

    for (int r = r0; r < r1; ++r) {
        const float *up = pix + static_cast<std::size_t>(r - 1) * cols;
        const float *mid = pix + static_cast<std::size_t>(r) * cols;
        const float *down =
            pix + static_cast<std::size_t>(r + 1) * cols;
        float *o1 = p1 + static_cast<std::size_t>(r) * cols;
        float *o2 = p2 + static_cast<std::size_t>(r) * cols;
        int c = 1;
        for (; c + 4 <= cols - 1; c += 4) {
            const F32 gx = mul(sub(F32::loadu(mid + c + 1),
                                   F32::loadu(mid + c - 1)),
                               half);
            const F32 gy = mul(
                sub(F32::loadu(down + c), F32::loadu(up + c)), half);
            storeu(o1 + c, sub(mul(gx, gx), mul(gy, gy)));
            storeu(o2 + c, mul(two, mul(gx, gy)));
        }
        for (; c < cols - 1; ++c) {
            const float gx = (mid[c + 1] - mid[c - 1]) * 0.5f;
            const float gy = (down[c] - up[c]) * 0.5f;
            o1[c] = gx * gx - gy * gy;
            o2[c] = 2.0f * (gx * gy);
        }
    }
}

/**
 * Horizontal clamped box sums over one plane: for every column,
 * sum the 2*block+1 window accumulating left to right (every lane
 * runs its own window in the same k order, so scalar and vector
 * agree bitwise).
 */
template <class P>
void
horizontalBoxSums(const float *src, float *dst, int cols, int block,
                  int r0, int r1)
{
    using F32 = typename P::F32;
    const int taps = 2 * block + 1;
    for (int r = r0; r < r1; ++r) {
        const float *in = src + static_cast<std::size_t>(r) * cols;
        float *out = dst + static_cast<std::size_t>(r) * cols;
        int c = 0;
        // Left border: clamped scalar windows.
        for (; c < cols && c < block; ++c) {
            float acc = 0.0f;
            for (int k = 0; k < taps; ++k)
                acc += in[std::clamp(c - block + k, 0, cols - 1)];
            out[c] = acc;
        }
        // Interior: clamp-free, 4 columns per step.
        for (; c + 4 <= cols - block; c += 4) {
            F32 acc = F32::zero();
            for (int k = 0; k < taps; ++k)
                acc = add(acc, F32::loadu(in + c - block + k));
            storeu(out + c, acc);
        }
        for (; c < cols; ++c) {
            float acc = 0.0f;
            for (int k = 0; k < taps; ++k)
                acc += in[std::clamp(c - block + k, 0, cols - 1)];
            out[c] = acc;
        }
    }
}

/**
 * Vertical clamped box sums of the horizontal sums for one output
 * row, written into a row buffer.
 */
template <class P>
void
verticalBoxSumRow(const float *h, int rows, int cols, int block, int r,
                  float *out)
{
    using F32 = typename P::F32;
    const int taps = 2 * block + 1;
    int c = 0;
    for (; c + 4 <= cols; c += 4) {
        F32 acc = F32::zero();
        for (int k = 0; k < taps; ++k) {
            const int rr = std::clamp(r - block + k, 0, rows - 1);
            acc = add(acc,
                      F32::loadu(h + static_cast<std::size_t>(rr) *
                                         cols +
                                 c));
        }
        storeu(out + c, acc);
    }
    for (; c < cols; ++c) {
        float acc = 0.0f;
        for (int k = 0; k < taps; ++k) {
            const int rr = std::clamp(r - block + k, 0, rows - 1);
            acc += h[static_cast<std::size_t>(rr) * cols + c];
        }
        out[c] = acc;
    }
}

} // namespace

core::Grid<float>
estimateOrientation(const FingerprintImage &image, int block, int stride)
{
    const int rows = image.rows(), cols = image.cols();
    core::Grid<float> orientation(rows, cols, 0.0f);
    if (rows < 3 || cols < 3)
        return orientation;

    // SoA double-angle planes P1 = gx^2 - gy^2, P2 = 2 gx gy (the
    // per-pixel version recomputed both for every window tap).
    core::Grid<float> p1(rows, cols, 0.0f), p2(rows, cols, 0.0f);
    TRUST_SIMD_DISPATCH(orientationProducts, image, p1.data().data(),
                        p2.data().data(), 1, rows - 1);

    // Separable clamped box sums (horizontal then vertical) replace
    // the O(block^2)-per-pixel window accumulation.
    core::Grid<float> h1(rows, cols, 0.0f), h2(rows, cols, 0.0f);
    TRUST_SIMD_DISPATCH(horizontalBoxSums, p1.data().data(),
                        h1.data().data(), cols, block, 0, rows);
    TRUST_SIMD_DISPATCH(horizontalBoxSums, p2.data().data(),
                        h2.data().data(), cols, block, 0, rows);

    // Vertical sums + angle, only where a consumer can look: pixels
    // on the stride lattice that carry mask signal. Everything else
    // stays 0 (see the header contract).
    std::vector<float> v1(static_cast<std::size_t>(cols));
    std::vector<float> v2(static_cast<std::size_t>(cols));
    for (int r = 0; r < rows; r += stride) {
        TRUST_SIMD_DISPATCH(verticalBoxSumRow, h1.data().data(), rows,
                            cols, block, r, v1.data());
        TRUST_SIMD_DISPATCH(verticalBoxSumRow, h2.data().data(), rows,
                            cols, block, r, v2.data());
        for (int c = 0; c < cols; c += stride) {
            if (!image.valid(r, c))
                continue;
            // Gradient double-angle; ridge orientation is orthogonal.
            const double grad_angle = 0.5 * std::atan2(
                static_cast<double>(v2[static_cast<std::size_t>(c)]),
                static_cast<double>(v1[static_cast<std::size_t>(c)]));
            // grad_angle is in [-pi/2, pi/2] exactly (0.5* and pi/2
            // round exactly), so t is in [0, pi] and
            // wrapOrientation's fmod is the identity below pi and
            // maps the pi endpoint to 0 — branch instead of paying
            // fmod per pixel (bit-identical).
            const double t = grad_angle + kPi / 2.0;
            orientation(r, c) = static_cast<float>(t < kPi ? t : 0.0);
        }
    }
    return orientation;
}

double
estimateRidgePeriod(const FingerprintImage &image,
                    const core::Grid<float> &orientation)
{
    // Probe along the normal direction at a sparse set of valid
    // anchor pixels; count mean crossings of the 0.5 level.
    const int rows = image.rows(), cols = image.cols();
    constexpr int kProbeLen = 24;

    double period_sum = 0.0;
    int period_count = 0;

    // Fixed-size signature buffer: the probe length is a compile
    // time constant, so the per-probe heap allocation the old
    // std::vector needed is gone.
    std::array<double, 2 * kProbeLen + 1> sig{};

    for (int r = kProbeLen; r < rows - kProbeLen; r += 8) {
        for (int c = kProbeLen; c < cols - kProbeLen; c += 8) {
            if (!image.valid(r, c))
                continue;
            const double theta = orientation(r, c);
            const double nx = -std::sin(theta);
            const double ny = std::cos(theta);

            // Sample the signature along the normal.
            std::size_t n = 0;
            bool in_mask = true;
            for (int t = -kProbeLen; t <= kProbeLen; ++t) {
                const int rr = r + static_cast<int>(std::lround(ny * t));
                const int cc = c + static_cast<int>(std::lround(nx * t));
                if (!image.inBounds(rr, cc) || !image.valid(rr, cc)) {
                    in_mask = false;
                    break;
                }
                sig[n++] = image.pixel(rr, cc);
            }
            if (!in_mask)
                continue;

            // Count rising crossings through the mean level.
            double mean = 0.0;
            for (std::size_t i = 0; i < n; ++i)
                mean += sig[i];
            mean /= static_cast<double>(n);
            int crossings = 0;
            int first = -1, last = -1;
            for (std::size_t i = 1; i < n; ++i) {
                if (sig[i - 1] < mean && sig[i] >= mean) {
                    ++crossings;
                    if (first < 0)
                        first = static_cast<int>(i);
                    last = static_cast<int>(i);
                }
            }
            if (crossings >= 2) {
                period_sum += static_cast<double>(last - first) /
                              static_cast<double>(crossings - 1);
                ++period_count;
            }
        }
    }

    return period_count ? period_sum / period_count : 0.0;
}

// --------------------------------------------------------------------
// Gabor filtering.
// --------------------------------------------------------------------

namespace {

/** Marker for masked-out pixels in the per-row kernel-bin map. */
constexpr std::int16_t kNoBin = -1;

/**
 * Extra right-edge padding columns beyond the kernel radius so the
 * discarded lanes of a partial final chunk stay in bounds.
 */
constexpr int kRunSlack = 3;

/**
 * Snapshot the source image as a clamp-replicated, pre-shifted
 * (pixel - 0.5) plane padded by @p radius on every side (plus
 * kRunSlack columns on the right). Replicated border values make
 * every output pixel an interior convolution — the clamped-index
 * chain and the padded-plane chain read identical values — and the
 * one-time -0.5 shift rounds exactly like a per-tap subtraction, so
 * both transformations are bit-neutral.
 */
std::vector<float>
buildPaddedSource(const FingerprintImage &image, int radius)
{
    const int rows = image.rows(), cols = image.cols();
    const int prows = rows + 2 * radius;
    const int pcols = cols + 2 * radius + kRunSlack;
    const std::vector<float> &pix = image.pixels().data();
    std::vector<float> pad(static_cast<std::size_t>(prows) * pcols);
    for (int pr = 0; pr < prows; ++pr) {
        const int sr = std::clamp(pr - radius, 0, rows - 1);
        const float *srow =
            pix.data() + static_cast<std::size_t>(sr) * cols;
        float *prow = pad.data() + static_cast<std::size_t>(pr) * pcols;
        for (int pc = 0; pc < pcols; ++pc) {
            const int sc = std::clamp(pc - radius, 0, cols - 1);
            prow[pc] = srow[sc] - 0.5f;
        }
    }
    return pad;
}

/**
 * Convolve run [c0, c1) of output row @p r (one shared kernel) over
 * the padded source plane: chunks of four output pixels, with the
 * partial final chunk computed full-width and only its live lanes
 * stored. Each lane feeds four independent accumulator chains
 * (round-robin over the taps of a kernel row) so the loop is
 * throughput- instead of add-latency-bound; the fixed a0..a3
 * interleave and final (a0+a1)+(a2+a3) reduction make the order
 * identical on every backend.
 */
template <class P>
void
gaborRunFast(const float *pad, int pcols, float *dstrow, int r, int c0,
             int c1, const float *kernel, int radius)
{
    using F32 = typename P::F32;
    const int size = 2 * radius + 1;
    const F32 half = F32::set1(0.5f);
    const F32 zero = F32::zero();
    const F32 one = F32::set1(1.0f);
    const auto chunk = [&](int c) {
        F32 a0 = F32::zero(), a1 = F32::zero();
        F32 a2 = F32::zero(), a3 = F32::zero();
        for (int dr = 0; dr < size; ++dr) {
            // Output (r, c)'s window starts at padded column c.
            const float *srow =
                pad + static_cast<std::size_t>(r + dr) * pcols + c;
            const float *krow =
                kernel + static_cast<std::size_t>(dr) * size;
            int k = 0;
            for (; k + 3 < size; k += 4) {
                a0 = add(a0, mul(F32::set1(krow[k]),
                                 F32::loadu(srow + k)));
                a1 = add(a1, mul(F32::set1(krow[k + 1]),
                                 F32::loadu(srow + k + 1)));
                a2 = add(a2, mul(F32::set1(krow[k + 2]),
                                 F32::loadu(srow + k + 2)));
                a3 = add(a3, mul(F32::set1(krow[k + 3]),
                                 F32::loadu(srow + k + 3)));
            }
            for (; k < size; ++k)
                a0 = add(a0, mul(F32::set1(krow[k]),
                                 F32::loadu(srow + k)));
        }
        const F32 acc = add(add(a0, a1), add(a2, a3));
        return vmin(vmax(add(half, acc), zero), one);
    };
    int c = c0;
    for (; c + 4 <= c1; c += 4)
        storeu(dstrow + c, chunk(c));
    if (c < c1) {
        float tmp[4];
        storeu(tmp, chunk(c));
        for (int i = 0; c + i < c1; ++i)
            dstrow[c + i] = tmp[i];
    }
}

/**
 * Gabor-filter rows [r0, r1): per row, bucket valid pixels into
 * kernel-bin runs and convolve each run with its single kernel over
 * the padded source plane (no scalar border or remainder path).
 */
template <class P>
void
gaborRows(FingerprintImage &image, const std::vector<float> &padded,
          const GaborBank &bank, int radius,
          const std::vector<std::int16_t> &bins, int r0, int r1)
{
    const int cols = image.cols();
    const int pcols = cols + 2 * radius + kRunSlack;
    const float *pad = padded.data();
    float *dpix = image.pixels().data().data();

    for (int r = r0; r < r1; ++r) {
        const std::int16_t *brow =
            bins.data() + static_cast<std::size_t>(r) * cols;
        float *drow = dpix + static_cast<std::size_t>(r) * cols;
        int c = 0;
        while (c < cols) {
            if (brow[c] == kNoBin) {
                ++c;
                continue;
            }
            int e = c + 1;
            while (e < cols && brow[e] == brow[c])
                ++e;
            const float *kernel =
                bank[static_cast<std::size_t>(brow[c])].data();
            gaborRunFast<P>(pad, pcols, drow, r, c, e, kernel,
                            radius);
            c = e;
        }
    }
}

} // namespace

void
gaborEnhanceVarFreq(FingerprintImage &image,
                    const core::Grid<float> &orientation,
                    const core::Grid<float> &frequency_map, int radius,
                    double sigma)
{
    const int rows = image.rows(), cols = image.cols();

    // Find the frequency range over valid-mask cells only: masked
    // out cells carry no ridge signal, and one stray zero/outlier
    // there would skew the kernel-bank frequency binning for the
    // whole image.
    float fmin = 1e9f, fmax = 0.0f;
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            if (!image.valid(r, c))
                continue;
            const float f = frequency_map(r, c);
            fmin = std::min(fmin, f);
            fmax = std::max(fmax, f);
        }
    }
    if (fmax <= 0.0f) {
        return;
    }

    constexpr int kOrientBins = 16;
    constexpr int kFreqBins = 6;
    const double fstep =
        kFreqBins > 1 ? (fmax - fmin) / (kFreqBins - 1) : 0.0;

    // Kernel bank over orientation x frequency, from the
    // process-wide cache (the synthesizer reuses one bank across
    // all growth iterations of a finger).
    const auto bank_ptr = gaborKernelBank(radius, sigma, kOrientBins,
                                          kFreqBins, fmin, fmax);
    const GaborBank &bank = *bank_ptr;

    // Per-pixel kernel-bin map (kNoBin outside the mask): the
    // convolution loops then process equal-bin runs with one
    // broadcast kernel instead of re-selecting per pixel.
    std::vector<std::int16_t> bins(
        static_cast<std::size_t>(rows) * cols, kNoBin);
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            if (!image.valid(r, c))
                continue;
            int ob = static_cast<int>(orientation(r, c) / kPi *
                                      kOrientBins);
            ob = std::clamp(ob, 0, kOrientBins - 1);
            int fb = fstep > 0.0
                         ? static_cast<int>(
                               (frequency_map(r, c) - fmin) / fstep + 0.5)
                         : 0;
            fb = std::clamp(fb, 0, kFreqBins - 1);
            bins[static_cast<std::size_t>(r) * cols + c] =
                static_cast<std::int16_t>(ob * kFreqBins + fb);
        }
    }

    const std::vector<float> padded = buildPaddedSource(image, radius);
    TRUST_SIMD_DISPATCH(gaborRows, image, padded, bank, radius, bins, 0,
                        rows);
}

void
gaborEnhance(FingerprintImage &image, const core::Grid<float> &orientation,
             double frequency, int radius, double sigma)
{
    const int rows = image.rows(), cols = image.cols();

    // Quantized-orientation bank at one frequency, from the
    // process-wide cache (rebuilt only on a never-seen parameter
    // combination instead of on every call).
    constexpr int kBins = 16;
    const auto bank_ptr = gaborKernelBank(radius, sigma, kBins, 1,
                                          frequency, frequency);
    const GaborBank &bank = *bank_ptr;

    std::vector<std::int16_t> bins(
        static_cast<std::size_t>(rows) * cols, kNoBin);
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            if (!image.valid(r, c))
                continue;
            const double theta = orientation(r, c);
            int bin = static_cast<int>(theta / kPi * kBins);
            bin = std::clamp(bin, 0, kBins - 1);
            bins[static_cast<std::size_t>(r) * cols + c] =
                static_cast<std::int16_t>(bin);
        }
    }

    const std::vector<float> padded = buildPaddedSource(image, radius);
    TRUST_SIMD_DISPATCH(gaborRows, image, padded, bank, radius, bins, 0,
                        rows);
}

} // namespace trust::fingerprint
