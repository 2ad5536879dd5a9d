#include "fingerprint/skeleton.hh"

#include <array>
#include <cstring>
#include <utility>
#include <vector>

#include "core/simd/simd.hh"

namespace trust::fingerprint {

namespace {

namespace simd = core::simd;

/**
 * Binarize rows [r0, r1): 16 outputs per step by thresholding four
 * float quads, packing the masks to bytes and intersecting with the
 * validity plane.
 */
template <class P>
void
binarizeRows(const FingerprintImage &image, float threshold,
             std::uint8_t *out, int r0, int r1)
{
    using F32 = typename P::F32;
    using U8 = typename P::U8;
    const int cols = image.cols();
    const float *pix = image.pixels().data().data();
    const std::uint8_t *mask = image.mask().data().data();
    const F32 thr = F32::set1(threshold);
    const U8 zero8 = U8::zero();
    const U8 one8 = U8::set1(1);

    for (int r = r0; r < r1; ++r) {
        const float *prow = pix + static_cast<std::size_t>(r) * cols;
        const std::uint8_t *mrow =
            mask + static_cast<std::size_t>(r) * cols;
        std::uint8_t *orow = out + static_cast<std::size_t>(r) * cols;
        int c = 0;
        for (; c + 16 <= cols; c += 16) {
            const U8 gt = packMask(cmpgt(F32::loadu(prow + c), thr),
                                   cmpgt(F32::loadu(prow + c + 4), thr),
                                   cmpgt(F32::loadu(prow + c + 8), thr),
                                   cmpgt(F32::loadu(prow + c + 12), thr));
            // Invalid pixels never binarize to ridge.
            const U8 invalid = cmpeq(U8::loadu(mrow + c), zero8);
            storeu(orow + c, and_(andnot(invalid, gt), one8));
        }
        for (; c < cols; ++c)
            orow[c] = (mrow[c] && prow[c] > threshold) ? 1 : 0;
    }
}

} // namespace

core::Grid<std::uint8_t>
binarize(const FingerprintImage &image, float threshold)
{
    core::Grid<std::uint8_t> out(image.rows(), image.cols(), 0);
    TRUST_SIMD_DISPATCH(binarizeRows, image, threshold, out.data().data(),
                        0, image.rows());
    return out;
}

namespace {

/**
 * Gather the 8-neighbourhood of (r, c) in the Zhang-Suen order
 * p2..p9 (N, NE, E, SE, S, SW, W, NW).
 */
std::array<std::uint8_t, 8>
neighbours(const core::Grid<std::uint8_t> &g, int r, int c)
{
    auto px = [&](int rr, int cc) -> std::uint8_t {
        return g.inBounds(rr, cc) ? g(rr, cc) : 0;
    };
    return {px(r - 1, c),     px(r - 1, c + 1), px(r, c + 1),
            px(r + 1, c + 1), px(r + 1, c),     px(r + 1, c - 1),
            px(r, c - 1),     px(r - 1, c - 1)};
}

/** One Zhang-Suen deletion test on 0/1 values. */
inline bool
zsDelete(const std::array<std::uint8_t, 8> &p, int phase)
{
    int b = 0;
    for (std::uint8_t v : p)
        b += v;
    if (b < 2 || b > 6)
        return false;

    int a = 0;
    for (int i = 0; i < 8; ++i)
        if (p[i] == 0 && p[(i + 1) % 8] == 1)
            ++a;
    if (a != 1)
        return false;

    // p2*p4*p6 and p4*p6*p8 for phase 0; p2*p4*p8 and p2*p6*p8 for
    // phase 1.
    const bool cond1 = phase == 0 ? (p[0] & p[2] & p[4]) == 0
                                  : (p[0] & p[2] & p[6]) == 0;
    const bool cond2 = phase == 0 ? (p[2] & p[4] & p[6]) == 0
                                  : (p[0] & p[4] & p[6]) == 0;
    return cond1 && cond2;
}

/**
 * One thinning sub-iteration: read `src`, write the surviving pixels
 * into `dst`, 16 pixels per step. Out-of-grid neighbours read from
 * `zeros` so edge rows share the interior kernel. Returns true if
 * any pixel was deleted.
 */
template <class P>
bool
thinPass(const core::Grid<std::uint8_t> &src,
         core::Grid<std::uint8_t> &dst, const std::uint8_t *zeros,
         int phase)
{
    using U8 = typename P::U8;
    const int rows = src.rows(), cols = src.cols();
    const std::uint8_t *sdata = src.data().data();
    std::uint8_t *ddata = dst.data().data();
    const U8 zero8 = U8::zero();
    const U8 one8 = U8::set1(1);
    const U8 seven8 = U8::set1(7);
    bool changed = false;

    for (int r = 0; r < rows; ++r) {
        const std::uint8_t *mid =
            sdata + static_cast<std::size_t>(r) * cols;
        const std::uint8_t *up =
            r > 0 ? mid - cols : zeros;
        const std::uint8_t *down =
            r + 1 < rows ? mid + cols : zeros;
        std::uint8_t *out = ddata + static_cast<std::size_t>(r) * cols;

        // Start from a copy of the row; the kernels below only clear
        // deleted pixels.
        std::memcpy(out, mid, static_cast<std::size_t>(cols));

        int c = 1;
        // Vector interior: columns [c, c+16) with both horizontal
        // neighbours in-row.
        for (; c + 16 <= cols - 1; c += 16) {
            const U8 center = U8::loadu(mid + c);
            const U8 p0 = U8::loadu(up + c);
            const U8 p1 = U8::loadu(up + c + 1);
            const U8 p2 = U8::loadu(mid + c + 1);
            const U8 p3 = U8::loadu(down + c + 1);
            const U8 p4 = U8::loadu(down + c);
            const U8 p5 = U8::loadu(down + c - 1);
            const U8 p6 = U8::loadu(mid + c - 1);
            const U8 p7 = U8::loadu(up + c - 1);

            // Neighbour count b in [2, 6].
            const U8 b = add(add(add(p0, p1), add(p2, p3)),
                             add(add(p4, p5), add(p6, p7)));
            const U8 cond_b =
                and_(cmpgt(b, one8), cmpgt(seven8, b));

            // Exactly one 0 -> 1 transition around the ring.
            const U8 a = add(
                add(add(and_(xor_(p0, one8), p1),
                        and_(xor_(p1, one8), p2)),
                    add(and_(xor_(p2, one8), p3),
                        and_(xor_(p3, one8), p4))),
                add(add(and_(xor_(p4, one8), p5),
                        and_(xor_(p5, one8), p6)),
                    add(and_(xor_(p6, one8), p7),
                        and_(xor_(p7, one8), p0))));
            const U8 cond_a = cmpeq(a, one8);

            const U8 prod1 = phase == 0 ? and_(and_(p0, p2), p4)
                                        : and_(and_(p0, p2), p6);
            const U8 prod2 = phase == 0 ? and_(and_(p2, p4), p6)
                                        : and_(and_(p0, p4), p6);
            const U8 del = and_(and_(cond_b, cond_a),
                                and_(cmpeq(prod1, zero8),
                                     cmpeq(prod2, zero8)));

            storeu(out + c, andnot(del, center));
            if (any(and_(del, center)))
                changed = true;
        }
        // Scalar remainder plus the first/last columns.
        auto scalarAt = [&](int cc) {
            if (!mid[cc])
                return;
            if (zsDelete(neighbours(src, r, cc), phase)) {
                out[cc] = 0;
                changed = true;
            }
        };
        if (cols > 0)
            scalarAt(0);
        for (; c < cols - 1; ++c)
            scalarAt(c);
        if (cols > 1)
            scalarAt(cols - 1);
    }
    return changed;
}

} // namespace

core::Grid<std::uint8_t>
thin(const core::Grid<std::uint8_t> &binary)
{
    // Double-buffered Zhang-Suen: each sub-iteration reads grid A and
    // writes the survivors into grid B, then the buffers swap — the
    // deferred-deletion semantics of the classic algorithm with no
    // per-iteration copy or allocation.
    core::Grid<std::uint8_t> a = binary;
    core::Grid<std::uint8_t> b(binary.rows(), binary.cols(), 0);
    const std::vector<std::uint8_t> zeros(
        static_cast<std::size_t>(a.cols()), 0);

    bool changed = true;
    while (changed) {
        changed = false;
        for (int phase = 0; phase < 2; ++phase) {
            if (TRUST_SIMD_DISPATCH(thinPass, a, b, zeros.data(), phase))
                changed = true;
            std::swap(a, b);
        }
    }
    return a;
}

} // namespace trust::fingerprint
