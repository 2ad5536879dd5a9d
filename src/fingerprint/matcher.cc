#include "fingerprint/matcher.hh"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "core/geometry.hh"
#include "core/simd/simd.hh"

namespace trust::fingerprint {

namespace {

namespace simd = core::simd;

constexpr double kPi = std::numbers::pi;

/** Longest anchor-pair segment considered (pixels). */
constexpr double kMaxPairLength = 90.0;

/** Anchor-pair caps: templates are richer than partial queries. */
constexpr std::size_t kTemplatePairCap = 6000;
constexpr std::size_t kQueryPairCap = 2000;

/** A rigid alignment hypothesis: rotate query by rot, then shift. */
struct Alignment
{
    double rot;
    double cosT;
    double sinT;
    double dx;
    double dy;
};

/**
 * Wrap to the exact double orientationDiff() reduces its operand to.
 * wrapOrientation() can round to pi itself (theta = -eps lands on
 * pi after the +pi shift); a second wrap sends that fixed point to 0
 * just like the re-wrap inside orientationDiff() would. Stored
 * orientation columns therefore hold rewrapped values and the filter
 * kernels compare them directly, fmod-free.
 */
inline double
rewrapped(double theta)
{
    return core::wrapOrientation(core::wrapOrientation(theta));
}

/**
 * Ordered pair features of a minutiae set in enumeration order,
 * before any bucketing (SoA columns plus endpoint ids).
 */
struct RawPairs
{
    std::vector<double> length;
    std::vector<double> dir;
    std::vector<double> psiA;
    std::vector<double> psiB;
    std::vector<int> a;
    std::vector<int> b;

    std::size_t count() const { return length.size(); }
};

/** Build ordered pair features with lengths in a useful band. */
RawPairs
enumeratePairs(const std::vector<Minutia> &set, double min_len,
               double max_len, std::size_t cap)
{
    RawPairs pairs;
    for (std::size_t i = 0; i < set.size(); ++i) {
        for (std::size_t j = 0; j < set.size(); ++j) {
            if (i == j)
                continue;
            const double dx = set[j].x - set[i].x;
            const double dy = set[j].y - set[i].y;
            const double len = std::sqrt(dx * dx + dy * dy);
            if (len < min_len || len > max_len)
                continue;
            const double dir = std::atan2(dy, dx);
            pairs.length.push_back(len);
            pairs.dir.push_back(dir);
            pairs.psiA.push_back(rewrapped(set[i].angle - dir));
            pairs.psiB.push_back(rewrapped(set[j].angle - dir));
            pairs.a.push_back(static_cast<int>(i));
            pairs.b.push_back(static_cast<int>(j));
            if (pairs.count() >= cap)
                return pairs;
        }
    }
    return pairs;
}

/**
 * Flat open-addressing Hough accumulator (power-of-two capacity,
 * splitmix64 probe). Replaces the per-call unordered_map: one
 * allocation, no per-vote node allocations. Harvest order is made
 * deterministic by the (votes, key) sort in matchMinutiae, so slot
 * order never reaches a decision.
 */
struct HoughTable
{
    struct Cell
    {
        std::uint64_t key = 0;
        int votes = 0; ///< 0 marks a free slot.
        double rotSumSin = 0.0;
        double rotSumCos = 0.0;
        double dxSum = 0.0;
        double dySum = 0.0;
    };

    std::vector<Cell> slots;
    std::size_t used = 0;

    explicit HoughTable(std::size_t cap_pow2 = 2048)
        : slots(cap_pow2)
    {
    }

    static std::size_t
    hash(std::uint64_t x)
    {
        // splitmix64 finalizer.
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return static_cast<std::size_t>(x ^ (x >> 31));
    }

    Cell &
    insert(std::uint64_t key)
    {
        if (used * 10 >= slots.size() * 7)
            grow();
        const std::size_t mask = slots.size() - 1;
        std::size_t i = hash(key) & mask;
        while (slots[i].votes != 0 && slots[i].key != key)
            i = (i + 1) & mask;
        if (slots[i].votes == 0) {
            slots[i].key = key;
            ++used;
        }
        return slots[i];
    }

    void
    grow()
    {
        std::vector<Cell> old = std::move(slots);
        slots.assign(old.size() * 2, Cell{});
        const std::size_t mask = slots.size() - 1;
        for (const Cell &cell : old) {
            if (cell.votes == 0)
                continue;
            std::size_t i = hash(cell.key) & mask;
            while (slots[i].votes != 0)
                i = (i + 1) & mask;
            slots[i] = cell;
        }
    }
};

/**
 * Greedy one-to-one pairing between the template minutiae (SoA
 * columns of the index) and the transformed query minutiae. The
 * distance/angle gate runs two template minutiae per step through
 * the SIMD layer; the running-argmin update stays scalar in index
 * order, which keeps the earliest-minimum tie-break of the original
 * scan.
 */
template <class P>
int
countPairs(const PairIndex &index, const std::vector<Minutia> &query,
           const Alignment &a, const MatchParams &params,
           std::vector<std::uint8_t> &used)
{
    using F64 = typename P::F64;
    using M64 = typename P::M64;
    const double tol_sq = params.distTolerance * params.distTolerance;
    const std::size_t n = index.minutiaCount();
    const double *mx = index.mx.data();
    const double *my = index.my.data();
    const double *mang = index.mang.data();
    used.assign(n, 0);

    const F64 tolsq_b = F64::set1(tol_sq);
    const F64 angtol_b = F64::set1(params.angleTolerance);
    const F64 pi_b = F64::set1(kPi);

    int paired = 0;
    for (const auto &q : query) {
        const double qx = a.cosT * q.x - a.sinT * q.y + a.dx;
        const double qy = a.sinT * q.x + a.cosT * q.y + a.dy;
        const double qa = rewrapped(q.angle + a.rot);

        int best = -1;
        double best_d = tol_sq;
        const F64 qx_b = F64::set1(qx);
        const F64 qy_b = F64::set1(qy);
        const F64 qa_b = F64::set1(qa);
        std::size_t i = 0;
        for (; i + 2 <= n; i += 2) {
            const F64 dx = sub(F64::loadu(mx + i), qx_b);
            const F64 dy = sub(F64::loadu(my + i), qy_b);
            const F64 d = add(mul(dx, dx), mul(dy, dy));
            M64 ok = cmplt(d, tolsq_b);
            const F64 da = vabs(sub(F64::loadu(mang + i), qa_b));
            const F64 diff = vmin(da, sub(pi_b, da));
            ok = maskAnd(ok, cmple(diff, angtol_b));
            const unsigned bits = maskBits(ok);
            if (!bits)
                continue;
            if ((bits & 1u) && !used[i]) {
                const double d0 = lane(d, 0);
                if (d0 < best_d) {
                    best_d = d0;
                    best = static_cast<int>(i);
                }
            }
            if ((bits & 2u) && !used[i + 1]) {
                const double d1 = lane(d, 1);
                if (d1 < best_d) {
                    best_d = d1;
                    best = static_cast<int>(i + 1);
                }
            }
        }
        for (; i < n; ++i) {
            if (used[i])
                continue;
            const double dx = mx[i] - qx;
            const double dy = my[i] - qy;
            const double d = dx * dx + dy * dy;
            if (!(d < tol_sq) || !(d < best_d))
                continue;
            const double da = std::fabs(mang[i] - qa);
            const double diff = da < kPi - da ? da : kPi - da;
            if (!(diff <= params.angleTolerance))
                continue;
            best_d = d;
            best = static_cast<int>(i);
        }
        if (best >= 0) {
            used[static_cast<std::size_t>(best)] = 1;
            ++paired;
        }
    }
    return paired;
}

/**
 * Hough voting over one query pair's candidate window [t0, t1) of
 * the bucket-contiguous template pairs. The length/psi gates run two
 * candidates per step; survivors vote scalar in index order so the
 * maxAlignments budget cuts at exactly the same hypothesis as the
 * scalar scan. Returns the number of votes cast (hypotheses).
 */
template <class P>
std::size_t
votePairs(const PairIndex &index, const QueryPairs &qp, std::size_t q,
          int t0, int t1, const MatchParams &params, HoughTable &hough,
          std::size_t hypotheses)
{
    using F64 = typename P::F64;
    using M64 = typename P::M64;
    constexpr double rot_q = 0.20;  // radians per rotation bin
    constexpr double shift_q = 10.0; // pixels per translation bin

    const double *t_len = index.length.data();
    const double *t_psiA = index.psiA.data();
    const double *t_psiB = index.psiB.data();

    const double q_len = qp.length[q];
    const double q_psiA = qp.psiA[q];
    const double q_psiB = qp.psiB[q];
    const double q_dir = qp.dir[q];
    const double q_ax = qp.ax[q];
    const double q_ay = qp.ay[q];
    const std::uint8_t q_ta = qp.typeA[q];
    const std::uint8_t q_tb = qp.typeB[q];

    const F64 qlen_b = F64::set1(q_len);
    const F64 qpsiA_b = F64::set1(q_psiA);
    const F64 qpsiB_b = F64::set1(q_psiB);
    const F64 lentol_b = F64::set1(params.pairLengthTolerance);
    const F64 angtol_b = F64::set1(params.angleTolerance);
    const F64 pi_b = F64::set1(kPi);

    const auto vote = [&](int ti) {
        if (index.typeA[static_cast<std::size_t>(ti)] != q_ta ||
            index.typeB[static_cast<std::size_t>(ti)] != q_tb)
            return;

        // Both directions come from atan2, so the difference lies
        // strictly inside (-2*pi, 2*pi) and wrapAngle's fmod is the
        // identity: only the +-2*pi fixup branches remain
        // (bit-identical to core::wrapAngle).
        constexpr double kTwoPi = 6.283185307179586476925286766559;
        double rot = index.dir[static_cast<std::size_t>(ti)] - q_dir;
        if (rot <= -kPi)
            rot += kTwoPi;
        else if (rot > kPi)
            rot -= kTwoPi;
        const double cos_t = std::cos(rot);
        const double sin_t = std::sin(rot);
        const double dx = index.ax[static_cast<std::size_t>(ti)] -
                          (cos_t * q_ax - sin_t * q_ay);
        const double dy = index.ay[static_cast<std::size_t>(ti)] -
                          (sin_t * q_ax + cos_t * q_ay);

        // Vote (rotation wraps; shift offsets keep keys positive).
        const auto rbin = static_cast<std::int64_t>(
            std::floor((rot + kPi) / rot_q));
        const auto xbin =
            static_cast<std::int64_t>(std::floor(dx / shift_q)) + 512;
        const auto ybin =
            static_cast<std::int64_t>(std::floor(dy / shift_q)) + 512;
        const std::uint64_t key =
            (static_cast<std::uint64_t>(rbin) << 40) ^
            (static_cast<std::uint64_t>(xbin) << 20) ^
            static_cast<std::uint64_t>(ybin);
        HoughTable::Cell &cell = hough.insert(key);
        ++cell.votes;
        cell.rotSumSin += sin_t;
        cell.rotSumCos += cos_t;
        cell.dxSum += dx;
        cell.dySum += dy;
        ++hypotheses;
    };

    int ti = t0;
    for (; ti + 2 <= t1 && hypotheses < params.maxAlignments;
         ti += 2) {
        const F64 dlen =
            vabs(sub(F64::loadu(t_len + ti), qlen_b));
        M64 ok = cmple(dlen, lentol_b);
        const F64 dA = vabs(sub(F64::loadu(t_psiA + ti), qpsiA_b));
        ok = maskAnd(ok, cmple(vmin(dA, sub(pi_b, dA)), angtol_b));
        const F64 dB = vabs(sub(F64::loadu(t_psiB + ti), qpsiB_b));
        ok = maskAnd(ok, cmple(vmin(dB, sub(pi_b, dB)), angtol_b));
        const unsigned bits = maskBits(ok);
        if (!bits)
            continue;
        if (bits & 1u) {
            vote(ti);
            if (hypotheses >= params.maxAlignments)
                break;
        }
        if (bits & 2u)
            vote(ti + 1);
    }
    for (; ti < t1 && hypotheses < params.maxAlignments; ++ti) {
        const double dlen = std::fabs(t_len[ti] - q_len);
        if (!(dlen <= params.pairLengthTolerance))
            continue;
        const double dA = std::fabs(t_psiA[ti] - q_psiA);
        const double diffA = dA < kPi - dA ? dA : kPi - dA;
        if (!(diffA <= params.angleTolerance))
            continue;
        const double dB = std::fabs(t_psiB[ti] - q_psiB);
        const double diffB = dB < kPi - dB ? dB : kPi - dB;
        if (!(diffB <= params.angleTolerance))
            continue;
        vote(ti);
    }
    return hypotheses;
}

} // namespace

QueryPairs
buildQueryPairs(const std::vector<Minutia> &query,
                const MatchParams &params)
{
    QueryPairs qp;
    qp.minLength = 2.0 * params.distTolerance;
    qp.maxLength = kMaxPairLength;
    RawPairs raw = enumeratePairs(query, qp.minLength, qp.maxLength,
                                  kQueryPairCap);
    const std::size_t n = raw.count();
    qp.length = std::move(raw.length);
    qp.dir = std::move(raw.dir);
    qp.psiA = std::move(raw.psiA);
    qp.psiB = std::move(raw.psiB);
    qp.ax.resize(n);
    qp.ay.resize(n);
    qp.typeA.resize(n);
    qp.typeB.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto &ma = query[static_cast<std::size_t>(raw.a[i])];
        const auto &mb = query[static_cast<std::size_t>(raw.b[i])];
        qp.ax[i] = ma.x;
        qp.ay[i] = ma.y;
        qp.typeA[i] = static_cast<std::uint8_t>(ma.type);
        qp.typeB[i] = static_cast<std::uint8_t>(mb.type);
    }
    return qp;
}

PairIndex
buildPairIndex(const std::vector<Minutia> &set,
               const MatchParams &params)
{
    // Pair-anchored alignment: a hypothesis needs TWO minutiae from
    // each side agreeing on length and on both relative orientations,
    // which suppresses the chance alignments single-point anchors
    // admit on small partial prints.
    PairIndex index;
    index.minLength = 2.0 * params.distTolerance;
    index.maxLength = kMaxPairLength;
    index.bucketWidth = params.pairLengthTolerance;
    const RawPairs raw = enumeratePairs(
        set, index.minLength, index.maxLength, kTemplatePairCap);
    const std::size_t n = raw.count();

    // Stable counting sort into bucket-contiguous SoA storage: pairs
    // keep their enumeration order within each quantized-length
    // bucket, so a bucket walk visits them exactly as the per-bucket
    // id lists did.
    const int n_buckets =
        static_cast<int>(index.maxLength / index.bucketWidth) + 2;
    index.bucketStart.assign(static_cast<std::size_t>(n_buckets) + 1,
                             0);
    std::vector<int> bucket_of(n);
    for (std::size_t i = 0; i < n; ++i) {
        const int b =
            static_cast<int>(raw.length[i] / index.bucketWidth);
        bucket_of[i] = b;
        ++index.bucketStart[static_cast<std::size_t>(b) + 1];
    }
    for (int b = 0; b < n_buckets; ++b)
        index.bucketStart[static_cast<std::size_t>(b) + 1] +=
            index.bucketStart[static_cast<std::size_t>(b)];

    index.length.resize(n);
    index.dir.resize(n);
    index.psiA.resize(n);
    index.psiB.resize(n);
    index.ax.resize(n);
    index.ay.resize(n);
    index.typeA.resize(n);
    index.typeB.resize(n);
    std::vector<std::int32_t> cursor(
        index.bucketStart.begin(), index.bucketStart.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
        const auto slot = static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(bucket_of[i])]++);
        index.length[slot] = raw.length[i];
        index.dir[slot] = raw.dir[i];
        index.psiA[slot] = raw.psiA[i];
        index.psiB[slot] = raw.psiB[i];
        const auto &ma = set[static_cast<std::size_t>(raw.a[i])];
        const auto &mb = set[static_cast<std::size_t>(raw.b[i])];
        index.ax[slot] = ma.x;
        index.ay[slot] = ma.y;
        index.typeA[slot] = static_cast<std::uint8_t>(ma.type);
        index.typeB[slot] = static_cast<std::uint8_t>(mb.type);
    }

    // Template minutiae columns for the pairing kernel.
    index.mx.resize(set.size());
    index.my.resize(set.size());
    index.mang.resize(set.size());
    for (std::size_t i = 0; i < set.size(); ++i) {
        index.mx[i] = set[i].x;
        index.my[i] = set[i].y;
        index.mang[i] = core::wrapOrientation(set[i].angle);
    }
    return index;
}

MatchResult
matchMinutiae(const std::vector<Minutia> &tmpl,
              const std::vector<Minutia> &query,
              const MatchParams &params)
{
    if (tmpl.size() < 2 || query.size() < 2)
        return {};
    return matchMinutiae(tmpl, buildPairIndex(tmpl, params), query,
                         buildQueryPairs(query, params), params);
}

MatchResult
matchMinutiae(const std::vector<Minutia> &tmpl,
              const PairIndex &tmpl_index,
              const std::vector<Minutia> &query,
              const MatchParams &params)
{
    if (tmpl.size() < 2 || query.size() < 2)
        return {};
    return matchMinutiae(tmpl, tmpl_index, query,
                         buildQueryPairs(query, params), params);
}

MatchResult
matchMinutiae(const std::vector<Minutia> &tmpl,
              const PairIndex &tmpl_index,
              const std::vector<Minutia> &query,
              const QueryPairs &query_pairs,
              const MatchParams &params)
{
    MatchResult result;
    if (tmpl.size() < 2 || query.size() < 2)
        return result;

    const double bucket_w = tmpl_index.bucketWidth;
    const int n_buckets =
        static_cast<int>(tmpl_index.bucketStart.size()) - 1;

    // Hough-style consensus: every surviving anchor pair votes for
    // its implied rigid transform. The true alignment of a genuine
    // match is proposed by every pair drawn from the common minutiae
    // and so accumulates many concordant votes; chance anchors on an
    // impostor comparison scatter across transform space.
    HoughTable hough;
    std::size_t hypotheses = 0;
    for (std::size_t q = 0; q < query_pairs.count(); ++q) {
        if (hypotheses >= params.maxAlignments)
            break;
        const int qb =
            static_cast<int>(query_pairs.length[q] / bucket_w);
        const int b0 = std::max(0, qb - 1);
        const int b1 = std::min(n_buckets - 1, qb + 1);
        if (b0 > b1)
            continue;
        const int t0 =
            tmpl_index.bucketStart[static_cast<std::size_t>(b0)];
        const int t1 =
            tmpl_index.bucketStart[static_cast<std::size_t>(b1) + 1];
        hypotheses = TRUST_SIMD_DISPATCH(votePairs, tmpl_index,
                                         query_pairs, q, t0, t1,
                                         params, hough, hypotheses);
    }

    // Evaluate the most-supported transform cells with full greedy
    // pairing; keep the best. Equal-vote cells are ordered by bin
    // key: the top-8 cut must not depend on table layout, or the
    // match score would vary across slot orders.
    std::vector<std::pair<std::uint64_t, const HoughTable::Cell *>>
        top;
    top.reserve(hough.used);
    for (const auto &cell : hough.slots)
        if (cell.votes != 0)
            top.emplace_back(cell.key, &cell);
    std::sort(top.begin(), top.end(),
              [](const auto &a, const auto &b) {
                  if (a.second->votes != b.second->votes)
                      return a.second->votes > b.second->votes;
                  return a.first < b.first;
              });
    if (top.size() > 8)
        top.resize(8);

    int best_paired = 0;
    int best_votes = 0;
    std::vector<std::uint8_t> used;
    for (const auto &entry : top) {
        const HoughTable::Cell *cell = entry.second;
        Alignment a;
        a.rot = std::atan2(cell->rotSumSin, cell->rotSumCos);
        a.cosT = std::cos(a.rot);
        a.sinT = std::sin(a.rot);
        a.dx = cell->dxSum / cell->votes;
        a.dy = cell->dySum / cell->votes;
        const int paired = TRUST_SIMD_DISPATCH(
            countPairs, tmpl_index, query, a, params, used);
        if (paired > best_paired ||
            (paired == best_paired && cell->votes > best_votes)) {
            best_paired = paired;
            best_votes = cell->votes;
            result.alignment = {a.rot, a.dx, a.dy};
        }
    }

    result.paired = best_paired;
    result.votes = best_votes;
    const double denom =
        static_cast<double>(std::min(tmpl.size(), query.size()));
    result.score = static_cast<double>(best_paired) / denom;
    result.accepted =
        best_paired >= static_cast<int>(params.minPairedFloor) &&
        best_votes >= static_cast<int>(params.minVotes) &&
        result.score >= params.acceptThreshold;
    return result;
}

Minutia
RigidTransform::apply(const Minutia &m) const
{
    const double c = std::cos(rot), s = std::sin(rot);
    Minutia out = m;
    out.x = c * m.x - s * m.y + dx;
    out.y = s * m.x + c * m.y + dy;
    out.angle = core::wrapOrientation(m.angle + rot);
    return out;
}

MatchResult
matchAgainstViews(const std::vector<std::vector<Minutia>> &views,
                  const std::vector<Minutia> &query,
                  const MatchParams &params)
{
    // The query-side pair features depend only on the tolerances,
    // so build them once and share them across every view.
    const QueryPairs qp = buildQueryPairs(query, params);
    MatchResult best;
    for (const auto &view : views) {
        if (view.size() < 2 || query.size() < 2)
            continue;
        const MatchResult r = matchMinutiae(
            view, buildPairIndex(view, params), query, qp, params);
        if (r.score > best.score || (r.accepted && !best.accepted))
            best = r;
    }
    return best;
}

std::vector<Minutia>
mosaicViews(const std::vector<std::vector<Minutia>> &views,
            const MatchParams &params, int min_stitch_pairs)
{
    if (views.empty())
        return {};

    // Seed with the richest view; stitch the rest in size order.
    std::vector<std::size_t> order(views.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return views[a].size() > views[b].size();
              });

    std::vector<Minutia> mosaic = views[order[0]];
    const double spacing_sq =
        params.distTolerance * params.distTolerance;

    for (std::size_t k = 1; k < order.size(); ++k) {
        const auto &view = views[order[k]];
        const MatchResult r = matchMinutiae(mosaic, view, params);
        if (r.paired < min_stitch_pairs)
            continue; // cannot place this view confidently

        for (const auto &m : view) {
            const Minutia placed = r.alignment.apply(m);
            bool duplicate = false;
            for (const auto &existing : mosaic) {
                const double ddx = existing.x - placed.x;
                const double ddy = existing.y - placed.y;
                if (ddx * ddx + ddy * ddy < spacing_sq) {
                    duplicate = true;
                    break;
                }
            }
            if (!duplicate)
                mosaic.push_back(placed);
        }
    }
    return mosaic;
}

} // namespace trust::fingerprint
