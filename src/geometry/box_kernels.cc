// The MBR gate kernels and the u16 quantizer. Every kernel is one plain C++
// loop. A hand-written AVX2 body sits beside the loop only where it measured
// at least 1.3x faster than the loop compiled with this file's flags: the
// strided AoS gates IntersectsBatch / ContainsBatch and the SoaBoxes::Assign
// transpose (ratios at each body). The SoA, sphere and quantized gates are
// left to the compiler, which vectorizes them to within that bar.
//
// This is the one translation unit built with the kernel flags
// (CMakeLists.txt): -mavx2 when FLAT_SIMD_AVX2 is on, and always
// -ffp-contract=off -fno-trapping-math. No FMA contraction keeps the sphere
// gate rounding exactly like Aabb::DistanceSquaredTo (mul then add). No
// trapping math lets GCC if-convert std::max, so the sphere loop vectorizes.
// Neither flag changes a computed value.
#include "geometry/box_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace flat {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

const char* BoxKernelIsa() {
#if defined(__AVX2__)
  return "avx2";
#else
  return "scalar";
#endif
}

void IntersectsBatchScalar(const char* boxes, size_t stride, size_t count,
                           const Aabb& query, uint8_t* hits) {
  const Vec3 ql = query.lo(), qh = query.hi();
  for (size_t i = 0; i < count; ++i) {
    double b[6];  // lo.x lo.y lo.z hi.x hi.y hi.z
    std::memcpy(b, boxes + i * stride, sizeof(b));
    // Aabb::Intersects in one branch-free expression: the empty-box checks
    // lo <= hi fold into the chain, and every compare is false on NaN.
    const int hit = (b[0] <= b[3]) & (b[1] <= b[4]) & (b[2] <= b[5]) &
                    (b[0] <= qh.x) & (b[3] >= ql.x) & (b[1] <= qh.y) &
                    (b[4] >= ql.y) & (b[2] <= qh.z) & (b[5] >= ql.z);
    hits[i] = static_cast<uint8_t>(hit);
  }
}

void IntersectsBatch(const char* boxes, size_t stride, size_t count,
                     const Aabb& query, uint8_t* hits) {
#if defined(__AVX2__)
  // Kept: 4.8x its plain loop (bench_micro_primitives NodeGateSimdAos vs
  // NodeGateScalar, 103 vs 495 ns per 73-box page, 4-vCPU AVX-512 Xeon VM).
  // One box per iteration, vector ops across its six doubles. Lane maps:
  //   L  = [lo.x lo.y lo.z hi.x]   (load at byte 0)
  //   H  = [lo.z hi.x hi.y hi.z]   (load at byte 16; stays inside the box)
  //   Hs = [hi.x hi.y hi.z lo.z]   (H rotated down one lane)
  // so lanes 0..2 of L/Hs line up as lo/hi per axis; lane 3 is junk and the
  // movemask is masked to the low three bits. _CMP_*_OQ compares are false
  // on NaN, exactly like the scalar <= / >=.
  const __m256d qh = _mm256_set_pd(kInf, query.hi().z, query.hi().y,
                                   query.hi().x);
  const __m256d ql = _mm256_set_pd(-kInf, query.lo().z, query.lo().y,
                                   query.lo().x);
  for (size_t i = 0; i < count; ++i) {
    const double* b = reinterpret_cast<const double*>(boxes + i * stride);
    const __m256d lo = _mm256_loadu_pd(b);
    const __m256d h = _mm256_loadu_pd(b + 2);
    const __m256d hs = _mm256_permute4x64_pd(h, _MM_SHUFFLE(0, 3, 2, 1));
    const __m256d c1 = _mm256_cmp_pd(lo, qh, _CMP_LE_OQ);
    const __m256d c2 = _mm256_cmp_pd(hs, ql, _CMP_GE_OQ);
    const __m256d c3 = _mm256_cmp_pd(lo, hs, _CMP_LE_OQ);  // empty check
    const int m = _mm256_movemask_pd(_mm256_and_pd(_mm256_and_pd(c1, c2), c3));
    hits[i] = static_cast<uint8_t>((m & 7) == 7);
  }
#else
  IntersectsBatchScalar(boxes, stride, count, query, hits);
#endif
}

void ContainsBatchScalar(const char* boxes, size_t stride, size_t count,
                         const Aabb& query, uint8_t* covered) {
  const Vec3 ql = query.lo(), qh = query.hi();
  for (size_t i = 0; i < count; ++i) {
    double b[6];  // lo.x lo.y lo.z hi.x hi.y hi.z
    std::memcpy(b, boxes + i * stride, sizeof(b));
    // Non-empty box fully inside `query`. Every compare is false on NaN, and
    // an empty query admits no non-empty box (lo >= q.lo && hi <= q.hi &&
    // lo <= hi forces q.lo <= q.hi), so no special cases are needed.
    const int cov = (b[0] <= b[3]) & (b[1] <= b[4]) & (b[2] <= b[5]) &
                    (b[0] >= ql.x) & (b[3] <= qh.x) & (b[1] >= ql.y) &
                    (b[4] <= qh.y) & (b[2] >= ql.z) & (b[5] <= qh.z);
    covered[i] = static_cast<uint8_t>(cov);
  }
}

void ContainsBatch(const char* boxes, size_t stride, size_t count,
                   const Aabb& query, uint8_t* covered) {
#if defined(__AVX2__)
  // Kept: 4.4x its plain loop (CoverGateSimdAos vs CoverGateScalar, 115 vs
  // 502 ns per 73-box page, same machine).
  // Same lane maps as IntersectsBatch (L = lo corners + hi.x, Hs = hi
  // corners + lo.z) with the predicates flipped to containment. Lane 3 is
  // junk: ql/qh carry ∓inf there so it always passes, and the movemask is
  // masked to the low three bits anyway.
  const __m256d qh = _mm256_set_pd(kInf, query.hi().z, query.hi().y,
                                   query.hi().x);
  const __m256d ql = _mm256_set_pd(-kInf, query.lo().z, query.lo().y,
                                   query.lo().x);
  for (size_t i = 0; i < count; ++i) {
    const double* b = reinterpret_cast<const double*>(boxes + i * stride);
    const __m256d lo = _mm256_loadu_pd(b);
    const __m256d h = _mm256_loadu_pd(b + 2);
    const __m256d hs = _mm256_permute4x64_pd(h, _MM_SHUFFLE(0, 3, 2, 1));
    const __m256d c1 = _mm256_cmp_pd(lo, ql, _CMP_GE_OQ);
    const __m256d c2 = _mm256_cmp_pd(hs, qh, _CMP_LE_OQ);
    const __m256d c3 = _mm256_cmp_pd(lo, hs, _CMP_LE_OQ);  // empty check
    const int m = _mm256_movemask_pd(_mm256_and_pd(_mm256_and_pd(c1, c2), c3));
    covered[i] = static_cast<uint8_t>((m & 7) == 7);
  }
#else
  ContainsBatchScalar(boxes, stride, count, query, covered);
#endif
}

void SoaBoxes::Assign(const char* boxes, size_t stride, size_t count) {
  count_ = count;
  padded_ = (count + 3) & ~size_t{3};
  lanes_.resize(6 * padded_);
  double* lox = lanes_.data();
  double* loy = lox + padded_;
  double* loz = loy + padded_;
  double* hix = loz + padded_;
  double* hiy = hix + padded_;
  double* hiz = hiy + padded_;
  size_t i = 0;
#if defined(__AVX2__)
  // Kept: 2.8x the plain loop below (SoaTranspose, 107 vs 301 ns per
  // 73-box page, same machine).
  // Transpose four boxes at a time: two overlapping 4-lane loads per box
  // (both stay inside the 48-byte box image) and two 4x4 double transposes.
  for (; i + 4 <= count; i += 4) {
    const double* b0 = reinterpret_cast<const double*>(boxes + i * stride);
    const double* b1 = reinterpret_cast<const double*>(
        boxes + (i + 1) * stride);
    const double* b2 = reinterpret_cast<const double*>(
        boxes + (i + 2) * stride);
    const double* b3 = reinterpret_cast<const double*>(
        boxes + (i + 3) * stride);
    const __m256d r0 = _mm256_loadu_pd(b0), r1 = _mm256_loadu_pd(b1);
    const __m256d r2 = _mm256_loadu_pd(b2), r3 = _mm256_loadu_pd(b3);
    __m256d t0 = _mm256_unpacklo_pd(r0, r1);
    __m256d t1 = _mm256_unpackhi_pd(r0, r1);
    __m256d t2 = _mm256_unpacklo_pd(r2, r3);
    __m256d t3 = _mm256_unpackhi_pd(r2, r3);
    _mm256_storeu_pd(lox + i, _mm256_permute2f128_pd(t0, t2, 0x20));
    _mm256_storeu_pd(loy + i, _mm256_permute2f128_pd(t1, t3, 0x20));
    _mm256_storeu_pd(loz + i, _mm256_permute2f128_pd(t0, t2, 0x31));
    _mm256_storeu_pd(hix + i, _mm256_permute2f128_pd(t1, t3, 0x31));
    const __m256d s0 = _mm256_loadu_pd(b0 + 2), s1 = _mm256_loadu_pd(b1 + 2);
    const __m256d s2 = _mm256_loadu_pd(b2 + 2), s3 = _mm256_loadu_pd(b3 + 2);
    t0 = _mm256_unpacklo_pd(s0, s1);   // columns lo.z / hi.y
    t1 = _mm256_unpackhi_pd(s0, s1);   // columns hi.x / hi.z
    t2 = _mm256_unpacklo_pd(s2, s3);
    t3 = _mm256_unpackhi_pd(s2, s3);
    _mm256_storeu_pd(hiy + i, _mm256_permute2f128_pd(t0, t2, 0x31));
    _mm256_storeu_pd(hiz + i, _mm256_permute2f128_pd(t1, t3, 0x31));
  }
#endif
  for (; i < count; ++i) {
    double b[6];
    std::memcpy(b, boxes + i * stride, sizeof(b));
    lox[i] = b[0];
    loy[i] = b[1];
    loz[i] = b[2];
    hix[i] = b[3];
    hiy[i] = b[4];
    hiz[i] = b[5];
  }
  for (i = count; i < padded_; ++i) {
    // Canonical empty boxes: every kernel's empty check zeroes these lanes.
    lox[i] = loy[i] = loz[i] = kInf;
    hix[i] = hiy[i] = hiz[i] = -kInf;
  }
}

// The SoA gates below read the query into locals and the lane count once:
// `hits` is a byte pointer that may alias anything, so members read inside
// the loop would be reloaded after every store and block vectorization.

void IntersectsSoa(const SoaBoxes& soa, const Aabb& query, uint8_t* hits) {
  const double *lox = soa.lo(0), *loy = soa.lo(1), *loz = soa.lo(2);
  const double *hix = soa.hi(0), *hiy = soa.hi(1), *hiz = soa.hi(2);
  const Vec3 ql = query.lo(), qh = query.hi();
  const size_t n = soa.padded_count();
  for (size_t i = 0; i < n; ++i) {
    const int hit =
        (lox[i] <= hix[i]) & (loy[i] <= hiy[i]) & (loz[i] <= hiz[i]) &
        (lox[i] <= qh.x) & (hix[i] >= ql.x) & (loy[i] <= qh.y) &
        (hiy[i] >= ql.y) & (loz[i] <= qh.z) & (hiz[i] >= ql.z);
    hits[i] = static_cast<uint8_t>(hit);
  }
}

void ContainsSoa(const SoaBoxes& soa, const Aabb& query, uint8_t* covered) {
  const double *lox = soa.lo(0), *loy = soa.lo(1), *loz = soa.lo(2);
  const double *hix = soa.hi(0), *hiy = soa.hi(1), *hiz = soa.hi(2);
  const Vec3 ql = query.lo(), qh = query.hi();
  const size_t n = soa.padded_count();
  for (size_t i = 0; i < n; ++i) {
    const int cov =
        (lox[i] <= hix[i]) & (loy[i] <= hiy[i]) & (loz[i] <= hiz[i]) &
        (lox[i] >= ql.x) & (hix[i] <= qh.x) & (loy[i] >= ql.y) &
        (hiy[i] <= qh.y) & (loz[i] >= ql.z) & (hiz[i] <= qh.z);
    covered[i] = static_cast<uint8_t>(cov);
  }
}

void SphereGateSoa(const SoaBoxes& soa, const Vec3& center, double radius,
                   uint8_t* hits) {
  const double *lox = soa.lo(0), *loy = soa.lo(1), *loz = soa.lo(2);
  const double *hix = soa.hi(0), *hiy = soa.hi(1), *hiz = soa.hi(2);
  const Vec3 p = center;
  const double r2 = radius * radius;
  const size_t n = soa.padded_count();
  for (size_t i = 0; i < n; ++i) {
    // Exactly Aabb::DistanceSquaredTo: per-axis gap = max(max(lo - p,
    // p - hi), 0), accumulated x then y then z, no FMA. std::max keeps its
    // first argument when either is NaN, as std::max({...}) does there, so
    // a NaN centre or radius gates nothing, like the member predicate.
    const double gx = std::max(std::max(lox[i] - p.x, p.x - hix[i]), 0.0);
    const double gy = std::max(std::max(loy[i] - p.y, p.y - hiy[i]), 0.0);
    const double gz = std::max(std::max(loz[i] - p.z, p.z - hiz[i]), 0.0);
    const double d2 = gx * gx + gy * gy + gz * gz;
    const int hit = (lox[i] <= hix[i]) & (loy[i] <= hiy[i]) &
                    (loz[i] <= hiz[i]) & (d2 <= r2);
    hits[i] = static_cast<uint8_t>(hit);
  }
}

namespace {

// Raw (unwidened) cell of `x` on one grid axis: floor((x - origin) * inv)
// clamped to [0, kQuantMaxCell]. The !(t > 0) form sends NaN (degenerate
// 0 * inf products) and negatives to cell 0. Weakly monotone in x: sub and
// mul are correctly rounded and inv >= 0, so the FP result is monotone, and
// clamp + floor preserve that — the property the conservativeness argument
// in box_kernels.h rests on.
inline int RawCell(double origin, double inv, double x) {
  const double t = (x - origin) * inv;
  if (!(t > 0.0)) return 0;
  if (t >= static_cast<double>(kQuantMaxCell)) {
    return static_cast<int>(kQuantMaxCell);
  }
  return static_cast<int>(t);
}

}  // namespace

QuantGrid MakeQuantGrid(const Aabb& node_box) {
  QuantGrid grid;
  grid.never = node_box.IsEmpty();
  for (int axis = 0; axis < 3; ++axis) {
    grid.origin[axis] = node_box.lo()[axis];
    const double extent = node_box.hi()[axis] - node_box.lo()[axis];
    // Degenerate (zero-width) axes and non-finite extents quantize every
    // coordinate into cell 0 via inv = 0; with the one-cell widening below,
    // every range on such an axis becomes [0, 1] and always overlaps —
    // conservative, never wrong. Denormal extents may overflow inv to +inf,
    // which RawCell's clamp handles (cell 0 at the origin, top cell above).
    grid.inv[axis] =
        extent > 0.0 ? static_cast<double>(kQuantMaxCell) / extent : 0.0;
  }
  return grid;
}

uint16_t QuantizeDown(const QuantGrid& grid, int axis, double x) {
  const int cell = RawCell(grid.origin[axis], grid.inv[axis], x) - 1;
  return static_cast<uint16_t>(cell < 0 ? 0 : cell);
}

uint16_t QuantizeUp(const QuantGrid& grid, int axis, double x) {
  const int cell = RawCell(grid.origin[axis], grid.inv[axis], x) + 1;
  return static_cast<uint16_t>(
      cell > static_cast<int>(kQuantMaxCell) ? kQuantMaxCell : cell);
}

QuantizedQueryBox QuantizeQuery(const Aabb& node_box, const Aabb& query) {
  QuantizedQueryBox q;
  const QuantGrid grid = MakeQuantGrid(node_box);
  q.never = grid.never || query.IsEmpty();
  if (q.never) return q;  // lo/hi stay 0: deterministic, unused
  for (int axis = 0; axis < 3; ++axis) {
    q.lo[axis] = QuantizeDown(grid, axis, query.lo()[axis]);
    q.hi[axis] = QuantizeUp(grid, axis, query.hi()[axis]);
  }
  return q;
}

void QuantizedSoa::Assign(const char* slots, size_t stride, size_t count) {
  count_ = count;
  padded_ = (count + 15) & ~size_t{15};
  lanes_.resize(6 * padded_);
  uint16_t* lanes[6];
  for (int lane = 0; lane < 6; ++lane) {
    lanes[lane] = lanes_.data() + lane * padded_;
  }
  for (size_t i = 0; i < count; ++i) {
    uint16_t v[6];  // lo.x lo.y lo.z hi.x hi.y hi.z
    std::memcpy(v, slots + i * stride, sizeof(v));
    for (int lane = 0; lane < 6; ++lane) lanes[lane][i] = v[lane];
  }
  for (size_t i = count; i < padded_; ++i) {
    // Inverted sentinel ranges; the kernels zero the padding bytes anyway,
    // this just keeps the lanes deterministic.
    lanes[0][i] = lanes[1][i] = lanes[2][i] = 0xFFFF;
    lanes[3][i] = lanes[4][i] = lanes[5][i] = 0;
  }
}

void IntersectsQuantizedSoa(const QuantizedSoa& soa,
                            const QuantizedQueryBox& query, uint8_t* hits) {
  const size_t padded = soa.padded_count();
  if (padded == 0) return;  // empty node: no hit bytes to write (hits may
                            // be null — memset requires a valid pointer)
  const uint16_t *lox = soa.lo(0), *loy = soa.lo(1), *loz = soa.lo(2);
  const uint16_t *hix = soa.hi(0), *hiy = soa.hi(1), *hiz = soa.hi(2);
  const uint16_t qlx = query.lo[0], qly = query.lo[1], qlz = query.lo[2];
  const uint16_t qhx = query.hi[0], qhy = query.hi[1], qhz = query.hi[2];
  const size_t n = query.never ? 0 : soa.count();
  for (size_t i = 0; i < n; ++i) {
    const int hit = (lox[i] <= qhx) & (hix[i] >= qlx) & (loy[i] <= qhy) &
                    (hiy[i] >= qly) & (loz[i] <= qhz) & (hiz[i] >= qlz);
    hits[i] = static_cast<uint8_t>(hit);
  }
  // No u16 sentinel misses a query spanning the whole grid, so the padding
  // (and every slot of a never query) is zeroed instead of gated.
  std::memset(hits + n, 0, padded - n);
}

namespace {

// The read-side dequantization corners, formula-identical to
// CompressedNodeView::ChildBoxAt (rtree/node.h): the outward-widened box
// those corners span is guaranteed to contain the child's exact MBR, so a
// cell certified here certifies the exact MBR too. OuterLo is weakly
// monotone in the cell (integer-by-double multiply and the add are
// correctly rounded, cell_width >= 0); OuterHi is weakly monotone on the
// linear region c <= kQuantMaxCell - 3 for the same reason, and the
// threshold search below treats the node_hi clamp at the top separately
// rather than assuming monotonicity across that seam.
inline double OuterLo(double origin, double cell_width, uint32_t c) {
  return c <= 2 ? origin : origin + static_cast<int>(c - 2) * cell_width;
}

inline double OuterHi(double origin, double node_hi, double cell_width,
                      uint32_t c) {
  return c + 2 >= kQuantMaxCell
             ? node_hi
             : origin + static_cast<int>(c + 2) * cell_width;
}

}  // namespace

QuantizedCoverBox QuantizeCoverQuery(const Aabb& node_box, const Aabb& query) {
  QuantizedCoverBox cover;
  cover.never = node_box.IsEmpty() || query.IsEmpty();
  if (cover.never) return cover;
  for (int axis = 0; axis < 3; ++axis) {
    const double origin = node_box.lo()[axis];
    const double node_hi = node_box.hi()[axis];
    const double cell =
        (node_hi - origin) / static_cast<double>(kQuantMaxCell);
    const double qlo = query.lo()[axis];
    const double qhi = query.hi()[axis];
    if (!std::isfinite(cell) || !(cell >= 0.0)) {
      cover.never = true;  // non-finite node box: nothing is certifiable
      return cover;
    }

    // Smallest cell whose dequantized lo corner clears query.lo. OuterLo is
    // weakly monotone over the whole range, so a binary search finds the
    // threshold; infeasible (or NaN query corner — every compare false)
    // means no cell qualifies on this axis.
    if (!(OuterLo(origin, cell, kQuantMaxCell) >= qlo)) {
      cover.never = true;
      return cover;
    }
    uint32_t lo = 0, hi = kQuantMaxCell;
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      if (OuterLo(origin, cell, mid) >= qlo) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    cover.lo[axis] = static_cast<uint16_t>(lo);

    // Largest cell whose dequantized hi corner stays under query.hi. Search
    // the linear region [0, kQuantMaxCell - 3] (monotone), then admit the
    // clamped top cells only if node_hi itself qualifies AND the whole
    // linear region does — cells between the two regions must not sneak
    // through uncertified.
    constexpr uint32_t kLinearTop = kQuantMaxCell - 3;
    if (!(OuterHi(origin, node_hi, cell, 0) <= qhi)) {
      cover.never = true;
      return cover;
    }
    lo = 0;
    hi = kLinearTop;
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo + 1) / 2;
      if (OuterHi(origin, node_hi, cell, mid) <= qhi) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    cover.hi[axis] = (lo == kLinearTop && node_hi <= qhi)
                         ? static_cast<uint16_t>(kQuantMaxCell)
                         : static_cast<uint16_t>(lo);
  }
  return cover;
}

void ContainsQuantizedSoa(const QuantizedSoa& soa,
                          const QuantizedCoverBox& cover, uint8_t* covered) {
  const size_t padded = soa.padded_count();
  if (padded == 0) return;  // empty node: see IntersectsQuantizedSoa
  const uint16_t *lox = soa.lo(0), *loy = soa.lo(1), *loz = soa.lo(2);
  const uint16_t *hix = soa.hi(0), *hiy = soa.hi(1), *hiz = soa.hi(2);
  const uint16_t clx = cover.lo[0], cly = cover.lo[1], clz = cover.lo[2];
  const uint16_t chx = cover.hi[0], chy = cover.hi[1], chz = cover.hi[2];
  const size_t n = cover.never ? 0 : soa.count();
  for (size_t i = 0; i < n; ++i) {
    const int cov = (lox[i] >= clx) & (hix[i] <= chx) & (loy[i] >= cly) &
                    (hiy[i] <= chy) & (loz[i] >= clz) & (hiz[i] <= chz);
    covered[i] = static_cast<uint8_t>(cov);
  }
  std::memset(covered + n, 0, padded - n);
}

}  // namespace flat
