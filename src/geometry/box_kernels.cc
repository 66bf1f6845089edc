// The MBR gate kernels. Every kernel is one plain C++ loop. A hand-written
// AVX2 body sits beside the loop only where it measured at least 1.3x
// faster than the loop compiled with this file's flags: the strided AoS
// gates IntersectsBatch / ContainsBatch and the SoaBoxes::Assign transpose
// (ratios at each body). The SoA and sphere gates are left to the compiler,
// which vectorizes them to within that bar.
//
// This is the one translation unit built with the kernel flags
// (CMakeLists.txt): -mavx2 when FLAT_SIMD_AVX2 is on, and always
// -ffp-contract=off -fno-trapping-math. No FMA contraction keeps the sphere
// gate rounding exactly like Aabb::DistanceSquaredTo (mul then add). No
// trapping math lets GCC if-convert std::max, so the sphere loop vectorizes.
// Neither flag changes a computed value.
#include "geometry/box_kernels.h"

#include <algorithm>
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

}  // namespace flat
