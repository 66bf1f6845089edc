#ifndef FLAT_GEOMETRY_BOX_KERNELS_H_
#define FLAT_GEOMETRY_BOX_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/aabb.h"
#include "geometry/vec3.h"

namespace flat {

/// MBR gate kernels for the crawl and seed hot paths.
///
/// Every kernel is one plain C++ loop, compiled in its own translation unit
/// with -ffp-contract=off -fno-trapping-math (and -mavx2 under the
/// FLAT_SIMD_AVX2 CMake option, the default), so the compiler vectorizes it
/// without changing a computed value. A hand-written AVX2 body is kept only
/// where it measured at least 1.3x faster than that loop: IntersectsBatch,
/// ContainsBatch and the SoaBoxes::Assign transpose. Their plain loops stay
/// as the `...Scalar` references and the non-AVX2 path, and the AVX2 bodies
/// agree with them bit for bit. tests/box_kernels_test.cc holds every kernel
/// to its per-box predicate (Aabb::Intersects / Contains / IntersectsSphere,
/// where an empty or NaN box never hits) over adversarial box populations.
///
/// Which hand-written tier was compiled in: "avx2", or "scalar" for the
/// plain loops alone. Benchmarks record it in their JSON output.
const char* BoxKernelIsa();

/// Batched intersection gate for contiguous record MBRs: tests `count` boxes
/// laid out `stride` bytes apart starting at `boxes`, each in the Aabb object
/// layout (lo.x lo.y lo.z hi.x hi.y hi.z as doubles — e.g. the RTreeEntry
/// slots of an object page). Sets hits[i] to 1 iff box i is non-empty and
/// intersects `query`, exactly matching Aabb::Intersects for a non-empty
/// `query`, including the "empty boxes intersect nothing" rule.
void IntersectsBatch(const char* boxes, size_t stride, size_t count,
                     const Aabb& query, uint8_t* hits);
/// Its plain loop: the reference, and the kernel of non-AVX2 builds.
void IntersectsBatchScalar(const char* boxes, size_t stride, size_t count,
                           const Aabb& query, uint8_t* hits);

/// Structure-of-arrays view of a node page's entry MBRs: six contiguous
/// double lanes (lo.x of every entry, then lo.y, ... then hi.z), padded to a
/// multiple of four entries with canonical empty boxes so the gate loops
/// need no scalar tail. `Assign` transposes the strided AoS page layout
/// (e.g. the RTreeEntry slots of an object page) into the lanes; the buffer
/// is reusable across pages and grows to the largest fanout seen.
class SoaBoxes {
 public:
  /// Transposes `count` boxes laid out `stride` bytes apart (Aabb object
  /// layout: lo.x lo.y lo.z hi.x hi.y hi.z as doubles) into the six lanes.
  void Assign(const char* boxes, size_t stride, size_t count);

  size_t count() const { return count_; }
  /// count() rounded up to a multiple of four; the kernels write this many
  /// hit bytes (padding lanes always report 0).
  size_t padded_count() const { return padded_; }

  /// Lane base pointers: axis 0..2, lo or hi.
  const double* lo(int axis) const { return lanes_.data() + axis * padded_; }
  const double* hi(int axis) const {
    return lanes_.data() + (3 + axis) * padded_;
  }

 private:
  size_t count_ = 0;
  size_t padded_ = 0;
  std::vector<double> lanes_;  // 6 segments of padded_ doubles
};

/// Gates every box of `soa` against `query`: hits[i] = 1 iff box i is
/// non-empty and intersects (Aabb::Intersects semantics). Writes
/// soa.padded_count() bytes.
void IntersectsSoa(const SoaBoxes& soa, const Aabb& query, uint8_t* hits);

/// --- Containment ("covered") gates for aggregate pruning ---
///
/// Counterparts of the intersection gates above with the predicate flipped
/// from "overlaps the query" to "lies fully inside the query":
/// covered[i] = 1 iff box i is non-empty and query.Contains(box i) (per
/// Aabb::Contains on a non-empty box: lo >= query.lo and hi <= query.hi on
/// every axis). An empty or NaN query covers nothing; empty boxes report 0
/// (a covered verdict licenses skipping work for the box's *contents*, and
/// an empty box has none worth certifying). The aggregate-pruned descent
/// (core/flat_index.cc) adds a covered child's stored subtree count without
/// descending, so a false positive would miscount — these gates are exact.

/// Tests `count` boxes laid out `stride` bytes apart (Aabb object layout)
/// against `query`, writing 0/1 into `covered`; ContainsBatchScalar is its
/// plain loop, like IntersectsBatchScalar.
void ContainsBatch(const char* boxes, size_t stride, size_t count,
                   const Aabb& query, uint8_t* covered);
void ContainsBatchScalar(const char* boxes, size_t stride, size_t count,
                         const Aabb& query, uint8_t* covered);

/// SoA form over the same lanes as IntersectsSoa. Writes
/// soa.padded_count() bytes; padding lanes (canonical empty boxes) are 0.
void ContainsSoa(const SoaBoxes& soa, const Aabb& query, uint8_t* covered);

/// Gates every box of `soa` against the closed ball around `center`:
/// hits[i] = 1 iff box i is non-empty and its min distance to `center` is
/// <= radius — exactly Aabb::IntersectsSphere (same operation order:
/// gap = max(max(lo-p, p-hi), 0) per axis, d2 = ((gx*gx + gy*gy) + gz*gz),
/// d2 <= radius*radius). A NaN centre or radius gates nothing. Writes
/// soa.padded_count() bytes.
void SphereGateSoa(const SoaBoxes& soa, const Vec3& center, double radius,
                   uint8_t* hits);

}  // namespace flat

#endif  // FLAT_GEOMETRY_BOX_KERNELS_H_
