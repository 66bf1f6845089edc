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
/// where an empty or NaN box never hits, and the per-slot u16 compare) over
/// adversarial box populations.
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
/// descending, so a false positive would miscount — these gates are exact
/// for exact boxes and conservative for quantized ones (may under-trigger,
/// never over-trigger).

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

/// --- Quantized (16-bit fixed-point) gates for compressed node pages ---
///
/// Compressed interior pages (rtree/node.h, docs/file_format.md §2.1) store
/// the node's exact box once and each child MBR as six u16 cell indexes on a
/// 65536-cell grid spanning that box. Quantization always rounds *outward*
/// (lo floors, hi ceils, each widened by one extra cell), so a quantized box
/// contains its exact box and an integer gate can produce false positives
/// but never a false negative: a spurious hit descends one child too many
/// and is resolved by the exact gates at the seed-leaf / object level, while
/// a miss would lose results and is impossible by construction.
///
/// The extra one-cell widening is what makes the scheme robust: the cell
/// function floor((x - origin) * inv) is evaluated on the write side (page
/// packing) and the read side (query gating). Both call the functions below
/// — compiled once, in this TU, with -ffp-contract=off — so they agree
/// bit-for-bit; the widening additionally absorbs a one-cell discrepancy
/// should the two sides ever be compiled apart. Cost: ~3e-5 of the node
/// extent of slack per side, far below any realistic MBR tolerance.

/// Highest cell index on the quantization grid (cells per axis - 1).
inline constexpr uint32_t kQuantMaxCell = 65535;

/// The grid spanned by a node's exact box: per-axis origin and inverse cell
/// width (kQuantMaxCell / extent; 0 on degenerate axes, where every
/// coordinate lands in cell 0 and every quantized range overlaps — still
/// conservative). `never` is set for the canonical empty box: nothing can be
/// quantized into an empty grid, so gates report no hits.
struct QuantGrid {
  double origin[3] = {0.0, 0.0, 0.0};
  double inv[3] = {0.0, 0.0, 0.0};
  bool never = false;
};

QuantGrid MakeQuantGrid(const Aabb& node_box);

/// Cell index of coordinate `x` on `axis`, rounded down (Down) or up (Up) by
/// one extra cell beyond the containing cell and clamped to
/// [0, kQuantMaxCell]. Down is used for lo corners, Up for hi corners —
/// outward on both the write and the read side.
uint16_t QuantizeDown(const QuantGrid& grid, int axis, double x);
uint16_t QuantizeUp(const QuantGrid& grid, int axis, double x);

/// A query box quantized once per node into that node's grid; the per-child
/// gate is then six u16 compares. `never` short-circuits to zero hits: the
/// query or the node box is empty (empty boxes intersect nothing).
struct QuantizedQueryBox {
  uint16_t lo[3] = {0, 0, 0};
  uint16_t hi[3] = {0, 0, 0};
  bool never = false;
};

QuantizedQueryBox QuantizeQuery(const Aabb& node_box, const Aabb& query);

/// Structure-of-arrays view of a compressed node's quantized child MBRs: six
/// contiguous u16 lanes (lo.x of every child, then lo.y, ... then hi.z),
/// padded to a multiple of sixteen children. The buffer is reusable across pages (CrawlScratch
/// keeps one per thread) and grows to the largest fanout seen.
class QuantizedSoa {
 public:
  /// Transposes `count` quantized slots laid out `stride` bytes apart into
  /// the lanes. Each slot must begin with six u16s in the order
  /// lo.x lo.y lo.z hi.x hi.y hi.z (the QuantizedSlot layout of
  /// rtree/entry.h; trailing slot bytes — the child PageId — are ignored).
  void Assign(const char* slots, size_t stride, size_t count);

  size_t count() const { return count_; }
  /// count() rounded up to a multiple of sixteen; the kernels write this
  /// many hit bytes (padding lanes always report 0).
  size_t padded_count() const { return padded_; }

  /// Lane base pointers: axis 0..2, lo or hi.
  const uint16_t* lo(int axis) const { return lanes_.data() + axis * padded_; }
  const uint16_t* hi(int axis) const {
    return lanes_.data() + (3 + axis) * padded_;
  }

 private:
  size_t count_ = 0;
  size_t padded_ = 0;
  std::vector<uint16_t> lanes_;  // 6 segments of padded_ u16s
};

/// Gates every quantized child of `soa` against `query`:
/// hits[i] = 1 iff ranges overlap on all three axes
/// (lo[a] <= query.hi[a] && hi[a] >= query.lo[a]), or 0 everywhere when
/// query.never is set. Writes soa.padded_count() bytes; padding lanes are 0.
void IntersectsQuantizedSoa(const QuantizedSoa& soa,
                            const QuantizedQueryBox& query, uint8_t* hits);

/// Containment thresholds for quantized children: a slot is certified
/// covered iff slot.lo[a] >= lo[a] and slot.hi[a] <= hi[a] on every axis.
/// The thresholds are computed against the node's *conservative
/// dequantization* (CompressedNodeView::ChildBoxAt — the outward-widened box
/// guaranteed to contain the child's exact MBR): lo[a] is the smallest cell
/// whose dequantized lo corner is >= query.lo, hi[a] the largest cell whose
/// dequantized hi corner is <= query.hi. Certified therefore implies
/// dequantized box ⊆ query ⊆-transitively exact MBR ⊆ query — exactness can
/// only be *under*-reported (a covered child may fail certification near the
/// query faces and be descended exactly instead; it can never be certified
/// spuriously). `never` is set when no cell can qualify: empty query, empty
/// or non-finite node box.
struct QuantizedCoverBox {
  uint16_t lo[3] = {0, 0, 0};
  uint16_t hi[3] = {0, 0, 0};
  bool never = false;
};

QuantizedCoverBox QuantizeCoverQuery(const Aabb& node_box, const Aabb& query);

/// Certifies every quantized child of `soa` against `cover`:
/// covered[i] = 1 iff cover.lo[a] <= slot.lo[a] and slot.hi[a] <= cover.hi[a]
/// on all three axes, or 0 everywhere when cover.never is set. Writes
/// soa.padded_count() bytes; padding lanes are 0.
void ContainsQuantizedSoa(const QuantizedSoa& soa,
                          const QuantizedCoverBox& cover, uint8_t* covered);

}  // namespace flat

#endif  // FLAT_GEOMETRY_BOX_KERNELS_H_
