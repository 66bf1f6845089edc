#ifndef FLAT_CORE_OVERLAY_MERGE_H_
#define FLAT_CORE_OVERLAY_MERGE_H_

#include <cstdint>
#include <vector>

#include "delta/overlay_view.h"
#include "geometry/aabb.h"
#include "geometry/vec3.h"

namespace flat {

class CrawlScratch;

/// Overlay-aware result merging — the algebra that turns a bulkload-only
/// query result into a snapshot-consistent one (delete masking + overlay
/// matches in the canonical ascending-id order). Called from one place, the
/// engine's DispatchQuery (engine/query_engine.cc), which every store query
/// — threaded or inline — reaches.
///
/// Every AppendOverlay*/CountOverlay* call returns the number of overlay
/// probes performed — live entries gate-tested against the query — which
/// the caller charges to IoStats::RecordOverlayProbes. Probe counts depend
/// only on the snapshot's bucket sizes, never on thread count or execution
/// order, so merged IoStats stay deterministic.
///
/// When `scratch` carries a bound QueryControl, each bucket scan runs one
/// cancellation check up front (CrawlScratch::CheckControl) — overlay scans
/// are in-memory and short, so per-bucket granularity keeps overlay-merged
/// queries responsive to deadlines/cancellation without per-entry cost.

/// Removes every id the overlay masks (deleted or re-inserted ids) from
/// `ids`, preserving the relative order of the survivors. Base results must
/// be masked before overlay matches are appended — live overlay entries are
/// never masked by construction.
void FilterOverlayMasked(const OverlayView& view, std::vector<uint64_t>* ids);

/// Appends the ids of live entries in `bucket` whose box intersects `query`
/// (Aabb::Intersects semantics, batched through the SIMD gate kernels).
/// `scratch` (optional) provides the reusable hit-mask buffer.
uint64_t AppendOverlayRangeMatches(const OverlayView& view, size_t bucket,
                                   const Aabb& query,
                                   std::vector<uint64_t>* out,
                                   CrawlScratch* scratch = nullptr);

/// Counting twin of AppendOverlayRangeMatches: adds the match count to
/// `*count` without materializing ids. Gates the same entries (identical
/// probe count).
uint64_t CountOverlayRangeMatches(const OverlayView& view, size_t bucket,
                                  const Aabb& query, uint64_t* count,
                                  CrawlScratch* scratch = nullptr);

/// Appends the ids of live entries in `bucket` whose box intersects the
/// closed ball around `center` (Aabb::IntersectsSphere semantics — exactly
/// the element filter of FlatIndex::SphereQuery).
uint64_t AppendOverlaySphereMatches(const OverlayView& view, size_t bucket,
                                    const Vec3& center, double radius,
                                    std::vector<uint64_t>* out,
                                    CrawlScratch* scratch = nullptr);

}  // namespace flat

#endif  // FLAT_CORE_OVERLAY_MERGE_H_
