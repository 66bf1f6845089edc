#include "benchutil/contender.h"

#include <chrono>

namespace flat {

const char* IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kHilbert:
      return "Hilbert R-Tree";
    case IndexKind::kStr:
      return "STR R-Tree";
    case IndexKind::kMorton:
      return "Morton R-Tree";
    case IndexKind::kPrTree:
      return "PR-Tree";
    case IndexKind::kTgs:
      return "TGS R-Tree";
    case IndexKind::kRStar:
      return "R*-Tree";
    case IndexKind::kFlat:
      return "FLAT";
  }
  return "unknown";
}

Contender BuildContender(IndexKind kind,
                         const std::vector<RTreeEntry>& elements,
                         uint32_t page_size) {
  Contender contender;
  contender.kind = kind;
  contender.file = std::make_unique<PageFile>(page_size);

  const auto start = std::chrono::steady_clock::now();
  switch (kind) {
    case IndexKind::kHilbert:
      contender.rtree = BulkloadHilbert(contender.file.get(), elements);
      break;
    case IndexKind::kStr:
      contender.rtree = BulkloadStr(contender.file.get(), elements);
      break;
    case IndexKind::kMorton:
      contender.rtree = BulkloadMorton(contender.file.get(), elements);
      break;
    case IndexKind::kPrTree:
      contender.rtree = BulkloadPrTree(contender.file.get(), elements);
      break;
    case IndexKind::kTgs:
      contender.rtree = BulkloadTgs(contender.file.get(), elements);
      break;
    case IndexKind::kRStar: {
      RStarTree tree(contender.file.get());
      for (const RTreeEntry& e : elements) tree.Insert(e);
      contender.rtree = tree.tree();
      break;
    }
    case IndexKind::kFlat:
      contender.flat = FlatIndex::Build(contender.file.get(), elements);
      break;
  }
  contender.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return contender;
}

WorkloadResult RunWorkload(const Contender& contender,
                           const std::vector<Aabb>& queries,
                           const DiskModel& disk_model) {
  WorkloadResult result;
  BufferPool pool(contender.file.get(), &result.io);
  std::vector<uint64_t> ids;
  for (const Aabb& query : queries) {
    pool.Clear();  // cold cache before each query, as in the paper
    ids.clear();
    contender.RangeQuery(&pool, query, &ids);
    result.result_elements += ids.size();
  }
  result.simulated_ms =
      disk_model.ElapsedMs(result.io, contender.file->page_size());
  return result;
}

}  // namespace flat
