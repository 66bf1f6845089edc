// Micro-benchmarks (google-benchmark) for the geometric and structural
// primitives on FLAT's hot paths: MBR intersection tests (Section VII-E.2
// attributes most of FLAT's CPU time to them), space-filling-curve keys,
// STR tiling, and end-to-end index probes.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>

#include "core/flat_index.h"
#include "data/neuron_generator.h"
#include "data/query_generator.h"
#include "geometry/box_kernels.h"
#include "geometry/hilbert.h"
#include "geometry/morton.h"
#include "geometry/rng.h"
#include "rtree/bulkload.h"
#include "rtree/node.h"
#include "rtree/pack.h"
#include "storage/buffer_pool.h"

namespace {

using namespace flat;

void BM_AabbIntersects(benchmark::State& state) {
  Rng rng(1);
  Aabb universe(Vec3(0, 0, 0), Vec3(100, 100, 100));
  std::vector<Aabb> boxes;
  for (int i = 0; i < 1024; ++i) {
    boxes.push_back(Aabb::FromCenterHalfExtents(rng.PointIn(universe),
                                                Vec3(2, 3, 1)));
  }
  const Aabb query(Vec3(20, 20, 20), Vec3(60, 60, 60));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(boxes[i++ & 1023].Intersects(query));
  }
}
BENCHMARK(BM_AabbIntersects);

// --- Node-gate primitives -------------------------------------------------
// A synthetic object page at full 4 KiB fanout (73 RTreeEntry slots), gated
// against a query that intersects some of the boxes: the per-page inner
// loop of the crawl. Every kernel in geometry/box_kernels.cc has a row here,
// so each hand-written body can be held against its plain loop:
//   NodeGateScalar          IntersectsBatchScalar, the plain AoS loop
//   NodeGateSimdAos         IntersectsBatch, the AoS gate of seed descents
//                           and overlay buckets (AVX2 body when compiled in)
//   NodeGateSoa             SoaBoxes::Assign + IntersectsSoa: the crawl's
//                           full per-object-page cost
//   NodeGateSoaGateOnly     IntersectsSoa alone, lanes already transposed
//   SoaTranspose            SoaBoxes::Assign alone
// The Cover*, Sphere* and Quantized* rows follow the same pattern.

struct NodePageFixture {
  std::vector<char> page;
  uint16_t count = 0;
  Aabb query;
  SoaBoxes soa;
  std::vector<uint8_t> hits;

  NodePageFixture() {
    Rng rng(42);
    const Aabb universe(Vec3(0, 0, 0), Vec3(100, 100, 100));
    const uint32_t fanout = NodeCapacity(kDefaultPageSize);
    page.assign(kDefaultPageSize, 0);
    NodeWriter writer(page.data(), kDefaultPageSize);
    writer.Init(/*level=*/0);
    for (uint32_t i = 0; i < fanout; ++i) {
      writer.Append(RTreeEntry{
          Aabb::FromCenterHalfExtents(rng.PointIn(universe), Vec3(2, 3, 1)),
          i});
    }
    count = writer.count();
    query = Aabb(Vec3(20, 20, 20), Vec3(60, 60, 60));
    soa.Assign(page.data() + kNodeHeaderSize, sizeof(RTreeEntry), count);
    hits.resize(soa.padded_count());
  }
};

NodePageFixture& NodePage() {
  static NodePageFixture fixture;
  return fixture;
}

void BM_NodeGateScalar(benchmark::State& state) {
  auto& f = NodePage();
  for (auto _ : state) {
    IntersectsBatchScalar(f.page.data() + kNodeHeaderSize, sizeof(RTreeEntry),
                          f.count, f.query, f.hits.data());
    benchmark::DoNotOptimize(f.hits.data());
  }
  state.SetItemsProcessed(state.iterations() * f.count);
}
BENCHMARK(BM_NodeGateScalar);

void BM_NodeGateSimdAos(benchmark::State& state) {
  auto& f = NodePage();
  for (auto _ : state) {
    IntersectsBatch(f.page.data() + kNodeHeaderSize, sizeof(RTreeEntry),
                    f.count, f.query, f.hits.data());
    benchmark::DoNotOptimize(f.hits.data());
  }
  state.SetItemsProcessed(state.iterations() * f.count);
}
BENCHMARK(BM_NodeGateSimdAos);

void BM_NodeGateSoa(benchmark::State& state) {
  // Transpose + gate: the full per-page cost of the crawl's SoA path.
  auto& f = NodePage();
  for (auto _ : state) {
    f.soa.Assign(f.page.data() + kNodeHeaderSize, sizeof(RTreeEntry),
                 f.count);
    IntersectsSoa(f.soa, f.query, f.hits.data());
    benchmark::DoNotOptimize(f.hits.data());
  }
  state.SetItemsProcessed(state.iterations() * f.count);
}
BENCHMARK(BM_NodeGateSoa);

void BM_NodeGateSoaGateOnly(benchmark::State& state) {
  // SoA already resident: the steady-state vector gate alone.
  auto& f = NodePage();
  for (auto _ : state) {
    IntersectsSoa(f.soa, f.query, f.hits.data());
    benchmark::DoNotOptimize(f.hits.data());
  }
  state.SetItemsProcessed(state.iterations() * f.count);
}
BENCHMARK(BM_NodeGateSoaGateOnly);

void BM_SoaTranspose(benchmark::State& state) {
  auto& f = NodePage();
  for (auto _ : state) {
    f.soa.Assign(f.page.data() + kNodeHeaderSize, sizeof(RTreeEntry),
                 f.count);
    benchmark::DoNotOptimize(f.soa.lo(0));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * f.count);
}
BENCHMARK(BM_SoaTranspose);

// --- Containment-gate primitives ------------------------------------------
// The covered-child test behind aggregate pruning (rtree/aggregates.h): the
// same page as the node gates, against a query large enough to contain most
// of the boxes — the mix RangeCountViaAggregates sees on viewport queries.

void BM_CoverGateScalar(benchmark::State& state) {
  auto& f = NodePage();
  const Aabb cover(Vec3(5, 5, 5), Vec3(95, 95, 95));
  for (auto _ : state) {
    ContainsBatchScalar(f.page.data() + kNodeHeaderSize, sizeof(RTreeEntry),
                        f.count, cover, f.hits.data());
    benchmark::DoNotOptimize(f.hits.data());
  }
  state.SetItemsProcessed(state.iterations() * f.count);
}
BENCHMARK(BM_CoverGateScalar);

void BM_CoverGateSimdAos(benchmark::State& state) {
  auto& f = NodePage();
  const Aabb cover(Vec3(5, 5, 5), Vec3(95, 95, 95));
  for (auto _ : state) {
    ContainsBatch(f.page.data() + kNodeHeaderSize, sizeof(RTreeEntry),
                  f.count, cover, f.hits.data());
    benchmark::DoNotOptimize(f.hits.data());
  }
  state.SetItemsProcessed(state.iterations() * f.count);
}
BENCHMARK(BM_CoverGateSimdAos);

void BM_CoverGateSoa(benchmark::State& state) {
  // SoA already resident (the descent shares the transpose with the
  // intersection gate): the steady-state containment gate alone.
  auto& f = NodePage();
  const Aabb cover(Vec3(5, 5, 5), Vec3(95, 95, 95));
  for (auto _ : state) {
    ContainsSoa(f.soa, cover, f.hits.data());
    benchmark::DoNotOptimize(f.hits.data());
  }
  state.SetItemsProcessed(state.iterations() * f.count);
}
BENCHMARK(BM_CoverGateSoa);

void BM_SphereGateScalarLoop(benchmark::State& state) {
  // Pre-SIMD sphere path: per-element IntersectsSphere over the page.
  auto& f = NodePage();
  const Vec3 center(50, 50, 50);
  const double radius = 20.0;
  for (auto _ : state) {
    NodeView elements(f.page.data());
    for (uint16_t i = 0; i < f.count; ++i) {
      f.hits[i] = elements.BoxAt(i).IntersectsSphere(center, radius);
    }
    benchmark::DoNotOptimize(f.hits.data());
  }
  state.SetItemsProcessed(state.iterations() * f.count);
}
BENCHMARK(BM_SphereGateScalarLoop);

void BM_SphereGateSoa(benchmark::State& state) {
  // Transpose + gate: the crawl's per-page cost for a sphere query.
  auto& f = NodePage();
  const Vec3 center(50, 50, 50);
  const double radius = 20.0;
  for (auto _ : state) {
    f.soa.Assign(f.page.data() + kNodeHeaderSize, sizeof(RTreeEntry),
                 f.count);
    SphereGateSoa(f.soa, center, radius, f.hits.data());
    benchmark::DoNotOptimize(f.hits.data());
  }
  state.SetItemsProcessed(state.iterations() * f.count);
}
BENCHMARK(BM_SphereGateSoa);

void BM_SphereGateSoaGateOnly(benchmark::State& state) {
  auto& f = NodePage();
  const Vec3 center(50, 50, 50);
  const double radius = 20.0;
  for (auto _ : state) {
    SphereGateSoa(f.soa, center, radius, f.hits.data());
    benchmark::DoNotOptimize(f.hits.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * f.count);
}
BENCHMARK(BM_SphereGateSoaGateOnly);

// --- Quantized-gate primitives ----------------------------------------------
// A full 4 KiB compressed interior page (252 u16 slots over the same
// universe), gated on lanes already transposed, with the query quantized
// once outside the loop: the per-node cost of a seed descent through
// compressed pages (IntersectsQuantizedSoa) and of the aggregate-pruned
// count's certification (ContainsQuantizedSoa).

struct QuantizedPageFixture {
  std::vector<char> page;
  QuantizedSoa soa;
  QuantizedQueryBox query;
  QuantizedCoverBox cover;
  std::vector<uint8_t> hits;

  QuantizedPageFixture() {
    Rng rng(43);
    const Aabb universe(Vec3(0, 0, 0), Vec3(100, 100, 100));
    const uint32_t fanout = QuantizedNodeCapacity(kDefaultPageSize);
    std::vector<RTreeEntry> children;
    Aabb node_box;  // the union, as the packers pass it
    for (uint32_t i = 0; i < fanout; ++i) {
      children.push_back(RTreeEntry{
          Aabb::FromCenterHalfExtents(rng.PointIn(universe), Vec3(2, 3, 1)),
          i});
      node_box.ExpandToInclude(children.back().box);
    }
    page.assign(kDefaultPageSize, 0);
    CompressedNodeWriter writer(page.data(), kDefaultPageSize);
    writer.Init(/*level=*/1, node_box);
    for (const RTreeEntry& child : children) writer.Append(child);
    const CompressedNodeView view(page.data());
    soa.Assign(view.slots(), sizeof(QuantizedSlot), view.count());
    query = QuantizeQuery(node_box, Aabb(Vec3(20, 20, 20), Vec3(60, 60, 60)));
    cover = QuantizeCoverQuery(node_box, Aabb(Vec3(5, 5, 5), Vec3(95, 95, 95)));
    hits.resize(soa.padded_count());
  }
};

QuantizedPageFixture& QuantizedPage() {
  static QuantizedPageFixture fixture;
  return fixture;
}

void BM_QuantizedGate(benchmark::State& state) {
  auto& f = QuantizedPage();
  for (auto _ : state) {
    IntersectsQuantizedSoa(f.soa, f.query, f.hits.data());
    benchmark::DoNotOptimize(f.hits.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * f.soa.count());
}
BENCHMARK(BM_QuantizedGate);

void BM_QuantizedCoverGate(benchmark::State& state) {
  auto& f = QuantizedPage();
  for (auto _ : state) {
    ContainsQuantizedSoa(f.soa, f.cover, f.hits.data());
    benchmark::DoNotOptimize(f.hits.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * f.soa.count());
}
BENCHMARK(BM_QuantizedCoverGate);

// --- Page lookup primitives -----------------------------------------------
// Arena PageFile address arithmetic vs. the former one-allocation-per-page
// layout (reconstructed locally). Both variants run the same random page
// order and read a varied in-page offset — what a crawl's header + entry
// sweep does; reading only byte 0 of page-aligned storage would alias every
// access onto one L1 set and benchmark the cache geometry, not the lookup.

constexpr size_t kLookupPages = 4096;

std::vector<PageId> LookupOrder() {
  Rng rng(7);
  std::vector<PageId> order(kLookupPages);
  for (size_t i = 0; i < kLookupPages; ++i) {
    order[i] = static_cast<PageId>(rng.UniformInt(0, kLookupPages - 1));
  }
  return order;
}

inline size_t LookupOffset(PageId id) { return (id % 61) * 64; }

void BM_PageLookupArena(benchmark::State& state) {
  static PageFile* file = [] {
    auto* f = new PageFile(kDefaultPageSize);
    for (size_t i = 0; i < kLookupPages; ++i) {
      f->Allocate(PageCategory::kObject);
      f->MutableData(static_cast<PageId>(i))[LookupOffset(
          static_cast<PageId>(i))] = static_cast<char>(i);
    }
    return f;
  }();
  const std::vector<PageId> order = LookupOrder();
  size_t i = 0;
  int64_t sum = 0;
  for (auto _ : state) {
    const PageId id = order[i++ & (kLookupPages - 1)];
    sum += file->Data(id)[LookupOffset(id)];
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_PageLookupArena);

void BM_PageLookupPtrChase(benchmark::State& state) {
  // The pre-arena layout: every page its own heap allocation behind a
  // pointer array, so each Data(id) chases one extra pointer into a
  // scattered allocation. The spacer allocations reproduce how pages were
  // actually laid out: the old Allocate ran interleaved with the build's
  // vector allocations (neighbor lists, drafts), so consecutive pages did
  // not sit back to back — a fresh-heap back-to-back layout would flatter
  // this variant with locality it never had in practice.
  static std::vector<std::unique_ptr<char[]>>* pages = [] {
    auto* p = new std::vector<std::unique_ptr<char[]>>();
    Rng srng(11);
    std::vector<std::unique_ptr<char[]>> spacers;
    for (size_t i = 0; i < kLookupPages; ++i) {
      p->push_back(std::make_unique<char[]>(kDefaultPageSize));
      (*p)[i][LookupOffset(static_cast<PageId>(i))] = static_cast<char>(i);
      spacers.push_back(
          std::make_unique<char[]>(srng.UniformInt(64, 2048)));
    }
    return p;  // spacers freed here; the page scatter they forced remains
  }();
  const std::vector<PageId> order = LookupOrder();
  size_t i = 0;
  int64_t sum = 0;
  for (auto _ : state) {
    const PageId id = order[i++ & (kLookupPages - 1)];
    sum += (*pages)[id][LookupOffset(id)];
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_PageLookupPtrChase);

void BM_HilbertEncode(benchmark::State& state) {
  uint32_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Hilbert3D::Encode(v & 0x1fffff, (v * 7) & 0x1fffff,
                          (v * 13) & 0x1fffff, 21));
    ++v;
  }
}
BENCHMARK(BM_HilbertEncode);

void BM_MortonEncode(benchmark::State& state) {
  uint32_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Morton3D::Encode(
        v & 0x1fffff, (v * 7) & 0x1fffff, (v * 13) & 0x1fffff, 21));
    ++v;
  }
}
BENCHMARK(BM_MortonEncode);

void BM_StrOrder(benchmark::State& state) {
  NeuronParams params;
  params.total_elements = static_cast<size_t>(state.range(0));
  Dataset dataset = GenerateNeurons(params);
  for (auto _ : state) {
    auto copy = dataset.elements;
    StrOrder(&copy, 73);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StrOrder)->Arg(10000)->Arg(50000);

struct IndexFixture {
  PageFile file;
  FlatIndex flat;
  RTree str;
  PageFile str_file;
  std::vector<Aabb> queries;

  IndexFixture() {
    NeuronParams params;
    params.total_elements = 100000;
    Dataset dataset = GenerateNeurons(params);
    flat = FlatIndex::Build(&file, dataset.elements);
    str = BulkloadStr(&str_file, dataset.elements);
    RangeWorkloadParams wp;
    wp.count = 256;
    wp.volume_fraction = kDefaultQueryFraction;
    queries = GenerateRangeWorkload(dataset.bounds, wp);
  }

  static constexpr double kDefaultQueryFraction = 5e-6;
};

IndexFixture& Fixture() {
  static IndexFixture fixture;
  return fixture;
}

void BM_FlatRangeQuery(benchmark::State& state) {
  auto& f = Fixture();
  IoStats stats;
  BufferPool pool(&f.file, &stats);
  std::vector<uint64_t> out;
  size_t i = 0;
  for (auto _ : state) {
    out.clear();
    pool.Clear();
    f.flat.RangeQuery(&pool, f.queries[i++ & 255], &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FlatRangeQuery);

void BM_StrRangeQuery(benchmark::State& state) {
  auto& f = Fixture();
  IoStats stats;
  BufferPool pool(&f.str_file, &stats);
  std::vector<uint64_t> out;
  size_t i = 0;
  for (auto _ : state) {
    out.clear();
    pool.Clear();
    f.str.RangeQuery(&pool, f.queries[i++ & 255], &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_StrRangeQuery);

void BM_FlatSeedOnly(benchmark::State& state) {
  auto& f = Fixture();
  IoStats stats;
  BufferPool pool(&f.file, &stats);
  size_t i = 0;
  for (auto _ : state) {
    pool.Clear();
    benchmark::DoNotOptimize(f.flat.Seed(&pool, f.queries[i++ & 255]));
  }
}
BENCHMARK(BM_FlatSeedOnly);

}  // namespace

BENCHMARK_MAIN();
