// Equivalence tests for the box/sphere gate kernels: whatever instruction
// set geometry/box_kernels.cc was compiled with, every kernel must agree bit
// for bit with its scalar per-box reference — the Aabb member predicates
// (an empty or NaN box never hits) — and the hand-written AVX2 AoS gates
// with their plain `...Scalar` loops. The box
// populations are adversarial on purpose — coordinates drawn from a small
// lattice so touching faces/edges/corners, zero-extent boxes, exact
// containment, and shared coordinates are common rather than measure-zero.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "geometry/aabb.h"
#include "geometry/box_kernels.h"
#include "geometry/rng.h"
#include "rtree/entry.h"

namespace flat {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Lattice coordinates: ties, touches and containment happen constantly.
constexpr double kLattice[] = {-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0};

double LatticeCoord(Rng& rng) {
  return kLattice[rng.UniformInt(0, 6)];
}

// A mixed population of lattice boxes: proper, zero-extent, inverted
// (finite lo > hi), canonical empty, and — when `with_nan` — NaN-poisoned.
// Both kernels and Aabb::Intersects agree that anything failing lo <= hi on
// some axis (including via NaN) intersects nothing.
std::vector<Aabb> AdversarialBoxes(Rng& rng, size_t count, bool with_nan) {
  std::vector<Aabb> boxes;
  boxes.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const int kind = static_cast<int>(rng.UniformInt(0, 9));
    if (kind == 0) {
      boxes.push_back(Aabb());  // canonical empty
      continue;
    }
    Vec3 a(LatticeCoord(rng), LatticeCoord(rng), LatticeCoord(rng));
    Vec3 b(LatticeCoord(rng), LatticeCoord(rng), LatticeCoord(rng));
    if (kind <= 2) {
      boxes.push_back(Aabb::FromPoint(a));  // zero extent
    } else if (kind == 3) {
      boxes.push_back(Aabb(a, b));  // possibly inverted on some axes
    } else if (kind == 4 && with_nan) {
      const Vec3 lo = Vec3::Min(a, b), hi = Vec3::Max(a, b);
      double c[3] = {lo.x, lo.y, lo.z};
      c[rng.UniformInt(0, 2)] = kNaN;
      boxes.push_back(Aabb(Vec3(c[0], c[1], c[2]), hi));
    } else {
      boxes.push_back(Aabb::FromCorners(a, b));  // proper (maybe degenerate)
    }
  }
  return boxes;
}

std::vector<Aabb> AdversarialQueries(Rng& rng, size_t count) {
  std::vector<Aabb> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Vec3 a(LatticeCoord(rng), LatticeCoord(rng), LatticeCoord(rng));
    Vec3 b(LatticeCoord(rng), LatticeCoord(rng), LatticeCoord(rng));
    queries.push_back(i % 7 == 0 ? Aabb::FromPoint(a)
                                 : Aabb::FromCorners(a, b));
  }
  return queries;
}

// The kernels' emptiness rule: lo <= hi on every axis, so an inverted,
// canonical empty or NaN-poisoned box never hits. Aabb::IsEmpty is false on
// NaN, and Aabb::IntersectsSphere can accept a box with a NaN hi corner, so
// the sphere and containment references test this explicitly.
bool GateableBox(const Aabb& b) {
  return b.lo().x <= b.hi().x && b.lo().y <= b.hi().y && b.lo().z <= b.hi().z;
}

// Serializes boxes with the given stride (48 = bare Aabb, 56 = RTreeEntry
// slot layout of an object page).
std::vector<char> Serialize(const std::vector<Aabb>& boxes, size_t stride) {
  std::vector<char> buf(boxes.size() * stride, '\xab');
  for (size_t i = 0; i < boxes.size(); ++i) {
    std::memcpy(buf.data() + i * stride, &boxes[i], sizeof(Aabb));
  }
  return buf;
}

TEST(BoxKernelsTest, IsaNameIsKnown) {
  const std::string isa = BoxKernelIsa();
  EXPECT_TRUE(isa == "avx2" || isa == "scalar") << isa;
}

TEST(BoxKernelsTest, ScalarMatchesAabbIntersects) {
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    const auto boxes = AdversarialBoxes(rng, 97, /*with_nan=*/false);
    const auto queries = AdversarialQueries(rng, 8);
    const auto buf = Serialize(boxes, sizeof(Aabb));
    std::vector<uint8_t> hits(boxes.size());
    for (const Aabb& q : queries) {
      IntersectsBatchScalar(buf.data(), sizeof(Aabb), boxes.size(), q,
                            hits.data());
      for (size_t i = 0; i < boxes.size(); ++i) {
        ASSERT_EQ(hits[i] != 0, boxes[i].Intersects(q))
            << "box " << boxes[i] << " query " << q;
      }
    }
  }
}

TEST(BoxKernelsTest, DispatchMatchesScalarBitForBit) {
  Rng rng(11);
  for (size_t stride : {sizeof(Aabb), sizeof(RTreeEntry)}) {
    for (int round = 0; round < 50; ++round) {
      // Odd counts exercise every tail length.
      const size_t count = 1 + static_cast<size_t>(rng.UniformInt(0, 90));
      const auto boxes = AdversarialBoxes(rng, count, /*with_nan=*/true);
      const auto queries = AdversarialQueries(rng, 6);
      const auto buf = Serialize(boxes, stride);
      std::vector<uint8_t> expected(count), actual(count);
      for (const Aabb& q : queries) {
        IntersectsBatchScalar(buf.data(), stride, count, q, expected.data());
        IntersectsBatch(buf.data(), stride, count, q, actual.data());
        ASSERT_EQ(std::memcmp(expected.data(), actual.data(), count), 0)
            << "stride " << stride << " count " << count;
      }
    }
  }
}

TEST(BoxKernelsTest, SoaAssignTransposesAndPads) {
  Rng rng(13);
  SoaBoxes soa;  // reused, so a shorter page follows a longer one
  // Counts around the four-box transpose step and its tails, then a page.
  for (size_t count : {size_t{73}, size_t{0}, size_t{1}, size_t{3},
                       size_t{4}, size_t{5}, size_t{8}, size_t{11}}) {
    const auto boxes = AdversarialBoxes(rng, count, /*with_nan=*/true);
    const auto buf = Serialize(boxes, sizeof(RTreeEntry));
    soa.Assign(buf.data(), sizeof(RTreeEntry), count);
    ASSERT_EQ(soa.count(), count);
    ASSERT_EQ(soa.padded_count() % 4, 0u);
    ASSERT_GE(soa.padded_count(), soa.count());
    for (size_t i = 0; i < count; ++i) {
      for (int axis = 0; axis < 3; ++axis) {
        // Bit comparison: NaN lanes must come through as NaN.
        const double lo = soa.lo(axis)[i], hi = soa.hi(axis)[i];
        const double want_lo = boxes[i].lo()[axis];
        const double want_hi = boxes[i].hi()[axis];
        EXPECT_EQ(std::memcmp(&lo, &want_lo, sizeof(double)), 0)
            << "count " << count << " box " << i;
        EXPECT_EQ(std::memcmp(&hi, &want_hi, sizeof(double)), 0)
            << "count " << count << " box " << i;
      }
    }
    for (size_t i = count; i < soa.padded_count(); ++i) {
      for (int axis = 0; axis < 3; ++axis) {
        EXPECT_EQ(soa.lo(axis)[i], kInf) << "padding must be the empty box";
        EXPECT_EQ(soa.hi(axis)[i], -kInf);
      }
    }
  }
}

// IntersectsSoa against the scalar AoS loop and the per-box predicate.
TEST(BoxKernelsTest, SoaMatchesScalarAndAos) {
  Rng rng(17);
  SoaBoxes soa;  // reused, like the crawl scratch
  for (int round = 0; round < 60; ++round) {
    const size_t count = 1 + static_cast<size_t>(rng.UniformInt(0, 90));
    const auto boxes = AdversarialBoxes(rng, count, /*with_nan=*/true);
    const auto queries = AdversarialQueries(rng, 6);
    const auto buf = Serialize(boxes, sizeof(RTreeEntry));
    soa.Assign(buf.data(), sizeof(RTreeEntry), count);
    std::vector<uint8_t> soa_hits(soa.padded_count());
    std::vector<uint8_t> aos(count);
    for (const Aabb& q : queries) {
      std::fill(soa_hits.begin(), soa_hits.end(), 0x5e);
      IntersectsSoa(soa, q, soa_hits.data());
      IntersectsBatchScalar(buf.data(), sizeof(RTreeEntry), count, q,
                            aos.data());
      ASSERT_EQ(std::memcmp(soa_hits.data(), aos.data(), count), 0);
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(soa_hits[i] != 0, boxes[i].Intersects(q))
            << "box " << boxes[i] << " query " << q;
      }
      for (size_t i = count; i < soa.padded_count(); ++i) {
        ASSERT_EQ(soa_hits[i], 0) << "padding lane leaked a hit";
      }
    }
  }
}

TEST(BoxKernelsTest, SphereScalarMatchesIntersectsSphere) {
  Rng rng(19);
  SoaBoxes soa;
  for (int round = 0; round < 60; ++round) {
    const size_t count = 1 + static_cast<size_t>(rng.UniformInt(0, 90));
    const auto boxes = AdversarialBoxes(rng, count, /*with_nan=*/false);
    const auto buf = Serialize(boxes, sizeof(Aabb));
    soa.Assign(buf.data(), sizeof(Aabb), count);
    std::vector<uint8_t> hits(soa.padded_count());
    const Vec3 center(LatticeCoord(rng), LatticeCoord(rng), LatticeCoord(rng));
    // Radii chosen so d2 == r2 exactly happens (3-4-5 triangles on the
    // lattice: distance 2.5 from a corner offset (1.5, 2, 0), etc.).
    for (double radius : {0.0, 0.5, 1.0, 2.0, 2.5, 3.0}) {
      SphereGateSoa(soa, center, radius, hits.data());
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(hits[i] != 0, boxes[i].IntersectsSphere(center, radius))
            << "box " << boxes[i] << " center " << center << " r " << radius;
      }
    }
  }
}

// The compiled (vectorized) sphere loop against the scalar per-box
// predicate, over NaN-poisoned boxes, NaN centres and a NaN radius. A NaN
// centre coordinate makes every gap NaN, so nothing may hit; vector max
// instructions return their second operand on NaN and would gate it in.
TEST(BoxKernelsTest, SphereSimdMatchesScalarBitForBit) {
  Rng rng(23);
  SoaBoxes soa;
  for (int round = 0; round < 60; ++round) {
    const size_t count = 1 + static_cast<size_t>(rng.UniformInt(0, 90));
    const auto boxes = AdversarialBoxes(rng, count, /*with_nan=*/true);
    const auto buf = Serialize(boxes, sizeof(RTreeEntry));
    soa.Assign(buf.data(), sizeof(RTreeEntry), count);
    std::vector<uint8_t> hits(soa.padded_count());
    const Vec3 c(rng.Uniform(-2, 2), rng.Uniform(-2, 2), rng.Uniform(-2, 2));
    for (const Vec3& center :
         {c, Vec3(kNaN, kNaN, kNaN), Vec3(kNaN, c.y, c.z),
          Vec3(c.x, kNaN, c.z), Vec3(c.x, c.y, kNaN)}) {
      for (double radius : {0.0, 0.25, 1.0, 2.5, 4.0, kInf, kNaN}) {
        std::fill(hits.begin(), hits.end(), 0x5e);
        SphereGateSoa(soa, center, radius, hits.data());
        for (size_t i = 0; i < count; ++i) {
          const bool want = GateableBox(boxes[i]) &&
                            boxes[i].IntersectsSphere(center, radius);
          ASSERT_EQ(hits[i] != 0, want)
              << "box " << boxes[i] << " center " << center << " r "
              << radius;
        }
        for (size_t i = count; i < soa.padded_count(); ++i) {
          ASSERT_EQ(hits[i], 0) << "padding lane leaked a hit";
        }
      }
    }
  }
}

// The cases the crawl depends on, spelled out: closed-interval semantics
// (touching counts), zero-extent boxes, and containment either way.
TEST(BoxKernelsTest, TouchingZeroExtentAndContainmentCases) {
  const Aabb query(Vec3(0, 0, 0), Vec3(1, 1, 1));
  const std::vector<Aabb> boxes = {
      Aabb(Vec3(1, 0, 0), Vec3(2, 1, 1)),        // shares the x=1 face
      Aabb(Vec3(1, 1, 1), Vec3(2, 2, 2)),        // shares only a corner
      Aabb::FromPoint(Vec3(1, 1, 1)),            // zero-extent on the corner
      Aabb::FromPoint(Vec3(0.5, 0.5, 0.5)),      // zero-extent inside
      Aabb(Vec3(-1, -1, -1), Vec3(2, 2, 2)),     // contains the query
      Aabb(Vec3(0.25, 0.25, 0.25), Vec3(0.75, 0.75, 0.75)),  // contained
      Aabb(Vec3(1.0000001, 0, 0), Vec3(2, 1, 1)),  // just misses
      Aabb(),                                       // empty
  };
  const std::vector<uint8_t> expected = {1, 1, 1, 1, 1, 1, 0, 0};
  const auto buf = Serialize(boxes, sizeof(Aabb));
  std::vector<uint8_t> hits(boxes.size());
  IntersectsBatch(buf.data(), sizeof(Aabb), boxes.size(), query, hits.data());
  EXPECT_EQ(std::vector<uint8_t>(hits.begin(), hits.end()), expected);

  SoaBoxes soa;
  soa.Assign(buf.data(), sizeof(Aabb), boxes.size());
  std::vector<uint8_t> soa_hits(soa.padded_count());
  IntersectsSoa(soa, query, soa_hits.data());
  EXPECT_EQ(std::vector<uint8_t>(soa_hits.begin(),
                                 soa_hits.begin() + boxes.size()),
            expected);
}

// Exact-boundary sphere case: a 3-4-5 triangle puts the box corner at
// distance exactly 5; d2 == r2 must gate as a hit (closed ball), and one
// ULP farther must not.
TEST(BoxKernelsTest, SphereExactBoundary) {
  const Vec3 center(0, 0, 0);
  std::vector<Aabb> boxes = {
      Aabb::FromPoint(Vec3(3, 4, 0)),
      Aabb::FromPoint(Vec3(std::nextafter(3.0, 4.0), 4, 0)),
  };
  const auto buf = Serialize(boxes, sizeof(Aabb));
  SoaBoxes soa;
  soa.Assign(buf.data(), sizeof(Aabb), boxes.size());
  std::vector<uint8_t> hits(soa.padded_count());
  SphereGateSoa(soa, center, 5.0, hits.data());
  EXPECT_EQ(hits[0], 1);
  EXPECT_EQ(hits[1], 0);
}

// ---------------------------------------------------------------------------
// Containment ("covered") companions to the gates: a set bit certifies the
// box is non-empty and fully inside the query — the license for taking a
// stored aggregate instead of descending, so false positives are bugs while
// false negatives merely descend.
// ---------------------------------------------------------------------------

TEST(ContainsKernelsTest, ScalarMatchesAabbContains) {
  Rng rng(31);
  for (int round = 0; round < 50; ++round) {
    const auto boxes = AdversarialBoxes(rng, 97, /*with_nan=*/true);
    const auto buf = Serialize(boxes, sizeof(Aabb));
    std::vector<uint8_t> covered(boxes.size());
    for (const Aabb& q : AdversarialQueries(rng, 8)) {
      ContainsBatchScalar(buf.data(), sizeof(Aabb), boxes.size(), q,
                          covered.data());
      for (size_t i = 0; i < boxes.size(); ++i) {
        // Aabb::Contains treats an empty box as contained everywhere; the
        // kernel deliberately does not — an empty/NaN element is invisible
        // to the intersection gates, so certifying it would miscount.
        const bool want = GateableBox(boxes[i]) && q.Contains(boxes[i]);
        ASSERT_EQ(covered[i] != 0, want)
            << "box " << boxes[i] << " query " << q;
      }
    }
  }
}

TEST(ContainsKernelsTest, DispatchMatchesScalarBitForBit) {
  Rng rng(37);
  for (size_t stride : {sizeof(Aabb), sizeof(RTreeEntry)}) {
    for (int round = 0; round < 50; ++round) {
      const size_t count = 1 + static_cast<size_t>(rng.UniformInt(0, 90));
      const auto boxes = AdversarialBoxes(rng, count, /*with_nan=*/true);
      const auto buf = Serialize(boxes, stride);
      std::vector<uint8_t> expected(count), actual(count);
      for (const Aabb& q : AdversarialQueries(rng, 6)) {
        ContainsBatchScalar(buf.data(), stride, count, q, expected.data());
        ContainsBatch(buf.data(), stride, count, q, actual.data());
        ASSERT_EQ(std::memcmp(expected.data(), actual.data(), count), 0)
            << "stride " << stride << " count " << count;
      }
    }
  }
}

// ContainsSoa against the scalar AoS loop and the per-box predicate.
TEST(ContainsKernelsTest, SoaMatchesScalarIncludingPadding) {
  Rng rng(41);
  for (int round = 0; round < 40; ++round) {
    const size_t count = static_cast<size_t>(rng.UniformInt(0, 90));
    const auto boxes = AdversarialBoxes(rng, count, /*with_nan=*/true);
    const auto buf = Serialize(boxes, sizeof(RTreeEntry));
    SoaBoxes soa;
    soa.Assign(buf.data(), sizeof(RTreeEntry), count);
    std::vector<uint8_t> aos(count);
    std::vector<uint8_t> covered(soa.padded_count());
    for (const Aabb& q : AdversarialQueries(rng, 6)) {
      std::fill(covered.begin(), covered.end(), 0x5e);
      ContainsSoa(soa, q, covered.data());
      ContainsBatchScalar(buf.data(), sizeof(RTreeEntry), count, q,
                          aos.data());
      ASSERT_TRUE(std::equal(aos.begin(), aos.end(), covered.begin()))
          << "count " << count;
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(covered[i] != 0,
                  GateableBox(boxes[i]) && q.Contains(boxes[i]))
            << "box " << boxes[i] << " query " << q;
      }
      // Padding lanes never certify (they hold empty boxes).
      for (size_t i = count; i < soa.padded_count(); ++i) {
        ASSERT_EQ(covered[i], 0);
      }
    }
  }
}

}  // namespace
}  // namespace flat
