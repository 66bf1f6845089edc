#ifndef FLAT_TESTS_TEST_UTIL_H_
#define FLAT_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "geometry/aabb.h"
#include "geometry/rng.h"
#include "gtest/gtest.h"
#include "rtree/entry.h"
#include "shard/sharded_flat_store.h"
#include "storage/page_store.h"
#include "storage/persistence.h"

namespace flat {
namespace testing {

/// `count` random boxes with ids 0..count-1 inside [0,100]^3.
inline std::vector<RTreeEntry> RandomEntries(size_t count, uint64_t seed,
                                             double max_side = 3.0) {
  Rng rng(seed);
  Aabb universe(Vec3(0, 0, 0), Vec3(100, 100, 100));
  std::vector<RTreeEntry> entries;
  entries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Vec3 center = rng.PointIn(universe);
    Vec3 half(rng.Uniform(0.01, max_side) / 2,
              rng.Uniform(0.01, max_side) / 2,
              rng.Uniform(0.01, max_side) / 2);
    entries.push_back(
        RTreeEntry{Aabb::FromCenterHalfExtents(center, half), i});
  }
  return entries;
}

/// RandomEntries with every 20th box replaced by the empty box `Aabb()`
/// (NaN center) and every 20th, offset 10, given one NaN coordinate.
inline std::vector<RTreeEntry> RandomEntriesWithEmptyAndNan(size_t count,
                                                            uint64_t seed) {
  std::vector<RTreeEntry> entries = RandomEntries(count, seed);
  for (size_t i = 0; i < entries.size(); i += 20) entries[i].box = Aabb();
  for (size_t i = 10; i < entries.size(); i += 20) {
    Vec3 lo = entries[i].box.lo();
    lo.At(static_cast<int>(i / 20 % 3)) =
        std::numeric_limits<double>::quiet_NaN();
    entries[i].box = Aabb(lo, entries[i].box.hi());
  }
  return entries;
}

/// Oracle: ids of entries intersecting `query`, sorted.
inline std::vector<uint64_t> BruteForce(const std::vector<RTreeEntry>& entries,
                                        const Aabb& query) {
  std::vector<uint64_t> out;
  for (const RTreeEntry& e : entries) {
    if (e.box.Intersects(query)) out.push_back(e.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Sorted copy (indexes return results in traversal order).
inline std::vector<uint64_t> Sorted(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Random query boxes covering a spread of sizes within [0,100]^3.
inline std::vector<Aabb> RandomQueries(size_t count, uint64_t seed) {
  Rng rng(seed);
  Aabb universe(Vec3(0, 0, 0), Vec3(100, 100, 100));
  std::vector<Aabb> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Vec3 center = rng.PointIn(universe);
    double side = rng.Uniform(0.5, 30.0);
    Vec3 half(rng.Uniform(0.2, 1.0) * side / 2,
              rng.Uniform(0.2, 1.0) * side / 2,
              rng.Uniform(0.2, 1.0) * side / 2);
    queries.push_back(Aabb::FromCenterHalfExtents(center, half));
  }
  return queries;
}

/// A page file under a fresh temp path, removed on scope exit: a store
/// written by SavePageFile, or raw `bytes` (a hand-made or damaged image).
/// The path carries the process id and `tag`, so suites running in parallel
/// never share a file.
class ScopedPageFileOnDisk {
 public:
  ScopedPageFileOnDisk(const PageStore& file, const std::string& tag)
      : path_(TempPath(tag)) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    SavePageFile(file, out);
    EXPECT_TRUE(out.good());
  }

  ScopedPageFileOnDisk(const std::string& bytes, const std::string& tag)
      : path_(TempPath(tag)) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    EXPECT_TRUE(out.good());
  }

  ~ScopedPageFileOnDisk() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  ScopedPageFileOnDisk(const ScopedPageFileOnDisk&) = delete;
  ScopedPageFileOnDisk& operator=(const ScopedPageFileOnDisk&) = delete;

  const std::string& path() const { return path_; }

 private:
  static std::string TempPath(const std::string& tag) {
    return (std::filesystem::temp_directory_path() /
            ("flat_test_" + std::to_string(::getpid()) + "_" + tag + ".pgf"))
        .string();
  }

  std::string path_;
};

/// Brute-force mirror of a dynamic store: the oracle side of the
/// oracle-differential harness. Updated in lockstep with the store's
/// Insert/Erase (same upsert / delete-missing-is-a-no-op semantics) and
/// queried by full scan, so any disagreement with the store is a store bug.
class OracleMirror {
 public:
  explicit OracleMirror(const std::vector<RTreeEntry>& initial = {}) {
    for (const RTreeEntry& e : initial) boxes_[e.id] = e.box;
  }

  void Insert(const RTreeEntry& e) { boxes_[e.id] = e.box; }
  void Erase(uint64_t id) { boxes_.erase(id); }

  std::vector<uint64_t> RangeQuery(const Aabb& query) const {
    std::vector<uint64_t> out;
    for (const auto& [id, box] : boxes_) {
      if (box.Intersects(query)) out.push_back(id);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  uint64_t RangeCount(const Aabb& query) const {
    uint64_t count = 0;
    for (const auto& [id, box] : boxes_) {
      if (box.Intersects(query)) ++count;
    }
    return count;
  }

  std::vector<uint64_t> SphereQuery(const Vec3& center, double radius) const {
    std::vector<uint64_t> out;
    for (const auto& [id, box] : boxes_) {
      if (box.IntersectsSphere(center, radius)) out.push_back(id);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// The live element set (arbitrary order) — what a fresh bulkload of the
  /// mirrored store would be built from.
  std::vector<RTreeEntry> LiveElements() const {
    std::vector<RTreeEntry> out;
    out.reserve(boxes_.size());
    for (const auto& [id, box] : boxes_) out.push_back(RTreeEntry{box, id});
    return out;
  }

  size_t size() const { return boxes_.size(); }

 private:
  std::unordered_map<uint64_t, Aabb> boxes_;
};

/// One step of a deterministic update/query schedule.
struct ScheduleStep {
  enum class Kind {
    kInsert,    ///< upsert `entry`
    kErase,     ///< delete `id` (may be absent — a no-op)
    kRange,     ///< RangeQuery(box) vs oracle
    kCount,     ///< RangeCount(box) vs oracle
    kSeedScan,  ///< RangeQueryViaSeedScan(box) vs oracle
    kSphere,    ///< SphereQuery(center, radius) vs oracle
    kCompact,   ///< fold the overlay into a fresh bulkload
  };
  Kind kind = Kind::kRange;
  RTreeEntry entry;     // kInsert
  uint64_t id = 0;      // kErase
  Aabb box;             // kRange / kCount / kSeedScan
  Vec3 center;          // kSphere
  double radius = 0.0;  // kSphere
};

/// Deterministic mixed schedule over `universe`: `steps` ops drawn from
/// `seed`, ids in [0, id_space) so inserts collide with the initial data set
/// (exercising upserts) and erases sometimes miss (exercising no-op
/// deletes). Box and radius sizes scale with the universe's extents. The mix
/// is ~30% insert, 15% erase, 40% queries across range/count/sphere, 10%
/// seed-scan and ~5% compaction.
inline std::vector<ScheduleStep> MakeSchedule(
    size_t steps, uint64_t seed, uint64_t id_space,
    const Aabb& universe = Aabb(Vec3(0, 0, 0), Vec3(100, 100, 100))) {
  Rng rng(seed);
  const Vec3 extents = universe.Extents();
  const double max_extent =
      std::max({extents.x, extents.y, extents.z, 1e-9});
  auto random_query_box = [&] {
    const Vec3 center = rng.PointIn(universe);
    const double frac = rng.Uniform(0.005, 0.3);
    return Aabb::FromCenterHalfExtents(center, extents * (frac / 2));
  };
  std::vector<ScheduleStep> schedule;
  schedule.reserve(steps);
  for (size_t i = 0; i < steps; ++i) {
    ScheduleStep step;
    const int64_t roll = rng.UniformInt(0, 99);
    if (roll < 30) {
      step.kind = ScheduleStep::Kind::kInsert;
      const Vec3 center = rng.PointIn(universe);
      const double frac = rng.Uniform(0.0001, 0.03);
      step.entry = RTreeEntry{
          Aabb::FromCenterHalfExtents(center, extents * (frac / 2)),
          static_cast<uint64_t>(
              rng.UniformInt(0, static_cast<int64_t>(id_space) - 1))};
    } else if (roll < 45) {
      step.kind = ScheduleStep::Kind::kErase;
      step.id = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(id_space) - 1));
    } else if (roll < 85) {
      step.kind = roll < 65   ? ScheduleStep::Kind::kRange
                  : roll < 75 ? ScheduleStep::Kind::kCount
                              : ScheduleStep::Kind::kSphere;
      if (step.kind == ScheduleStep::Kind::kSphere) {
        step.center = rng.PointIn(universe);
        step.radius = rng.Uniform(0.005, 0.15) * max_extent;
      } else {
        step.box = random_query_box();
      }
    } else if (roll < 95) {
      step.kind = ScheduleStep::Kind::kSeedScan;
      step.box = random_query_box();
    } else {
      step.kind = ScheduleStep::Kind::kCompact;
    }
    schedule.push_back(step);
  }
  return schedule;
}

/// A schedule run's fixed inputs; `seed` is only carried for the failure
/// message, so a reported divergence names everything needed to replay it.
struct ScheduleConfig {
  std::vector<RTreeEntry> initial;  ///< bulkloaded before the first step
  ShardedFlatStore::Options options;
  uint64_t seed = 0;
};

/// Applies `schedule` step by step to an EXISTING store and its oracle
/// mirror, comparing every query step bit-for-bit (ids ascending). The
/// failure message names `seed`, the step index, the step kind and
/// `context` — everything needed to regenerate and replay the schedule.
/// Building-block of ReplaySchedule and of evolving-store fuzz loops.
inline ::testing::AssertionResult ApplySchedule(
    ShardedFlatStore* store_ptr, OracleMirror* mirror_ptr,
    const std::vector<ScheduleStep>& schedule, uint64_t seed,
    const std::string& context = "") {
  ShardedFlatStore& store = *store_ptr;
  OracleMirror& mirror = *mirror_ptr;

  auto fail = [&](size_t step_index, const char* what,
                  const std::string& detail) -> ::testing::AssertionResult {
    std::ostringstream message;
    message << "schedule seed " << seed << " diverged at step " << step_index
            << " (" << what << "): " << detail;
    if (!context.empty()) message << " [" << context << "]";
    return ::testing::AssertionFailure() << message.str();
  };
  auto describe = [](const std::vector<uint64_t>& got,
                     const std::vector<uint64_t>& want) {
    std::ostringstream out;
    out << "got " << got.size() << " ids, want " << want.size();
    for (size_t i = 0; i < std::max(got.size(), want.size()); ++i) {
      const bool differs = i >= got.size() || i >= want.size() ||
                           got[i] != want[i];
      if (!differs) continue;
      out << "; first difference at position " << i;
      break;
    }
    return out.str();
  };

  for (size_t i = 0; i < schedule.size(); ++i) {
    const ScheduleStep& step = schedule[i];
    switch (step.kind) {
      case ScheduleStep::Kind::kInsert:
        store.Insert(step.entry);
        mirror.Insert(step.entry);
        break;
      case ScheduleStep::Kind::kErase:
        store.Erase(step.id);
        mirror.Erase(step.id);
        break;
      case ScheduleStep::Kind::kRange: {
        const std::vector<uint64_t> got = store.RangeQuery(step.box);
        const std::vector<uint64_t> want = mirror.RangeQuery(step.box);
        if (got != want) return fail(i, "RangeQuery", describe(got, want));
        break;
      }
      case ScheduleStep::Kind::kCount: {
        const uint64_t got = store.RangeCount(step.box);
        const uint64_t want = mirror.RangeCount(step.box);
        if (got != want) {
          return fail(i, "RangeCount",
                      "got " + std::to_string(got) + ", want " +
                          std::to_string(want));
        }
        break;
      }
      case ScheduleStep::Kind::kSeedScan: {
        const std::vector<uint64_t> got =
            store.RangeQueryViaSeedScan(step.box);
        const std::vector<uint64_t> want = mirror.RangeQuery(step.box);
        if (got != want) {
          return fail(i, "RangeQueryViaSeedScan", describe(got, want));
        }
        break;
      }
      case ScheduleStep::Kind::kSphere: {
        const std::vector<uint64_t> got =
            store.SphereQuery(step.center, step.radius);
        const std::vector<uint64_t> want =
            mirror.SphereQuery(step.center, step.radius);
        if (got != want) return fail(i, "SphereQuery", describe(got, want));
        break;
      }
      case ScheduleStep::Kind::kCompact: {
        store.Compact();
        // A compaction must be invisible to results: cross-check a
        // box covering every possible element right away so a fold bug is
        // caught at its step, not at the next random query.
        const Aabb everything(Vec3(-1e18, -1e18, -1e18),
                              Vec3(1e18, 1e18, 1e18));
        const std::vector<uint64_t> got = store.RangeQuery(everything);
        const std::vector<uint64_t> want = mirror.RangeQuery(everything);
        if (got != want) {
          return fail(i, "Compact (post-fold universe scan)",
                      describe(got, want));
        }
        break;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Deterministic schedule replayer: builds a fresh store from `config`,
/// applies `schedule` against it and an OracleMirror via ApplySchedule, and
/// compares every query step bit-for-bit. On divergence the returned
/// failure names the seed, step index and step kind — and, when the failing
/// run was multi-threaded, replays the identical schedule single-threaded
/// and reports whether the divergence reproduces serially (separating
/// concurrency bugs from logic bugs).
inline ::testing::AssertionResult ReplaySchedule(
    const ScheduleConfig& config, const std::vector<ScheduleStep>& schedule) {
  ShardedFlatStore store =
      ShardedFlatStore::Build(config.initial, config.options);
  OracleMirror mirror(config.initial);
  std::ostringstream context;
  context << "shards=" << config.options.num_shards
          << " threads=" << config.options.num_threads;
  const ::testing::AssertionResult result =
      ApplySchedule(&store, &mirror, schedule, config.seed, context.str());
  if (result || config.options.num_threads == 1) return result;
  ScheduleConfig serial = config;
  serial.options.num_threads = 1;
  const ::testing::AssertionResult replay = ReplaySchedule(serial, schedule);
  return ::testing::AssertionFailure()
         << result.message()
         << (replay ? "; single-threaded replay PASSES "
                      "(concurrency-dependent divergence)"
                    : "; single-threaded replay diverges too "
                      "(deterministic logic bug)");
}

}  // namespace testing
}  // namespace flat

#endif  // FLAT_TESTS_TEST_UTIL_H_
