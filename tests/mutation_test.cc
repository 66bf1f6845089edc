// Seeded mutation test of saved stores: flip a few random bytes inside the
// seed-leaf and object pages of a saved shard file, reload it and query it.
// Until pages carry checksums a mutant may answer wrongly, so this pins
// memory safety and termination only: every query returns kOk or kIoError,
// none runs into its deadline, and no run crashes (the sanitizer builds run
// this suite too).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/query_control.h"
#include "data/neuron_generator.h"
#include "engine/query_engine.h"
#include "geometry/rng.h"
#include "shard/sharded_flat_store.h"
#include "storage/persistence.h"
#include "tests/test_util.h"

namespace flat {
namespace {

struct MutatedStore {
  const char* name;
  uint32_t page_size;
  std::vector<RTreeEntry> (*make)();
};

std::vector<RTreeEntry> Random20k() {
  return testing::RandomEntries(20000, 4711);
}

std::vector<RTreeEntry> Neurons() {
  NeuronParams params;
  params.total_elements = 20000;
  params.seed = 4712;
  return GenerateNeurons(params).elements;
}

const MutatedStore kStores[] = {
    {"random_512", 512, Random20k},
    {"neuron_4096", 4096, Neurons},
};

constexpr int kMutantsPerStore = 1000;
constexpr auto kDeadline = std::chrono::seconds(2);

class MutationTest : public ::testing::TestWithParam<MutatedStore> {};

TEST_P(MutationTest, FlippedPageBytesYieldOkOrIoError) {
  const MutatedStore& param = GetParam();
  const std::vector<RTreeEntry> elements = param.make();
  ShardedFlatStore::Options options;
  options.num_shards = 1;
  options.page_size = param.page_size;
  const ShardedFlatStore built = ShardedFlatStore::Build(elements, options);

  Aabb bounds;
  for (const RTreeEntry& e : elements) bounds.ExpandToInclude(e.box);
  const Aabb universe = bounds.Inflated(1.0);

  // The pages to mutate, and where page bytes start in the saved file:
  // magic, page size and count, one category byte per page
  // (docs/file_format.md §1.1).
  const PageStore& file = built.shard_file(0);
  std::vector<PageId> leaves;
  std::vector<PageId> objects;
  for (PageId id = 0; id < file.page_count(); ++id) {
    if (file.category(id) == PageCategory::kSeedLeaf) leaves.push_back(id);
    if (file.category(id) == PageCategory::kObject) objects.push_back(id);
  }
  ASSERT_FALSE(leaves.empty());
  ASSERT_FALSE(objects.empty());
  const uint64_t pages_in_file = kPageFileMagicSize + 8 + file.page_count();

  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    (std::string("flat_mutation_") + param.name);
  std::filesystem::remove_all(dir);
  built.Save(dir.string());
  const std::filesystem::path shard_path =
      dir / built.catalog().shards[0].page_file_name;

  Rng rng(90210 + param.page_size);
  const Vec3 extent = bounds.Extents();
  int io_errors = 0;
  for (int mutant = 0; mutant < kMutantsPerStore; ++mutant) {
    // 1-8 flips, each on a seed leaf or an object page with even odds.
    struct Flip {
      uint64_t offset;
      char original;
    };
    std::vector<Flip> flips;
    {
      std::fstream shard(shard_path,
                         std::ios::in | std::ios::out | std::ios::binary);
      const int64_t count = rng.UniformInt(1, 8);
      for (int64_t f = 0; f < count; ++f) {
        const std::vector<PageId>& pages =
            rng.Bernoulli(0.5) ? leaves : objects;
        const PageId page = pages[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(pages.size()) - 1))];
        const uint64_t offset =
            pages_in_file + uint64_t{page} * file.page_size() +
            static_cast<uint64_t>(rng.UniformInt(0, file.page_size() - 1));
        char byte;
        shard.seekg(static_cast<std::streamoff>(offset));
        shard.read(&byte, 1);
        flips.push_back(Flip{offset, byte});
        byte = static_cast<char>(byte ^ rng.UniformInt(1, 255));
        shard.seekp(static_cast<std::streamoff>(offset));
        shard.write(&byte, 1);
      }
      ASSERT_TRUE(shard.good());
    }

    {
      const ShardedFlatStore loaded = ShardedFlatStore::Load(dir.string());
      std::vector<QueryControl> controls(21,
                                         QueryControl::WithTimeout(kDeadline));
      std::vector<Query> batch = {Query::Range(universe)};
      for (int q = 0; q < 20; ++q) {
        const Vec3 center = rng.PointIn(bounds);
        const double side = rng.Uniform(0.01, 0.2);
        const Aabb box = Aabb::FromCenterHalfExtents(
            center, Vec3(extent.x * side, extent.y * side, extent.z * side));
        switch (q % 3) {
          case 0:
            batch.push_back(Query::Range(box));
            break;
          case 1:
            batch.push_back(Query::Sphere(center, extent.x * side));
            break;
          default:
            batch.push_back(Query::RangeCount(box));
            break;
        }
      }
      for (size_t q = 0; q < batch.size(); ++q) batch[q].control = &controls[q];
      const std::vector<QueryResult> results = loaded.RunBatch(batch);
      ASSERT_EQ(results.size(), batch.size());
      for (size_t q = 0; q < results.size(); ++q) {
        const QueryStatus status = results[q].status;
        ASSERT_TRUE(status == QueryStatus::kOk ||
                    status == QueryStatus::kIoError)
            << "mutant " << mutant << " query " << q << ": status "
            << QueryStatusName(status) << " " << results[q].error;
        io_errors += status == QueryStatus::kIoError;
      }
    }

    // Restore the original bytes, last flip first (two flips may share a
    // byte).
    std::fstream shard(shard_path,
                       std::ios::in | std::ios::out | std::ios::binary);
    for (auto it = flips.rbegin(); it != flips.rend(); ++it) {
      shard.seekp(static_cast<std::streamoff>(it->offset));
      shard.write(&it->original, 1);
    }
    ASSERT_TRUE(shard.good());
  }
  // The checks do fire: many mutants fail with a typed error.
  EXPECT_GT(io_errors, kMutantsPerStore / 10);

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

INSTANTIATE_TEST_SUITE_P(
    SavedStores, MutationTest, ::testing::ValuesIn(kStores),
    [](const ::testing::TestParamInfo<MutatedStore>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace flat
