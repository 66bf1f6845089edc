#include "shard/shard_catalog.h"

#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace flat {
namespace {

// FLATSHC1 predates the generation and FLATSHC2 the tile-directory root;
// neither is readable.
constexpr char kMagic[8] = {'F', 'L', 'A', 'T', 'S', 'H', 'C', '3'};

// Shards are serialized PageFiles (u32 PageIds), so a catalog counting more
// shards than pages could even exist is corrupt, not merely large.
constexpr uint32_t kMaxShards = 1u << 24;
constexpr uint32_t kMaxNameLength = 4096;

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
T ReadPod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!in) throw std::runtime_error("LoadShardCatalog: truncated stream");
  return value;
}

void WriteAabb(std::ostream& out, const Aabb& box) {
  for (int axis = 0; axis < 3; ++axis) WritePod(out, box.lo()[axis]);
  for (int axis = 0; axis < 3; ++axis) WritePod(out, box.hi()[axis]);
}

Aabb ReadAabb(std::istream& in) {
  Vec3 lo, hi;
  for (int axis = 0; axis < 3; ++axis) lo.At(axis) = ReadPod<double>(in);
  for (int axis = 0; axis < 3; ++axis) hi.At(axis) = ReadPod<double>(in);
  return Aabb(lo, hi);
}

}  // namespace

void SaveShardCatalog(const ShardCatalog& catalog, std::ostream& out) {
  // Guard the u32 casts below: a catalog too large for the format (or with
  // a name the loader would reject) must fail here, not serialize a
  // well-formed file describing the wrong data.
  if (catalog.shards.size() > kMaxShards) {
    throw std::runtime_error(
        "SaveShardCatalog: shard count exceeds the format's limit");
  }
  for (const ShardCatalogEntry& shard : catalog.shards) {
    if (shard.page_file_name.empty() ||
        shard.page_file_name.size() > kMaxNameLength) {
      throw std::runtime_error(
          "SaveShardCatalog: shard file name length out of range");
    }
  }
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, catalog.generation);
  WritePod(out, catalog.page_size);
  WritePod(out, catalog.total_elements);
  WriteAabb(out, catalog.universe);
  WritePod(out, static_cast<uint32_t>(catalog.shards.size()));
  for (const ShardCatalogEntry& shard : catalog.shards) {
    WritePod(out, static_cast<uint32_t>(shard.page_file_name.size()));
    out.write(shard.page_file_name.data(),
              static_cast<std::streamsize>(shard.page_file_name.size()));
    WritePod(out, shard.descriptor.seed_root);
    WritePod(out, static_cast<uint8_t>(shard.descriptor.root_is_leaf));
    WritePod(out, static_cast<int32_t>(shard.descriptor.seed_height));
    WritePod(out, shard.descriptor.directory_root);
    WriteAabb(out, shard.bounds);
    WriteAabb(out, shard.tile);
    WritePod(out, shard.element_count);
  }
  if (!out) throw std::runtime_error("SaveShardCatalog: write failed");
}

ShardCatalog LoadShardCatalog(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error(
        "LoadShardCatalog: bad magic (not a FLAT shard catalog or "
        "unsupported version)");
  }
  ShardCatalog catalog;
  catalog.generation = ReadPod<uint64_t>(in);
  catalog.page_size = ReadPod<uint32_t>(in);
  if (catalog.page_size < 64 || catalog.page_size > (64u << 20)) {
    throw std::runtime_error("LoadShardCatalog: implausible page size");
  }
  catalog.total_elements = ReadPod<uint64_t>(in);
  catalog.universe = ReadAabb(in);
  const uint32_t shard_count = ReadPod<uint32_t>(in);
  if (shard_count > kMaxShards) {
    throw std::runtime_error("LoadShardCatalog: implausible shard count");
  }
  // Entries are parsed one at a time (no up-front resize to the untrusted
  // count): a truncated or hostile header fails on its first entry instead
  // of forcing a shard_count-sized allocation.
  uint64_t element_sum = 0;
  for (uint32_t i = 0; i < shard_count; ++i) {
    ShardCatalogEntry shard;
    const uint32_t name_length = ReadPod<uint32_t>(in);
    if (name_length == 0 || name_length > kMaxNameLength) {
      throw std::runtime_error("LoadShardCatalog: implausible file name");
    }
    shard.page_file_name.resize(name_length);
    in.read(shard.page_file_name.data(), name_length);
    if (!in) throw std::runtime_error("LoadShardCatalog: truncated stream");
    // Names are plain file names inside the store directory; anything that
    // could traverse out of it is corrupt (or hostile), not a store.
    if (shard.page_file_name.find('/') != std::string::npos ||
        shard.page_file_name.find('\\') != std::string::npos ||
        shard.page_file_name.find("..") != std::string::npos ||
        shard.page_file_name.find('\0') != std::string::npos) {
      throw std::runtime_error("LoadShardCatalog: invalid shard file name");
    }
    shard.descriptor.seed_root = ReadPod<PageId>(in);
    shard.descriptor.root_is_leaf = ReadPod<uint8_t>(in) != 0;
    shard.descriptor.seed_height = ReadPod<int32_t>(in);
    shard.descriptor.directory_root = ReadPod<PageId>(in);
    shard.bounds = ReadAabb(in);
    shard.tile = ReadAabb(in);
    shard.element_count = ReadPod<uint64_t>(in);
    element_sum += shard.element_count;
    catalog.shards.push_back(std::move(shard));
  }
  if (element_sum != catalog.total_elements) {
    throw std::runtime_error(
        "LoadShardCatalog: element counts do not sum to total_elements");
  }
  return catalog;
}

}  // namespace flat
