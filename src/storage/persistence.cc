#include "storage/persistence.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <vector>

namespace flat {
namespace {

// Version 1: every node page exact. Version 2: some internal seed pages in
// the retired quantized format, which no reader decodes any more, so v2 is
// rejected like an unknown version. Version 3: seed-leaf records store the
// unstretched tile and the tile-adjacency neighbor relation
// (core/partitioner.h), which a pre-v3 crawl would miss results on, so the
// magic locks old readers out. The container layout is the same for all
// three. Every save writes v3; readers accept v1 and v3, since a v1 record
// stores the stretched partition MBR (which contains the tile) and a
// superset of the v3 pointers, so today's crawl stays exact on it.
constexpr char kMagicPrefix[7] = {'F', 'L', 'A', 'T', 'P', 'G', 'F'};
constexpr char kMagicWritten[kPageFileMagicSize] = {'F', 'L', 'A', 'T',
                                                    'P', 'G', 'F', '3'};

void WriteU32(std::ostream& out, uint32_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

uint32_t ReadU32(std::istream& in) {
  uint32_t value = 0;
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!in) throw std::runtime_error("LoadPageFile: truncated header");
  return value;
}

}  // namespace

bool IsReadablePageFileMagic(const char* magic) {
  return std::memcmp(magic, kMagicPrefix, sizeof(kMagicPrefix)) == 0 &&
         (magic[7] == '1' || magic[7] == '3');
}

void SavePageFile(const PageStore& file, std::ostream& out) {
  // The format stores the page count in a u32; a bigger store must fail
  // loudly rather than produce a well-formed file describing the wrong
  // prefix of the data.
  if (file.page_count() > std::numeric_limits<uint32_t>::max()) {
    throw std::runtime_error(
        "SavePageFile: page count exceeds the format's u32 field");
  }
  out.write(kMagicWritten, sizeof(kMagicWritten));
  WriteU32(out, file.page_size());
  WriteU32(out, static_cast<uint32_t>(file.page_count()));
  for (PageId id = 0; id < file.page_count(); ++id) {
    const uint8_t category = static_cast<uint8_t>(file.category(id));
    out.write(reinterpret_cast<const char*>(&category), 1);
  }
  for (PageId id = 0; id < file.page_count(); ++id) {
    out.write(file.Data(id), file.page_size());
  }
  if (!out) throw std::runtime_error("SavePageFile: write failed");
}

std::unique_ptr<PageFile> LoadPageFile(std::istream& in) {
  char magic[kPageFileMagicSize];
  in.read(magic, sizeof(magic));
  if (!in || !IsReadablePageFileMagic(magic)) {
    throw std::runtime_error("LoadPageFile: bad magic (not a FLAT page file "
                             "or unsupported version)");
  }
  const uint32_t page_size = ReadU32(in);
  const uint32_t page_count = ReadU32(in);
  if (page_size < 64 || page_size > (64u << 20)) {
    throw std::runtime_error("LoadPageFile: implausible page size");
  }

  // The header's page_count is untrusted. Where the stream is seekable,
  // bound it against the bytes actually present before allocating anything;
  // either way, parse incrementally below so a hostile count on a short
  // stream fails on its first truncated entry, not with a multi-GiB resize.
  const std::istream::pos_type body_pos = in.tellg();
  if (body_pos != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const std::istream::pos_type end_pos = in.tellg();
    in.seekg(body_pos);
    if (!in) throw std::runtime_error("LoadPageFile: seek failed");
    if (end_pos != std::istream::pos_type(-1)) {
      const uint64_t remaining =
          static_cast<uint64_t>(end_pos - body_pos);
      const uint64_t expected =
          uint64_t{page_count} * (uint64_t{1} + page_size);
      if (remaining < expected) {
        throw std::runtime_error(
            "LoadPageFile: header page count exceeds stream size");
      }
    }
  }

  std::vector<uint8_t> categories;
  uint8_t chunk[4096];
  while (categories.size() < page_count) {
    const size_t want = std::min<size_t>(
        sizeof(chunk), page_count - categories.size());
    in.read(reinterpret_cast<char*>(chunk), static_cast<std::streamsize>(want));
    if (static_cast<size_t>(in.gcount()) != want) {
      throw std::runtime_error("LoadPageFile: truncated category table");
    }
    categories.insert(categories.end(), chunk, chunk + want);
  }

  auto file = std::make_unique<PageFile>(page_size);
  for (uint32_t i = 0; i < page_count; ++i) {
    if (categories[i] >= kNumPageCategories) {
      throw std::runtime_error("LoadPageFile: invalid page category");
    }
    const PageId id =
        file->Allocate(static_cast<PageCategory>(categories[i]));
    in.read(file->MutableData(id), page_size);
    if (!in) throw std::runtime_error("LoadPageFile: truncated page data");
  }
  return file;
}

}  // namespace flat
