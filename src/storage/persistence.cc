#include "storage/persistence.h"

#include <cstring>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace flat {
namespace {

// Version 1: every node page exact. Version 2: some internal seed pages in
// the retired quantized format. Version 3: seed-leaf records store the
// unstretched tile and the tile-adjacency neighbor relation
// (core/partitioner.h). Version 4: seed leaves carry a format byte and
// hinted records (same-leaf slots, cross-leaf refs with hints,
// core/metadata.h), and every index has a tile directory. Version 5: seed-
// leaf records store their boxes on a per-leaf 16-bit grid, two half-page
// boxes and a same-leaf bitmap, and imply their object page (leaf format
// 5). The container layout is the same for all five. Every save writes v5,
// and v5 is the one version the reader accepts: v1, v3 and v4 leaves hold
// records no query path decodes any more.
constexpr char kMagic[kPageFileMagicSize] = {'F', 'L', 'A', 'T',
                                             'P', 'G', 'F', '5'};

void WriteU32(std::ostream& out, uint32_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

}  // namespace

bool IsReadablePageFileMagic(const char* magic) {
  return std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
}

void SavePageFile(const PageStore& file, std::ostream& out) {
  // The format stores the page count in a u32; a bigger store must fail
  // loudly rather than produce a well-formed file describing the wrong
  // prefix of the data.
  if (file.page_count() > std::numeric_limits<uint32_t>::max()) {
    throw std::runtime_error(
        "SavePageFile: page count exceeds the format's u32 field");
  }
  out.write(kMagic, sizeof(kMagic));
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

}  // namespace flat
