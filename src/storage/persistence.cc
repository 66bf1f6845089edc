#include "storage/persistence.h"

#include <cstring>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace flat {
namespace {

// Version 1: every node page exact. Version 2: some internal seed pages in
// the retired quantized format, which no reader decodes any more, so v2 is
// rejected like an unknown version. Version 3: seed-leaf records store the
// unstretched tile and the tile-adjacency neighbor relation
// (core/partitioner.h), which a pre-v3 crawl would miss results on, so the
// magic locks old readers out. Version 4: seed leaves carry a format byte
// and hinted records (same-leaf slots, cross-leaf refs with hints,
// core/metadata.h), which a pre-v4 reader would misparse. The container
// layout is the same for all four. Every save writes v4; the reader accepts
// v1, v3 and v4. Each leaf's format byte says how to read its records: a v1
// record stores the stretched partition MBR (which contains the tile) and
// a superset of the v3 pointers, so today's crawl stays exact on v1 and v3
// leaves, which it crawls without hints.
constexpr char kMagicPrefix[7] = {'F', 'L', 'A', 'T', 'P', 'G', 'F'};
constexpr char kMagicWritten[kPageFileMagicSize] = {'F', 'L', 'A', 'T',
                                                    'P', 'G', 'F', '4'};

void WriteU32(std::ostream& out, uint32_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

}  // namespace

bool IsReadablePageFileMagic(const char* magic) {
  return std::memcmp(magic, kMagicPrefix, sizeof(kMagicPrefix)) == 0 &&
         (magic[7] == '1' || magic[7] == '3' || magic[7] == '4');
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

}  // namespace flat
