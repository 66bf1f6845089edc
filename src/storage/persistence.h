#ifndef FLAT_STORAGE_PERSISTENCE_H_
#define FLAT_STORAGE_PERSISTENCE_H_

#include <cstddef>
#include <iosfwd>

#include "storage/page_store.h"

namespace flat {

/// Binary serialization of a simulated disk.
///
/// The paper's workloads bulkload once and query many times across sessions
/// ("the models ... change only slowly, if at all"); persisting the PageFile
/// plus a small index descriptor (FlatIndex::Descriptor, or an RTree's
/// root/height pair) is all that is needed to reopen an index.
///
/// Format (little-endian):
///   magic "FLATPGF5" | u32 page_size | u32 page_count |
///   u8 category[page_count] | page bytes (page_count * page_size)
///
/// The format is versioned via the magic. DiskPageFile::Open is the one
/// reader: it serves a saved file in place and rejects other magics,
/// truncated files and trailing bytes by throwing std::runtime_error. Every
/// save writes "FLATPGF5", the one version this build reads: its seed
/// leaves hold v5 records (boxes on a per-leaf grid, half-page boxes, a
/// same-leaf bitmap, hinted cross-leaf refs) behind format byte 5, and
/// every index it holds has a tile directory. "FLATPGF1" to "FLATPGF4"
/// files from earlier builds are rejected like an unknown version. See
/// docs/file_format.md for the compatibility matrix.
///
/// Accepts any PageStore (so a DiskPageFile can be re-saved); throws
/// std::runtime_error if the store's page count exceeds the format's u32
/// field rather than silently truncating it. Pages go out one write per
/// run of address-contiguous pages (a PageFile slab, a DiskPageFile
/// mapping), with the bytes page-by-page writes would give.
void SavePageFile(const PageStore& file, std::ostream& out);

/// Bytes of the magic that opens every serialized PageFile.
inline constexpr size_t kPageFileMagicSize = 8;

/// True iff the kPageFileMagicSize bytes at `magic` are "FLATPGF5", the
/// page-file version this build reads. DiskPageFile::Open checks every file
/// with it.
bool IsReadablePageFileMagic(const char* magic);

}  // namespace flat

#endif  // FLAT_STORAGE_PERSISTENCE_H_
