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
///   magic "FLATPGF4" | u32 page_size | u32 page_count |
///   u8 category[page_count] | page bytes (page_count * page_size)
///
/// The format is versioned via the magic. DiskPageFile::Open is the one
/// reader: it serves a saved file in place and rejects unknown magics,
/// truncated files and trailing bytes by throwing std::runtime_error. Every
/// save writes "FLATPGF4". "FLATPGF1" (exact node pages) and "FLATPGF3"
/// files from earlier builds share the container layout and still open
/// (IsReadablePageFileMagic). "FLATPGF2" marked files holding the retired
/// quantized seed pages and is rejected like an unknown version. v3 exists
/// because its seed-leaf records hold the unstretched tile and a sparser
/// neighbor relation, which readers that predate it would crawl inexactly;
/// v4 because its seed leaves hold hinted records behind a format byte,
/// which older readers would misparse. See docs/file_format.md for the
/// back-compat matrix.
///
/// Accepts any PageStore (so a DiskPageFile can be re-saved); throws
/// std::runtime_error if the store's page count exceeds the format's u32
/// field rather than silently truncating it.
void SavePageFile(const PageStore& file, std::ostream& out);

/// Bytes of the magic that opens every serialized PageFile.
inline constexpr size_t kPageFileMagicSize = 8;

/// True iff the kPageFileMagicSize bytes at `magic` name a page-file
/// version this build reads ("FLATPGF1", "FLATPGF3" or "FLATPGF4").
/// DiskPageFile::Open checks every file with it.
bool IsReadablePageFileMagic(const char* magic);

}  // namespace flat

#endif  // FLAT_STORAGE_PERSISTENCE_H_
