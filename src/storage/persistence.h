#ifndef FLAT_STORAGE_PERSISTENCE_H_
#define FLAT_STORAGE_PERSISTENCE_H_

#include <cstddef>
#include <iosfwd>
#include <memory>

#include "storage/page_file.h"
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
///   magic "FLATPGF3" | u32 page_size | u32 page_count |
///   u8 category[page_count] | page bytes (page_count * page_size)
///
/// The format is versioned via the magic; readers reject unknown magics and
/// truncated streams by throwing std::runtime_error. Every save writes
/// "FLATPGF3". "FLATPGF1" (exact node pages) files from earlier builds share
/// the container layout and still load: LoadPageFile and DiskPageFile::Open
/// accept v1 and v3 (IsReadablePageFileMagic). "FLATPGF2" marked files
/// holding the retired quantized seed pages and is rejected like an unknown
/// version. v3 exists because its seed-leaf records hold the unstretched
/// tile and a sparser neighbor relation, which readers that predate it
/// would crawl inexactly. See docs/file_format.md for the back-compat
/// matrix.
///
/// Accepts any PageStore (so a DiskPageFile can be re-saved); throws
/// std::runtime_error if the store's page count exceeds the format's u32
/// field rather than silently truncating it.
void SavePageFile(const PageStore& file, std::ostream& out);

/// Bytes of the magic that opens every serialized PageFile.
inline constexpr size_t kPageFileMagicSize = 8;

/// True iff the kPageFileMagicSize bytes at `magic` name a page-file
/// version this build reads ("FLATPGF1" or "FLATPGF3"). The one
/// version check behind LoadPageFile and DiskPageFile::Open.
bool IsReadablePageFileMagic(const char* magic);

/// Reads a PageFile previously written by SavePageFile into memory. The
/// page_count header field is untrusted: where the stream is seekable it is
/// bounded against the actual remaining bytes before anything is allocated,
/// and parsing is incremental either way — the first truncated entry throws
/// without ever sizing a buffer to the hostile count. To serve the same
/// bytes from disk without loading them, use DiskPageFile::Open instead.
std::unique_ptr<PageFile> LoadPageFile(std::istream& in);

}  // namespace flat

#endif  // FLAT_STORAGE_PERSISTENCE_H_
