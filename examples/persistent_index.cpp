// Persistence workflow: bulkload once, save the simulated disk to a file,
// reopen it in a fresh session and query — the paper's "reindex rarely,
// query often" lifecycle (Section IV). The reopened session serves pages
// straight from the file through DiskPageFile (mmap'd — real out-of-core
// execution).
//
//   $ ./examples/persistent_index [path]
#include <fstream>
#include <iostream>

#include "core/flat_index.h"
#include "data/neuron_generator.h"
#include "storage/buffer_pool.h"
#include "storage/disk_page_file.h"
#include "storage/persistence.h"

int main(int argc, char** argv) {
  using namespace flat;
  const std::string path = argc > 1 ? argv[1] : "/tmp/flat_index.bin";

  FlatIndex::Descriptor descriptor;
  size_t expected = 0;
  uint64_t expected_reads = 0;
  Aabb probe;

  {
    // Session 1: build and save.
    NeuronParams params;
    params.total_elements = 80000;
    Dataset dataset = GenerateNeurons(params);
    probe = Aabb::FromCenterHalfExtents(dataset.bounds.Center(),
                                        Vec3(3, 3, 3));

    PageFile file;
    FlatIndex index = FlatIndex::Build(&file, dataset.elements);
    descriptor = index.descriptor();

    IoStats stats;
    BufferPool pool(&file, &stats);
    expected = index.RangeCount(&pool, probe);
    expected_reads = stats.TotalReads();

    std::ofstream out(path, std::ios::binary);
    SavePageFile(file, out);
    std::cout << "session 1: built over " << dataset.size()
              << " elements, saved " << file.SizeBytes() / 1024
              << " KiB to " << path << " (probe query: " << expected
              << " results)\n";
  }

  {
    // Session 2: open the same file disk-backed — pages are served from an
    // mmap'd read-only view, no deserialization and no rebuild.
    auto file = DiskPageFile::Open(path);
    FlatIndex index = FlatIndex::Attach(file.get(), descriptor);

    IoStats stats;
    BufferPool pool(file.get(), &stats);
    const size_t got = index.RangeCount(&pool, probe);
    std::cout << "session 2: disk-backed ("
              << (file->mmap_backed() ? "mmap" : "pread") << "), probe query: "
              << got << " results, " << stats.TotalReads() << " page reads\n";
    if (got != expected || stats.TotalReads() != expected_reads) {
      std::cerr << "MISMATCH on the disk backend!\n";
      return 1;
    }
  }
  std::cout << "reload verified: identical results and identical logical "
               "reads, without reindexing\n";
  return 0;
}
