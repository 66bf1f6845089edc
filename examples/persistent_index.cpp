// Persistence workflow: bulkload once, save the simulated disk to a file,
// reopen it in a fresh session and query — the paper's "reindex rarely,
// query often" lifecycle (Section IV). The reopened sessions demonstrate
// both load paths: LoadPageFile (deserialize into RAM) and DiskPageFile
// (serve pages straight from the file, mmap'd — real out-of-core
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
    // Session 2: reopen into RAM (LoadPageFile) and query; no rebuild.
    std::ifstream in(path, std::ios::binary);
    auto file = LoadPageFile(in);
    FlatIndex index = FlatIndex::Attach(file.get(), descriptor);

    IoStats stats;
    BufferPool pool(file.get(), &stats);
    const size_t got = index.RangeCount(&pool, probe);
    std::cout << "session 2: reopened " << file->page_count()
              << " pages into RAM, probe query: " << got << " results, "
              << stats.TotalReads() << " page reads\n";
    if (got != expected) {
      std::cerr << "MISMATCH after reload!\n";
      return 1;
    }
  }

  {
    // Session 3: open the same file disk-backed — pages are served from an
    // mmap'd read-only view, no deserialization.
    auto file = DiskPageFile::Open(path);
    FlatIndex index = FlatIndex::Attach(file.get(), descriptor);

    IoStats stats;
    BufferPool pool(file.get(), &stats);
    const size_t got = index.RangeCount(&pool, probe);
    std::cout << "session 3: disk-backed ("
              << (file->mmap_backed() ? "mmap" : "pread") << "), probe query: "
              << got << " results, " << stats.TotalReads() << " page reads\n";
    if (got != expected || stats.TotalReads() != expected_reads) {
      std::cerr << "MISMATCH on the disk backend!\n";
      return 1;
    }
  }
  {
    // Session 4: the same lifecycle with compressed seed pages — the
    // quantized interior format (docs/file_format.md §2.1) packs ~3.45x
    // more children per page, the per-page format byte marks those pages,
    // and the disk-backed re-query must return the same results as the
    // exact index.
    const std::string compressed_path = path + ".v2";
    NeuronParams params;
    params.total_elements = 80000;
    Dataset dataset = GenerateNeurons(params);

    FlatIndex::Descriptor compressed_descriptor;
    {
      PageFile file;
      FlatIndex::BuildOptions options;
      options.compressed_seed_pages = true;
      FlatIndex index = FlatIndex::Build(&file, dataset.elements, options);
      compressed_descriptor = index.descriptor();
      std::ofstream out(compressed_path, std::ios::binary);
      SavePageFile(file, out);
      std::cout << "session 4: compressed-seed build saved to "
                << compressed_path << " (seed height "
                << index.build_stats().seed_height << ", "
                << index.build_stats().seed_internal_pages
                << " internal pages)\n";
    }

    auto file = DiskPageFile::Open(compressed_path);
    FlatIndex index = FlatIndex::Attach(file.get(), compressed_descriptor);
    IoStats stats;
    BufferPool pool(file.get(), &stats);
    const size_t got = index.RangeCount(&pool, probe);
    std::cout << "session 4: disk-backed compressed index, probe query: "
              << got << " results, " << stats.TotalReads()
              << " page reads\n";
    if (got != expected) {
      std::cerr << "MISMATCH on the compressed index!\n";
      return 1;
    }
  }
  std::cout << "reload verified: identical results (and identical logical "
               "reads) on both backends, without reindexing\n";
  return 0;
}
