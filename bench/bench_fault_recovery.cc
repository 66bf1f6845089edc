// Fail-soft execution under deterministic fault schedules: the Fig-12 SN
// range workload (neuron data set) executed through the QueryEngine while
// the storage layer misbehaves on schedule — EINTR, short reads, injected
// latency, transient and permanent read errors — plus the per-query control
// plane (deadlines, cancellation, I/O budgets) and admission control.
//
// Self-validating (the CI bench-smoke contract): every pass runs its gates
// and the binary exits non-zero on any violation. The gates:
//   transient  — every query kOk, ids bit-identical to the clean baseline,
//                batch IoRetries exactly equal to the schedule's fired
//                transient-fault count.
//   permanent  — zero crashes; every query either kOk with bit-identical
//                ids or kIoError with a non-empty error message; at least
//                one query fails (the schedule targets a page the workload
//                reads).
//   disk       — the same transient schedule replayed against a DiskPageFile
//                reopened from disk in pread mode: bit-identical results,
//                retry counters matching the schedule.
//   controls   — an expired deadline stops every query with
//                kDeadlineExceeded and at most one page read; a pre-set
//                cancel token yields kCancelled; a tiny I/O budget yields
//                kOk (query finished under budget) or kBudgetExceeded with
//                reads bounded near the budget.
//   admission  — with max_queued_queries=N/2, the admitted head is
//                bit-identical kOk and the tail is exactly kRejected with
//                zero reads.
//
// Flags: --scale --queries --seed --threads=N --json (the BENCH_robustness
// baseline).
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "benchutil/experiment.h"
#include "benchutil/flags.h"
#include "benchutil/sweep.h"
#include "benchutil/table.h"
#include "core/flat_index.h"
#include "core/query_control.h"
#include "data/query_generator.h"
#include "engine/query_engine.h"
#include "storage/buffer_pool.h"
#include "storage/disk_page_file.h"
#include "storage/fault_injection.h"
#include "storage/io_stats.h"
#include "storage/page_file.h"
#include "storage/persistence.h"

namespace {

using namespace flat;

struct PassOutcome {
  std::string name;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
  uint64_t retries = 0;
  uint64_t errors = 0;
  double seconds = 0.0;
  bool gates_pass = true;
  std::string gate_detail;  // first violated gate, for the error report
};

void FailGate(PassOutcome* pass, const std::string& detail) {
  if (pass->gates_pass) pass->gate_detail = detail;
  pass->gates_pass = false;
}

// A deterministic transient-only schedule: every fault recovers within the
// retry budget, so a pass over it must be bit-identical to a clean run.
// Touches every 7th page with a rotating kind; faults on pages the workload
// never reads simply don't fire (the gates compare against fired counts).
void MakeTransientSchedule(size_t page_count, FaultSchedule* schedule) {
  for (size_t page = 0; page < page_count; page += 7) {
    FaultSpec spec;
    spec.page = static_cast<PageId>(page);
    spec.attempt = 1;
    switch ((page / 7) % 4) {
      case 0:
        spec.kind = FaultKind::kEintr;
        break;
      case 1:
        spec.kind = FaultKind::kShortRead;
        spec.short_bytes = 64;
        break;
      case 2:
        spec.kind = FaultKind::kLatency;
        spec.latency_micros = 5;
        break;
      default:
        spec.kind = FaultKind::kError;  // recovered: one retry
        break;
    }
    schedule->Add(spec);
  }
}

// The retries a transient schedule must have produced: EINTR and recovered
// errors each cost exactly one retry; short reads and latency are progress.
uint64_t FiredTransientRetries(const FaultSchedule& schedule) {
  return schedule.fired(FaultKind::kEintr) + schedule.fired(FaultKind::kError);
}

std::vector<Query> MakeBatch(const std::vector<Aabb>& boxes) {
  std::vector<Query> batch;
  batch.reserve(boxes.size());
  for (const Aabb& box : boxes) batch.push_back(Query::Range(box));
  return batch;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags(argc, argv);
  const bool json = flags.GetInt("json", 0) != 0;
  const size_t threads = static_cast<size_t>(flags.GetInt("threads", 4));
  std::ostream& info = json ? std::cerr : std::cout;

  // The Figure-12 workload: SN range queries over the microcircuit data set.
  Dataset dataset = NeuronDatasetAt(flags.Scaled(100000), flags.seed());
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, dataset.elements);

  RangeWorkloadParams workload;
  workload.count = flags.queries();
  workload.volume_fraction = kSnVolumeFraction;
  workload.seed = flags.seed() + 1;
  const std::vector<Aabb> boxes =
      GenerateRangeWorkload(dataset.bounds, workload);
  const std::vector<Query> batch = MakeBatch(boxes);

  // Clean serial baseline: per-query ids and read counts.
  std::vector<QueryResult> baseline(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    BufferPool pool(&file, &baseline[i].io);
    DispatchQuery({&index, batch[i]}, &pool, &baseline[i]);
  }

  info << "# " << dataset.elements.size() << " neuron elements, "
       << batch.size() << " SN range queries, " << file.page_count()
       << " pages, " << threads << " threads\n";

  std::vector<PassOutcome> passes;
  QueryEngine::Options engine_options;
  engine_options.threads = threads;

  auto run_pass = [&](const std::string& name, const FlatIndex& target,
                      const std::vector<Query>& pass_batch,
                      QueryEngine::Options options) {
    PassOutcome pass;
    pass.name = name;
    QueryEngine engine(&target, options);
    BatchStats stats;
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<QueryResult> results = engine.Run(pass_batch, &stats);
    pass.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    pass.ok = stats.queries_ok;
    pass.failed = stats.queries_failed;
    pass.shed = stats.queries_shed;
    pass.retries = stats.io.IoRetries();
    pass.errors = stats.io.IoErrors();
    return std::make_pair(pass, results);
  };

  // Pass 1: transient faults — recover bit-identically, exact retry count.
  {
    FaultSchedule schedule;
    MakeTransientSchedule(file.page_count(), &schedule);
    FaultInjectingPageStore store(&file, &schedule);
    FlatIndex through = FlatIndex::Attach(&store, index.descriptor());
    auto [pass, results] = run_pass("transient", through, batch,
                                    engine_options);
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) {
        FailGate(&pass, "transient query " + std::to_string(i) +
                            " ended " + QueryStatusName(results[i].status));
      } else if (results[i].ids != baseline[i].ids) {
        FailGate(&pass, "transient query " + std::to_string(i) +
                            " diverged from the clean baseline");
      }
    }
    // Attempt counters are per page: each scheduled transient fault fires on
    // the first query to read its page, exactly once across the batch.
    const uint64_t expected_retries = FiredTransientRetries(schedule);
    if (pass.retries != expected_retries) {
      FailGate(&pass, "IoRetries " + std::to_string(pass.retries) +
                          " != fired transient faults " +
                          std::to_string(expected_retries));
    }
    if (expected_retries == 0) {
      FailGate(&pass, "no transient fault fired; the schedule missed the "
                      "workload entirely");
    }
    if (pass.errors != 0) {
      FailGate(&pass, "unexpected IoErrors in the transient pass");
    }
    passes.push_back(pass);
  }

  // Pass 2: a permanent fault on one mid-file page — typed kIoError for the
  // queries that need it, bit-identical results for everyone else.
  {
    FaultSchedule schedule;
    schedule.FailRead(static_cast<PageId>(file.page_count() / 2),
                      /*times=*/1u << 30);
    FaultInjectingPageStore::Options store_options;
    store_options.max_read_retries = 2;
    FaultInjectingPageStore store(&file, &schedule, store_options);
    FlatIndex through = FlatIndex::Attach(&store, index.descriptor());
    auto [pass, results] = run_pass("permanent", through, batch,
                                    engine_options);
    for (size_t i = 0; i < results.size(); ++i) {
      if (results[i].ok()) {
        if (results[i].ids != baseline[i].ids) {
          FailGate(&pass, "permanent-pass kOk query " + std::to_string(i) +
                              " diverged from the clean baseline");
        }
      } else if (results[i].status != QueryStatus::kIoError ||
                 results[i].error.empty()) {
        FailGate(&pass, "permanent-pass query " + std::to_string(i) +
                            " ended " + QueryStatusName(results[i].status) +
                            " without a typed I/O error");
      }
    }
    passes.push_back(pass);
  }

  // Pass 3: the same transient schedule through the real disk backend
  // (pread mode; fault schedules force it), reopened from a saved file.
  {
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("bench_fault_recovery_" + std::to_string(::getpid()) + ".pgf"))
            .string();
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      SavePageFile(file, out);
    }
    FaultSchedule schedule;
    MakeTransientSchedule(file.page_count(), &schedule);
    DiskPageFile::Options disk_options;
    disk_options.retry_backoff_micros = 0;
    disk_options.fault_schedule = &schedule;
    auto disk = DiskPageFile::Open(path, disk_options);
    FlatIndex reopened = FlatIndex::Attach(disk.get(), index.descriptor());
    auto [pass, results] = run_pass("disk_transient", reopened, batch,
                                    engine_options);
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok() || results[i].ids != baseline[i].ids) {
        FailGate(&pass, "disk query " + std::to_string(i) +
                            " diverged or failed under transient faults");
      }
    }
    if (disk->read_retries() != FiredTransientRetries(schedule)) {
      FailGate(&pass, "disk retry counter " +
                          std::to_string(disk->read_retries()) +
                          " != fired transient faults " +
                          std::to_string(FiredTransientRetries(schedule)));
    }
    if (disk->read_errors() != 0 || pass.errors != 0) {
      FailGate(&pass, "unexpected read errors in the disk transient pass");
    }
    disk.reset();
    std::error_code ec;
    std::filesystem::remove(path, ec);
    passes.push_back(pass);
  }

  // Pass 4: the control plane — deadline, cancellation, budget.
  {
    PassOutcome pass;
    pass.name = "controls";
    QueryEngine engine(&index, engine_options);

    QueryControl expired;
    expired.deadline = std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(1);
    std::vector<Query> controlled = batch;
    for (Query& q : controlled) q.control = &expired;
    const auto t0 = std::chrono::steady_clock::now();
    BatchStats stats;
    std::vector<QueryResult> results = engine.Run(controlled, &stats);
    for (size_t i = 0; i < results.size(); ++i) {
      if (results[i].status != QueryStatus::kDeadlineExceeded ||
          results[i].io.TotalReads() > 1) {
        FailGate(&pass, "expired deadline did not stop query " +
                            std::to_string(i) + " immediately");
      }
    }
    pass.failed = stats.queries_failed;

    std::atomic<bool> cancelled{true};
    QueryControl cancel_control;
    cancel_control.cancel = &cancelled;
    for (Query& q : controlled) q.control = &cancel_control;
    results = engine.Run(controlled);
    for (size_t i = 0; i < results.size(); ++i) {
      if (results[i].status != QueryStatus::kCancelled) {
        FailGate(&pass, "pre-set cancel token did not cancel query " +
                            std::to_string(i));
      }
    }

    QueryControl budgeted;
    budgeted.max_page_reads = 5;
    for (Query& q : controlled) q.control = &budgeted;
    results = engine.Run(controlled);
    for (size_t i = 0; i < results.size(); ++i) {
      if (results[i].ok()) {
        if (results[i].ids != baseline[i].ids) {
          FailGate(&pass, "under-budget query " + std::to_string(i) +
                              " diverged from the clean baseline");
        }
      } else if (results[i].status != QueryStatus::kBudgetExceeded ||
                 results[i].io.TotalReads() > budgeted.max_page_reads + 4) {
        FailGate(&pass, "budget did not bound query " + std::to_string(i) +
                            " (status " + QueryStatusName(results[i].status) +
                            ", " + std::to_string(results[i].io.TotalReads()) +
                            " reads)");
      } else {
        ++pass.failed;
      }
    }
    pass.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    pass.ok = stats.queries_ok;
    passes.push_back(pass);
  }

  // Pass 5: admission control sheds the tail, the head stays exact.
  {
    QueryEngine::Options options = engine_options;
    options.max_queued_queries = batch.size() / 2;
    auto [pass, results] = run_pass("admission", index, batch, options);
    for (size_t i = 0; i < results.size(); ++i) {
      if (i < options.max_queued_queries) {
        if (!results[i].ok() || results[i].ids != baseline[i].ids) {
          FailGate(&pass, "admitted query " + std::to_string(i) +
                              " failed or diverged");
        }
      } else if (results[i].status != QueryStatus::kRejected ||
                 results[i].io.TotalReads() != 0) {
        FailGate(&pass, "query " + std::to_string(i) +
                            " was not shed cleanly");
      }
    }
    if (pass.shed != batch.size() - options.max_queued_queries) {
      FailGate(&pass, "shed count " + std::to_string(pass.shed) +
                          " != batch tail " +
                          std::to_string(batch.size() -
                                         options.max_queued_queries));
    }
    passes.push_back(pass);
  }

  bool all_pass = true;
  for (const PassOutcome& pass : passes) all_pass &= pass.gates_pass;

  if (json) {
    std::cout << "{\n"
              << "  \"bench\": \"fault_recovery\",\n"
              << "  \"workload\": \"fig12_sn_range\",\n"
              << "  \"elements\": " << dataset.elements.size() << ",\n"
              << "  \"queries\": " << batch.size() << ",\n"
              << "  \"threads\": " << threads << ",\n"
              << "  \"passes\": [\n";
    for (size_t i = 0; i < passes.size(); ++i) {
      const PassOutcome& p = passes[i];
      std::cout << "    {\"pass\": \"" << p.name << "\", \"ok\": " << p.ok
                << ", \"failed\": " << p.failed << ", \"shed\": " << p.shed
                << ", \"io_retries\": " << p.retries
                << ", \"io_errors\": " << p.errors
                << ", \"seconds\": " << p.seconds
                << ", \"gates_pass\": " << (p.gates_pass ? "true" : "false")
                << "}" << (i + 1 < passes.size() ? "," : "") << "\n";
    }
    std::cout << "  ],\n"
              << "  \"all_gates_pass\": " << (all_pass ? "true" : "false")
              << "\n}\n";
  } else {
    Table table({"pass", "ok", "failed", "shed", "retries", "errors",
                 "seconds", "gates"});
    for (const PassOutcome& p : passes) {
      table.AddRow({p.name, FormatNumber(static_cast<double>(p.ok), 0),
                    FormatNumber(static_cast<double>(p.failed), 0),
                    FormatNumber(static_cast<double>(p.shed), 0),
                    FormatNumber(static_cast<double>(p.retries), 0),
                    FormatNumber(static_cast<double>(p.errors), 0),
                    FormatNumber(p.seconds, 4),
                    p.gates_pass ? "pass" : "FAIL"});
    }
    flags.csv() ? table.PrintCsv(std::cout) : table.Print(std::cout);
  }

  if (!all_pass) {
    for (const PassOutcome& pass : passes) {
      if (!pass.gates_pass) {
        std::cerr << "ERROR: pass '" << pass.name
                  << "' violated its gate: " << pass.gate_detail << "\n";
      }
    }
    return 1;
  }
  return 0;
}
