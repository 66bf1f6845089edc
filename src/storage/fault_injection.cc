#include "storage/fault_injection.h"

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

namespace flat {

void FaultSchedule::Add(const FaultSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  by_page_[spec.page].push_back(spec);
}

void FaultSchedule::FailRead(PageId page, uint32_t times, int error_number) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FaultSpec>& specs = by_page_[page];
  for (uint32_t attempt = 1; attempt <= times; ++attempt) {
    FaultSpec spec;
    spec.page = page;
    spec.attempt = attempt;
    spec.kind = FaultKind::kError;
    spec.error_number = error_number;
    specs.push_back(spec);
  }
}

FaultSpec FaultSchedule::Next(PageId page) const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t attempt = ++attempts_[page];
  FaultSpec clean;
  clean.page = page;
  clean.attempt = attempt;
  clean.kind = FaultKind::kNone;
  auto it = by_page_.find(page);
  if (it == by_page_.end()) return clean;
  for (const FaultSpec& spec : it->second) {
    if (spec.attempt == attempt) {
      ++fired_[static_cast<size_t>(spec.kind)];
      return spec;
    }
  }
  return clean;
}

uint64_t FaultSchedule::faults_fired() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (uint64_t f : fired_) total += f;
  return total;
}

uint64_t FaultSchedule::fired(FaultKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_[static_cast<size_t>(kind)];
}

size_t FaultSchedule::scheduled() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& entry : by_page_) total += entry.second.size();
  return total;
}

void FaultSchedule::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  attempts_.clear();
  fired_.fill(0);
}

namespace {
thread_local uint64_t t_read_retries = 0;
}  // namespace

uint64_t ThreadReadRetries() { return t_read_retries; }
void AddThreadReadRetries(uint64_t count) { t_read_retries += count; }

FaultInjectingPageStore::FaultInjectingPageStore(const PageStore* inner,
                                                 const FaultSchedule* schedule,
                                                 Options options)
    : inner_(inner), schedule_(schedule), options_(options) {}

const char* FaultInjectingPageStore::Data(PageId id) const {
  if (schedule_ == nullptr) return inner_->Data(id);
  uint32_t error_retries = 0;
  for (;;) {
    const FaultSpec fault = schedule_->Next(id);
    switch (fault.kind) {
      case FaultKind::kNone:
        return inner_->Data(id);
      case FaultKind::kLatency:
        if (fault.latency_micros > 0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(fault.latency_micros));
        }
        return inner_->Data(id);
      case FaultKind::kShortRead:
        // Partial progress: the real read loop would continue from the
        // transferred bytes without counting a retry; so do we.
        continue;
      case FaultKind::kEintr:
        // Interrupted syscall: retried immediately, counted as a recovery.
        read_retries_.fetch_add(1, std::memory_order_relaxed);
        AddThreadReadRetries(1);
        continue;
      case FaultKind::kError: {
        if (error_retries >= options_.max_read_retries) {
          read_errors_.fetch_add(1, std::memory_order_relaxed);
          throw std::runtime_error(
              "FaultInjectingPageStore: read of page " + std::to_string(id) +
              " failed after " + std::to_string(error_retries) +
              " retries (injected errno " +
              std::to_string(fault.error_number) + ")");
        }
        read_retries_.fetch_add(1, std::memory_order_relaxed);
        AddThreadReadRetries(1);
        ++error_retries;
        continue;
      }
    }
  }
}

PageCategory FaultInjectingPageStore::category(PageId id) const {
  return inner_->category(id);
}

uint32_t FaultInjectingPageStore::page_size() const {
  return inner_->page_size();
}

size_t FaultInjectingPageStore::page_count() const {
  return inner_->page_count();
}

size_t FaultInjectingPageStore::PageCountIn(PageCategory category) const {
  return inner_->PageCountIn(category);
}

uint64_t FaultInjectingPageStore::SizeBytes() const {
  return inner_->SizeBytes();
}

}  // namespace flat
