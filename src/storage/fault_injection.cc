#include "storage/fault_injection.h"

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

}  // namespace flat
