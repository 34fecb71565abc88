// lint:allow-file(ND002): suite budget accounting is wall-clock by design.
#include "registry.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace quicer::bench {

double BenchContext::RemainingBudgetSeconds() const {
  if (budget_seconds <= 0.0) return 0.0;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - suite_start).count();
  // Never return the "unlimited" 0: an exhausted budget must skip the
  // remaining sweeps' points, not unleash them. The smallest positive
  // double keeps the sweep budgeted yet exhausted at its first check.
  return std::max(std::numeric_limits<double>::min(), budget_seconds - elapsed);
}

Registry& Registry::Instance() {
  static Registry* registry = new Registry();  // leaked: outlives static dtors
  return *registry;
}

void Registry::Add(BenchInfo info) { benches_.push_back(std::move(info)); }

std::vector<BenchInfo> Registry::Benches() const { return Match(""); }

std::vector<BenchInfo> Registry::Match(const std::string& filter) const {
  std::vector<BenchInfo> out;
  for (const BenchInfo& bench : benches_) {
    if (filter.empty() || bench.name.find(filter) != std::string::npos) {
      out.push_back(bench);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const BenchInfo& a, const BenchInfo& b) { return a.name < b.name; });
  return out;
}

const BenchInfo* Registry::Find(const std::string& name) const {
  for (const BenchInfo& bench : benches_) {
    if (bench.name == name) return &bench;
  }
  return nullptr;
}

Registrar::Registrar(std::string name, std::string description, SpecsFn specs,
                     ReportFn report) {
  Registry::Instance().Add(
      BenchInfo{std::move(name), std::move(description), std::move(specs), std::move(report)});
}

}  // namespace quicer::bench
