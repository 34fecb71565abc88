// Scenario-codec round trip over the real grids of every registered bench:
// export (serialize the enumerated specs) → parse → apply onto the live
// specs → re-export must reproduce the bytes, and the content-hash of the
// applied spec must equal the original's. This is the compile-time grids'
// contract with the --grid workflow: a file produced by export-grid always
// runs exactly the compiled-in grid.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/scenario.h"
#include "registry.h"

namespace quicer {
namespace {

using bench::CapturedSpec;

/// Enumerates every sweep of every registered bench (no experiments run)
/// through the same capture helper the shipping export-grid path uses.
std::vector<CapturedSpec> CaptureAll() {
  return bench::CaptureSpecs(bench::Registry::Instance().Benches(), /*scale=*/1);
}

TEST(GridRoundTrip, EveryRegisteredBenchIsCaptured) {
  const std::vector<CapturedSpec> specs = CaptureAll();
  std::set<std::string> benches;
  for (const CapturedSpec& captured : specs) benches.insert(captured.bench);
  EXPECT_EQ(benches.size(), bench::Registry::Instance().Benches().size());
  EXPECT_GE(benches.size(), 27u);
}

TEST(GridRoundTrip, ExportParseApplyReexportIsByteIdentical) {
  std::vector<CapturedSpec> specs = CaptureAll();
  ASSERT_FALSE(specs.empty());

  std::vector<std::pair<std::string, const core::SweepSpec*>> entries;
  for (const CapturedSpec& captured : specs) entries.emplace_back(captured.bench, &captured.spec);
  const std::string exported = core::ScenarioFileJson(entries);

  std::string error;
  const std::optional<std::vector<core::Scenario>> scenarios =
      core::ParseScenarioFile(exported, &error);
  ASSERT_TRUE(scenarios.has_value()) << error;
  ASSERT_EQ(scenarios->size(), specs.size());

  std::vector<core::SweepSpec> applied;
  applied.reserve(specs.size());
  for (std::size_t i = 0; i < scenarios->size(); ++i) {
    const core::Scenario& scenario = (*scenarios)[i];
    ASSERT_EQ(scenario.bench, specs[i].bench);
    ASSERT_EQ(scenario.sweep, specs[i].spec.name);
    core::SweepSpec copy = specs[i].spec;
    ASSERT_TRUE(core::ApplyScenario(scenario, copy, &error))
        << specs[i].bench << "/" << specs[i].spec.name << ": " << error;
    EXPECT_EQ(core::ScenarioHash(copy), core::ScenarioHash(specs[i].spec))
        << specs[i].bench << "/" << specs[i].spec.name << ": content-hash drifted";
    applied.push_back(std::move(copy));
  }

  std::vector<std::pair<std::string, const core::SweepSpec*>> reentries;
  for (std::size_t i = 0; i < applied.size(); ++i) {
    reentries.emplace_back(specs[i].bench, &applied[i]);
  }
  const std::string reexported = core::ScenarioFileJson(reentries);
  ASSERT_EQ(exported.size(), reexported.size());
  EXPECT_EQ(exported, reexported);
}

TEST(GridRoundTrip, AppliedGridEnumeratesIdenticalPoints) {
  std::vector<CapturedSpec> specs = CaptureAll();
  for (const CapturedSpec& captured : specs) {
    std::vector<std::pair<std::string, const core::SweepSpec*>> entries = {
        {captured.bench, &captured.spec}};
    std::string error;
    const std::optional<std::vector<core::Scenario>> scenarios =
        core::ParseScenarioFile(core::ScenarioFileJson(entries), &error);
    ASSERT_TRUE(scenarios.has_value()) << error;
    core::SweepSpec copy = captured.spec;
    ASSERT_TRUE(core::ApplyScenario(scenarios->front(), copy, &error)) << error;
    const std::vector<core::SweepPoint> original = core::Enumerate(captured.spec);
    const std::vector<core::SweepPoint> roundtripped = core::Enumerate(copy);
    ASSERT_EQ(original.size(), roundtripped.size())
        << captured.bench << "/" << captured.spec.name;
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(original[i].Key(), roundtripped[i].Key())
          << captured.bench << "/" << captured.spec.name << " point " << i;
    }
  }
}

TEST(GridRoundTrip, MutatedAxisChangesTheContentHash) {
  std::vector<CapturedSpec> specs = CaptureAll();
  core::SweepSpec* fig06 = nullptr;
  for (CapturedSpec& captured : specs) {
    if (captured.spec.name == "fig06") fig06 = &captured.spec;
  }
  ASSERT_NE(fig06, nullptr);
  core::SweepSpec mutated = *fig06;
  mutated.axes.rtts.push_back(sim::Millis(50));
  EXPECT_NE(core::ScenarioHash(mutated), core::ScenarioHash(*fig06));
}

TEST(SuiteBudget, ExhaustedBudgetExecutesNoRun) {
  // A suite budget that ran out before the sweep started skips every point
  // (it is not "unlimited"), however fast the runs are.
  bench::BenchContext ctx;
  ctx.budget_seconds = 1e-6;
  ctx.suite_start = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  core::SweepSpec spec;
  spec.axes.rtts = {sim::Millis(1), sim::Millis(2), sim::Millis(3), sim::Millis(4)};
  spec.repetitions = 1000;
  spec.runner = [](const core::SweepRunContext&) { return std::vector<double>{1.0}; };
  const core::SweepResult result = core::RunSweep(bench::TuneObserver(spec, ctx), 1);
  EXPECT_GT(spec.time_budget_seconds, 0.0);
  EXPECT_EQ(result.executed_runs, 0u);
  for (const core::PointSummary& point : result.points) EXPECT_TRUE(point.budget_skipped);
}

}  // namespace
}  // namespace quicer
