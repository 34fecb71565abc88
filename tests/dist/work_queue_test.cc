// The distributed queue contract: planning tiles every grid exactly once,
// claims are exclusive, crashed workers' units are reclaimed, and the
// collect phase reproduces a single-process run's exports byte for byte —
// including points whose repetitions were split across units (and workers).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/json.h"
#include "core/sweep.h"
#include "core/sweep_partial.h"
#include "dist/collect.h"
#include "dist/work_queue.h"
#include "dist/worker.h"

namespace quicer::dist {
namespace {

namespace fs = std::filesystem;

/// A fresh scratch directory per test.
std::string Scratch(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("dist_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Two synthetic sweeps standing in for one bench body with two RunSweep
/// calls: "alpha" is big enough that its points' repetitions get split into
/// windows; "beta" is a small sibling. Values are pure functions of
/// (point, repetition), with aborted and no-sample repetitions sprinkled
/// in so the merge also reconciles counters.
core::SweepSpec AlphaSpec() {
  core::SweepSpec spec;
  spec.name = "alpha";
  spec.axes.extras = {{"k", {{"a", 0}, {"b", 1}, {"c", 2}, {"d", 3}, {"e", 4}}}};
  spec.repetitions = 12;
  spec.metrics = {{"m_sum", core::MetricMode::kSummary, /*exclude_negative=*/true, nullptr},
                  {"m_trace", core::MetricMode::kTrace, /*exclude_negative=*/false, nullptr}};
  spec.runner = [](const core::SweepRunContext& ctx) {
    const double k = static_cast<double>(ctx.point.Extra("k")->value);
    const double sum = ctx.repetition == 2 ? -1.0 : k * 100.0 + ctx.repetition;
    const double trace =
        ctx.repetition % 7 == 5 ? core::NoSample() : k + ctx.repetition * 0.5;
    return std::vector<double>{sum, trace};
  };
  return spec;
}

core::SweepSpec BetaSpec() {
  core::SweepSpec spec;
  spec.name = "beta";
  spec.axes.extras = {{"k", {{"x", 7}, {"y", 8}, {"z", 9}}}};
  spec.repetitions = 4;
  spec.metrics = {{"v", core::MetricMode::kSummary, /*exclude_negative=*/false, nullptr}};
  spec.runner = [](const core::SweepRunContext& ctx) {
    return std::vector<double>{static_cast<double>(ctx.point.Extra("k")->value) * 10.0 +
                               ctx.repetition};
  };
  return spec;
}

std::vector<SweepInventory> Inventories() {
  return {{"synthetic", "alpha", 5, 12}, {"synthetic", "beta", 3, 4}};
}

/// Mimics the bench_suite worker's UnitRunner: the unit's sweep resolves to
/// its spec, the unit's shard selects what executes, and the partial file
/// lands in the stage directory.
UnitRunner SyntheticRunner() {
  return [](const WorkUnit& unit, const std::string& stage_dir) {
    core::SweepSpec spec = unit.sweep == "alpha" ? AlphaSpec() : BetaSpec();
    spec.shard.points = unit.points;
    spec.shard.rep_begin = unit.rep_begin;
    spec.shard.rep_end = unit.rep_end;
    return core::WriteSweepData(core::RunSweep(spec), stage_dir) ? 0 : 1;
  };
}

/// Initialises a queue over the two synthetic sweeps, split at
/// `max_runs_per_unit` runs per unit.
WorkQueue MakeQueue(const std::string& root, std::size_t max_runs_per_unit) {
  const std::vector<SweepInventory> sweeps = Inventories();
  const std::vector<WorkUnit> units = PlanUnits(sweeps, max_runs_per_unit);
  WorkQueue::Manifest manifest;
  manifest.max_runs_per_unit = max_runs_per_unit;
  manifest.unit_count = units.size();
  manifest.sweeps = sweeps;
  std::string error;
  EXPECT_TRUE(WorkQueue::Init(root, manifest, units, &error)) << error;
  std::optional<WorkQueue> queue = WorkQueue::Open(root, &error);
  EXPECT_TRUE(queue.has_value()) << error;
  return *queue;
}

TEST(PlanUnits, GroupsCheapPointsAndSplitsExpensiveOnes) {
  const std::vector<WorkUnit> units = PlanUnits(Inventories(), 5);
  // alpha: 12 repetitions > 5 -> per-point windows [0,5) [5,10) [10,12),
  // 5 points x 3 windows; beta: 4 repetitions, 5/4 -> 1 point per unit.
  ASSERT_EQ(units.size(), 15u + 3u);
  std::set<std::string> ids;
  std::size_t windowed = 0;
  for (const WorkUnit& unit : units) {
    EXPECT_TRUE(ids.insert(unit.id).second) << unit.id;
    EXPECT_LE(unit.runs, 5u);
    if (unit.windowed()) ++windowed;
  }
  EXPECT_EQ(windowed, 15u);
  EXPECT_EQ(units[0].sweep, "alpha");
  EXPECT_EQ(units[0].points, std::vector<std::size_t>{0});
  EXPECT_EQ(units[0].rep_begin, 0u);
  EXPECT_EQ(units[0].rep_end, 5u);
  EXPECT_EQ(units[2].rep_begin, 10u);
  EXPECT_EQ(units[2].rep_end, 12u);

  // A generous budget puts several points into one unit.
  const std::vector<WorkUnit> coarse = PlanUnits(Inventories(), 1000);
  ASSERT_EQ(coarse.size(), 2u);
  EXPECT_EQ(coarse[0].points.size(), 5u);
  EXPECT_FALSE(coarse[0].windowed());
}

TEST(WorkUnitJson, RoundTrips) {
  WorkUnit unit;
  unit.id = "u00007";
  unit.bench = "synthetic";
  unit.sweep = "alpha";
  unit.points = {3, 1, 4};
  unit.rep_begin = 5;
  unit.rep_end = 10;
  unit.runs = 15;
  unit.spec_hash = 0xfcf4900536dafe9full;
  unit.attempt = 2;
  std::string error;
  const std::optional<WorkUnit> parsed = ParseWorkUnitJson(WorkUnitJson(unit), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->id, unit.id);
  EXPECT_EQ(parsed->bench, unit.bench);
  EXPECT_EQ(parsed->sweep, unit.sweep);
  EXPECT_EQ(parsed->points, unit.points);
  EXPECT_EQ(parsed->rep_begin, 5u);
  EXPECT_EQ(parsed->rep_end, 10u);
  EXPECT_EQ(parsed->runs, 15u);
  EXPECT_EQ(parsed->spec_hash, 0xfcf4900536dafe9full);
  EXPECT_EQ(parsed->attempt, 2u);

  EXPECT_FALSE(ParseWorkUnitJson("{}", &error).has_value());
  EXPECT_FALSE(ParseWorkUnitJson("not json", &error).has_value());
}

TEST(WorkUnitJson, MeasuredCostRoundTripsAndStaysOffLegacyDocuments) {
  WorkUnit unit;
  unit.id = "u00001";
  unit.bench = "synthetic";
  unit.sweep = "alpha";
  unit.points = {0};
  unit.runs = 5;

  // Unmeasured units (todo/active) serialize without the cost fields, so
  // pre-telemetry queue documents keep their exact bytes.
  const std::string plain = WorkUnitJson(unit);
  EXPECT_EQ(plain.find("wall_seconds"), std::string::npos);
  EXPECT_EQ(plain.find("worker"), std::string::npos);

  unit.wall_seconds = 1.25;
  unit.runs_per_second = 4.0;
  unit.worker = "host-42";
  std::string error;
  const std::optional<WorkUnit> parsed = ParseWorkUnitJson(WorkUnitJson(unit), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_DOUBLE_EQ(parsed->wall_seconds, 1.25);
  EXPECT_DOUBLE_EQ(parsed->runs_per_second, 4.0);
  EXPECT_EQ(parsed->worker, "host-42");

  // Legacy documents parse with the fields at their zero defaults.
  const std::optional<WorkUnit> legacy = ParseWorkUnitJson(plain, &error);
  ASSERT_TRUE(legacy.has_value()) << error;
  EXPECT_EQ(legacy->wall_seconds, 0.0);
  EXPECT_TRUE(legacy->worker.empty());
}

TEST(WorkQueue, TimedPublishStampsMeasuredCostIntoTheDoneMarker) {
  const std::string root = Scratch("timed_publish");
  const WorkQueue queue = MakeQueue(root, 1000);
  std::optional<WorkQueue::Claim> claim = queue.TryClaim("w1");
  ASSERT_TRUE(claim.has_value());
  const std::string stage = queue.StageDir(*claim);
  std::ofstream(fs::path(stage) / "alpha_sweep.points.json") << "{}";

  WorkQueue::UnitTiming timing;
  timing.wall_seconds = 2.5;
  timing.runs_per_second = 24.0;
  ASSERT_TRUE(queue.Publish(*claim, &timing));
  EXPECT_EQ(queue.UnitState(claim->unit.id), "done");

  const std::string marker =
      SlurpFile((fs::path(root) / "done" / (claim->unit.id + ".json")).string());
  std::string error;
  const std::optional<WorkUnit> done = ParseWorkUnitJson(marker, &error);
  ASSERT_TRUE(done.has_value()) << error;
  EXPECT_DOUBLE_EQ(done->wall_seconds, 2.5);
  EXPECT_DOUBLE_EQ(done->runs_per_second, 24.0);
  EXPECT_EQ(done->worker, "w1");
  // The lease must be gone — not lingering in active/.
  EXPECT_EQ(queue.GetStatus().active, 0u);
}

TEST(WorkQueue, QueueStatusJsonRoundTripsThroughTheParser) {
  const std::string root = Scratch("status_json");
  const WorkQueue queue = MakeQueue(root, 1000);  // 2 units

  // One worker publishes a timed unit and reports progress; a second one
  // heartbeats in the legacy plain-text format.
  std::optional<WorkQueue::Claim> claim = queue.TryClaim("fast-worker");
  ASSERT_TRUE(claim.has_value());
  const std::string stage = queue.StageDir(*claim);
  std::ofstream(fs::path(stage) / "alpha_sweep.points.json") << "{}";
  WorkQueue::UnitTiming timing;
  timing.wall_seconds = 0.5;
  timing.runs_per_second = 120.0;
  ASSERT_TRUE(queue.Publish(*claim, &timing));
  WorkQueue::WorkerProgress progress;
  progress.units_done = 1;
  progress.wall_seconds_total = 0.5;
  progress.runs_per_second = 120.0;
  ASSERT_TRUE(queue.Heartbeat("fast-worker", &progress));
  ASSERT_TRUE(queue.Heartbeat("legacy-worker"));

  const std::string json = QueueStatusJson(queue);
  std::string error;
  const std::optional<core::JsonValue> doc = core::JsonValue::Parse(json, &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << json;
  EXPECT_EQ(doc->GetString("format"), "quicer-queue-status-v1");
  EXPECT_EQ(static_cast<std::size_t>(doc->GetNumber("todo")), 1u);
  EXPECT_EQ(static_cast<std::size_t>(doc->GetNumber("done")), 1u);
  EXPECT_EQ(static_cast<std::size_t>(doc->GetNumber("results")), 1u);
  EXPECT_EQ(static_cast<std::size_t>(doc->GetNumber("measured_units")), 1u);
  EXPECT_DOUBLE_EQ(doc->GetNumber("measured_wall_seconds"), 0.5);

  const core::JsonValue* workers = doc->Get("workers");
  ASSERT_NE(workers, nullptr);
  bool fast_seen = false;
  bool legacy_seen = false;
  for (const core::JsonValue& worker : workers->Items()) {
    if (worker.GetString("worker") == "fast-worker") {
      fast_seen = true;
      EXPECT_EQ(static_cast<std::size_t>(worker.GetNumber("units_done")), 1u);
      EXPECT_DOUBLE_EQ(worker.GetNumber("runs_per_second"), 120.0);
    }
    if (worker.GetString("worker") == "legacy-worker") {
      legacy_seen = true;
      EXPECT_EQ(worker.Get("units_done"), nullptr);  // plain beat: no progress
    }
  }
  EXPECT_TRUE(fast_seen);
  EXPECT_TRUE(legacy_seen);

  const core::JsonValue* done_units = doc->Get("done_units");
  ASSERT_NE(done_units, nullptr);
  bool marker_seen = false;
  for (const core::JsonValue& done : done_units->Items()) {
    if (done.GetString("id") != claim->unit.id) continue;
    marker_seen = true;
    EXPECT_DOUBLE_EQ(done.GetNumber("wall_seconds"), 0.5);
    EXPECT_EQ(done.GetString("worker"), "fast-worker");
  }
  EXPECT_TRUE(marker_seen);
}

TEST(Worker, StampsMeasuredWallTimesIntoDoneMarkersAndHeartbeat) {
  const std::string root = Scratch("worker_timing");
  const WorkQueue queue = MakeQueue(root, 1000);  // 2 units
  WorkerOptions options;
  options.worker_id = "timed";
  options.wait_for_stragglers = false;
  const WorkerStats stats = RunWorker(queue, options, SyntheticRunner());
  ASSERT_EQ(stats.units_done, 2u);
  EXPECT_GT(stats.wall_seconds_total, 0.0);
  EXPECT_GT(stats.runs_total, 0u);

  // Every done/ marker carries the measurement.
  for (const WorkUnit& unit : queue.Units()) {
    const std::string marker =
        SlurpFile((fs::path(root) / "done" / (unit.id + ".json")).string());
    std::string error;
    const std::optional<WorkUnit> done = ParseWorkUnitJson(marker, &error);
    ASSERT_TRUE(done.has_value()) << error;
    EXPECT_GT(done->wall_seconds, 0.0) << unit.id;
    EXPECT_GT(done->runs_per_second, 0.0) << unit.id;
    EXPECT_EQ(done->worker, "timed") << unit.id;
  }
}

TEST(PlanUnits, PropagatesTheSweepSpecHash) {
  std::vector<SweepInventory> sweeps = Inventories();
  sweeps[0].spec_hash = 0x1111u;
  sweeps[1].spec_hash = 0x2222u;
  for (const WorkUnit& unit : PlanUnits(sweeps, 5)) {
    EXPECT_EQ(unit.spec_hash, unit.sweep == "alpha" ? 0x1111u : 0x2222u) << unit.id;
  }
}

TEST(WorkQueue, ClaimsAreExclusiveAndMoveThroughStates) {
  const std::string root = Scratch("claims");
  const WorkQueue queue = MakeQueue(root, 1000);  // 2 units
  EXPECT_EQ(queue.GetStatus().todo, 2u);

  std::optional<WorkQueue::Claim> first = queue.TryClaim("w1");
  ASSERT_TRUE(first.has_value());
  std::optional<WorkQueue::Claim> second = queue.TryClaim("w2");
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(first->unit.id, second->unit.id);
  EXPECT_FALSE(queue.TryClaim("w3").has_value());  // drained
  EXPECT_EQ(queue.GetStatus().active, 2u);
  EXPECT_EQ(queue.UnitState(first->unit.id), "active (w1)");

  // Publish w1's unit: stage a file, rename into results/, lease to done/.
  const std::string stage = queue.StageDir(*first);
  std::ofstream(fs::path(stage) / "alpha_sweep.points.json") << "{}";
  EXPECT_TRUE(queue.Publish(*first));
  EXPECT_TRUE(queue.HasResult(first->unit.id));
  EXPECT_EQ(queue.UnitState(first->unit.id), "done");

  // A zombie (reclaim race) publishing the same unit later loses quietly:
  // the first results stay, the zombie's staging is discarded.
  WorkQueue::Claim zombie{first->unit, "zombie"};
  const std::string zombie_stage = queue.StageDir(zombie);
  std::ofstream(fs::path(zombie_stage) / "other.json") << "{}";
  EXPECT_TRUE(queue.Publish(zombie));
  EXPECT_FALSE(fs::exists(zombie_stage));
  EXPECT_TRUE(fs::exists(fs::path(queue.ResultDir(first->unit.id)) /
                         "alpha_sweep.points.json"));

  // Failing a unit parks it in failed/ and never retries it.
  EXPECT_TRUE(queue.Fail(*second));
  EXPECT_EQ(queue.GetStatus().failed, 1u);
  EXPECT_EQ(queue.UnitState(second->unit.id), "failed (w2)");
  EXPECT_FALSE(queue.TryClaim("w1").has_value());

  // Units() sees every unit regardless of state.
  EXPECT_EQ(queue.Units().size(), 2u);
}

TEST(WorkQueue, StaleLeasesAreReclaimed) {
  const std::string root = Scratch("reclaim");
  const WorkQueue queue = MakeQueue(root, 1000);
  std::optional<WorkQueue::Claim> claim = queue.TryClaim("dead");
  ASSERT_TRUE(claim.has_value());

  // A fresh heartbeat protects the lease.
  queue.Heartbeat("dead");
  EXPECT_EQ(queue.ReclaimStale(30.0), 0u);
  // With a zero timeout everything held by a silent worker is stale.
  EXPECT_EQ(queue.ReclaimStale(0.0), 1u);
  EXPECT_EQ(queue.GetStatus().active, 0u);
  EXPECT_EQ(queue.UnitState(claim->unit.id), "todo");
  // The reclaimed unit is claimable again.
  EXPECT_TRUE(queue.TryClaim("w2").has_value());
}

TEST(WorkQueue, CorruptUnitFilesAreParkedNotSpunOn) {
  const std::string root = Scratch("corrupt");
  const WorkQueue queue = MakeQueue(root, 1000);
  std::ofstream(fs::path(root) / "todo" / "u99999.json") << "not json";
  std::size_t claimed = 0;
  while (queue.TryClaim("w").has_value()) ++claimed;
  EXPECT_EQ(claimed, 2u);
  EXPECT_EQ(queue.GetStatus().failed, 1u);
  std::string error;
  queue.Units(&error);
  EXPECT_NE(error.find("u99999"), std::string::npos);
}

TEST(WorkQueue, InitRejectsDuplicateSweepNamesAndDoubleInit) {
  const std::string root = Scratch("init");
  WorkQueue::Manifest manifest;
  manifest.sweeps = {{"b1", "same", 2, 3}, {"b2", "same", 4, 5}};
  manifest.unit_count = 1;
  WorkUnit unit;
  unit.id = "u00000";
  unit.bench = "b1";
  unit.sweep = "same";
  unit.points = {0};
  std::string error;
  EXPECT_FALSE(WorkQueue::Init(root, manifest, {unit}, &error));
  EXPECT_NE(error.find("duplicate sweep name"), std::string::npos);

  MakeQueue(Scratch("init"), 1000);
  EXPECT_FALSE(WorkQueue::Init(Scratch("init2") + "/../dist_init", manifest, {unit}, &error));

  // A manifest-less root with leftover todo/ state (an interrupted init)
  // must be refused, not silently re-planned on top of stale units.
  const std::string wreck = Scratch("init_wreck");
  fs::create_directories(fs::path(wreck) / "todo");
  std::ofstream(fs::path(wreck) / "todo" / "u99990.json") << "{}";
  WorkQueue::Manifest clean;
  clean.sweeps = {{"b1", "solo", 2, 3}};
  clean.unit_count = 1;
  WorkUnit solo = unit;
  solo.sweep = "solo";
  EXPECT_FALSE(WorkQueue::Init(wreck, clean, {solo}, &error));
  EXPECT_NE(error.find("leftover state"), std::string::npos);
}

// The acceptance contract, in-process: a queue over two sweeps (one with
// repetition-split points), three workers — one of which "crashes" holding
// a lease and never publishes — and a collect whose exports are
// byte-identical to a single-process run.
TEST(DistE2E, ThreeWorkersWithOneCrashReproduceSingleProcessExports) {
  const std::string root = Scratch("e2e");
  const WorkQueue queue = MakeQueue(root, 5);  // 18 units, alpha rep-split
  const std::size_t total_units = queue.Units().size();
  ASSERT_EQ(total_units, 18u);

  // Worker 0 claims a unit and crashes: no heartbeat, no publish, no
  // release — exactly what SIGKILL leaves behind.
  std::optional<WorkQueue::Claim> crashed = queue.TryClaim("crashed-worker");
  ASSERT_TRUE(crashed.has_value());

  WorkerOptions options;
  options.lease_timeout_seconds = 0.05;
  options.poll_seconds = 0.005;

  // Worker 1 executes a handful of units and stops (a host leaving the
  // pool early); worker 2 drains the rest, reclaiming the crashed unit
  // once its lease goes stale.
  options.worker_id = "w1";
  options.max_units = 3;
  const WorkerStats w1 = RunWorker(queue, options, SyntheticRunner());
  EXPECT_EQ(w1.units_done, 3u);
  EXPECT_EQ(w1.units_failed, 0u);

  options.worker_id = "w2";
  options.max_units = 0;
  const WorkerStats w2 = RunWorker(queue, options, SyntheticRunner());
  EXPECT_EQ(w2.units_failed, 0u);
  EXPECT_EQ(w1.units_done + w2.units_done, total_units);
  EXPECT_GE(w2.units_reclaimed + w1.units_reclaimed, 1u);

  const WorkQueue::Status status = queue.GetStatus();
  EXPECT_EQ(status.todo, 0u);
  EXPECT_EQ(status.active, 0u);
  EXPECT_EQ(status.results, total_units);

  const std::string out = Scratch("e2e_out");
  CollectReport report;
  ASSERT_TRUE(Collect(queue, out, &report)) << report.error;
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.units_with_results, total_units);

  // Byte-identity against a single-process run of both sweeps.
  const std::string ref = Scratch("e2e_ref");
  for (const core::SweepSpec& spec : {AlphaSpec(), BetaSpec()}) {
    ASSERT_TRUE(core::WriteSweepData(core::RunSweep(spec), ref));
  }
  for (const char* name : {"alpha", "beta"}) {
    for (const char* ext : {"_sweep.csv", "_sweep.json"}) {
      const std::string file = std::string(name) + ext;
      EXPECT_EQ(SlurpFile(out + "/" + file), SlurpFile(ref + "/" + file)) << file;
    }
  }
}

TEST(Collect, ReportsMissingUnitsWithTheirState) {
  const std::string root = Scratch("missing");
  const WorkQueue queue = MakeQueue(root, 5);
  // Execute only one unit; everything else stays todo.
  std::optional<WorkQueue::Claim> claim = queue.TryClaim("w1");
  ASSERT_TRUE(claim.has_value());
  ASSERT_EQ(SyntheticRunner()(claim->unit, queue.StageDir(*claim)), 0);
  ASSERT_TRUE(queue.Publish(*claim));

  CollectReport report;
  EXPECT_FALSE(Collect(queue, Scratch("missing_out"), &report));
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.units_with_results, 1u);
  ASSERT_EQ(report.missing_units.size(), 17u);
  EXPECT_NE(report.missing_units.front().find("[todo]"), std::string::npos);
  EXPECT_NE(report.error.find("units have no results yet"), std::string::npos);
}

TEST(WorkQueue, RetryRequeuesWithAPersistedAttemptCount) {
  const std::string root = Scratch("retry");
  const WorkQueue queue = MakeQueue(root, 1000);  // 2 units
  std::optional<WorkQueue::Claim> claim = queue.TryClaim("w1");
  ASSERT_TRUE(claim.has_value());
  EXPECT_EQ(claim->unit.attempt, 0u);

  // Retry moves the unit back to todo with the bumped attempt recorded in
  // the unit file, so the budget survives a different worker claiming it.
  ASSERT_TRUE(queue.Retry(*claim));
  EXPECT_EQ(queue.UnitState(claim->unit.id), "todo");
  std::optional<WorkQueue::Claim> again = queue.TryClaim("w2");
  while (again.has_value() && again->unit.id != claim->unit.id) {
    again = queue.TryClaim("w2");
  }
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->unit.attempt, 1u);

  ASSERT_TRUE(queue.Retry(*again));
  std::optional<WorkQueue::Claim> third = queue.TryClaim("w3");
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->unit.attempt, 2u);

  // Retrying a lease that no longer exists (reclaimed elsewhere) is a no-op.
  ASSERT_TRUE(queue.Fail(*third));
  EXPECT_FALSE(queue.Retry(*third));
}

TEST(Worker, RetryBudgetRequeuesThenParks) {
  const std::string root = Scratch("retry_budget");
  const WorkQueue queue = MakeQueue(root, 1000);  // one alpha unit, one beta unit

  // beta's runner fails deterministically; alpha succeeds.
  UnitRunner runner = [](const WorkUnit& unit, const std::string& stage_dir) {
    if (unit.sweep == "beta") return 9;
    return SyntheticRunner()(unit, stage_dir);
  };
  WorkerOptions options;
  options.worker_id = "w1";
  options.wait_for_stragglers = false;
  options.retry_budget = 2;
  const WorkerStats stats = RunWorker(queue, options, runner);
  EXPECT_EQ(stats.units_done, 1u);
  EXPECT_EQ(stats.units_retried, 2u);  // attempts 0 and 1 re-queued
  EXPECT_EQ(stats.units_failed, 1u);   // attempt 2 spent the budget
  EXPECT_EQ(queue.GetStatus().failed, 1u);
  EXPECT_EQ(queue.GetStatus().todo, 0u);

  // With a zero budget the unit parks on first failure.
  const std::string root2 = Scratch("retry_budget0");
  const WorkQueue queue2 = MakeQueue(root2, 1000);
  options.retry_budget = 0;
  const WorkerStats stats2 = RunWorker(queue2, options, runner);
  EXPECT_EQ(stats2.units_retried, 0u);
  EXPECT_EQ(stats2.units_failed, 1u);
}

TEST(WorkQueue, HeartbeatAgesListWorkersAndTheirLeases) {
  const std::string root = Scratch("heartbeats");
  const WorkQueue queue = MakeQueue(root, 1000);
  ASSERT_TRUE(queue.Heartbeat("idle-worker"));
  std::optional<WorkQueue::Claim> claim = queue.TryClaim("busy-worker");
  ASSERT_TRUE(claim.has_value());
  queue.Heartbeat("busy-worker");

  const std::vector<WorkQueue::HeartbeatAge> ages = queue.HeartbeatAges();
  ASSERT_EQ(ages.size(), 2u);
  EXPECT_EQ(ages[0].worker, "busy-worker");
  EXPECT_EQ(ages[0].active_units, 1u);
  EXPECT_LT(ages[0].age_seconds, 60.0);
  EXPECT_EQ(ages[1].worker, "idle-worker");
  EXPECT_EQ(ages[1].active_units, 0u);
}

TEST(Collect, RejectsASpecHashMismatch) {
  // The manifest plans the grid with one content-hash; a worker publishes
  // results computed from a different grid definition (RunSweep stamps the
  // real hash into the partial). Collect must refuse to merge them.
  const std::string root = Scratch("hash_mismatch");
  std::vector<SweepInventory> sweeps = {{"synthetic", "beta", 3, 4, 0xdeadbeefu}};
  const std::vector<WorkUnit> units = PlanUnits(sweeps, 1000);
  WorkQueue::Manifest manifest;
  manifest.unit_count = units.size();
  manifest.sweeps = sweeps;
  std::string error;
  ASSERT_TRUE(WorkQueue::Init(root, manifest, units, &error)) << error;
  std::optional<WorkQueue> queue = WorkQueue::Open(root, &error);
  ASSERT_TRUE(queue.has_value()) << error;

  WorkerOptions options;
  options.worker_id = "w1";
  options.wait_for_stragglers = false;
  UnitRunner runner = [](const WorkUnit& unit, const std::string& stage_dir) {
    core::SweepSpec spec = BetaSpec();
    spec.shard.points = unit.points;
    return core::WriteSweepData(core::RunSweep(spec), stage_dir) ? 0 : 1;
  };
  const WorkerStats stats = RunWorker(*queue, options, runner);
  ASSERT_EQ(stats.units_done, 1u);

  CollectReport report;
  EXPECT_FALSE(Collect(*queue, Scratch("hash_mismatch_out"), &report));
  EXPECT_NE(report.error.find("spec hash"), std::string::npos) << report.error;
  EXPECT_NE(report.error.find("different grid definition"), std::string::npos)
      << report.error;
}

TEST(Collect, RejectsACoverageGap) {
  const std::string root = Scratch("gap");
  std::vector<WorkUnit> units = PlanUnits(Inventories(), 5);
  units.pop_back();  // drop beta's last point: a coverage gap
  WorkQueue::Manifest manifest;
  manifest.unit_count = units.size();
  manifest.sweeps = Inventories();
  std::string error;
  ASSERT_TRUE(WorkQueue::Init(root, manifest, units, &error)) << error;
  std::optional<WorkQueue> queue = WorkQueue::Open(root, &error);
  ASSERT_TRUE(queue.has_value()) << error;

  CollectReport report;
  EXPECT_FALSE(Collect(*queue, Scratch("gap_out"), &report));
  EXPECT_NE(report.error.find("covered by no unit"), std::string::npos);
}

TEST(Collect, RejectsOverlappingRepetitionWindows) {
  const std::string root = Scratch("overlap");
  std::vector<WorkUnit> units = PlanUnits(Inventories(), 5);
  units[1].rep_begin = 3;  // alpha point 0: [0,5) and [3,10) overlap
  WorkQueue::Manifest manifest;
  manifest.unit_count = units.size();
  manifest.sweeps = Inventories();
  std::string error;
  ASSERT_TRUE(WorkQueue::Init(root, manifest, units, &error)) << error;
  std::optional<WorkQueue> queue = WorkQueue::Open(root, &error);
  ASSERT_TRUE(queue.has_value()) << error;

  CollectReport report;
  EXPECT_FALSE(Collect(*queue, Scratch("overlap_out"), &report));
  EXPECT_NE(report.error.find("covered twice"), std::string::npos);
}

}  // namespace
}  // namespace quicer::dist
