// perfbench_driver — executes one workload of the repository benchmark
// (perfbench/run.py) in one process.
//
//   perfbench_driver grid --workload=W --seed=N --out=FILE
//       Writes the workload's scenario file: the compiled-in grids of the
//       workload's sweeps, cut or scaled to the benchmark's input size,
//       with seed_base = N + 1. No experiment runs.
//   perfbench_driver run --workload=W --grid=FILE --out-dir=DIR
//                        [--single] [--telemetry] [--trace]
//       Parses the scenario file, executes the workload and writes the
//       exports to DIR/exports, a result document to DIR/result.json and,
//       with --trace, the spans to DIR/trace.json. --single runs the queue
//       workload's grid in-process, without the work queue (its reference);
//       --telemetry arms the telemetry counters (the reference execution).
//   perfbench_driver calibrate
//       Times a fixed pointer-chase kernel (the host-noise record).
//
// Only public seams of the simulator are called, so a change inside a
// layer never needs a change here. The timed section of a run starts at
// the first RunSweep call (for the queue workload, at the queue init) and
// ends when the last export is written; the set-up before it (exec,
// scenario parse, bench capture and, for the queue, the plan's enumeration)
// is reported separately by run.py.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/scenario.h"
#include "core/sweep.h"
#include "core/sweep_partial.h"
#include "dist/collect.h"
#include "dist/work_queue.h"
#include "dist/work_unit.h"
#include "dist/worker.h"
#include "obs/telemetry.h"
#include "registry.h"
#include "trace.h"

namespace {

namespace fs = std::filesystem;
using quicer::core::SweepSpec;
using quicer::core::SweepResult;
using perfbench::MonoNs;
using perfbench::ScopedSpan;
using perfbench::Trace;

/// One benchmark workload. The input sizes here are the ones BENCHMARK.json
/// states; changing them changes what every recorded digest covers.
struct Workload {
  const char* name;
  unsigned threads;
  /// Bench registry names; empty = every registered bench but `skip`.
  std::vector<std::string> benches;
  std::vector<std::string> skip;
  /// Keep only sweeps that use RunSweep's default experiment runner.
  bool default_runner_only = false;
  /// Repetition multiplier of the kept sweeps (1 = compiled-in grid).
  int rep_multiplier = 1;
  /// Run through the file work queue (init, one worker, collect).
  bool queue = false;
  /// Extra-axis cut: (axis, labels kept). Axes not named stay whole.
  std::vector<std::pair<std::string, std::vector<std::string>>> keep;
  /// Extra axes that do not select a runner key: a traced run attributes
  /// each runner call to the point's other extras (the keyed runner's key)
  /// and to `key_class`'s label. Empty = calls are not keyed.
  std::string non_key_axis;
  std::string key_class;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      // fig11 also uses the default runner, but its runs are 10 MB
      // transfers, not handshakes.
      {"handshake", 1, {}, {"fig11"}, true, 5, false, {}, "", ""},
      {"scan", 2, {"table1", "fig08", "fig10", "fig14"}, {}, false, 1, false, {}, "", ""},
      {"caching",
       2,
       {"caching_study"},
       {},
       false,
       1,
       false,
       {{"cache_ttl_s", {"300s"}}, {"frontends_per_cluster", {"4096"}}},
       "domain",
       "cache_capacity"},
      {"queue", 1, {}, {"fig11"}, true, 4, true, {}, "", ""},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

/// Work units of at most this many runs. bench_suite queue-init's default
/// of 256 makes ~400 units here, and the ~2000 files they create and delete
/// per process made the run as noisy as the host's filesystem; 2048 keeps
/// the codec, merge and queue at about a fifth of the process's time.
constexpr std::size_t kUnitRuns = 2048;

std::optional<std::string> Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

std::string Flag(int argc, char** argv, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return "";
}

bool HasFlag(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 2; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

std::vector<quicer::bench::BenchInfo> BenchesOf(const Workload& workload) {
  auto& registry = quicer::bench::Registry::Instance();
  std::vector<quicer::bench::BenchInfo> benches;
  if (workload.benches.empty()) {
    for (const quicer::bench::BenchInfo& bench : registry.Match("")) {
      if (std::find(workload.skip.begin(), workload.skip.end(), bench.name) ==
          workload.skip.end()) {
        benches.push_back(bench);
      }
    }
    return benches;
  }
  for (const std::string& name : workload.benches) {
    if (const quicer::bench::BenchInfo* bench = registry.Find(name)) benches.push_back(*bench);
  }
  return benches;
}

// ---------------------------------------------------------------------------
// grid
// ---------------------------------------------------------------------------

int RunGridCommand(int argc, char** argv) {
  const Workload* workload = FindWorkload(Flag(argc, argv, "workload"));
  const std::string seed_text = Flag(argc, argv, "seed");
  const std::string out = Flag(argc, argv, "out");
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(seed_text.c_str(), &end, 10);
  if (workload == nullptr || seed_text.empty() || *end != '\0' || out.empty()) {
    std::fprintf(stderr, "grid: pass --workload=NAME --seed=N --out=FILE\n");
    return 2;
  }
  std::vector<quicer::bench::CapturedSpec> captured =
      quicer::bench::CaptureSpecs(BenchesOf(*workload), /*scale=*/1);
  std::vector<std::pair<std::string, const SweepSpec*>> entries;
  for (quicer::bench::CapturedSpec& entry : captured) {
    SweepSpec& spec = entry.spec;
    if (workload->default_runner_only && spec.runner) continue;
    spec.repetitions *= workload->rep_multiplier;
    spec.seed_base = seed + 1;  // 0 would mean "the compiled-in base seed"
    for (quicer::core::SweepExtraAxis& axis : spec.axes.extras) {
      for (const auto& [name, labels] : workload->keep) {
        if (axis.name != name) continue;
        std::vector<quicer::core::SweepAxisValue> kept;
        for (const quicer::core::SweepAxisValue& value : axis.values) {
          for (const std::string& label : labels) {
            if (value.label == label) kept.push_back(value);
          }
        }
        axis.values = std::move(kept);
      }
    }
    entries.emplace_back(entry.bench, &spec);
  }
  if (entries.empty()) {
    std::fprintf(stderr, "grid: workload '%s' selects no sweep\n", workload->name);
    return 1;
  }
  if (!WriteFile(out, quicer::core::ScenarioFileJson(entries))) {
    std::fprintf(stderr, "grid: cannot write '%s'\n", out.c_str());
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------

/// One sweep of the workload, resolved from the scenario file onto the
/// compiled-in spec of its bench.
struct Entry {
  std::string bench;
  SweepSpec spec;
  std::size_t point_count = 0;  // enumerated for the queue's plan only
};

/// What the result document reports per executed sweep (or merged sweep of
/// the queue workload).
struct SweepReport {
  std::string name;
  std::size_t points = 0;
  std::size_t total_runs = 0;
  std::size_t executed_runs = 0;
  std::size_t failed_runs = 0;  // runs of budget-skipped or unexecuted points
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

SweepReport Report(const SweepResult& result) {
  SweepReport report;
  report.name = result.name;
  report.points = result.points.size();
  const std::size_t reps = result.repetitions > 0 ? static_cast<std::size_t>(result.repetitions) : 0;
  report.total_runs = report.points * reps;
  report.executed_runs = result.executed_runs;
  for (const quicer::core::PointSummary& point : result.points) {
    if (!point.executed || point.budget_skipped) report.failed_runs += reps;
  }
  report.counters = result.telemetry.counters;
  return report;
}

/// Peak resident set of this process image (VmHWM). getrusage's maxrss
/// would also count the parent's pages the child held before exec.
std::uint64_t PeakRssKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

std::string ResultJson(const std::string& workload, unsigned threads, std::int64_t t_first_run,
                       std::int64_t t_end, std::uint64_t peak_rss_kib,
                       const std::vector<SweepReport>& sweeps,
                       const std::vector<double>& unit_walls, std::uint64_t partial_bytes) {
  std::string out = "{\"format\": \"perfbench-result-v1\", \"workload\": \"" + workload +
                    "\", \"threads\": " + std::to_string(threads) +
                    ",\n \"t_first_run_ns\": " + std::to_string(t_first_run) +
                    ", \"t_end_ns\": " + std::to_string(t_end) +
                    ",\n \"peak_rss_kib\": " + std::to_string(peak_rss_kib) +
                    ", \"partial_bytes\": " + std::to_string(partial_bytes) +
                    ",\n \"unit_wall_s\": [";
  for (std::size_t i = 0; i < unit_walls.size(); ++i) {
    char number[32];
    std::snprintf(number, sizeof number, "%.9g", unit_walls[i]);
    out += (i == 0 ? "" : ", ") + std::string(number);
  }
  out += "],\n \"sweeps\": [";
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const SweepReport& s = sweeps[i];
    out += (i == 0 ? "\n  " : ",\n  ") + std::string("{\"name\": \"") + s.name +
           "\", \"points\": " + std::to_string(s.points) +
           ", \"total_runs\": " + std::to_string(s.total_runs) +
           ", \"executed_runs\": " + std::to_string(s.executed_runs) +
           ", \"failed_runs\": " + std::to_string(s.failed_runs) + ", \"counters\": {";
    for (std::size_t c = 0; c < s.counters.size(); ++c) {
      out += (c == 0 ? "\"" : ", \"") + s.counters[c].first +
             "\": " + std::to_string(s.counters[c].second);
    }
    out += "}}";
  }
  out += "]}\n";
  return out;
}

/// Traced-run hooks of one RunSweep call: runner wrapper, observer spans.
void Instrument(SweepSpec& spec, Trace& trace, std::uint64_t sweep_span, std::uint64_t run,
                const Workload& workload) {
  std::function<std::string(const quicer::core::SweepRunContext&)> key_of;
  if (!workload.non_key_axis.empty()) {
    const std::string skip = workload.non_key_axis;
    const std::string cls = workload.key_class;
    key_of = [skip, cls](const quicer::core::SweepRunContext& ctx) {
      std::string key;
      std::string key_class;
      for (const auto& [axis, value] : ctx.point.extras) {
        if (axis == cls) key_class = value.label;
        if (axis == skip) continue;
        key += (key.empty() ? "" : "|") + axis + "=" + value.label;
      }
      return key_class + "#" + key;
    };
  }
  spec.runner = perfbench::TracedRunner(perfbench::EffectiveRunner(spec), trace, sweep_span,
                                        run, std::move(key_of));
  spec.observer = [&trace, sweep_span, run](const quicer::core::SweepProgress&) {
    ScopedSpan span(&trace, "observer", sweep_span, run);
  };
}

/// Partial files under a unit's published results directory, sorted.
std::vector<std::string> ResultFiles(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Parses every partial the queue's units published and merges them per
/// sweep, in the order of `entries`: dist::Collect's merge split into its
/// public codec and merge calls, so a trace times them apart.
std::optional<std::vector<SweepResult>> MergeQueue(const quicer::dist::WorkQueue& queue,
                                                   const std::vector<Entry>& entries,
                                                   Trace* trace, std::uint64_t parent) {
  std::string error;
  std::map<std::string, std::vector<SweepResult>> partials;
  for (const quicer::dist::WorkUnit& unit : queue.Units()) {
    for (const std::string& file : ResultFiles(queue.ResultDir(unit.id))) {
      ScopedSpan parse(trace, "codec.partial_parse", parent);
      std::optional<SweepResult> partial = quicer::core::ReadSweepPartialFile(file, &error);
      if (!partial) {
        std::fprintf(stderr, "run: %s: %s\n", file.c_str(), error.c_str());
        return std::nullopt;
      }
      partials[partial->name].push_back(std::move(*partial));
    }
  }
  std::vector<SweepResult> merged;
  for (const Entry& entry : entries) {
    std::optional<SweepResult> result;
    {
      ScopedSpan merge(trace, "sweep.merge", parent);
      result = quicer::core::MergeSweepResults(partials[entry.spec.name], &error);
    }
    if (!result) {
      std::fprintf(stderr, "run: merge '%s': %s\n", entry.spec.name.c_str(), error.c_str());
      return std::nullopt;
    }
    merged.push_back(std::move(*result));
  }
  return merged;
}

/// Executes the workload and writes DIR/exports and DIR/result.json.
int ExecuteWorkload(const Workload* workload, const std::string& grid_path,
                    const std::string& out_dir, bool queue_mode, Trace* trace) {
  const std::string exports_dir = out_dir + "/exports";
  std::error_code ec;
  fs::create_directories(exports_dir, ec);
  if (ec) {
    std::fprintf(stderr, "run: cannot create '%s': %s\n", exports_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  ScopedSpan process(trace, "process", 0);

  // ---- set-up: scenario codec, bench capture, the queue plan's enumeration ----
  std::vector<Entry> entries;
  {
    ScopedSpan setup(trace, "setup", process.id());
    std::optional<std::vector<quicer::core::Scenario>> scenarios;
    std::string error;
    {
      ScopedSpan parse(trace, "codec.scenario_parse", setup.id());
      const std::optional<std::string> text = Slurp(grid_path);
      if (!text) {
        std::fprintf(stderr, "run: cannot read '%s'\n", grid_path.c_str());
        return 2;
      }
      scenarios = quicer::core::ParseScenarioFile(*text, &error);
    }
    if (!scenarios || scenarios->empty()) {
      std::fprintf(stderr, "run: %s: %s\n", grid_path.c_str(),
                   scenarios ? "no scenarios" : error.c_str());
      return 2;
    }
    std::map<std::string, std::vector<quicer::bench::CapturedSpec>> captured;
    for (const quicer::core::Scenario& scenario : *scenarios) {
      const quicer::bench::BenchInfo* bench =
          quicer::bench::Registry::Instance().Find(scenario.bench);
      if (bench == nullptr) {
        std::fprintf(stderr, "run: unknown bench '%s'\n", scenario.bench.c_str());
        return 2;
      }
      if (captured.count(scenario.bench) == 0) {
        ScopedSpan capture(trace, "bench.capture", setup.id());
        captured[scenario.bench] = quicer::bench::CaptureSpecs({*bench}, /*scale=*/1);
      }
      const quicer::bench::CapturedSpec* live = nullptr;
      for (const quicer::bench::CapturedSpec& spec : captured[scenario.bench]) {
        if (spec.spec.name == scenario.sweep) live = &spec;
      }
      if (live == nullptr) {
        std::fprintf(stderr, "run: bench '%s' has no sweep '%s'\n", scenario.bench.c_str(),
                     scenario.sweep.c_str());
        return 2;
      }
      Entry entry{scenario.bench, live->spec, 0};
      {
        ScopedSpan apply(trace, "codec.scenario_apply", setup.id());
        if (!quicer::core::ApplyScenario(scenario, entry.spec, &error)) {
          std::fprintf(stderr, "run: %s: %s\n", scenario.sweep.c_str(), error.c_str());
          return 2;
        }
      }
      if (queue_mode) {
        ScopedSpan enumerate(trace, "sweep.enumerate", setup.id());
        entry.point_count = quicer::core::Enumerate(entry.spec).size();
      }
      entries.push_back(std::move(entry));
    }
  }

  std::vector<SweepReport> reports;
  std::vector<double> unit_walls;
  std::uint64_t partial_bytes = 0;
  const std::string queue_dir = out_dir + "/queue";
  // The timed section starts here: with the first RunSweep call, or for the
  // queue workload (init, worker, collect) with the init, whose filesystem
  // work would otherwise make the set-up time as noisy as the filesystem.
  const std::int64_t t_first_run = MonoNs();

  if (!queue_mode) {
    ScopedSpan execute(trace, "workload", process.id());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      SweepSpec spec = entries[i].spec;
      const std::uint64_t run = i + 1;
      SweepResult result;
      {
        ScopedSpan sweep(trace, "sweep", execute.id(), run);
        if (trace != nullptr) Instrument(spec, *trace, sweep.id(), run, *workload);
        result = quicer::core::RunSweep(spec, workload->threads);
        if (trace != nullptr) trace->FlushBlocks();
      }
      SweepReport report = Report(result);
      if (quicer::obs::ProcessEnabled()) {
        // RunSweep resets the counters when a sweep starts, so until the next
        // sweep they hold exactly this one's.
        ScopedSpan snapshot(trace, "obs.snapshot", execute.id(), run);
        const auto counters = quicer::obs::Snapshot();
        report.counters.clear();
        for (std::size_t c = 0; c < counters.size(); ++c) {
          if (counters[c] != 0) {
            report.counters.emplace_back(quicer::obs::Descriptors()[c].name, counters[c]);
          }
        }
      }
      {
        ScopedSpan write(trace, "codec.export", execute.id(), run);
        if (!quicer::core::WriteSweepData(result, exports_dir)) {
          std::fprintf(stderr, "run: cannot export '%s'\n", result.name.c_str());
          return 1;
        }
      }
      reports.push_back(std::move(report));
    }
  } else {
    std::map<std::string, const Entry*> by_sweep;
    std::vector<quicer::dist::SweepInventory> inventories;
    ScopedSpan execute(trace, "workload", process.id());
    {
      ScopedSpan init(trace, "dist.init", execute.id());
      for (const Entry& entry : entries) {
        by_sweep[entry.spec.name] = &entry;
        quicer::dist::SweepInventory inventory;
        inventory.bench = entry.bench;
        inventory.sweep = entry.spec.name;
        inventory.point_count = entry.point_count;
        inventory.repetitions = static_cast<std::size_t>(entry.spec.repetitions);
        inventory.spec_hash = quicer::core::ScenarioHash(entry.spec);
        inventories.push_back(std::move(inventory));
      }
      quicer::dist::WorkQueue::Manifest manifest;
      const std::vector<quicer::dist::WorkUnit> units =
          quicer::dist::PlanUnits(inventories, kUnitRuns);
      manifest.max_runs_per_unit = kUnitRuns;
      manifest.unit_count = units.size();
      manifest.sweeps = inventories;
      std::string error;
      if (!quicer::dist::WorkQueue::Init(queue_dir, manifest, units, &error)) {
        std::fprintf(stderr, "run: queue init: %s\n", error.c_str());
        return 1;
      }
    }
    std::string error;
    std::optional<quicer::dist::WorkQueue> queue =
        quicer::dist::WorkQueue::Open(queue_dir, &error);
    if (!queue) {
      std::fprintf(stderr, "run: queue open: %s\n", error.c_str());
      return 1;
    }
    std::size_t units_failed = 0;
    {
      ScopedSpan worker_span(trace, "dist.worker", execute.id());
      // RunSweep on the unit's shard of the resolved spec, not bench_suite
      // worker's RunByName + GridRewrite: the rewrite matches by name, so
      // it misses the sweeps a bench names or copies after tuning them
      // (table2_*, fig04b_probes, ablation_*_pto), which then run their
      // compiled-in data, and dist::Collect rejects their partials.
      std::uint64_t unit_ordinal = 0;
      quicer::dist::UnitRunner runner = [&](const quicer::dist::WorkUnit& unit,
                                            const std::string& stage_dir) -> int {
        const std::uint64_t run = ++unit_ordinal;
        ScopedSpan unit_span(trace, "dist.unit", worker_span.id(), run);
        const auto found = by_sweep.find(unit.sweep);
        if (found == by_sweep.end()) return 1;
        SweepSpec spec = found->second->spec;
        spec.shard.points = unit.points;
        spec.shard.rep_begin = unit.rep_begin;
        spec.shard.rep_end = unit.rep_end;
        SweepResult result;
        {
          ScopedSpan sweep(trace, "sweep", unit_span.id(), run);
          if (trace != nullptr) Instrument(spec, *trace, sweep.id(), run, *workload);
          result = quicer::core::RunSweep(spec, workload->threads);
          if (trace != nullptr) trace->FlushBlocks();
        }
        ScopedSpan write(trace, "codec.partial_write", unit_span.id(), run);
        const std::string json = quicer::core::SweepPartialJson(result);
        partial_bytes += json.size();
        return WriteFile(stage_dir + "/" + quicer::core::SweepPartialFileName(result), json)
                   ? 0
                   : 1;
      };
      quicer::dist::WorkerOptions options;
      options.worker_id = "perfbench";
      options.wait_for_stragglers = false;
      units_failed = quicer::dist::RunWorker(*queue, options, runner, nullptr).units_failed;
    }
    if (units_failed != 0) {
      std::fprintf(stderr, "run: %zu work units failed\n", units_failed);
      return 1;
    }
    // Untraced, the program's collect (coverage proof, then merge and
    // export); traced, the same merge split into its codec and merge calls,
    // so they are timed apart. The recorded digests hold both to one output.
    if (trace == nullptr) {
      quicer::dist::CollectReport report;
      if (!quicer::dist::Collect(*queue, exports_dir, &report, nullptr)) {
        std::fprintf(stderr, "run: dist::Collect failed: %s\n", report.error.c_str());
        return 1;
      }
    } else {
      ScopedSpan collect(trace, "dist.collect", execute.id());
      std::optional<std::vector<SweepResult>> merged =
          MergeQueue(*queue, entries, trace, collect.id());
      if (!merged) return 1;
      for (const SweepResult& result : *merged) {
        ScopedSpan write(trace, "codec.export", collect.id());
        if (!quicer::core::WriteSweepData(result, exports_dir)) {
          std::fprintf(stderr, "run: cannot export '%s'\n", result.name.c_str());
          return 1;
        }
        reports.push_back(Report(result));
      }
    }
  }
  const std::int64_t t_end = MonoNs();
  const std::uint64_t peak_rss_kib = PeakRssKib();

  // ---- untimed: queue facts and, untraced, the run counts and counters
  // of the result document, from the same partials dist::Collect merged ----
  if (queue_mode) {
    std::string error;
    std::optional<quicer::dist::WorkQueue> queue =
        quicer::dist::WorkQueue::Open(queue_dir, &error);
    if (!queue) return 1;
    for (const quicer::dist::WorkUnit& unit : queue->Units()) {
      unit_walls.push_back(unit.wall_seconds);
    }
    if (trace == nullptr) {
      std::optional<std::vector<SweepResult>> merged = MergeQueue(*queue, entries, nullptr, 0);
      if (!merged) return 1;
      for (const SweepResult& result : *merged) reports.push_back(Report(result));
    }
  }
  return WriteFile(out_dir + "/result.json",
                   ResultJson(workload->name, workload->threads, t_first_run, t_end,
                              peak_rss_kib, reports, unit_walls, partial_bytes))
             ? 0
             : 1;
}

int RunCommand(int argc, char** argv) {
  const Workload* workload = FindWorkload(Flag(argc, argv, "workload"));
  const std::string grid_path = Flag(argc, argv, "grid");
  const std::string out_dir = Flag(argc, argv, "out-dir");
  if (workload == nullptr || grid_path.empty() || out_dir.empty()) {
    std::fprintf(stderr, "run: pass --workload=NAME --grid=FILE --out-dir=DIR\n");
    return 2;
  }
  const bool queue_mode = workload->queue && !HasFlag(argc, argv, "single");
  const bool traced = HasFlag(argc, argv, "trace");
  // The pool is created on first use with this many workers; RunSweep's
  // calling thread is one of the lanes, so at most `threads` run at once.
  setenv("QUICER_THREADS", std::to_string(workload->threads).c_str(), 1);
  // The queue worker runs armed (bench_suite worker --telemetry); the other
  // workloads count only in the reference and traced runs.
  if (queue_mode || traced || HasFlag(argc, argv, "telemetry")) {
    quicer::obs::EnableProcess();
  }
  std::unique_ptr<Trace> trace = traced ? std::make_unique<Trace>() : nullptr;
  const int code = ExecuteWorkload(workload, grid_path, out_dir, queue_mode, trace.get());
  if (code != 0 || trace == nullptr) return code;
  return WriteFile(out_dir + "/trace.json", trace->Json()) ? 0 : 1;
}

// ---------------------------------------------------------------------------
// calibrate
// ---------------------------------------------------------------------------

/// A fixed memory- and branch-bound kernel: a pointer chase through an 8 MiB
/// random cycle. It does not depend on this repository, so a change in its
/// time is the host's.
int RunCalibrate() {
  constexpr std::uint32_t kSlots = 1u << 21;
  std::vector<std::uint32_t> next(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) next[i] = i;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::uint32_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const auto j = static_cast<std::uint32_t>((state >> 33) % i);
    std::swap(next[i], next[j]);
  }
  const std::int64_t start = MonoNs();
  std::uint32_t at = 0;
  std::uint64_t sum = 0;
  for (std::uint32_t step = 0; step < (1u << 20); ++step) {
    at = next[at];
    sum += (at & 1u) != 0 ? at : at >> 1;
  }
  const std::int64_t elapsed = MonoNs() - start;
  std::printf("{\"calibration_ns\": %lld, \"checksum\": %llu}\n",
              static_cast<long long>(elapsed), static_cast<unsigned long long>(sum));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "grid") return RunGridCommand(argc, argv);
  if (command == "run") return RunCommand(argc, argv);
  if (command == "calibrate") return RunCalibrate();
  std::fprintf(stderr,
               "usage: %s grid --workload=W --seed=N --out=FILE\n"
               "       %s run --workload=W --grid=FILE --out-dir=DIR [--single]"
               " [--telemetry] [--trace]\n"
               "       %s calibrate\n",
               argv[0], argv[0], argv[0]);
  return 2;
}
