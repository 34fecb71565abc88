// bench_suite — runs any subset of the registered figure benches through the
// sweep engine on the shared persistent thread pool, optionally as one shard
// of a multi-process run, and merges partial results back into the exports a
// single process would have written. The queue-init / worker / collect
// subcommands drive the same benches through the file-based distributed work
// queue (src/dist/), so any pool of hosts sharing a directory executes the
// suite together.
//
// Grids are also first-class data (core/scenario.h): export-grid serializes
// any registered bench's sweeps as a scenario file, `run --grid` executes a
// (possibly hand-edited) scenario file through the identical enumerate →
// execute → merge pipeline, and `queue-init --grid` plans a distributed run
// from one — scenario authorship is a data task, not a C++ task.
//
// Every sweep runs through one function, RunBench: the compiled-in benches
// (their declared specs, then their report), `run --grid` scenarios and
// queue units (resolved specs: a bench's declared spec with the scenario,
// if any, applied — exactly the spec whose content-hash the queue plan
// records). RunBench tunes each spec with the suite options right before it
// runs and writes its exports; only a bench whose sweeps all came back
// complete gets its report printed.
//
// lint:allow-file(ND002): the driver times sweeps, budgets, and heartbeats
// with the wall clock; no wall-clock value reaches an exported byte.
//
//   bench_suite --list                 # names + descriptions
//   bench_suite                        # run everything
//   bench_suite --filter=fig1          # substring-select benches
//   bench_suite --threads=8            # pool size (QUICER_THREADS also works)
//   bench_suite --data-dir=out/        # per-sweep CSV + JSON exports
//   bench_suite --scale=4              # multiply repetitions, denser axes
//   bench_suite --progress             # per-sweep progress lines on stderr
//   bench_suite --budget-seconds=600   # suite-wide wall-clock ceiling
//   bench_suite --shard=0/4            # execute shard 0 of 4 (partial JSON)
//   bench_suite --points=3,17          # execute explicit point ids
//   bench_suite --rep-range=0:10       # execute a repetition window
//   bench_suite merge --out-dir=out/ PARTIAL.json...   # recombine shards
//
//   bench_suite export-grid [BENCH...] [--scale=N] [--out=FILE] [--check]
//   bench_suite run --grid=FILE [--data-dir=DIR] [--shard=I/N] [--rep-range=A:B]
//   bench_suite schema                 # scenario base-field table (markdown)
//
//   bench_suite --telemetry=FILE      # runtime counters -> per-sweep report
//   bench_suite --qlog-dir=DIR        # per-run qlog trace pairs
//
//   bench_suite queue-init --queue=Q [--filter=S]... [--grid=FILE] [--scale=N] [--unit-runs=N]
//   bench_suite worker --queue=Q [--worker-id=W] [--lease-seconds=N] [--retries=N] [--telemetry]
//   bench_suite queue-status --queue=Q [--json]
//   bench_suite collect --queue=Q [--out-dir=DIR] [--telemetry=FILE]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/scenario.h"
#include "core/sweep_partial.h"
#include "core/thread_pool.h"
#include "dist/collect.h"
#include "dist/work_queue.h"
#include "dist/worker.h"
#include "obs/telemetry.h"
#include "registry.h"

namespace {

using quicer::bench::BenchContext;
using quicer::bench::BenchInfo;
using quicer::bench::CapturedSpec;
using quicer::bench::CaptureSpecs;
using quicer::bench::Registry;
using quicer::bench::ReportFn;
using quicer::core::SweepResult;
using quicer::core::SweepSpec;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Writes telemetry records as the --telemetry report file.
bool WriteTelemetryReport(const std::vector<quicer::obs::SweepRecord>& records,
                          const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << quicer::obs::TelemetryReportJson(records);
  if (!out) {
    std::fprintf(stderr, "cannot write the telemetry report to '%s'\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "telemetry report (%zu sweeps) -> %s\n", records.size(),
               path.c_str());
  return true;
}

/// Telemetry records of merged partial results (merge / collect paths):
/// the bench label is unknown to a merge process, so it stays empty unless
/// the caller fills it from a manifest.
std::vector<quicer::obs::SweepRecord> RecordsOfMerged(
    const std::vector<quicer::core::SweepResult>& merged) {
  std::vector<quicer::obs::SweepRecord> records;
  for (const quicer::core::SweepResult& result : merged) {
    if (!result.telemetry.enabled) continue;
    quicer::obs::SweepRecord record;
    record.sweep = result.name;
    record.wall_seconds = result.telemetry.wall_seconds;
    record.executed_runs = result.executed_runs;
    record.counters = result.telemetry.counters;
    records.push_back(std::move(record));
  }
  return records;
}

/// Creates --qlog-dir (so per-run traces have somewhere to land) or fails
/// loudly; an unwritable directory would silently drop every trace.
bool PrepareQlogDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create qlog dir '%s': %s\n", dir.c_str(),
                 ec.message().c_str());
    return false;
  }
  return true;
}

int Usage(const char* argv0) {
  std::printf(
      "usage: %s [--list] [--filter=SUBSTR] [--threads=N] [--data-dir=DIR]\n"
      "          [--scale=N] [--progress] [--budget-seconds=N]\n"
      "          [--shard=I/N | --points=ID,ID,...] [--rep-range=A:B]\n"
      "          [--telemetry=FILE] [--qlog-dir=DIR]\n"
      "       %s merge [--out-dir=DIR] [--telemetry=FILE] PARTIAL.json...\n"
      "       %s export-grid [BENCH...] [--scale=N] [--out=FILE] [--check]\n"
      "       %s run --grid=FILE [--data-dir=DIR] [--threads=N] [--progress]\n"
      "              [--budget-seconds=N] [--shard=I/N | --points=IDS] [--rep-range=A:B]\n"
      "              [--telemetry=FILE] [--qlog-dir=DIR]\n"
      "       %s schema\n"
      "       %s queue-init --queue=DIR [--filter=SUBSTR]... [--grid=FILE] [--scale=N]\n"
      "                 [--unit-runs=N]\n"
      "       %s worker --queue=DIR [--threads=N] [--worker-id=ID] [--progress]\n"
      "                 [--lease-seconds=N] [--poll-seconds=N] [--max-units=N]\n"
      "                 [--retries=N] [--no-wait] [--telemetry]\n"
      "       %s queue-status --queue=DIR [--json]\n"
      "       %s collect --queue=DIR [--out-dir=DIR] [--telemetry=FILE]\n"
      "  --list        list registered benches and exit\n"
      "  --filter=S    run only benches whose name contains S\n"
      "  --threads=N   size of the shared thread pool (default: hardware)\n"
      "  --data-dir=D  write per-sweep CSV/JSON into D (sets QUICER_DATA_DIR)\n"
      "  --scale=N     multiply experiment-sweep repetitions by N and widen\n"
      "                RTT/delta axes (paper grids: --scale=4; default 1)\n"
      "  --progress    per-sweep progress lines on stderr (points done,\n"
      "                runs/sec) via the SweepObserver hook\n"
      "  --budget-seconds=N  suite-wide wall-clock ceiling: once exceeded,\n"
      "                remaining sweep points are budget-skipped and listed\n"
      "                in partial-result JSON for a later --points rerun\n"
      "  --shard=I/N   execute only points with id %% N == I (I in 0..N-1);\n"
      "                every sweep then writes a partial-result JSON instead\n"
      "                of its final exports\n"
      "  --points=IDS  execute only the listed point ids (comma-separated),\n"
      "                e.g. the budget_skipped_points of an earlier partial;\n"
      "                ids are validated against the enumerated grids\n"
      "  --rep-range=A:B  execute only repetitions [A, B) of the selected\n"
      "                points (B omitted or 0 = to the end); windows of one\n"
      "                point merge back bit-identically\n"
      "  --telemetry=F  enable runtime counters (event queue, pools, netem\n"
      "                drops, recovery, phase timers) and write the per-sweep\n"
      "                telemetry report to F; counting never perturbs the\n"
      "                simulated runs, so exports stay byte-identical\n"
      "  --qlog-dir=D  write every run's qlog trace pair (client + server,\n"
      "                with recovery/drop/connectivity events) into D as\n"
      "                <sweep>_p<point>_r<rep>_{client,server}.qlog\n"
      "  merge         parse partial-result JSONs, merge per sweep name and\n"
      "                write final CSV/JSON exports (byte-identical to a\n"
      "                single-process run) into --out-dir (default \".\")\n"
      "  export-grid   serialize the named benches' sweeps (all benches when\n"
      "                none given) as a scenario file on stdout (no\n"
      "                experiments run); --check instead verifies the\n"
      "                export → parse → re-export round trip byte-identically\n"
      "  run --grid=F  execute the scenarios of file F (data-defined grids)\n"
      "                through the standard pipeline; exports are\n"
      "                byte-identical to the compiled-in run for unedited\n"
      "                export-grid output, and composable with --shard /\n"
      "                --rep-range / merge for edited grids\n"
      "  schema        print the scenario base-config field table (markdown,\n"
      "                generated from the codec's descriptor table)\n"
      "  queue-init    enumerate the selected benches' sweeps (no experiments\n"
      "                run) and populate a work-queue directory: one manifest\n"
      "                plus work units of at most --unit-runs runs each\n"
      "                (default 256; huge points split into repetition\n"
      "                windows). With --grid=FILE the plan comes from a\n"
      "                scenario file (copied into the queue), not from the\n"
      "                compiled-in grids. The directory may be local, on\n"
      "                NFS, or rsync'd between hosts.\n"
      "  worker        claim units from the queue (atomic rename leases),\n"
      "                execute each unit's resolved sweep, publish partial\n"
      "                results; heartbeats let peers reclaim units of\n"
      "                crashed workers after --lease-seconds (default 60);\n"
      "                failed units re-queue up to --retries times\n"
      "                (default 1) before parking in failed/\n"
      "  queue-status  todo/active/done/failed unit counts, per-worker\n"
      "                heartbeat ages and the failed-unit list; --json emits\n"
      "                a machine-readable document with per-worker throughput\n"
      "                and the measured wall time of every done unit\n"
      "  collect       verify coverage (every point x repetition window\n"
      "                exactly once, spec hashes in agreement) and merge\n"
      "                every sweep's unit results into final exports under\n"
      "                --out-dir (default \".\"); --telemetry=FILE folds the\n"
      "                workers' telemetry blocks into one report\n",
      argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

int RunMerge(int argc, char** argv) {
  std::string out_dir = ".";
  std::string telemetry_path;
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out-dir=", 0) == 0) {
      out_dir = arg.substr(std::strlen("--out-dir="));
    } else if (arg.rfind("--telemetry=", 0) == 0) {
      telemetry_path = arg.substr(std::strlen("--telemetry="));
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown merge option '%s'\n", arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "merge: no partial-result files given\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create out dir '%s': %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  std::vector<quicer::core::SweepResult> merged;
  if (!quicer::core::MergeSweepPartialFiles(files, out_dir, stderr,
                                            telemetry_path.empty() ? nullptr : &merged)) {
    return 1;
  }
  if (!telemetry_path.empty() &&
      !WriteTelemetryReport(RecordsOfMerged(merged), telemetry_path)) {
    return 1;
  }
  return 0;
}

bool ParseShard(const std::string& value, quicer::core::SweepShard& shard) {
  const std::size_t slash = value.find('/');
  if (slash == std::string::npos) return false;
  char* end = nullptr;
  const long index = std::strtol(value.c_str(), &end, 10);
  if (end != value.c_str() + slash) return false;
  const long count = std::strtol(value.c_str() + slash + 1, &end, 10);
  if (*end != '\0' || count < 1 || index < 0 || index >= count) return false;
  shard.index = static_cast<std::size_t>(index);
  shard.count = static_cast<std::size_t>(count);
  return true;
}

bool ParsePoints(const std::string& value, std::vector<std::size_t>& points) {
  const char* cursor = value.c_str();
  while (*cursor != '\0') {
    char* end = nullptr;
    const long id = std::strtol(cursor, &end, 10);
    if (end == cursor || id < 0) return false;
    points.push_back(static_cast<std::size_t>(id));
    cursor = *end == ',' ? end + 1 : end;
    if (*end != '\0' && *end != ',') return false;
  }
  return !points.empty();
}

bool ParseRepRange(const std::string& value, quicer::core::SweepShard& shard) {
  const std::size_t colon = value.find(':');
  if (colon == std::string::npos) return false;
  char* end = nullptr;
  const long begin = std::strtol(value.c_str(), &end, 10);
  if (end != value.c_str() + colon || begin < 0) return false;
  long stop = 0;  // "A:" means "A to the end"
  if (colon + 1 < value.size()) {
    stop = std::strtol(value.c_str() + colon + 1, &end, 10);
    if (*end != '\0' || stop < 0 || (stop != 0 && stop <= begin)) return false;
  }
  shard.rep_begin = static_cast<std::size_t>(begin);
  shard.rep_end = static_cast<std::size_t>(stop);
  return true;
}

/// Options shared by the default run and `run --grid`.
struct RunOptions {
  BenchContext context;
  std::string telemetry_path;
};

enum class RunOption { kParsed, kInvalid, kUnknown };

/// Parses one of the options the default run and `run --grid` both accept.
/// kInvalid means the value was rejected (the reason is already printed);
/// kUnknown leaves the argument to the caller.
RunOption ParseRunOption(const std::string& arg, RunOptions& options) {
  BenchContext& context = options.context;
  if (arg.rfind("--telemetry=", 0) == 0) {
    options.telemetry_path = arg.substr(std::strlen("--telemetry="));
  } else if (arg.rfind("--qlog-dir=", 0) == 0) {
    context.qlog_dir = arg.substr(std::strlen("--qlog-dir="));
    if (!PrepareQlogDir(context.qlog_dir)) return RunOption::kInvalid;
  } else if (arg.rfind("--threads=", 0) == 0) {
    // Must be set before the first ThreadPool::Global() use.
    setenv("QUICER_THREADS", arg.c_str() + std::strlen("--threads="), 1);
  } else if (arg.rfind("--data-dir=", 0) == 0) {
    const char* dir = arg.c_str() + std::strlen("--data-dir=");
    // CsvWriter silently deactivates when the directory is missing.
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create data dir '%s': %s\n", dir, ec.message().c_str());
      return RunOption::kInvalid;
    }
    setenv("QUICER_DATA_DIR", dir, 1);
  } else if (arg == "--progress") {
    context.progress = true;
  } else if (arg.rfind("--budget-seconds=", 0) == 0) {
    context.budget_seconds =
        std::strtod(arg.c_str() + std::strlen("--budget-seconds="), nullptr);
  } else if (arg.rfind("--shard=", 0) == 0) {
    if (!ParseShard(arg.substr(std::strlen("--shard=")), context.shard)) {
      std::fprintf(stderr, "invalid --shard '%s' (expected I/N with 0 <= I < N)\n",
                   arg.c_str());
      return RunOption::kInvalid;
    }
  } else if (arg.rfind("--points=", 0) == 0) {
    if (!ParsePoints(arg.substr(std::strlen("--points=")), context.shard.points)) {
      std::fprintf(stderr, "invalid --points '%s' (expected ID,ID,...)\n", arg.c_str());
      return RunOption::kInvalid;
    }
  } else if (arg.rfind("--rep-range=", 0) == 0) {
    if (!ParseRepRange(arg.substr(std::strlen("--rep-range=")), context.shard)) {
      std::fprintf(stderr, "invalid --rep-range '%s' (expected A:B with 0 <= A < B,"
                   " or A: for 'to the end')\n", arg.c_str());
      return RunOption::kInvalid;
    }
  } else {
    return RunOption::kUnknown;
  }
  return RunOption::kParsed;
}

/// A sharded run's only useful product is its partial-result files; without
/// a data dir the whole run would be silently discarded.
bool RequireDataDirForSubset(const BenchContext& context) {
  if (context.shard.all() || std::getenv("QUICER_DATA_DIR") != nullptr) return true;
  std::fprintf(stderr,
               "--shard/--points/--rep-range produce partial-result files: pass "
               "--data-dir=DIR (or set QUICER_DATA_DIR)\n");
  return false;
}

/// Progress observer printing "points done / total, runs/sec" to stderr
/// (stdout carries the figure tables).
quicer::core::SweepObserver StderrProgress() {
  return [](const quicer::core::SweepProgress& p) {
    std::fprintf(stderr, "[%.*s] %zu/%zu points, %zu runs, %.0f runs/s%s\n",
                 static_cast<int>(p.sweep.size()), p.sweep.data(), p.points_completed,
                 p.points_total, p.runs_completed, p.runs_per_second,
                 p.points_skipped > 0 ? " (budget: some points skipped)" : "");
  };
}

/// Applies the suite options to a spec about to run: --progress and the
/// context's observer, the --shard / --points / --rep-range subset,
/// --qlog-dir, and the --budget-seconds budget that remains *now*. RunSweep
/// counts a budget from its own start, so a spec tuned any earlier would
/// also be granted the time the sweeps before it spent.
void Tune(SweepSpec& spec, const BenchContext& context) {
  if (!spec.observer) {
    if (context.observer && context.progress) {
      spec.observer = [extra = context.observer,
                       stderr_progress = StderrProgress()](const quicer::core::SweepProgress& p) {
        extra(p);
        stderr_progress(p);
      };
    } else if (context.observer) {
      spec.observer = context.observer;
    } else if (context.progress) {
      spec.observer = StderrProgress();
    }
  }
  spec.shard = context.shard;
  spec.qlog_dir = context.qlog_dir;
  if (context.budget_seconds > 0.0 && spec.time_budget_seconds == 0.0) {
    spec.time_budget_seconds = context.RemainingBudgetSeconds();
  }
}

/// Runs `specs` in order, each tuned right before it runs, and writes every
/// result into QUICER_DATA_DIR: the final pair when complete, the partial
/// file when a subset or the budget left points out. `report` (a bench's
/// analysis) runs only when every sweep came back complete: it would read
/// incomplete series otherwise. Without a report — data-defined sweeps,
/// whose edits may drop the points an analysis reads — each complete sweep
/// prints a one-line summary instead. Returns the results in spec order.
std::vector<SweepResult> RunBench(std::vector<SweepSpec> specs, const ReportFn& report,
                                  const BenchContext& context) {
  std::vector<SweepResult> results;
  results.reserve(specs.size());
  bool complete = true;
  for (SweepSpec& spec : specs) {
    Tune(spec, context);
    results.push_back(quicer::core::RunSweep(spec));
    const SweepResult& result = results.back();
    const bool wrote = quicer::core::MaybeWriteSweepData(result);
    if (!result.partial()) {
      if (report) continue;
      if (!wrote) {
        std::fprintf(stderr,
                     "[%s] WARNING: grid-run result NOT exported (set QUICER_DATA_DIR / "
                     "--data-dir)\n",
                     result.name.c_str());
      }
      std::printf("[%s] grid run: %zu points, %zu runs — data exported, analysis skipped.\n",
                  result.name.c_str(), result.points.size(), result.executed_runs);
      continue;
    }
    complete = false;
    if (!wrote) {
      std::fprintf(stderr,
                   "[%s] WARNING: partial result NOT exported (set QUICER_DATA_DIR / "
                   "--data-dir); the executed points are lost\n",
                   result.name.c_str());
    }
    for (std::size_t id : result.shard.points) {
      if (id >= result.points.size()) {
        std::fprintf(stderr, "[%s] WARNING: --points id %zu exceeds the %zu-point grid\n",
                     result.name.c_str(), id, result.points.size());
      }
    }
    const std::size_t executed =
        std::count_if(result.points.begin(), result.points.end(),
                      [](const quicer::core::PointSummary& point) { return point.executed; });
    std::printf("[%s] partial run: %zu/%zu points executed — analysis skipped; combine the\n"
                "partial exports with `bench_suite merge`.\n",
                result.name.c_str(), executed, result.points.size());
  }
  if (report && complete) report(results);
  return results;
}

/// One timed entry of a run: a compiled-in bench (its declared specs and
/// report) or a resolved scenario of `run --grid` (no report).
struct RunJob {
  std::string label;
  std::string bench;  // telemetry attribution
  std::function<std::vector<SweepSpec>()> specs;
  ReportFn report;
};

/// Runs the jobs in order under one suite budget, writes the --telemetry
/// report and prints the per-job wall-clock table.
int RunJobs(const std::vector<RunJob>& jobs, RunOptions& options, const char* column,
            const std::string& what) {
  std::vector<std::pair<std::string, double>> timings;
  options.context.suite_start = std::chrono::steady_clock::now();
  if (!options.telemetry_path.empty()) quicer::obs::EnableProcess();
  for (const RunJob& job : jobs) {
    quicer::obs::SetCurrentBench(job.bench);
    const auto start = std::chrono::steady_clock::now();
    RunBench(job.specs(), job.report, options.context);
    timings.emplace_back(job.label, SecondsSince(start));
  }
  quicer::obs::SetCurrentBench("");
  if (!options.telemetry_path.empty() &&
      !WriteTelemetryReport(quicer::obs::TakeSweepRecords(), options.telemetry_path)) {
    return 1;
  }

  std::printf("\n%-24s %10s\n", column, "wall [s]");
  for (const auto& [label, seconds] : timings) {
    std::printf("%-24s %10.2f\n", label.c_str(), seconds);
  }
  std::printf("%-24s %10.2f  (%zu %s, pool of %u threads)\n", "total",
              SecondsSince(options.context.suite_start), timings.size(), what.c_str(),
              quicer::core::ThreadPool::Global().size());
  return 0;
}

/// Queue inventories of captured sweeps (grid size, repetitions, spec hash).
std::vector<quicer::dist::SweepInventory> InventoriesOf(
    const std::vector<CapturedSpec>& specs) {
  std::vector<quicer::dist::SweepInventory> sweeps;
  sweeps.reserve(specs.size());
  for (const CapturedSpec& captured : specs) {
    quicer::dist::SweepInventory inventory;
    inventory.bench = captured.bench;
    inventory.sweep = captured.spec.name;
    inventory.point_count = captured.point_count;
    inventory.repetitions =
        captured.spec.repetitions > 0 ? static_cast<std::size_t>(captured.spec.repetitions)
                                      : 1;
    inventory.spec_hash = quicer::core::ScenarioHash(captured.spec);
    sweeps.push_back(std::move(inventory));
  }
  return sweeps;
}

/// --points ids are validated against the grids of the sweeps about to run:
/// an id no sweep can serve is an error, not a silent no-op. Returns the
/// exit code (0 = every id is served).
int ValidatePoints(const std::vector<CapturedSpec>& sweeps,
                   const std::vector<std::size_t>& ids) {
  std::size_t max_points = 0;
  for (const CapturedSpec& sweep : sweeps) max_points = std::max(max_points, sweep.point_count);
  std::string unknown;
  for (std::size_t id : ids) {
    if (id >= max_points) {
      if (!unknown.empty()) unknown += ',';
      unknown += std::to_string(id);
    }
  }
  if (unknown.empty()) return 0;
  std::fprintf(stderr,
               "--points: unknown point id(s) %s — no selected sweep has that many "
               "points. Enumerated grids:\n",
               unknown.c_str());
  for (const CapturedSpec& sweep : sweeps) {
    std::fprintf(stderr, "  %-24s %zu points (ids 0..%zu)\n", sweep.spec.name.c_str(),
                 sweep.point_count, sweep.point_count > 0 ? sweep.point_count - 1 : 0);
  }
  return 2;
}

/// Union of benches matching any of the filters (all benches when none),
/// deduplicated by name.
std::vector<BenchInfo> MatchFilters(const std::vector<std::string>& filters) {
  if (filters.empty()) return Registry::Instance().Match("");
  std::vector<BenchInfo> selected;
  for (const std::string& filter : filters) {
    for (const BenchInfo& bench : Registry::Instance().Match(filter)) {
      bool known = false;
      for (const BenchInfo& have : selected) known = known || have.name == bench.name;
      if (!known) selected.push_back(bench);
    }
  }
  return selected;
}

/// Reads a whole file; "-" reads stdin (the `export-grid B | run --grid=-`
/// pipeline).
std::optional<std::string> SlurpFile(const std::string& path) {
  std::ostringstream buffer;
  if (path == "-") {
    buffer << std::cin.rdbuf();
    return buffer.str();
  }
  std::ifstream in(path);
  if (!in.is_open()) return std::nullopt;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Parses a scenario file (export-grid --check, run --grid, queue-init
/// --grid, the worker) and resolves every scenario against the compiled-in
/// benches: the bench exists, declares the sweep, and the scenario applies
/// cleanly onto the declared spec. Each entry is the applied spec with its
/// grid size. Returns nullopt and fills `error` on the first violation.
std::optional<std::vector<CapturedSpec>> LoadGrid(const std::string& text,
                                                  std::string& error) {
  const std::optional<std::vector<quicer::core::Scenario>> scenarios =
      quicer::core::ParseScenarioFile(text, &error);
  if (!scenarios) return std::nullopt;

  std::map<std::string, std::vector<CapturedSpec>> declared;  // per bench
  std::vector<CapturedSpec> entries;
  for (const quicer::core::Scenario& scenario : *scenarios) {
    if (scenario.bench.empty()) {
      error = "scenario for sweep '" + scenario.sweep +
              "' misses its 'bench' (the registry name that owns the sweep)";
      return std::nullopt;
    }
    const BenchInfo* bench = Registry::Instance().Find(scenario.bench);
    if (bench == nullptr) {
      error = "unknown bench '" + scenario.bench + "' (see bench_suite --list)";
      return std::nullopt;
    }
    auto specs = declared.find(scenario.bench);
    if (specs == declared.end()) {
      specs = declared.emplace(scenario.bench, CaptureSpecs({*bench}, /*scale=*/1)).first;
    }
    const CapturedSpec* live = nullptr;
    for (const CapturedSpec& captured : specs->second) {
      if (captured.spec.name == scenario.sweep) live = &captured;
    }
    if (live == nullptr) {
      error = "bench '" + scenario.bench + "' has no sweep '" + scenario.sweep + "' (sweeps:";
      for (const CapturedSpec& captured : specs->second) error += " " + captured.spec.name;
      error += ")";
      return std::nullopt;
    }
    CapturedSpec entry{scenario.bench, live->spec, 0};
    if (!quicer::core::ApplyScenario(scenario, entry.spec, &error)) return std::nullopt;
    entry.point_count = quicer::core::EnumerateCount(entry.spec);
    // collect merges per sweep name: two scenarios for the same sweep would
    // race on the same export files.
    for (const CapturedSpec& earlier : entries) {
      if (earlier.spec.name == entry.spec.name) {
        error = "duplicate scenario for sweep '" + entry.spec.name + "'";
        return std::nullopt;
      }
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

int RunExportGrid(int argc, char** argv) {
  std::vector<std::string> names;
  std::string out_path;
  int scale = 1;
  bool check = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      const long parsed = std::strtol(arg.c_str() + std::strlen("--scale="), nullptr, 10);
      scale = parsed >= 1 ? static_cast<int>(parsed) : 1;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(std::strlen("--out="));
    } else if (arg == "--check") {
      check = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown export-grid option '%s'\n", arg.c_str());
      return 2;
    } else {
      names.push_back(arg);
    }
  }
  std::vector<BenchInfo> selected;
  if (names.empty()) {
    selected = Registry::Instance().Match("");
  } else {
    for (const std::string& name : names) {
      const BenchInfo* bench = Registry::Instance().Find(name);
      if (bench == nullptr) {
        std::fprintf(stderr, "export-grid: unknown bench '%s' (see --list)\n", name.c_str());
        return 2;
      }
      selected.push_back(*bench);
    }
  }

  const std::vector<CapturedSpec> captured = CaptureSpecs(selected, scale);
  std::vector<std::pair<std::string, const quicer::core::SweepSpec*>> entries;
  entries.reserve(captured.size());
  for (const CapturedSpec& spec : captured) entries.emplace_back(spec.bench, &spec.spec);
  const std::string json = quicer::core::ScenarioFileJson(entries);

  if (check) {
    // export → parse → apply-to-live → re-export must reproduce the bytes.
    std::string error;
    const std::optional<std::vector<CapturedSpec>> plan = LoadGrid(json, error);
    if (!plan) {
      std::fprintf(stderr, "export-grid --check: exported file does not parse back: %s\n",
                   error.c_str());
      return 1;
    }
    std::vector<std::pair<std::string, const quicer::core::SweepSpec*>> reexport;
    reexport.reserve(plan->size());
    for (const CapturedSpec& entry : *plan) reexport.emplace_back(entry.bench, &entry.spec);
    const std::string second = quicer::core::ScenarioFileJson(reexport);
    if (second != json) {
      std::size_t at = 0;
      while (at < json.size() && at < second.size() && json[at] == second[at]) ++at;
      std::fprintf(stderr,
                   "export-grid --check: re-export differs from the export at byte %zu:\n"
                   "  first:  %.60s\n  second: %.60s\n",
                   at, json.c_str() + (at < 30 ? 0 : at - 30),
                   second.c_str() + (at < 30 ? 0 : at - 30));
      return 1;
    }
    std::printf("export-grid --check: %zu sweeps of %zu benches round-trip byte-identically\n",
                captured.size(), selected.size());
    return 0;
  }

  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
    return 0;
  }
  std::ofstream out(out_path, std::ios::trunc);
  if (!out.is_open()) {
    std::fprintf(stderr, "export-grid: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  out << json;
  std::fprintf(stderr, "export-grid: wrote %zu sweeps of %zu benches to '%s'\n",
               captured.size(), selected.size(), out_path.c_str());
  return 0;
}

int RunGrid(int argc, char** argv) {
  std::string grid_path;
  RunOptions options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--grid=", 0) == 0) {
      grid_path = arg.substr(std::strlen("--grid="));
      continue;
    }
    const RunOption parsed = ParseRunOption(arg, options);
    if (parsed == RunOption::kInvalid) return 2;
    if (parsed == RunOption::kUnknown) {
      std::fprintf(stderr, "unknown run option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (grid_path.empty()) {
    std::fprintf(stderr, "run: pass --grid=FILE (a scenario file; see export-grid)\n");
    return 2;
  }
  const std::optional<std::string> text = SlurpFile(grid_path);
  if (!text) {
    std::fprintf(stderr, "run: cannot read '%s'\n", grid_path.c_str());
    return 2;
  }
  std::string error;
  const std::optional<std::vector<CapturedSpec>> plan = LoadGrid(*text, error);
  if (!plan) {
    std::fprintf(stderr, "run: %s: %s\n", grid_path.c_str(), error.c_str());
    return 2;
  }
  if (!RequireDataDirForSubset(options.context)) return 2;
  const int invalid = ValidatePoints(*plan, options.context.shard.points);
  if (invalid != 0) return invalid;

  std::vector<RunJob> jobs;
  jobs.reserve(plan->size());
  for (const CapturedSpec& entry : *plan) {
    jobs.push_back({entry.spec.name, entry.bench,
                    [&entry] { return std::vector<SweepSpec>{entry.spec}; },
                    nullptr});
  }
  return RunJobs(jobs, options, "sweep", "scenarios from '" + grid_path + "'");
}

int RunSchema() {
  std::fputs(quicer::core::ScenarioSchemaMarkdown().c_str(), stdout);
  return 0;
}

int RunQueueInit(int argc, char** argv) {
  std::string queue_dir;
  std::string grid_path;
  std::vector<std::string> filters;
  int scale = 1;
  bool scale_given = false;
  std::size_t unit_runs = 256;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--queue=", 0) == 0) {
      queue_dir = arg.substr(std::strlen("--queue="));
    } else if (arg.rfind("--filter=", 0) == 0) {
      filters.push_back(arg.substr(std::strlen("--filter=")));
    } else if (arg.rfind("--grid=", 0) == 0) {
      grid_path = arg.substr(std::strlen("--grid="));
    } else if (arg.rfind("--scale=", 0) == 0) {
      const long parsed = std::strtol(arg.c_str() + std::strlen("--scale="), nullptr, 10);
      scale = parsed >= 1 ? static_cast<int>(parsed) : 1;
      scale_given = true;
    } else if (arg.rfind("--unit-runs=", 0) == 0) {
      const long parsed = std::strtol(arg.c_str() + std::strlen("--unit-runs="), nullptr, 10);
      if (parsed < 1) {
        std::fprintf(stderr, "invalid --unit-runs '%s' (expected a positive integer)\n",
                     arg.c_str());
        return 2;
      }
      unit_runs = static_cast<std::size_t>(parsed);
    } else {
      std::fprintf(stderr, "unknown queue-init option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (queue_dir.empty()) {
    std::fprintf(stderr, "queue-init: pass --queue=DIR\n");
    return 2;
  }

  std::vector<quicer::dist::SweepInventory> sweeps;
  std::string grid_text;
  if (!grid_path.empty()) {
    // Data-defined plan: the scenario file is the single source of truth
    // for grids and repetitions; --filter/--scale would contradict it.
    if (!filters.empty() || scale_given) {
      std::fprintf(stderr, "queue-init: --grid excludes --filter and --scale (the scenario"
                   " file defines the grids)\n");
      return 2;
    }
    const std::optional<std::string> text = SlurpFile(grid_path);
    if (!text) {
      std::fprintf(stderr, "queue-init: cannot read '%s'\n", grid_path.c_str());
      return 2;
    }
    grid_text = *text;
    std::string error;
    const std::optional<std::vector<CapturedSpec>> plan = LoadGrid(grid_text, error);
    if (!plan) {
      std::fprintf(stderr, "queue-init: %s: %s\n", grid_path.c_str(), error.c_str());
      return 2;
    }
    sweeps = InventoriesOf(*plan);
  } else {
    const std::vector<BenchInfo> selected = MatchFilters(filters);
    if (selected.empty()) {
      std::fprintf(stderr, "queue-init: no benches match the filters\n");
      return 2;
    }
    sweeps = InventoriesOf(CaptureSpecs(selected, scale));
  }
  std::set<std::string> benches;
  for (const quicer::dist::SweepInventory& sweep : sweeps) benches.insert(sweep.bench);

  const std::vector<quicer::dist::WorkUnit> units =
      quicer::dist::PlanUnits(sweeps, unit_runs);

  quicer::dist::WorkQueue::Manifest manifest;
  manifest.scale = grid_path.empty() ? scale : 1;
  manifest.filters = filters;
  manifest.max_runs_per_unit = unit_runs;
  manifest.unit_count = units.size();
  manifest.sweeps = sweeps;
  if (!grid_path.empty()) {
    // The scenario file rides inside the queue, so every worker — on any
    // host — runs exactly the grid this plan hashed. It must land before
    // the manifest (whose presence marks the queue ready) — but never on
    // top of an existing queue's grid: WorkQueue::Init would reject the
    // directory only after the copy had already clobbered the evidence of
    // what a live (or interrupted) queue was running.
    const std::filesystem::path queue_root(queue_dir);
    if (std::filesystem::exists(queue_root / "manifest.json") ||
        std::filesystem::exists(queue_root / "grid.json")) {
      std::fprintf(stderr,
                   "queue-init: '%s' already holds a queue (or the wreck of one); remove "
                   "the directory and re-initialise\n",
                   queue_dir.c_str());
      return 1;
    }
    manifest.grid_file = "grid.json";
    std::error_code ec;
    std::filesystem::create_directories(queue_dir, ec);
    if (ec) {
      std::fprintf(stderr, "queue-init: cannot create '%s': %s\n", queue_dir.c_str(),
                   ec.message().c_str());
      return 1;
    }
    std::ofstream grid_copy(std::filesystem::path(queue_dir) / "grid.json", std::ios::trunc);
    if (!grid_copy.is_open() || !(grid_copy << grid_text)) {
      std::fprintf(stderr, "queue-init: cannot copy the grid into '%s'\n", queue_dir.c_str());
      return 1;
    }
  }
  std::string error;
  if (!quicer::dist::WorkQueue::Init(queue_dir, manifest, units, &error)) {
    std::fprintf(stderr, "queue-init: %s\n", error.c_str());
    return 1;
  }

  std::size_t total_runs = 0;
  std::size_t windowed = 0;
  for (const quicer::dist::WorkUnit& unit : units) {
    total_runs += unit.runs;
    if (unit.windowed()) ++windowed;
  }
  std::printf("queue '%s': %zu benches, %zu sweeps, %zu units (%zu repetition-window"
              " units), %zu scheduled runs at scale %d%s\n",
              queue_dir.c_str(), benches.size(), sweeps.size(), units.size(), windowed,
              total_runs, manifest.scale,
              grid_path.empty() ? "" : (" from grid '" + grid_path + "'").c_str());
  std::printf("next: run `bench_suite worker --queue=%s` on any host sharing the"
              " directory, then `bench_suite collect --queue=%s --out-dir=OUT`\n",
              queue_dir.c_str(), queue_dir.c_str());
  return 0;
}

int RunWorkerCommand(int argc, char** argv) {
  std::string queue_dir;
  quicer::dist::WorkerOptions options;
  bool progress = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--queue=", 0) == 0) {
      queue_dir = arg.substr(std::strlen("--queue="));
    } else if (arg.rfind("--threads=", 0) == 0) {
      setenv("QUICER_THREADS", arg.c_str() + std::strlen("--threads="), 1);
    } else if (arg.rfind("--worker-id=", 0) == 0) {
      options.worker_id = arg.substr(std::strlen("--worker-id="));
    } else if (arg.rfind("--lease-seconds=", 0) == 0) {
      char* end = nullptr;
      options.lease_timeout_seconds =
          std::strtod(arg.c_str() + std::strlen("--lease-seconds="), &end);
      if (*end != '\0' || !(options.lease_timeout_seconds > 0.0)) {
        // A zero/garbage timeout would make every peer's lease instantly
        // reclaimable and the pool thrash re-running each other's units.
        std::fprintf(stderr, "invalid --lease-seconds '%s' (expected a positive number)\n",
                     arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--poll-seconds=", 0) == 0) {
      char* end = nullptr;
      options.poll_seconds = std::strtod(arg.c_str() + std::strlen("--poll-seconds="), &end);
      if (*end != '\0' || !(options.poll_seconds > 0.0)) {
        std::fprintf(stderr, "invalid --poll-seconds '%s' (expected a positive number)\n",
                     arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--max-units=", 0) == 0) {
      char* end = nullptr;
      const long parsed = std::strtol(arg.c_str() + std::strlen("--max-units="), &end, 10);
      if (*end != '\0' || parsed < 0) {
        std::fprintf(stderr, "invalid --max-units '%s' (expected a non-negative integer)\n",
                     arg.c_str());
        return 2;
      }
      options.max_units = static_cast<std::size_t>(parsed);
    } else if (arg.rfind("--retries=", 0) == 0) {
      char* end = nullptr;
      const long parsed = std::strtol(arg.c_str() + std::strlen("--retries="), &end, 10);
      if (*end != '\0' || parsed < 0) {
        std::fprintf(stderr, "invalid --retries '%s' (expected a non-negative integer)\n",
                     arg.c_str());
        return 2;
      }
      options.retry_budget = static_cast<std::size_t>(parsed);
    } else if (arg == "--no-wait") {
      options.wait_for_stragglers = false;
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg == "--telemetry") {
      // Published partials then carry per-sweep telemetry blocks, which
      // collect --telemetry=FILE folds into the fleet-wide report.
      quicer::obs::EnableProcess();
    } else {
      std::fprintf(stderr, "unknown worker option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (queue_dir.empty()) {
    std::fprintf(stderr, "worker: pass --queue=DIR\n");
    return 2;
  }
  std::string error;
  std::optional<quicer::dist::WorkQueue> queue =
      quicer::dist::WorkQueue::Open(queue_dir, &error);
  if (!queue) {
    std::fprintf(stderr, "worker: %s\n", error.c_str());
    return 1;
  }
  const std::string worker_id = quicer::dist::WorkQueue::SanitizeWorkerId(
      options.worker_id.empty() ? quicer::dist::DefaultWorkerId() : options.worker_id);
  options.worker_id = worker_id;

  // A grid-planned queue carries its scenario file: every unit runs its
  // scenario applied onto the captured live spec, the spec the plan hashed
  // — validated up front, before any unit is claimed.
  std::optional<std::vector<CapturedSpec>> grid;
  if (!queue->manifest().grid_file.empty()) {
    const std::string grid_path =
        (std::filesystem::path(queue_dir) / queue->manifest().grid_file).string();
    const std::optional<std::string> text = SlurpFile(grid_path);
    if (!text) {
      std::fprintf(stderr, "worker: cannot read the queue's grid '%s'\n", grid_path.c_str());
      return 1;
    }
    grid = LoadGrid(*text, error);
    if (!grid) {
      std::fprintf(stderr, "worker: %s: %s\n", grid_path.c_str(), error.c_str());
      return 1;
    }
  }

  // Without a grid, a unit runs its bench's captured spec at the manifest's
  // scale (the spec queue-init hashed); each bench is captured once.
  std::map<std::string, std::vector<CapturedSpec>> captured;
  auto resolve = [&](const quicer::dist::WorkUnit& unit) -> const quicer::core::SweepSpec* {
    if (grid) {
      for (const CapturedSpec& entry : *grid) {
        if (entry.bench == unit.bench && entry.spec.name == unit.sweep) return &entry.spec;
      }
      return nullptr;
    }
    auto specs = captured.find(unit.bench);
    if (specs == captured.end()) {
      const BenchInfo* bench = Registry::Instance().Find(unit.bench);
      if (bench == nullptr) return nullptr;
      specs = captured.emplace(unit.bench, CaptureSpecs({*bench}, queue->manifest().scale))
                  .first;
    }
    for (const CapturedSpec& spec : specs->second) {
      if (spec.spec.name == unit.sweep) return &spec.spec;
    }
    return nullptr;
  };

  // Executes one unit: its points / repetition window select the grid
  // subset and the partial file lands in the claim's private stage
  // directory (published atomically by the worker loop). The per-point
  // observer refreshes the lease heartbeat at most once a second, so a long
  // unit never looks stale while it makes progress.
  quicer::dist::UnitRunner runner = [&](const quicer::dist::WorkUnit& unit,
                                        const std::string& stage_dir) {
    const quicer::core::SweepSpec* spec = resolve(unit);
    if (spec == nullptr) {
      std::fprintf(stderr, "[%s] unit %s targets sweep '%s' of bench '%s', which %s"
                   " does not define\n", worker_id.c_str(), unit.id.c_str(),
                   unit.sweep.c_str(), unit.bench.c_str(),
                   grid ? "the queue's grid" : "this build");
      return 1;
    }
    setenv("QUICER_DATA_DIR", stage_dir.c_str(), 1);
    BenchContext context;
    context.progress = progress;
    context.shard.points = unit.points;
    context.shard.rep_begin = unit.rep_begin;
    context.shard.rep_end = unit.rep_end;
    auto last_beat = std::make_shared<std::chrono::steady_clock::time_point>(
        std::chrono::steady_clock::now());
    context.observer = [&queue, worker_id, last_beat](const quicer::core::SweepProgress&) {
      const auto now = std::chrono::steady_clock::now();
      if (now - *last_beat < std::chrono::seconds(1)) return;
      *last_beat = now;
      queue->Heartbeat(worker_id);
    };
    RunBench({*spec}, nullptr, context);
    return 0;
  };

  const quicer::dist::WorkerStats stats = RunWorker(*queue, options, runner, stderr);
  return stats.units_failed == 0 ? 0 : 1;
}

int RunQueueStatus(int argc, char** argv) {
  std::string queue_dir;
  bool json = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--queue=", 0) == 0) {
      queue_dir = arg.substr(std::strlen("--queue="));
    } else if (arg == "--json") {
      json = true;
    } else {
      std::fprintf(stderr, "unknown queue-status option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (queue_dir.empty()) {
    std::fprintf(stderr, "queue-status: pass --queue=DIR\n");
    return 2;
  }
  std::string error;
  const std::optional<quicer::dist::WorkQueue> queue =
      quicer::dist::WorkQueue::Open(queue_dir, &error);
  if (!queue) {
    std::fprintf(stderr, "queue-status: %s\n", error.c_str());
    return 1;
  }
  if (json) {
    std::fputs(quicer::dist::QueueStatusJson(*queue).c_str(), stdout);
    return 0;
  }
  const quicer::dist::WorkQueue::Status status = queue->GetStatus();
  std::printf("queue '%s': %zu units planned (%zu sweeps, scale %d%s)\n", queue_dir.c_str(),
              queue->manifest().unit_count, queue->manifest().sweeps.size(),
              queue->manifest().scale,
              queue->manifest().grid_file.empty()
                  ? ""
                  : (", grid " + queue->manifest().grid_file).c_str());
  std::printf("  todo %zu | active %zu | done %zu | failed %zu | results %zu\n",
              status.todo, status.active, status.done, status.failed, status.results);

  const std::vector<quicer::dist::WorkQueue::HeartbeatAge> workers = queue->HeartbeatAges();
  if (workers.empty()) {
    std::printf("  no worker heartbeats yet\n");
  } else {
    std::printf("  workers:\n");
    for (const quicer::dist::WorkQueue::HeartbeatAge& worker : workers) {
      std::printf("    %-24s last beat %7.1fs ago, %zu active unit%s\n",
                  worker.worker.c_str(), worker.age_seconds, worker.active_units,
                  worker.active_units == 1 ? "" : "s");
    }
  }
  if (status.failed > 0) {
    std::printf("  failed units:\n");
    for (const quicer::dist::WorkUnit& unit : queue->Units()) {
      const std::string state = queue->UnitState(unit.id);
      if (state.rfind("failed", 0) == 0) {
        std::printf("    %s [%s] bench %s sweep %s, attempt %zu\n", unit.id.c_str(),
                    state.c_str(), unit.bench.c_str(), unit.sweep.c_str(), unit.attempt);
      }
    }
  }
  return 0;
}

int RunCollect(int argc, char** argv) {
  std::string queue_dir;
  std::string out_dir = ".";
  std::string telemetry_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--queue=", 0) == 0) {
      queue_dir = arg.substr(std::strlen("--queue="));
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      out_dir = arg.substr(std::strlen("--out-dir="));
    } else if (arg.rfind("--telemetry=", 0) == 0) {
      telemetry_path = arg.substr(std::strlen("--telemetry="));
    } else {
      std::fprintf(stderr, "unknown collect option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (queue_dir.empty()) {
    std::fprintf(stderr, "collect: pass --queue=DIR\n");
    return 2;
  }
  std::string error;
  const std::optional<quicer::dist::WorkQueue> queue =
      quicer::dist::WorkQueue::Open(queue_dir, &error);
  if (!queue) {
    std::fprintf(stderr, "collect: %s\n", error.c_str());
    return 1;
  }
  quicer::dist::CollectReport report;
  const bool ok = quicer::dist::Collect(*queue, out_dir, &report, stderr, telemetry_path);
  std::printf("collect '%s': %zu/%zu units with results — %s\n", queue_dir.c_str(),
              report.units_with_results, report.units_total,
              ok ? ("exports written to '" + out_dir + "'").c_str() : "INCOMPLETE");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "merge") == 0) return RunMerge(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "export-grid") == 0) return RunExportGrid(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "run") == 0) return RunGrid(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "schema") == 0) return RunSchema();
  if (argc > 1 && std::strcmp(argv[1], "queue-init") == 0) return RunQueueInit(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "worker") == 0) return RunWorkerCommand(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "queue-status") == 0) return RunQueueStatus(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "collect") == 0) return RunCollect(argc, argv);

  bool list = false;
  std::string filter;
  RunOptions options;
  BenchContext& context = options.context;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list = true;
    } else if (arg.rfind("--filter=", 0) == 0) {
      filter = arg.substr(std::strlen("--filter="));
    } else if (arg.rfind("--scale=", 0) == 0) {
      const long parsed = std::strtol(arg.c_str() + std::strlen("--scale="), nullptr, 10);
      context.scale = parsed >= 1 ? static_cast<int>(parsed) : 1;
    } else {
      const RunOption parsed = ParseRunOption(arg, options);
      if (parsed == RunOption::kInvalid) return 2;
      if (parsed == RunOption::kUnknown) return Usage(argv[0]);
    }
  }
  if (!RequireDataDirForSubset(context)) return 2;

  const std::vector<BenchInfo> selected = Registry::Instance().Match(filter);
  if (list) {
    for (const BenchInfo& bench : selected) {
      std::printf("%-24s %s\n", bench.name.c_str(), bench.description.c_str());
    }
    return 0;
  }
  if (selected.empty()) {
    std::fprintf(stderr, "no benches match filter '%s'\n", filter.c_str());
    return 2;
  }
  if (!context.shard.points.empty()) {
    const int invalid =
        ValidatePoints(CaptureSpecs(selected, context.scale), context.shard.points);
    if (invalid != 0) return invalid;
  }

  std::vector<RunJob> jobs;
  jobs.reserve(selected.size());
  for (const BenchInfo& bench : selected) {
    jobs.push_back({bench.name, bench.name,
                    [&bench, scale = context.scale] { return bench.specs(scale); },
                    bench.report});
  }
  return RunJobs(jobs, options, "bench", "benches");
}
