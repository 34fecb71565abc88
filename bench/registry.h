// Bench registry: figure benches register themselves by name so one driver
// (bench_suite) can list and run any subset of the paper's figures/tables on
// the shared thread pool.
//
// lint:allow-file(ND002): the suite budget clock is wall time by design.
//
// A bench is data plus a printout. It registers two functions:
//
//   std::vector<core::SweepSpec> Specs(int scale);   // its sweeps
//   void Report(const std::vector<core::SweepResult>& results);
//   QUICER_BENCH("fig05", "Figure 5: TTFB under amplification limits", Specs, Report);
//
// `specs` is pure: it declares the bench's sweeps with repetitions already
// multiplied by --scale (and, above scale 1, its denser axes), and does no
// I/O and runs nothing. `report` prints the bench's analysis from complete
// results, one per spec in declaration order. bench_suite owns everything
// in between: it tunes each spec with the suite options (BenchContext) right
// before running it, writes its exports, and calls `report` only when every
// sweep of the bench came back complete. The same specs feed export-grid,
// `run --grid`, queue-init and the workers through CaptureSpecs
// (bench_common.h), so a captured spec is exactly what the compiled-in run
// executes.
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "core/sweep.h"

namespace quicer::bench {

/// Suite-wide options bench_suite applies to every sweep it runs.
struct BenchContext {
  /// Repetition multiplier for experiment-driven sweeps (--scale; the
  /// paper's grids correspond to 4). Scaled runs also widen RTT/Δt axes.
  int scale = 1;
  /// Stream per-sweep progress lines to stderr (--progress).
  bool progress = false;
  /// Suite-wide wall-clock ceiling in seconds, 0 = unlimited
  /// (--budget-seconds). Each sweep receives the budget *remaining* at its
  /// start, so the whole suite lands under one ceiling.
  double budget_seconds = 0.0;
  /// When the suite started, for the budget.
  std::chrono::steady_clock::time_point suite_start = std::chrono::steady_clock::now();
  /// Grid subset this process executes (--shard=i/N, --points=ids and/or
  /// --rep-range=a:b).
  core::SweepShard shard;
  /// Extra per-point observer, chained before the --progress printer. The
  /// work-queue worker refreshes its lease heartbeat here.
  core::SweepObserver observer;
  /// When non-empty, every run of every executed sweep writes its qlog
  /// trace pair under this directory (--qlog-dir; forwarded into
  /// SweepSpec::qlog_dir when the sweep is tuned).
  std::string qlog_dir;

  /// Seconds left of the suite budget (0 = unlimited). Once the budget is
  /// exhausted this stays at a tiny positive value, so subsequent sweeps
  /// budget-skip all of their points instead of running unbounded.
  double RemainingBudgetSeconds() const;
};

/// A bench's sweeps at a --scale (see the file comment).
using SpecsFn = std::function<std::vector<core::SweepSpec>(int scale)>;
/// Prints a bench's analysis from its complete results, in spec order.
using ReportFn = std::function<void(const std::vector<core::SweepResult>& results)>;

struct BenchInfo {
  std::string name;         // machine name, e.g. "fig05"
  std::string description;  // one-line human description
  SpecsFn specs;
  ReportFn report;
};

class Registry {
 public:
  static Registry& Instance();

  void Add(BenchInfo info);

  /// All registered benches, sorted by name.
  std::vector<BenchInfo> Benches() const;

  /// Benches whose name contains `filter` (empty matches all), sorted.
  std::vector<BenchInfo> Match(const std::string& filter) const;

  const BenchInfo* Find(const std::string& name) const;

 private:
  std::vector<BenchInfo> benches_;
};

struct Registrar {
  Registrar(std::string name, std::string description, SpecsFn specs, ReportFn report);
};

#define QUICER_BENCH_CONCAT_(a, b) a##b
#define QUICER_BENCH_CONCAT(a, b) QUICER_BENCH_CONCAT_(a, b)

/// Registers one bench. A file may contain several QUICER_BENCH lines (the
/// ACK-Delay ablation registers its two sections separately); the line
/// number keeps the registrar symbols distinct.
#define QUICER_BENCH(name_str, description_str, specs_fn, report_fn)             \
  static const ::quicer::bench::Registrar QUICER_BENCH_CONCAT(                   \
      quicer_bench_registrar_, __LINE__) {                                       \
    name_str, description_str, specs_fn, report_fn                               \
  }

}  // namespace quicer::bench
