// Shared helpers for the per-figure bench bodies and the bench_suite driver.
#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/report.h"
#include "core/sweep.h"
#include "registry.h"
#include "stats/stats.h"

namespace quicer::bench {

/// One sweep's full live spec (closures included), captured from a bench's
/// enumerate pass — the input of the scenario codec's export and label
/// resolution.
struct CapturedSpec {
  std::string bench;
  core::SweepSpec spec;
  std::size_t point_count = 0;
};

/// Runs the given benches in enumerate-only mode — no experiments, no
/// exports — capturing every sweep's fully tuned spec and grid size. Bench
/// bodies still print their human-readable headings, so stdout is parked on
/// /dev/null for the duration. Shared by bench_suite (export-grid, --grid,
/// queue-init, queue workers, --points validation) and the grid round-trip
/// test, so all of them see identical capture semantics: a captured spec is
/// exactly what the compiled-in run executes.
inline std::vector<CapturedSpec> CaptureSpecs(const std::vector<BenchInfo>& benches,
                                              int scale) {
  std::vector<CapturedSpec> specs;
  BenchContext context;
  context.scale = scale;
  const std::string* current_bench = nullptr;
  context.enumerate = [&](const core::SweepSpec& spec, const core::SweepResult& result) {
    CapturedSpec captured;
    captured.bench = *current_bench;
    captured.spec = spec;
    captured.point_count = result.points.size();
    // Strip the capture-pass execution state: the copy represents the
    // sweep's data and closures, not this enumerate run.
    captured.spec.enumerate_sink = nullptr;
    captured.spec.observer = nullptr;
    captured.spec.shard = core::SweepShard{};
    captured.spec.time_budget_seconds = 0.0;
    specs.push_back(std::move(captured));
  };

  std::fflush(stdout);
  const int saved_stdout = dup(STDOUT_FILENO);
  const int null_fd = open("/dev/null", O_WRONLY);
  if (null_fd >= 0) dup2(null_fd, STDOUT_FILENO);
  for (const BenchInfo& bench : benches) {
    current_bench = &bench.name;
    bench.run(context);
  }
  std::fflush(stdout);
  if (saved_stdout >= 0) {
    dup2(saved_stdout, STDOUT_FILENO);
    close(saved_stdout);
  }
  if (null_fd >= 0) close(null_fd);
  return specs;
}

/// Repetitions per (client, mode) point. The paper uses 100; 25 keeps every
/// bench comfortably fast while the medians are already stable
/// (the simulator's only noise sources are signing jitter and quirk draws).
/// `bench_suite --scale` multiplies this via Tune().
inline constexpr int kRepetitions = 25;

/// True when a scaled run should also widen its RTT/Δt axes (any --scale
/// above the CI-friendly default of 1).
inline bool DenseAxes(const BenchContext& ctx) { return ctx.dense_axes(); }

/// Progress observer printing "points done / total, runs/sec" to stderr
/// (stdout carries the figure tables).
inline core::SweepObserver StderrProgress() {
  return [](const core::SweepProgress& p) {
    std::fprintf(stderr, "[%.*s] %zu/%zu points, %zu runs, %.0f runs/s%s\n",
                 static_cast<int>(p.sweep.size()), p.sweep.data(), p.points_completed,
                 p.points_total, p.runs_completed, p.runs_per_second,
                 p.points_skipped > 0 ? " (budget: some points skipped)" : "");
  };
}

/// Applies the context options every sweep honors, without touching the
/// repetition count: --progress attaches the stderr observer, --shard /
/// --points select the grid subset, and --budget-seconds hands the sweep
/// whatever remains of the suite budget. For runner-based sweeps whose
/// repetition index is semantic (population rank, study hour) this is the
/// whole tuning — scale there only via axes.
inline core::SweepSpec& TuneObserver(core::SweepSpec& spec, const BenchContext& ctx) {
  if (!spec.observer) {
    if (ctx.observer && ctx.progress) {
      spec.observer = [extra = ctx.observer,
                       stderr_progress = StderrProgress()](const core::SweepProgress& p) {
        extra(p);
        stderr_progress(p);
      };
    } else if (ctx.observer) {
      spec.observer = ctx.observer;
    } else if (ctx.progress) {
      spec.observer = StderrProgress();
    }
  }
  spec.shard = ctx.shard;
  spec.enumerate_sink = ctx.enumerate;
  spec.qlog_dir = ctx.qlog_dir;
  if (ctx.budget_seconds > 0.0 && spec.time_budget_seconds == 0.0) {
    spec.time_budget_seconds = ctx.RemainingBudgetSeconds();
  }
  return spec;
}

/// Applies the suite-wide options to an *experiment-driven* spec: --scale
/// additionally multiplies the repetitions.
inline core::SweepSpec& Tune(core::SweepSpec& spec, const BenchContext& ctx) {
  spec.repetitions *= ctx.scale;
  return TuneObserver(spec, ctx);
}

/// Sharded (and budget-clipped) runs export machine-readable data but skip
/// the bench's human-readable analysis: the tables would be computed from
/// incomplete series (and trace-indexing rows would read out of bounds).
/// Call after RunSweep; when it returns true the partial has been exported
/// and the bench should return 0 without further processing of `result`.
inline bool PartialExported(const core::SweepResult& result) {
  // Enumerate-only passes (spec capture) produce no data and must not write
  // or warn; the sink already saw everything.
  if (result.enumerate_only) return true;
  if (!result.partial()) return false;
  const bool wrote = core::MaybeWriteSweepData(result);
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
  std::size_t executed = 0;
  for (const core::PointSummary& summary : result.points) {
    if (summary.executed) ++executed;
  }
  std::printf("[%s] partial run: %zu/%zu points executed — analysis skipped; combine the\n"
              "partial exports with `bench_suite merge`.\n",
              result.name.c_str(), executed, result.points.size());
  return true;
}

/// Multi-sweep variant of PartialExported: when ANY of a bench's sweeps is
/// partial, every result is exported (completed sweeps keep their final
/// exports, partial ones their partial files) and the joint analysis — which
/// needs all of them complete — is skipped.
inline bool AnyPartialExported(std::initializer_list<const core::SweepResult*> results) {
  bool any_partial = false;
  for (const core::SweepResult* result : results) {
    if (result->enumerate_only) return true;
    any_partial = any_partial || result->partial();
  }
  if (!any_partial) return false;
  for (const core::SweepResult* result : results) {
    if (!core::MaybeWriteSweepData(*result)) {
      std::fprintf(stderr,
                   "[%s] WARNING: partial result NOT exported (set QUICER_DATA_DIR / "
                   "--data-dir); the executed points are lost\n",
                   result->name.c_str());
    }
  }
  std::printf("(partial run — analysis skipped; combine the partial exports with "
              "`bench_suite merge`.)\n");
  return true;
}

/// WFC/IACK medians of one printed row pair, in ms (negative when all runs
/// aborted).
struct RowResult {
  double median_wfc = -1.0;
  double median_iack = -1.0;
};

/// Prints the Fig 5/6/7-style WFC/IACK row pair from two sweep point
/// summaries (either may be null / all-aborted). Same format as
/// PrintClientRow, fed by the sweep engine instead of ad-hoc loops.
inline RowResult PrintSweepRowPair(const core::PointSummary* wfc,
                                   const core::PointSummary* iack,
                                   const std::string& label, double axis_lo,
                                   double axis_hi) {
  RowResult result;
  if (wfc != nullptr) result.median_wfc = wfc->MedianOrNegative();
  if (iack != nullptr) result.median_iack = iack->MedianOrNegative();

  auto print_one = [&](const char* mode, const core::PointSummary* summary, double median) {
    if (summary == nullptr || summary->all_aborted()) {
      std::printf("%10s %-5s  %s\n", label.c_str(), mode, "(all runs aborted)");
      return;
    }
    std::printf("%10s %-5s  [%s]  median %8.1f ms  (n=%zu)\n", label.c_str(), mode,
                core::RenderAccumulatorScatter(summary->values(), axis_lo, axis_hi).c_str(),
                median, summary->values().count());
  };
  print_one("WFC", wfc, result.median_wfc);
  print_one("IACK", iack, result.median_iack);
  return result;
}

/// Looks up the (client, http, behavior) pair of a sweep and prints it.
inline RowResult PrintSweepClientRow(const core::SweepResult& result,
                                     clients::ClientImpl impl, http::Version version,
                                     double axis_lo, double axis_hi) {
  auto find = [&](quic::ServerBehavior behavior) {
    return result.Find([&](const core::SweepPoint& p) {
      return p.config.client == impl && p.config.http == version &&
             p.config.behavior == behavior;
    });
  };
  return PrintSweepRowPair(find(quic::ServerBehavior::kWaitForCertificate),
                           find(quic::ServerBehavior::kInstantAck),
                           std::string(clients::Name(impl)), axis_lo, axis_hi);
}

inline void PrintAxis(double lo, double hi) {
  std::printf("%18sTTFB axis: %.0f ms %s %.0f ms\n", "", lo, std::string(44, '-').c_str(), hi);
}

}  // namespace quicer::bench
