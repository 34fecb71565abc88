// Shared helpers for the bench files and the bench_suite driver: spec
// capture, and the printing helpers the benches' reports share.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/report.h"
#include "core/sweep.h"
#include "registry.h"
#include "stats/stats.h"

namespace quicer::bench {

/// One sweep's full live spec (closures included), as its bench declares it
/// — the input of the scenario codec's export and label resolution.
struct CapturedSpec {
  std::string bench;
  core::SweepSpec spec;
  std::size_t point_count = 0;
};

/// Every sweep the given benches declare at `scale`, with its grid size.
/// Nothing runs and nothing is printed. Shared by bench_suite (export-grid,
/// --grid, queue-init, queue workers, --points validation) and the grid
/// round-trip test, so all of them see the specs the compiled-in run
/// executes.
inline std::vector<CapturedSpec> CaptureSpecs(const std::vector<BenchInfo>& benches,
                                              int scale) {
  std::vector<CapturedSpec> captured;
  for (const BenchInfo& bench : benches) {
    for (core::SweepSpec& spec : bench.specs(scale)) {
      const std::size_t point_count = core::EnumerateCount(spec);
      captured.push_back({bench.name, std::move(spec), point_count});
    }
  }
  return captured;
}

/// Repetitions per (client, mode) point. The paper uses 100; 25 keeps every
/// bench comfortably fast while the medians are already stable
/// (the simulator's only noise sources are signing jitter and quirk draws).
/// Experiment-driven specs multiply their repetitions by --scale.
inline constexpr int kRepetitions = 25;

/// True when a scaled run should also widen its RTT/Δt axes (any --scale
/// above the CI-friendly default of 1).
inline bool DenseAxes(int scale) { return scale > 1; }

/// Distinct values of `field` over a result's points, in enumeration order:
/// a report's rows read back from the grid that ran (e.g. the RTT axis,
/// which --scale widens).
template <typename Field>
auto AxisValues(const core::SweepResult& result, Field field) {
  std::vector<std::decay_t<decltype(field(result.points.front().point))>> values;
  for (const core::PointSummary& summary : result.points) {
    auto value = field(summary.point);
    if (std::find(values.begin(), values.end(), value) == values.end()) {
      values.push_back(std::move(value));
    }
  }
  return values;
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
