// In-memory span recorder of the benchmark driver's traced runs.
//
// Spans are recorded only around calls into the simulator's public seams
// (scenario codec, RunSweep, SweepSpec::runner and ::observer, the partial
// codec and merge, telemetry snapshots), kept in per-thread buffers and
// written once, at exit, as one JSON document that perfbench/analysis.py
// turns into per-layer metrics.
//
// Runner calls are too many to keep one span each (the scan workload makes
// millions of ~90 ns calls), so each thread folds its consecutive calls
// under one sweep span into a block span that carries the call count and
// the summed call time ("covered"). Calls of one thread never overlap, so a
// block's covered time is exactly the union of its calls, which is all the
// self-time derivation needs. Call durations also go into a log-linear
// histogram (run-time percentiles) and, when the workload names a key, into
// per-key aggregates (the keyed-runner compute/wait split).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/sweep.h"

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds: the clock the benchmark's Python side
/// reads as time.monotonic_ns(), so both sides share one time base.
std::int64_t MonoNs();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint32_t name = 0;    // index into Trace::names()
  std::uint32_t thread = 0;  // recorder-assigned thread ordinal
  std::uint64_t run = 0;     // sweep ordinal (0 outside any sweep)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t count = 1;   // calls folded into this span (blocks only > 1)
  std::int64_t covered_ns = 0;
};

class Trace {
 public:
  Trace() = default;
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Opens a span on the calling thread; returns its id.
  std::uint64_t Begin(const char* name, std::uint64_t parent, std::uint64_t run);
  /// Closes span `id`, the calling thread's innermost open span.
  void End(std::uint64_t id);

  /// Records one runner call of [start, end) under `sweep_span`; folds it
  /// into the calling thread's block for that sweep. `key` is empty unless
  /// the workload attributes calls to keys ("class|key").
  void RecordRun(std::uint64_t sweep_span, std::uint64_t run, std::int64_t start_ns,
                 std::int64_t end_ns, const std::string& key);

  /// Closes every thread's open run block (call after RunSweep returns:
  /// the pool's completion edge orders the helpers' writes before this).
  void FlushBlocks();

  /// The whole trace as JSON: names, spans, run-time histogram, key
  /// aggregates.
  std::string Json();

 private:
  struct KeyStats {
    std::uint64_t calls = 0;
    std::int64_t max_ns = 0;
    std::int64_t sum_ns = 0;
  };
  struct ThreadBuffer {
    std::uint32_t ordinal = 0;
    std::vector<Span> spans;
    std::vector<Span> open;  // Begin'd, not yet End'ed: a stack (RAII nesting)
    Span block = Span{0, 0, 0, 0, 0, 0, 0, 0, 0};  // current run block; count 0 = none
    std::vector<std::uint64_t> histogram;
    std::map<std::string, KeyStats> keys;
  };

  ThreadBuffer& Local();
  /// Moves the thread's open run block into its spans; mutex_ held.
  void SealBlock(ThreadBuffer& buffer);
  std::uint32_t NameIndex(const char* name);

  std::mutex mutex_;  // guards buffers_ registration and names_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::vector<std::string> names_;
  std::uint64_t next_id_ = 1;  // guarded by mutex_
};

/// RAII span; a no-op when `trace` is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name, std::uint64_t parent, std::uint64_t run = 0)
      : trace_(trace), id_(trace != nullptr ? trace->Begin(name, parent, run) : 0) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Trace* trace_;
  std::uint64_t id_;
};

/// The runner a sweep executes: `spec.runner`, or — for the default
/// experiment runner, which RunSweep builds internally — the same calls
/// made through the public API (RunExperiment + each MetricSpec extractor).
quicer::core::SweepRunner EffectiveRunner(const quicer::core::SweepSpec& spec);

/// Wraps `inner` so every call is recorded under `sweep_span`. `key_of`,
/// when set, names the key a call belongs to.
quicer::core::SweepRunner TracedRunner(
    quicer::core::SweepRunner inner, Trace& trace, std::uint64_t sweep_span,
    std::uint64_t run,
    std::function<std::string(const quicer::core::SweepRunContext&)> key_of);

}  // namespace perfbench
