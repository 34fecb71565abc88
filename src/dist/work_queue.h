// Coordinator-free, file-based work queue over a shared directory.
//
// Any pool of hosts that can see one directory — local disk, NFS, or a
// directory rsync'd between runs — can execute a sweep suite together
// without a coordinator process. The queue is a set of subdirectories whose
// entries move between states by POSIX rename(2), which is atomic on one
// filesystem, so exactly one worker wins any claim:
//
//   manifest.json            queue-wide facts: scale, filters, the sweep
//                            inventories (grid sizes, repetitions) and the
//                            unit count — written last during Init, so a
//                            queue without a manifest is still initialising
//   todo/<unit>.json         unclaimed units
//   active/<unit>@<w>.json   claimed by worker <w> (rename from todo/)
//   done/<unit>.json         completed units (rename from active/)
//   failed/<unit>@<w>.json   units whose runner returned non-zero
//   heartbeat/<w>            touched by worker <w> while it makes progress;
//                            a stale heartbeat lets any worker reclaim the
//                            holder's active units back to todo/
//   results/<unit>/          the unit's partial-result files, published by
//                            renaming the worker's private tmp directory —
//                            a unit either has its complete results or none
//   tmp/<unit>@<w>/          in-progress result staging
//
// Crash recovery: a killed worker stops heartbeating; after the lease
// timeout any other worker renames its active units back to todo/ and
// re-executes them. If the "crashed" worker was merely slow and later
// publishes, the rename into results/<unit> fails for the second publisher
// and its (deterministically identical) copy is discarded — every unit's
// results appear exactly once.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "dist/work_unit.h"

namespace quicer::dist {

class WorkQueue {
 public:
  /// Queue-wide facts recorded at Init and read back by workers (so every
  /// process runs the benches with the same --scale and the collect phase
  /// can verify coverage against the planned grids).
  struct Manifest {
    int scale = 1;
    std::vector<std::string> filters;  // bench name filters of queue-init
    std::size_t max_runs_per_unit = 0;
    std::size_t unit_count = 0;
    std::vector<SweepInventory> sweeps;
    /// Name of the scenario file (relative to the queue root) this queue
    /// was planned from; empty for compiled-in grids. Workers parse it and
    /// run every unit's scenario applied onto its captured spec, so every
    /// host runs the same data-defined grid.
    std::string grid_file;
  };

  /// A successfully claimed unit, held by `worker`.
  struct Claim {
    WorkUnit unit;
    std::string worker;
  };

  struct Status {
    std::size_t todo = 0;
    std::size_t active = 0;
    std::size_t done = 0;
    std::size_t failed = 0;
    std::size_t results = 0;
  };

  /// Creates the queue layout under `root` (which must not already contain
  /// a queue), writes every unit into todo/ and the manifest last. Fails on
  /// duplicate sweep names across benches — the collect phase merges by
  /// sweep name, so names must be unique queue-wide.
  static bool Init(const std::string& root, const Manifest& manifest,
                   const std::vector<WorkUnit>& units, std::string* error = nullptr);

  /// Opens an initialised queue (fails when the manifest is missing or
  /// malformed).
  static std::optional<WorkQueue> Open(const std::string& root,
                                       std::string* error = nullptr);

  const std::string& root() const { return root_; }
  const Manifest& manifest() const { return manifest_; }

  /// Claims one todo unit for `worker_id` by renaming it into active/.
  /// Returns nullopt when todo/ is empty (or every candidate was claimed by
  /// someone else first).
  std::optional<Claim> TryClaim(const std::string& worker_id) const;

  /// Cumulative progress a worker reports alongside its heartbeat. The
  /// heartbeat file's mtime stays the liveness signal (HeartbeatAges and
  /// ReclaimStale never read the content), so progress-carrying and legacy
  /// plain-text heartbeats age identically.
  struct WorkerProgress {
    std::size_t units_done = 0;        // units this worker has published
    double wall_seconds_total = 0.0;   // summed measured unit wall time
    double runs_per_second = 0.0;      // throughput over the measured units
  };

  /// Refreshes the worker's heartbeat file. With `progress`, the file
  /// carries a small JSON document that queue-status surfaces as per-worker
  /// throughput; without it the legacy plain-text content is written.
  bool Heartbeat(const std::string& worker_id,
                 const WorkerProgress* progress = nullptr) const;

  /// The claim's private result-staging directory (created empty).
  std::string StageDir(const Claim& claim) const;

  /// Measured cost of one executed unit, stamped into its done/ marker.
  struct UnitTiming {
    double wall_seconds = 0.0;
    double runs_per_second = 0.0;
  };

  /// Publishes the staged results of a claim: rename(tmp -> results/<unit>)
  /// and move the lease to done/. Returns true when the unit's results are
  /// in place afterwards — also when another worker (a reclaim race)
  /// published the identical results first and ours were discarded. With
  /// `timing`, the done/ marker is rewritten to carry the measured
  /// wall_seconds / runs_per_second / worker fields (the adaptive-planning
  /// and queue-status inputs) instead of the plain lease rename.
  bool Publish(const Claim& claim, const UnitTiming* timing = nullptr) const;

  /// Moves a claim whose runner failed into failed/ (kept for inspection).
  bool Fail(const Claim& claim) const;

  /// Re-queues a claim whose runner failed: the unit returns to todo/ with
  /// its attempt count incremented (persisted in the unit file, so the
  /// budget holds across workers and hosts). Returns false when the lease
  /// is gone (reclaimed by a peer) — nothing to retry then.
  bool Retry(const Claim& claim) const;

  /// One worker's heartbeat freshness, for queue-status.
  struct HeartbeatAge {
    std::string worker;
    double age_seconds = 0.0;
    std::size_t active_units = 0;  // leases currently held in active/
  };

  /// Every worker with a heartbeat file, sorted by name, with the age of
  /// its last beat (against this process's clock — same filesystem) and its
  /// live lease count.
  std::vector<HeartbeatAge> HeartbeatAges() const;

  /// Renames every active unit whose worker's heartbeat (or, if absent, the
  /// lease file itself) is older than `timeout_seconds` back into todo/.
  /// Returns the number of reclaimed units. When `self_worker` is given its
  /// heartbeat is touched first and its resulting mtime is "now", so every
  /// timestamp in the comparison was stamped by the shared filesystem —
  /// cross-host clock skew (NFS server vs worker clocks) cancels out.
  std::size_t ReclaimStale(double timeout_seconds, const std::string& self_worker = "",
                           std::FILE* log = nullptr) const;

  Status GetStatus() const;

  /// Every unit known to the queue (todo, active, done and failed),
  /// deduplicated by id and sorted by id.
  std::vector<WorkUnit> Units(std::string* error = nullptr) const;

  bool HasResult(const std::string& unit_id) const;
  std::string ResultDir(const std::string& unit_id) const;

  /// "todo" / "active (<worker>)" / "done" / "failed (<worker>)" /
  /// "lost" — where a unit's lease currently lives, for diagnostics.
  std::string UnitState(const std::string& unit_id) const;

  /// Worker ids become file-name components: everything outside
  /// [A-Za-z0-9._-] is replaced by '-', '@' included (it separates unit
  /// from worker in lease names).
  static std::string SanitizeWorkerId(const std::string& raw);

 private:
  explicit WorkQueue(std::string root) : root_(std::move(root)) {}

  std::string root_;
  Manifest manifest_;
};

/// Machine-readable queue status for `queue-status --json`: the state
/// counts, every worker's heartbeat age / lease count / reported progress,
/// and the measured wall time of each done unit that carries one. The
/// document round-trips through core::JsonValue::Parse.
std::string QueueStatusJson(const WorkQueue& queue);

}  // namespace quicer::dist
