#!/usr/bin/env python3
"""Edited scenario files execute as edited, in one process and through the queue.

Exports the grids of the benches whose bodies run several sweeps (some of
them copies of a tuned sibling), gives every scenario its own repetition
count and seed base, then requires:

  (a) `run --grid` exports every sweep with the edited run count;
  (b) `queue-init --grid` + `worker` + `collect` succeeds and its exports are
      byte-identical to (a)'s.

A second grid gives fig06 a hand-authored loss that drops server datagrams
2 and 3 next to the legacy "first-server-flight-tail" label. (b) must hold,
and under IACK, whose flight tail *is* datagrams 2 and 3, both export alike.

Usage: edited_grid_test.py PATH/TO/bench_suite
"""

import filecmp
import json
import os
import subprocess
import sys
import tempfile

BENCHES = ["fig04b", "table2", "ablation_0rtt_retry", "ablation_server_pto"]
EXPECTED_SWEEPS = 11


def run(cmd, cwd, failures=None):
    """Runs a bench_suite command; a failure ends the test unless `failures`
    collects it (the caller then skips what depended on the command)."""
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          universal_newlines=True)
    if proc.returncode != 0:
        message = "%s exited %d\nstderr:\n%s" % (" ".join(cmd[1:]), proc.returncode,
                                                  proc.stderr[-2000:])
        if failures is None:
            sys.exit("FAIL: " + message)
        failures.append(message)
        return None
    return proc.stdout


def compare_queue_exports(suite, work, grid_path, sweeps, failures):
    """(b): the queue path exports `sweeps` byte-identical to run --grid's."""
    run([suite, "queue-init", "--queue=queue", "--grid=" + grid_path,
         "--unit-runs=40"], work)
    run([suite, "worker", "--queue=queue", "--threads=2", "--worker-id=edited",
         "--no-wait"], work)
    collected = run([suite, "collect", "--queue=queue", "--out-dir=queue-out"], work,
                    failures)
    for sweep in sorted(sweeps) if collected is not None else []:
        for ext in ("csv", "json"):
            name = "%s_sweep.%s" % (sweep, ext)
            single = os.path.join(work, "grid-out", name)
            queued = os.path.join(work, "queue-out", name)
            if not os.path.exists(queued):
                failures.append("%s: collect wrote no %s" % (sweep, name))
            elif os.path.exists(single) and not filecmp.cmp(single, queued, shallow=False):
                failures.append("%s: queue export %s differs from run --grid's"
                                % (sweep, name))


def check_drop_loss(suite, failures):
    """fig06 with a hand-authored "drop" loss runs as data on both paths."""
    with tempfile.TemporaryDirectory(prefix="drop_loss_") as work:
        grid = json.loads(run([suite, "export-grid", "fig06"], work))
        scenario = grid["scenarios"][0]
        scenario["repetitions"] = 3
        scenario["axes"]["losses"] = [{"label": "drop-2-3", "loss": {"down": {"drop": [3, 2]}}},
                                      "first-server-flight-tail"]
        grid_path = os.path.join(work, "drop.json")
        with open(grid_path, "w") as out:
            json.dump(grid, out, indent=2)

        run([suite, "run", "--grid=" + grid_path, "--threads=2", "--data-dir=grid-out"], work)
        with open(os.path.join(work, "grid-out", "fig06_sweep.json")) as handle:
            points = json.load(handle)["points"]
        cells = {(p["client"], p["behavior"], p["loss"]): p["metrics"] for p in points}
        iack = [c for c, b, loss in cells if b == "IACK" and loss == "drop-2-3"]
        if not iack:
            failures.append("fig06 drop grid: no IACK point carries the 'drop-2-3' loss")
        for client in iack:
            if cells[(client, "IACK", "drop-2-3")] != \
                    cells[(client, "IACK", "first-server-flight-tail")]:
                failures.append("fig06 drop grid: %s/IACK drop [2, 3] differs from the "
                                "first-server-flight-tail flight" % client)

        compare_queue_exports(suite, work, grid_path, ["fig06"], failures)


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    suite = os.path.abspath(sys.argv[1])
    failures = []
    with tempfile.TemporaryDirectory(prefix="edited_grid_") as work:
        grid = json.loads(run([suite, "export-grid"] + BENCHES, work))
        scenarios = grid["scenarios"]
        if len(scenarios) != EXPECTED_SWEEPS:
            sys.exit("FAIL: expected %d sweeps in the exported grid, got %d"
                     % (EXPECTED_SWEEPS, len(scenarios)))
        # Siblings get different repetition counts, none equal to a
        # compiled-in count (9, 15, 25), so a sweep that runs a sibling's or
        # its compiled-in data shows up in its run count.
        expected_reps = {}
        for i, scenario in enumerate(scenarios):
            scenario["repetitions"] = 2 + i % 3
            scenario["seed_base"] = str(1000 + 17 * i)
            expected_reps[scenario["sweep"]] = scenario["repetitions"]
        grid_path = os.path.join(work, "edited.json")
        with open(grid_path, "w") as out:
            json.dump(grid, out, indent=2)

        # (a) One process: every sweep's export shows its edited run count.
        run([suite, "run", "--grid=" + grid_path, "--threads=2", "--data-dir=grid-out"], work)
        for sweep, reps in sorted(expected_reps.items()):
            path = os.path.join(work, "grid-out", sweep + "_sweep.json")
            if not os.path.exists(path):
                failures.append("%s: run --grid wrote no export" % sweep)
                continue
            with open(path) as handle:
                doc = json.load(handle)
            points = len(doc["points"])
            want = points * reps
            if doc["total_runs"] != want or doc["executed_runs"] != want:
                failures.append("%s: run --grid ran %d of %d scheduled runs; the edited grid"
                                " asks for %d points x %d repetitions = %d"
                                % (sweep, doc["executed_runs"], doc["total_runs"], points,
                                   reps, want))

        # (b) The work queue executes the same edited grid, byte for byte.
        compare_queue_exports(suite, work, grid_path, expected_reps, failures)

    check_drop_loss(suite, failures)

    if failures:
        sys.exit("FAIL:\n  " + "\n  ".join(failures))
    print("edited grid: %d sweeps ran as edited, and fig06 with a hand-authored drop loss;"
          " queue exports match run --grid byte for byte" % len(expected_reps))


if __name__ == "__main__":
    main()
