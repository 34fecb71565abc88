#!/usr/bin/env python3
"""Repository benchmark of the quicer simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record        # rewrite perfbench/reference.json

Run from the repository root. Builds perfbench_driver from the checkout's
sources (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR (default
.bench_build), generates the workload's scenario file from the seed, and
runs the workload process after process for S seconds. Every run first
executes the workload once at the default seed and checks its exports and
deterministic telemetry counters against perfbench/reference.json.

--trace 0 prints the end-to-end metrics (medians over the processes);
--trace 1 alternates untraced and traced processes and prints the per-layer
metrics. The last stdout line is the result object; see perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import analysis  # noqa: E402

# Reference digests and counters are recorded at this seed.
DEFAULT_SEED = 1
# Never fewer processes than this per run, so every median has company.
MIN_PROCESSES = 3
# A run must end within 180 s of its build: every process is killed at
# this many seconds after the build, or after PROCESS_TIMEOUT_S of its own.
RUN_DEADLINE_S = 160.0
PROCESS_TIMEOUT_S = 120.0
deadline = float("inf")  # monotonic; set once the build is done

# engine: the workload's runs are RunExperiment calls (experiment.run_us
# applies). single_check: its exports must equal an in-process run of the
# same grid and seed (the queue against one process).
WORKLOADS = {
    "handshake": {"engine": True, "single_check": False},
    "scan": {"engine": False, "single_check": False},
    "caching": {"engine": False, "single_check": False},
    "queue": {"engine": True, "single_check": True},
}


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark cannot run here (no sources, failed build)."""


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build(root):
    """Configures and builds perfbench_driver; returns its path."""
    for required in ("src/core/sweep.h", "bench/registry.h", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, required)):
            raise BenchError("%s is missing: run from the repository root" % required)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(root, target)
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError("build step failed: " + " ".join(step))
    return build_root, os.path.join(build_dir, "perfbench_driver")


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def time_left():
    return max(1.0, min(PROCESS_TIMEOUT_S, deadline - time.monotonic()))


def run_quiet(command):
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=time_left())
    if done.returncode != 0:
        raise BenchError("'%s' exited %d" % (" ".join(command), done.returncode))
    return done.stdout


def spawn(command):
    """Runs one driver process; returns (exit code, rusage, spawn ns)."""
    spawned_ns = time.monotonic_ns()
    process = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=sys.stderr)
    kill_at = time.monotonic() + time_left()
    try:
        while True:
            pid, status, usage = os.wait4(process.pid, os.WNOHANG)
            if pid != 0:
                process.returncode = os.waitstatus_to_exitcode(status)
                return process.returncode, usage, spawned_ns
            if time.monotonic() > kill_at:
                process.kill()
                _, status, usage = os.wait4(process.pid, 0)
                process.returncode = -9
                return -9, usage, spawned_ns
            time.sleep(0.002)
    except BaseException:
        if process.returncode is None:
            process.kill()
            process.wait()
        raise


class Execution:
    """One driver `run` process and what it left behind."""

    def __init__(self, driver, workload, grid, out_dir, flags):
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        command = [driver, "run", "--workload=" + workload, "--grid=" + grid,
                   "--out-dir=" + out_dir] + flags
        self.code, usage, spawned_ns = spawn(command)
        self.out_dir = out_dir
        self.result = None
        self.digests = {}
        self.trace = None
        if self.code != 0:
            return
        with open(os.path.join(out_dir, "result.json")) as handle:
            self.result = json.load(handle)
        self.digests = analysis.digest_dir(os.path.join(out_dir, "exports"))
        trace_path = os.path.join(out_dir, "trace.json")
        if os.path.isfile(trace_path):
            with open(trace_path) as handle:
                self.trace = json.load(handle)
        r = self.result
        self.wall_s = (r["t_end_ns"] - r["t_first_run_ns"]) / 1e9
        self.setup_s = (r["t_first_run_ns"] - spawned_ns) / 1e9
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mib = r["peak_rss_kib"] / 1024.0
        self.total_runs = sum(s["total_runs"] for s in r["sweeps"])
        self.executed_runs = sum(s["executed_runs"] for s in r["sweeps"])
        self.failed_runs = sum(s["failed_runs"] for s in r["sweeps"])

    def errors(self):
        """Problems visible in this process alone."""
        if self.code != 0:
            return ["driver exited %d" % self.code]
        if self.failed_runs:
            return ["%d runs budget-skipped or unexecuted" % self.failed_runs]
        return []

    def discard(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Noise record
# ---------------------------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def calibrate(driver):
    return json.loads(run_quiet([driver, "calibrate"]))["calibration_ns"] / 1e6


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def make_grid(driver, workload, seed, work):
    path = os.path.join(work, "grid-%s-seed%d.json" % (workload, seed))
    if not os.path.isfile(path):
        run_quiet([driver, "grid", "--workload=" + workload, "--seed=%d" % seed,
                   "--out=" + path])
    return path


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as handle:
        return json.load(handle)


def median_of(executions, field):
    return statistics.median(getattr(e, field) for e in executions)


def run_benchmark(args, root):
    global deadline
    build_root, driver = build(root)
    deadline = time.monotonic() + RUN_DEADLINE_S
    reference = load_reference()
    if reference["default_seed"] != DEFAULT_SEED:
        raise BenchError("reference.json was recorded at another default seed")
    expected = reference["workloads"][args.workload]
    spec = WORKLOADS[args.workload]
    work = os.path.join(build_root, "perfbench-runs", "%s-seed%d-trace%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        noise = {"cpu_model": cpu_model(), "nproc": os.cpu_count(),
                 "calibration_ms_before": calibrate(driver)}
        errors = []

        # Reference execution at the default seed: recorded digests and
        # deterministic counters (traced when the run is traced, so the
        # traced path is held to the untraced record).
        flags = ["--telemetry"] + (["--trace"] if args.trace else [])
        default_grid = make_grid(driver, args.workload, DEFAULT_SEED, work)
        ref = Execution(driver, args.workload, default_grid, os.path.join(work, "reference"),
                        flags)
        errors += ["reference: " + e for e in ref.errors()]
        if ref.code == 0:
            errors += analysis.compare_maps(ref.digests, expected["digests"],
                                            "reference exports")
            errors += analysis.compare_counters(analysis.checked_counters(ref.result),
                                                expected["counters"])
        ref.discard()

        grid = make_grid(driver, args.workload, args.seed, work)
        want_digests = None
        if spec["single_check"]:
            single = Execution(driver, args.workload, grid, os.path.join(work, "single"),
                               ["--single"])
            errors += ["single-process: " + e for e in single.errors()]
            want_digests = single.digests
            single.discard()

        untraced, traced = [], []
        started = time.monotonic()
        index = 0
        while True:
            enough = time.monotonic() - started >= args.seconds
            if args.trace:
                if enough and len(untraced) >= 2 and len(traced) >= 2:
                    break
                with_trace = index % 2 == 1
            else:
                if enough and len(untraced) >= MIN_PROCESSES:
                    break
                with_trace = False
            execution = Execution(driver, args.workload, grid,
                                  os.path.join(work, "p%d" % index),
                                  ["--trace"] if with_trace else [])
            index += 1
            (traced if with_trace else untraced).append(execution)
            execution.discard()
            if execution.code != 0:
                break  # a crashing program will not recover by repetition

        executions = untraced + traced
        for n, execution in enumerate(executions):
            problems = execution.errors()
            if want_digests is None:
                want_digests = execution.digests
            if execution.code == 0:
                problems += analysis.compare_maps(execution.digests, want_digests,
                                                  "exports of process %d" % n)
            errors += ["process %d: %s" % (n, p) for p in problems]
        counted = [analysis.checked_counters(e.result) for e in traced if e.code == 0]
        for counters in counted[1:]:
            errors += analysis.compare_counters(counters, counted[0])

        # A failed check or a crashed process fails every run of the workload.
        planned = next((e.total_runs for e in [ref] + executions if e.code == 0), 1)
        attempted = planned * len(executions)
        correct = not errors
        failed = sum(e.failed_runs for e in executions if e.code == 0) if correct else attempted
        for error in errors[:20]:
            log("CHECK FAILED: " + error)
        noise["calibration_ms_after"] = calibrate(driver)
        noise["processes"] = len(executions)

        ok = [e for e in untraced if e.code == 0]
        kept = [e for e in traced if e.trace is not None]
        if kept:
            with open(os.path.join(build_root, "perfbench-last-trace-%s.json" % args.workload),
                      "w") as handle:
                json.dump(kept[-1].trace, handle)
        if args.trace:
            metrics = traced_metrics(spec, ok, [e for e in traced if e.code == 0])
            units = dict(analysis.PER_LAYER)
        else:
            metrics = end_to_end_metrics(ok)
            units = dict(analysis.END_TO_END)
        noise_line = json.dumps(noise, sort_keys=True)
        log("noise record: " + noise_line)
        with open(os.path.join(build_root, "perfbench-noise.jsonl"), "a") as handle:
            handle.write(json.dumps(dict(noise, workload=args.workload, seed=args.seed,
                                         trace=args.trace), sort_keys=True) + "\n")
        print("noise " + noise_line)
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end_metrics(executions):
    if not executions:
        return {name: 0.0 for name, _ in analysis.END_TO_END}
    return {
        "wall_s": median_of(executions, "wall_s"),
        "runs_per_s": statistics.median(e.executed_runs / e.wall_s for e in executions),
        "cpu_s": median_of(executions, "cpu_s"),
        "peak_rss_mib": median_of(executions, "peak_rss_mib"),
        "setup_s": median_of(executions, "setup_s"),
    }


def traced_metrics(spec, untraced, traced):
    if not untraced or not traced:
        return {name: 0.0 for name, _ in analysis.PER_LAYER}
    cpu_s, wall_s = median_of(untraced, "cpu_s"), median_of(untraced, "wall_s")
    per_process = [analysis.layer_metrics(e.result, e.trace, spec["engine"], cpu_s, wall_s)
                   for e in traced]
    metrics = {name: statistics.median(m[name] for m in per_process)
               for name in per_process[0]}
    metrics["trace.overhead_share"] = median_of(traced, "wall_s") / wall_s - 1.0
    layers = analysis.self_time_by_name(analysis.load_spans(traced[-1].trace))
    for name, (total, self_ns, count) in sorted(layers.items()):
        log("layer %-22s total %10.3f ms  self %10.3f ms  calls %d" % (
            name, total / 1e6, self_ns / 1e6, count))
    return {name: metrics[name] for name, _ in analysis.PER_LAYER}


# ---------------------------------------------------------------------------
# Recording the reference
# ---------------------------------------------------------------------------

def record(root):
    """Runs every workload once at the default seed and rewrites
    reference.json. Only for a deliberate change of the program's output or
    of the workloads; the queue's record must equal its in-process run."""
    build_root, driver = build(root)
    work = os.path.join(build_root, "perfbench-record")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workloads = {}
    try:
        for workload, spec in WORKLOADS.items():
            grid = make_grid(driver, workload, DEFAULT_SEED, work)
            ref = Execution(driver, workload, grid, os.path.join(work, workload),
                            ["--telemetry"])
            if ref.errors():
                raise BenchError("%s: %s" % (workload, ref.errors()))
            if spec["single_check"]:
                single = Execution(driver, workload, grid, os.path.join(work, "single"),
                                   ["--single"])
                problems = analysis.compare_maps(ref.digests, single.digests, workload)
                if problems:
                    raise BenchError("; ".join(problems))
            workloads[workload] = {"digests": ref.digests,
                                   "counters": analysis.checked_counters(ref.result)}
            log("recorded %s: %d exports" % (workload, len(ref.digests)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w") as handle:
        json.dump({"default_seed": DEFAULT_SEED, "workloads": workloads}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    root = os.getcwd()
    try:
        if args.record:
            record(root)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0 or args.seconds < 1:
            parser.error("--seed must be >= 0 and --seconds >= 1")
        result = run_benchmark(args, root)
    except (BenchError, OSError, subprocess.SubprocessError, KeyError, ValueError) as error:
        log("cannot run: %s" % error)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
