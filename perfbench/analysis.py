"""Pure functions of the benchmark: digests, output checks, span self time
and the per-layer metrics of a traced run.

run.py does the process work; everything here is deterministic and covered
by perfbench/test_perfbench.py.
"""

import hashlib
import os
import re
import statistics

METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

# Telemetry counters that describe what the simulation did rather than how
# fast it did it: a pure speed-up must leave them identical. Pool hit and
# event-queue placement counters (quic.pool.*, sim.events_wheel/overflow)
# are implementation details an optimisation may move, so they are
# reported as per-layer metrics but not checked.
CHECKED_COUNTERS = re.compile(
    r"^(sim\.events_run|netem\..*|recovery\.(pto_fired|packets_lost|loss_timer_updates))$")

END_TO_END = [
    ("wall_s", "s"),
    ("runs_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
]

CAPACITY_CLASSES = ["2", "4", "65536"]

PER_LAYER = [
    ("experiment.run_us.p50", "us"),
    ("experiment.run_us.p99", "us"),
    ("sim.events_per_s", "1/s"),
    ("sim.overflow_share", "ratio"),
    ("quic.pool.packet_hit_share", "ratio"),
    ("quic.pool.frame_hit_share", "ratio"),
    ("quic.pool.packet_high_water", "count"),
    ("sim.events_per_run", "count"),
    ("netem.drop_share", "ratio"),
    ("recovery.pto_per_run", "count"),
    ("recovery.lost_per_run", "count"),
    ("recovery.loss_timer_updates_per_run", "count"),
    ("sweep.execute_s", "s"),
    ("sweep.enumerate_ms", "ms"),
    ("sweep.runner_ns_per_run", "ns"),
    ("sweep.self_ns_per_run", "ns"),
    ("sweep.busy_share", "ratio"),
    ("sweep.point_s.p50", "s"),
    ("sweep.point_s.p99", "s"),
    ("keyed.keys", "count"),
    ("keyed.compute_s", "s"),
    ("keyed.wait_s", "s"),
] + [
    ("scan.cluster_s.cap%s.%s" % (cls, stat), "s")
    for cls in CAPACITY_CLASSES for stat in ("p50", "max")
] + [
    ("codec.scenario_parse_ms", "ms"),
    ("codec.partial_write_ms", "ms"),
    ("codec.partial_parse_ms", "ms"),
    ("codec.partial_mib", "MiB"),
    ("sweep.merge_ms", "ms"),
    ("codec.export_ms", "ms"),
    ("dist.unit_s.p50", "s"),
    ("dist.unit_s.p99", "s"),
    ("dist.overhead_share", "ratio"),
    ("trace.overhead_share", "ratio"),
]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def digest_dir(directory):
    """SHA-256 of every regular file directly under `directory`, by name."""
    digests = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            with open(path, "rb") as handle:
                digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def compare_maps(actual, expected, what):
    """Differences between two flat {name: value} maps, one line each."""
    errors = []
    for name in sorted(set(actual) | set(expected)):
        if name not in actual:
            errors.append("%s: %s missing" % (what, name))
        elif name not in expected:
            errors.append("%s: unexpected %s" % (what, name))
        elif actual[name] != expected[name]:
            errors.append("%s: %s is %s, expected %s" % (what, name, actual[name], expected[name]))
    return errors


def checked_counters(result):
    """{sweep: {counter: value}} of the counters a speed-up must not move."""
    return {
        sweep["name"]: {name: value for name, value in sweep["counters"].items()
                        if CHECKED_COUNTERS.match(name)}
        for sweep in result["sweeps"]
    }


def compare_counters(actual, expected):
    errors = []
    for sweep in sorted(set(actual) | set(expected)):
        errors += compare_maps(actual.get(sweep, {}), expected.get(sweep, {}),
                               "counters of " + sweep)
    return errors


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values, share):
    """Nearest-rank percentile of a non-empty list (share in [0, 1])."""
    ordered = sorted(values)
    rank = max(1, int(-(-share * len(ordered) // 1)))
    return ordered[min(rank, len(ordered)) - 1]


def histogram_bucket_bounds(index):
    """[low, high) in ns of the driver's log-linear run-time bucket."""
    if index < 16:
        return index, index + 1
    exponent, mantissa = index // 16 + 3, index % 16
    width = 1 << (exponent - 4)
    low = (16 + mantissa) * width
    return low, low + width


def histogram_percentile(buckets, share):
    """Percentile (bucket midpoint, ns) of [[bucket, count], ...]."""
    total = sum(count for _, count in buckets)
    if total == 0:
        return 0.0
    target = max(1, int(-(-share * total // 1)))
    seen = 0
    for index, count in sorted(buckets):
        seen += count
        if seen >= target:
            low, high = histogram_bucket_bounds(index)
            return (low + high) / 2.0
    low, high = histogram_bucket_bounds(sorted(buckets)[-1][0])
    return (low + high) / 2.0


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def load_spans(trace):
    """The trace document's spans as dicts with a resolved `name`."""
    fields = trace["span_fields"]
    names = trace["names"]
    spans = []
    for row in trace["spans"]:
        span = dict(zip(fields, row))
        span["name"] = names[span["name"]]
        spans.append(span)
    return spans


def self_times(spans):
    """{span id: self ns}. A span's time is its covered time on its own
    thread plus its duration on every other lane (thread) that ran one of
    its children; its self time is that minus the time its direct children
    cover. Children of one parent on one thread never overlap (a thread runs
    one call at a time; nested calls are grandchildren), so the time covered
    on a thread is the sum of those children's covered time — which also
    holds for run blocks, whose covered time is the sum of their folded
    calls rather than their extent."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        kids = children.get(span["id"], [])
        other_lanes = len({kid["thread"] for kid in kids} - {span["thread"]})
        duration = span["end_ns"] - span["start_ns"]
        result[span["id"]] = (span["covered_ns"] + other_lanes * duration
                              - sum(kid["covered_ns"] for kid in kids))
    return result


def self_time_by_name(spans):
    """{span name: (total ns, total self ns, spans)} — the layer table."""
    selfs = self_times(spans)
    table = {}
    for span in spans:
        total, self_ns, count = table.get(span["name"], (0, 0, 0))
        table[span["name"]] = (total + span["covered_ns"], self_ns + selfs[span["id"]],
                               count + span["count"])
    return table


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(result, trace, engine, cpu_s, wall_s):
    """Per-layer metrics of one traced process. `engine` says whether the
    workload's runs are RunExperiment calls; `cpu_s` and `wall_s` are the
    untraced medians busy_share is computed from."""
    spans = load_spans(trace)
    selfs = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def total_ns(name):
        return sum(span["covered_ns"] for span in by_name.get(name, []))

    counters = {}
    high_water = 0
    for sweep in result["sweeps"]:
        for name, value in sweep["counters"].items():
            counters[name] = counters.get(name, 0) + value
        high_water = max(high_water, sweep["counters"].get("quic.pool.packet_highwater", 0))
    runs = sum(sweep["executed_runs"] for sweep in result["sweeps"])
    runner_ns = total_ns("runner")
    threads = result["threads"]
    wall = (result["t_end_ns"] - result["t_first_run_ns"]) / 1e9

    drops = sum(counters.get("netem.%s.drop_%s" % (direction, cause), 0)
                for direction in ("up", "down")
                for cause in ("pattern", "stochastic", "queue"))
    offered = sum(counters.get("netem.%s.%s" % (direction, kind), 0)
                  for direction in ("up", "down")
                  for kind in ("enqueued", "drop_pattern", "drop_stochastic"))

    # Point completion gaps: per sweep, successive observer calls.
    gaps = []
    for sweep in by_name.get("sweep", []):
        times = sorted(span["start_ns"] for span in by_name.get("observer", [])
                       if span["parent"] == sweep["id"])
        previous = sweep["start_ns"]
        for moment in times:
            gaps.append((moment - previous) / 1e9)
            previous = moment

    metrics = {
        "experiment.run_us.p50":
            histogram_percentile(trace["run_histogram"], 0.50) / 1e3 if engine else 0.0,
        "experiment.run_us.p99":
            histogram_percentile(trace["run_histogram"], 0.99) / 1e3 if engine else 0.0,
        "sim.events_per_s": _ratio(counters.get("sim.events_run", 0), runner_ns / 1e9),
        "sim.overflow_share": _ratio(counters.get("sim.events_overflow", 0),
                                     counters.get("sim.events_scheduled", 0)),
        "quic.pool.packet_hit_share": _ratio(counters.get("quic.pool.packet_hit", 0),
                                             counters.get("quic.pool.packet_acquire", 0)),
        "quic.pool.frame_hit_share": _ratio(counters.get("quic.pool.frame_hit", 0),
                                            counters.get("quic.pool.frame_acquire", 0)),
        "quic.pool.packet_high_water": float(high_water),
        "sim.events_per_run": _ratio(counters.get("sim.events_run", 0), runs),
        "netem.drop_share": _ratio(drops, offered),
        "recovery.pto_per_run": _ratio(counters.get("recovery.pto_fired", 0), runs),
        "recovery.lost_per_run": _ratio(counters.get("recovery.packets_lost", 0), runs),
        "recovery.loss_timer_updates_per_run":
            _ratio(counters.get("recovery.loss_timer_updates", 0), runs),
        "sweep.execute_s": total_ns("sweep") / 1e9,
        "sweep.enumerate_ms": counters.get("sweep.enumerate_micros", 0) / 1e3,
        "sweep.runner_ns_per_run": _ratio(runner_ns, runs),
        "sweep.self_ns_per_run":
            _ratio(sum(selfs[span["id"]] for span in by_name.get("sweep", [])), runs),
        "sweep.busy_share": _ratio(cpu_s, threads * wall_s),
        "sweep.point_s.p50": percentile(gaps, 0.50) if gaps else 0.0,
        "sweep.point_s.p99": percentile(gaps, 0.99) if gaps else 0.0,
        "codec.scenario_parse_ms":
            (total_ns("codec.scenario_parse") + total_ns("codec.scenario_apply")) / 1e6,
        "codec.partial_write_ms": total_ns("codec.partial_write") / 1e6,
        "codec.partial_parse_ms": total_ns("codec.partial_parse") / 1e6,
        "codec.partial_mib": result["partial_bytes"] / 2.0 ** 20,
        "sweep.merge_ms": total_ns("sweep.merge") / 1e6,
        "codec.export_ms": total_ns("codec.export") / 1e6,
    }

    # Keyed runner: the longest call of a key computed it; the others
    # waited for it on the key's once_flag.
    keys = trace["keys"]
    metrics["keyed.keys"] = float(len(keys))
    metrics["keyed.compute_s"] = sum(key["max_ns"] for key in keys) / 1e9
    metrics["keyed.wait_s"] = sum(key["sum_ns"] - key["max_ns"] for key in keys) / 1e9
    for cls in CAPACITY_CLASSES:
        computes = [key["max_ns"] / 1e9 for key in keys if key["key"].split("#")[0] == cls]
        metrics["scan.cluster_s.cap%s.p50" % cls] = statistics.median(computes) if computes else 0.0
        metrics["scan.cluster_s.cap%s.max" % cls] = max(computes) if computes else 0.0

    units = result["unit_wall_s"]
    metrics["dist.unit_s.p50"] = percentile(units, 0.50) if units else 0.0
    metrics["dist.unit_s.p99"] = percentile(units, 0.99) if units else 0.0
    metrics["dist.overhead_share"] = _ratio(wall - sum(units), wall) if units else 0.0
    return metrics
