"""End-to-end benchmark of the PushdownDB reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tpch-pushdown --seed 11 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

One run: generate the seeded inputs and the sqlite3 oracle, set the
engine up ``SETUP_REPEATS`` times, run untimed warm-up passes, then
timed passes until ``--seconds`` have elapsed and at least
``MIN_SAMPLES`` queries have run.  The modeled cost and runtime,
metering and cache counters must repeat exactly from one timed pass to
the next.  Times are reported in reference seconds (see ``refclock.py``);
the raw wall-clock rate is kept in the output file.  Every execution is checked against
sqlite3.  One client, one thread, ``workers=1``, closed loop.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes and reports per-layer metrics from the
traced ones (see ``tracing.py``) plus the tracing overhead.  The last
line of standard output is one JSON object; a readable table, the span
dump and the per-layer table go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import dashboard  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("tpch-get", "tpch-pushdown", "dashboard-repeat")
SETUP_REPEATS = 3
MAX_WARMUP_PASSES = 5
#: p90 needs at least ten samples beyond it.
MIN_SAMPLES = 100
OUT_DIR = HERE / "out"

END_TO_END_UNITS = {
    "queries_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "latency_geomean_s": "s",
    "cost_usd": "USD",
    "modeled_s": "sim_s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

#: per-layer metric -> (span name, field); seconds are self time unless
#: the field says inclusive.
SPAN_METRICS = {
    "sqlparser.server_parse_s": ("sqlparser.server_parse", "self_s"),
    "sqlparser.server_parse_calls": ("sqlparser.server_parse", "calls"),
    "sqlparser.client_parse_s": ("sqlparser.client_parse", "self_s"),
    "planner.prepare_self_s": ("planner.prepare", "self_s"),
    "planner.build_s": ("planner.build", "self_s"),
    "planner.execute_self_s": ("planner.execute", "self_s"),
    "storage.get_decode_s": ("storage.get_decode", "self_s"),
    "storage.select_decode_s": ("storage.select_decode", "self_s"),
    "storage.encode_s": ("storage.encode_table", "self_s"),
    "optimizer.stats_s": ("optimizer.stats", "self_s"),
    "engine.catalog.load_s": ("engine.catalog.load_table", "self_s"),
    "s3select.bloom_select_s": ("s3select.bloom_select", "inclusive_s"),
    "engine.operators_self_s": ("planner.execute", "operators_self_s"),
}
CACHE_COUNTERS = ("hits", "subsumed", "misses", "evictions", "invalidations")
CLOUD_COUNTERS = (
    "get_requests", "select_requests", "bytes_scanned", "bytes_returned",
    "bytes_transferred",
)
PER_LAYER_UNITS = {
    **{name: ("count" if name.endswith("_calls") else "s") for name in SPAN_METRICS},
    "storage.rows_decoded": "count",
    "s3select.select_self_s": "s",
    "s3select.rows_scanned": "count",
    "s3select.rows_returned_per_scanned": "ratio",
    **{f"optimizer.cache.{c}": "count" for c in CACHE_COUNTERS},
    "optimizer.cache.reuse_ratio": "ratio",
    **{f"cloud.{c}": ("count" if c.endswith("requests") else "bytes")
       for c in CLOUD_COUNTERS},
    "trace.queries_per_s": "1/s",
    "trace.overhead_frac": "frac",
}


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, as numpy's default."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def pass_rate(p: workloads.PassResult) -> float:
    """Queries per reference second of one pass (reloads included)."""
    return p.queries / p.busy_s


def deterministic_view(p: workloads.PassResult) -> tuple:
    """What must repeat exactly from pass to pass: the modeled clocks,
    metering and cache outcomes."""
    return (p.cost_usd, p.modeled_s, tuple(sorted(p.cloud.items())),
            tuple(sorted(p.cache.items())))


def run_passes(workload, seconds: float, min_samples: int, tracer=None):
    """Warm-up passes, then timed passes; with a tracer, timed passes
    alternate traced and untraced (both kinds at least once).

    A timed pass whose modeled clocks or metering differ from the one
    before shows that the feedback store is still re-planning: every
    pass so far becomes warm-up and timing starts over, up to
    ``MAX_WARMUP_PASSES`` warm-up passes in all.
    """
    warmups = workload.warmup_passes
    for _ in range(warmups):
        workload.run_pass("warmup")
    mark = tracer.mark() if tracer is not None else None
    timed: list[tuple[bool, workloads.PassResult]] = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(timed) % 2 == 0
        if traced:
            with tracer:
                result = workload.run_pass("pass")
        else:
            result = workload.run_pass("pass")
        changed = timed and deterministic_view(result) != deterministic_view(timed[-1][1])
        if changed and warmups + len(timed) + 1 <= MAX_WARMUP_PASSES:
            warmups += len(timed) + 1
            timed = []
            if tracer is not None:
                tracer.rewind(mark)
            start = perf_counter()
            continue
        timed.append((traced, result))
        samples = sum(p.queries for _, p in timed)
        kinds = {t for t, _ in timed}
        if (perf_counter() - start >= seconds and samples >= min_samples
                and (tracer is None or len(kinds) == 2)):
            return warmups, timed


def end_to_end(workload, passes: list[workloads.PassResult]) -> dict:
    samples = [s for p in passes for s in p.latencies]
    return {
        "queries_per_s": statistics.median(pass_rate(p) for p in passes),
        "latency_p50_s": quantile(samples, 0.5),
        "latency_p90_s": quantile(samples, 0.9),
        "latency_geomean_s": math.exp(
            sum(math.log(s) for s in samples) / len(samples)
        ),
        "cost_usd": passes[0].cost_usd,
        "modeled_s": passes[0].modeled_s,
        "setup_s": statistics.median(workload.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (workload.attempted - workload.failed) / workload.attempted,
    }


def per_layer(tracer: tracing.Tracer, traced: list[workloads.PassResult],
              untraced: list[workloads.PassResult]) -> dict:
    """One set-up plus one pass: span totals of each window label divided
    by how many windows of that label were traced."""
    windows = ("setup", "pass")
    totals = tracing.span_totals(tracer.spans, windows)

    def value(span: str, fieldname: str) -> float:
        return sum(
            totals[w][span][fieldname] / tracer.window_counts[w]
            for w in windows if tracer.window_counts[w]
        )

    metrics = {name: value(*spec) for name, spec in SPAN_METRICS.items()}
    metrics["storage.rows_decoded"] = (
        value("storage.get_decode", "rows_decoded")
        + value("storage.select_decode", "rows_decoded")
    )
    metrics["s3select.select_self_s"] = (
        value("s3select.select", "self_s") + value("s3select.bloom_select", "self_s")
    )
    scanned = value("s3select.select", "rows_scanned") + value(
        "s3select.bloom_select", "rows_scanned")
    returned = value("s3select.select", "rows_returned") + value(
        "s3select.bloom_select", "rows_returned")
    metrics["s3select.rows_scanned"] = scanned
    metrics["s3select.rows_returned_per_scanned"] = returned / scanned if scanned else 0.0
    cache = traced[0].cache or dict.fromkeys(CACHE_COUNTERS, 0)
    for name in CACHE_COUNTERS:
        metrics[f"optimizer.cache.{name}"] = cache[name]
    lookups = cache["hits"] + cache["subsumed"] + cache["misses"]
    metrics["optimizer.cache.reuse_ratio"] = (
        (cache["hits"] + cache["subsumed"]) / lookups if lookups else 0.0
    )
    for name in CLOUD_COUNTERS:
        metrics[f"cloud.{name}"] = traced[0].cloud[name]
    traced_rate = statistics.median(pass_rate(p) for p in traced)
    untraced_rate = statistics.median(pass_rate(p) for p in untraced)
    metrics["trace.queries_per_s"] = traced_rate
    metrics["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale_factor: float = workloads.SCALE_FACTOR,
                 min_samples: int = MIN_SAMPLES, out_dir: Path = OUT_DIR) -> dict:
    """Run one workload in this process; returns the result object."""
    tracer = tracing.Tracer()
    workload = workloads.make_workload(name, seed, tracer, scale_factor)
    if trace:
        tracer.install()
    try:
        for _ in range(SETUP_REPEATS):
            workload.setup()
    finally:
        tracer.uninstall()
    warmups, timed = run_passes(workload, seconds, min_samples, tracer if trace else None)
    passes = [p for _, p in timed]
    failures = []
    if workload.failed:
        failures.append("executions failed or differed from sqlite3")
    if len({deterministic_view(p) for p in passes}) != 1:
        failures.append("modeled cost/runtime, metering or cache counters"
                        " changed between timed passes")
    if trace:
        metrics = per_layer(
            tracer, [p for t, p in timed if t], [p for t, p in timed if not t]
        )
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(workload, passes)
        units = END_TO_END_UNITS
    info = {
        "workload": name,
        "seed": seed,
        "scale_factor": scale_factor,
        "rows": workload.sizes,
        "warmup_passes": warmups,
        "timed_passes": len(passes),
        "samples": sum(p.queries for p in passes),
        "wall_queries_per_s": statistics.median(p.queries / p.wall_s for p in passes),
        "setups": len(workload.setup_times),
        "failures": failures,
    }
    if name == "dashboard-repeat":
        info["cache_bytes"] = workload.cache_bytes
        info["stream_shares"] = dashboard.shares(workload.ops)
    report = {
        "correct": not failures,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    write_outputs(out_dir, name, trace, report, info, tracer if trace else None)
    return report


def render_table(name: str, report: dict, info: dict) -> str:
    lines = [f"workload {name}: seed {info['seed']}, SF {info['scale_factor']},"
             f" {info['timed_passes']} timed passes, {info['samples']} samples,"
             f" {info['setups']} set-ups, correct={report['correct']}"
             f" ({report['failed']}/{report['attempted']} failed)"]
    for key, entry in report["metrics"].items():
        lines.append(f"  {key:<38} {entry['value']:>16.6g} {entry['unit']}")
    for failure in info["failures"]:
        lines.append(f"  CHECK FAILED: {failure}")
    return "\n".join(lines)


def write_outputs(out_dir: Path, name: str, trace: bool, report: dict, info: dict,
                  tracer) -> None:
    out_dir.mkdir(exist_ok=True)
    table = render_table(name, report, info)
    print(table)
    stem = out_dir / f"{name}-trace{int(trace)}"
    stem.with_suffix(".txt").write_text(table + "\n")
    stem.with_suffix(".json").write_text(json.dumps({**info, **report}, indent=1))
    if tracer is not None:
        (out_dir / f"{name}-spans.json").write_text(
            json.dumps(tracing.dump_spans(tracer.spans))
        )


def run_all(args) -> dict:
    """Each workload in its own process; metrics keyed ``workload/metric``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        report = run_all(args)
    else:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
