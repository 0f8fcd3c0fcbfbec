"""The ellnmds benchmark: one workload per call, every metric by name and unit.

    python3 bench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout; the library is imported from
``src/``.  Each workload runs in a child process of its own (``worker.py``),
so its set-up and peak memory are its own.  With ``--trace 0`` the child is
timed untraced and the end-to-end metrics are printed; set-up is timed in
``SETUP_RUNS`` processes, half before and half after the measured one, and
its median reported.  With ``--trace 1`` one
traced child gives the per-layer metrics.  The last stdout line is the
result object; the full record, machine block included, is written to
``bench/out/<workload>-seed<seed>-trace<0|1>.json`` (spans to ``.spans.jsonl.gz``).
A run in which no unit completes still prints its result, with
``correct: false`` and zero metrics, and exits with code 1.

See ``bench/README.md`` for the workloads and the meaning of each metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_RUNS = 7  # set-up processes per untraced run, the measured one included
DEADLINE_S = 170

WORKLOADS = ("sweep", "verify-k4", "span-k5", "witness-k6")

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-function quantities read from the trace summary, then derived ones.
TRACED_QUANTITIES = {
    "gf.dot_zero_mask_digits": ["calls", "busy_s", "self_s", "dots", "ops_computed",
                                "bytes_computed"],
    "gf.linear_w_matrix": ["calls", "busy_s"],
    "gf.Field.mul_np": ["calls", "busy_s", "elements"],
    "gf.Field.add_np": ["calls", "busy_s", "elements"],
    "gf.Field.sub_np": ["calls", "busy_s", "elements"],
    "gf.Field.neg_np": ["calls", "busy_s", "elements"],
    "curve.curve_scan": ["calls", "busy_s"],
    "curve.EllipticCurve.points": ["calls", "busy_s"],
    "geometry.proj_reps_cached": ["calls", "misses", "fill_s", "bytes"],
    "geometry.secant_scan": ["calls", "busy_s", "self_s", "incidences"],
    "geometry.addable_points": ["calls", "busy_s"],
    "geometry.filter_by_fulls": ["calls", "busy_s", "candidates_in", "candidates_out"],
    "geometry.full_hyperplanes_via_subsets": ["calls", "busy_s", "self_s", "subsets", "fulls"],
    "geometry.addable_filter": ["calls", "busy_s"],
    "code.generator_matrix": ["calls", "busy_s", "self_s"],
    "code.min_distance": ["calls", "busy_s", "self_s"],
    "code.classify": ["calls", "busy_s", "self_s"],
    "code.rank_gf": ["calls", "busy_s"],
    "code.macwilliams_transform": ["calls", "busy_s"],
    "secants.LineSystem.__init__": ["calls", "busy_s"],
    "secants.LineSystem.trisecants_through": ["calls", "busy_s", "self_s"],
    "secants.LineSystem.triple_points": ["calls"],
    "extendability.WitnessContext.witness": ["calls", "busy_s", "self_s"],
    "extendability.choose_frame": ["busy_s", "self_s"],
    "extendability.verify_main_theorem": ["busy_s", "self_s"],
    "extendability.k5_candidates": ["busy_s"],
}
LAYERS = ("gf", "curve", "geometry", "code", "secants", "extendability")
QUANTITY_UNITS = {
    "calls": "count", "busy_s": "s", "self_s": "s", "fill_s": "s", "bytes": "B",
    "misses": "count", "dots": "count", "ops_computed": "count", "bytes_computed": "B",
    "elements": "count", "incidences": "count", "candidates_in": "count",
    "candidates_out": "count", "subsets": "count", "fulls": "count",
}
DERIVED = {
    "gf.dot_zero_mask_digits.dots_per_s": "1/s",
    "gf.dot_zero_mask_digits.ops_per_byte_computed": "ops/B",
    "geometry.full_hyperplanes_via_subsets.fulls_per_subset": "ratio",
    "secants.LineSystem.triple_points.hit_ratio": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.outside_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_share": "ratio",
    "errors.budget.spent": "count",
    "errors.budget.units_per_s": "1/s",
}


def per_layer_units() -> dict[str, str]:
    out = {}
    for fn, quantities in TRACED_QUANTITIES.items():
        for qty in quantities:
            out[f"{fn}.{qty}"] = QUANTITY_UNITS[qty]
    out.update(DERIVED)
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_metrics(child: dict) -> dict[str, float]:
    trace = child["trace"]
    fns = trace["functions"]
    values = {}
    for fn, quantities in TRACED_QUANTITIES.items():
        for qty in quantities:
            values[f"{fn}.{qty}"] = fns.get(fn, {}).get(qty, 0)
    dzm = fns.get("gf.dot_zero_mask_digits", {})
    values["gf.dot_zero_mask_digits.dots_per_s"] = _ratio(dzm.get("dots", 0), dzm.get("busy_s", 0))
    values["gf.dot_zero_mask_digits.ops_per_byte_computed"] = _ratio(
        dzm.get("ops_computed", 0), dzm.get("bytes_computed", 0))
    sub = fns.get("geometry.full_hyperplanes_via_subsets", {})
    values["geometry.full_hyperplanes_via_subsets.fulls_per_subset"] = _ratio(
        sub.get("fulls", 0), sub.get("subsets", 0))
    tri = fns.get("secants.LineSystem.triple_points", {})
    values["secants.LineSystem.triple_points.hit_ratio"] = _ratio(tri.get("hits", 0),
                                                                   tri.get("calls", 0))
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(row["self_s"] for fn, row in fns.items()
                                        if fn.split(".", 1)[0] == layer)
    values["trace.outside_s"] = trace["outside_s"]
    values["trace.wall_s"] = trace["wall_s"]
    values["trace.overhead_share"] = trace["overhead_share"]
    budget = child["budget"]
    values["errors.budget.spent"] = budget["spent_first_units"]
    values["errors.budget.units_per_s"] = _ratio(budget["spent_total"],
                                                 sum(u[2] for u in child["units"]))
    return values


def tail(latencies: list[float]) -> tuple[float, str]:
    """p99 from 1000 samples (then ten or more lie beyond it), else the median."""
    if len(latencies) >= 1000:
        return statistics.quantiles(latencies, n=100)[98], "p99"
    return statistics.median(latencies), "p50"


def end_to_end_metrics(child: dict, setups: list[float]) -> tuple[dict, dict]:
    lat = [u[2] for u in child["units"]]
    if not lat:  # nothing completed, so nothing was measured
        return dict.fromkeys(END_TO_END, 0.0), {"samples": 0, "setup_samples_s": setups}
    tail_s, tail_name = tail(lat)
    values = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(lat) * 1000.0,
        "latency_tail_ms": tail_s * 1000.0,
        "throughput_per_s": child["work"] / sum(lat),
        "peak_rss_mb": child["peak_rss_mb"],
    }
    notes = {"samples": len(lat), "tail_percentile": tail_name, "setup_samples_s": setups,
             "throughput_counts": child["work_name"]}
    return values, notes


def spawn(args, role: str, deadline: float, spans: Path | None = None) -> tuple[dict, float]:
    """Run one child; return its report and its set-up time measured from spawn."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    if args.tiny:
        cmd.append("--tiny")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    spawned = time.time()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{role} process for {args.workload} ran past the deadline")
    finally:
        if proc.poll() is None:  # timed out or interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(proc.returncode)
    report = json.loads(out.strip().splitlines()[-1])
    return report, report["ready_wall"] - spawned


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test size: fewest units and one set-up")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = stem.with_suffix(".spans.jsonl.gz") if args.trace else None

    # set-up samples on both sides of the measured child, so their median
    # spans the run's whole window rather than its start
    around = 0 if (args.trace or args.tiny) else (SETUP_RUNS - 1) // 2
    setups = [spawn(args, "setup", deadline)[1] for _ in range(around)]
    child, setup_s = spawn(args, "measure", deadline, spans)
    setups.append(setup_s)
    setups += [spawn(args, "setup", deadline)[1] for _ in range(around)]

    if args.trace:
        metrics = per_layer_metrics(child)
        units = per_layer_units()
        notes = {"setup_s": setup_s}
    else:
        metrics, notes = end_to_end_metrics(child, setups)
        units = END_TO_END
    failed = child["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**child["machine"], "seed": args.seed, "budget_limit": child["budget"]["limit"],
                    "commit": git_commit()},
        "correct": failed == 0,
        "attempted": child["attempted"],
        "failed": failed,
        "failed_ratio": failed / child["attempted"],
        "failures": child["failures"],  # the first ones, in detail
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "notes": notes,
        "budget": child["budget"],
        "workload_info": child["workload_info"],
        "units": child["units"],  # [key, report digest, seconds] per completed unit
        "trace": child.get("trace"),
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": failed, "metrics": record["metrics"]}))
    return 0 if child["units"] else 1


def git_commit() -> str | None:
    """The checkout's commit, or None where the tree is not a git repository."""
    if not (HERE.parent / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


if __name__ == "__main__":
    sys.exit(main())
