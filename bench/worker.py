"""One workload in its own process: set up, run units in a closed loop, report.

Started by ``run.py``; prints one JSON object on stdout.  With ``--role
setup`` it stops once set-up is done, so the parent can time set-up alone.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
FAILURES_KEPT = 20  # failed units reported in detail; a unit that raises at once can fail thousands of times


def blas_info() -> dict:
    """BLAS name, version and the thread count the loaded library reports."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def machine_block(workers: int) -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "workers": workers,
    }


def run(args) -> dict:
    import workloads
    from digests import DigestTable

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    t_trace0 = perf_counter()
    workers = os.cpu_count() or 1
    wl = workloads.build(args.workload, args.seed, args.tiny, workers)
    ready_wall = time.time()
    if args.role == "setup":
        return {"ready_wall": ready_wall}

    table = DigestTable()
    failures, done = [], []
    work = spent_total = spent_first = failed = 0
    start = perf_counter()
    i = 0
    while i < wl.min_units or perf_counter() - start < args.seconds:
        unit = wl.units[i % len(wl.units)]
        i += 1
        t0 = perf_counter()
        try:
            res = unit.run()
            dt = perf_counter() - t0
            payload = unit.payload(res)
            problems = unit.check(res)
        except Exception:  # a unit that raises is a failed unit; the loop goes on
            failed += 1
            if len(failures) < FAILURES_KEPT:
                failures.append({"key": unit.key, "problems": [traceback.format_exc(limit=4)]})
                print(failures[-1]["problems"][0], file=sys.stderr)
            continue
        dig = workloads.digest(payload)
        want = table.lookup(wl.name, unit.key)
        if want is None:
            problems.append("no recorded digest for this unit")
        elif want != dig:
            problems.append(f"report digest {dig} != recorded {want}")
        if problems:
            failed += 1
            if len(failures) < FAILURES_KEPT:
                failures.append({"key": unit.key, "problems": problems})
                print(f"{unit.key}: {problems}", file=sys.stderr)
        done.append([unit.key, dig, dt])
        work += unit.work
        spent_total += payload["budgetSpent"]
        if i <= wl.min_units:
            spent_first += payload["budgetSpent"]
    t_trace1 = perf_counter()

    out = {
        "ready_wall": ready_wall,
        "attempted": i,
        "failed": failed,
        "failures": failures,  # the first FAILURES_KEPT of them
        "work": work,
        "work_name": wl.work_name,
        "budget": {"limit": wl.budget_limit, "spent_first_units": spent_first,
                   "first_units": wl.min_units, "spent_total": spent_total},
        "units": done,
        "workload_info": wl.info,
        "machine": machine_block(workers),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        summary = tracer.summary(t_trace0, t_trace1)
        overhead = tracing.wrapper_cost_s() * summary["spans"]
        summary["overhead_s"] = overhead
        summary["overhead_share"] = overhead / summary["wall_s"]
        out["trace"] = summary
        if args.spans:
            tracer.write(args.spans, t_trace0)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--role", choices=("setup", "measure"), default="measure")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)
    if not (SRC / "ellnmds" / "__init__.py").is_file():
        print(f"library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
