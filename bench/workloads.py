"""The four benchmark workloads: inputs from a seed, one unit of work, its checks.

Every workload is a closed loop: one caller runs a unit, waits for its
report, checks it, and only then starts the next.  A unit is one call chain
into the public library API, exactly as a researcher's script would make it:

* ``sweep``: one curve over F_q, q in {7, 9, 11, 13}, at one k, through
  ``generator_matrix -> min_distance -> classify`` (the acceptance sweep).
* ``verify-k4``: ``verify_main_theorem(curve, 4)`` at q = 121.
* ``span-k5``: ``verify_main_theorem(curve, 5)`` at q = 121 with the
  acceptance suite's 2e10 budget and a small witness sample.
* ``witness-k6``: ``verify_main_theorem(curve, 6, sample=S)`` at q = 121.

The library only ever receives the generated inputs: curve coefficients,
k, the sample size and the sample seed.

The q = 121 workloads draw their curves from a small pool that a fixed pool
seed generates; the workload seed orders the pool members and, for
``witness-k6``, picks each curve's sample seed.
The pool keeps each unit's report recordable: ``digests.json`` holds the
report digest of every unit any seed can produce, so a run with any seed
checks its outputs against the reports of the commit that recorded them.
The sweep's pool is every curve the acceptance sweep classifies.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ellnmds import code as code_mod
from ellnmds import curve as curve_mod
from ellnmds import extendability, geometry
from ellnmds.errors import DEFAULT_BUDGET_LIMIT, Budget, Singular
from ellnmds.gf import field_of_order

SWEEP_ORDERS = (7, 9, 11, 13)
SWEEP_CURVES_PER_Q = 150    # about 2270 codes a pass, so p99 has ten or more samples beyond it

Q_BIG = 121
POOL_SEED = 20021107        # fixes the q = 121 curve pools; changing it needs new digests
K4_POOL = 8
K4_BAND = (120, 124)        # point-count band: verdict cost grows with n
K5_POOL = 6
K5_BAND = (101, 102)        # cost grows with C(n, 4), so the cheapest band near q + 1 - 2*sqrt(q)
K5_BUDGET = 20_000_000_000  # the acceptance suite's k = 5 budget
K5_SAMPLE = 500
K5_SAMPLE_SEED = 0
K6_POOL = 8
K6_BAND = (116, 128)
K6_SAMPLE = 2500
K6_SAMPLE_SEEDS = 4         # the workload seed picks one of these per pool curve


def canonical(payload: dict) -> str:
    """A report serialised as the CLI serialises it."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload: dict) -> str:
    return hashlib.sha256(canonical(payload).encode()).hexdigest()[:8]


@dataclass
class Unit:
    key: str                    # stable identity, the digest table's key
    run: Callable[[], dict]     # the timed library call chain; returns its raw results
    payload: Callable[[dict], dict]
    check: Callable[[dict], list]
    work: int                   # work items for throughput: 1 code, 1 verdict or S witnesses


@dataclass
class Workload:
    name: str
    units: list[Unit]
    min_units: int
    work_name: str
    budget_limit: int
    info: dict = field(default_factory=dict)


# ---- sweep --------------------------------------------------------------------


def sweep_pool():
    """Every curve of the acceptance sweep, per q, in curve_scan order."""
    pool = {}
    for q in SWEEP_ORDERS:
        fld = field_of_order(q)
        pool[q] = [c for c in curve_mod.curve_scan(fld) if c.n - 1 >= 3]
    return pool


def sweep_ks(curve) -> range:
    return range(3, min(6, curve.n - 1) + 1)


def sweep_unit(q: int, index: int, curve, k: int) -> Unit:
    fld = curve.field

    def run():
        budget = Budget()
        code = code_mod.generator_matrix(curve, k, budget)
        d = code_mod.min_distance(code, budget)
        cls = code_mod.classify(code, budget)
        return {"code": code, "d": d, "cls": cls, "budget": budget}

    def payload(res):
        doc = {"field": fld.descriptor(), "curve": curve.to_json_dict(include_points=False)}
        doc.update(res["cls"].to_json_dict())
        doc["budgetSpent"] = res["budget"].spent
        return doc

    def check(res):
        code, d, cls, n = res["code"], res["d"], res["cls"], curve.n
        bad = []
        if code.k != k:
            bad.append(f"rank {code.k} != k {k}")
        if d not in (n - k, n - k + 1):
            bad.append(f"d={d} outside {{n-k, n-k+1}}")
        paths = code._d_paths or {}
        if paths.get("codewords") is None or paths.get("codewords") != paths.get("secants"):
            bad.append(f"distance paths disagree or did not both run: {paths}")
        if cls.label not in (code_mod.LABEL_MDS, code_mod.LABEL_NMDS):
            bad.append(f"label {cls.label}")
        if n >= 12 and not (cls.label == code_mod.LABEL_NMDS and d == n - k):
            bad.append(f"n={n} >= 12 but label {cls.label}, d={d}")
        return bad

    return Unit(f"{q}:{index}:{k}", run, payload, check, 1)


def sweep_all_units(pool) -> list[Unit]:
    return [sweep_unit(q, i, c, k) for q in SWEEP_ORDERS for i, c in enumerate(pool[q])
            for k in sweep_ks(c)]


def stratified_quota(sizes: dict[int, int], total: int) -> dict[int, int]:
    """Split total over groups in proportion to their sizes (largest remainder)."""
    count = sum(sizes.values())
    exact = {g: total * size / count for g, size in sizes.items()}
    quota = {g: int(v) for g, v in exact.items()}
    rest = sorted(sizes, key=lambda g: (quota[g] - exact[g], g))
    for g in rest[: total - sum(quota.values())]:
        quota[g] += 1
    return quota


def build_sweep(seed: int, tiny: bool) -> Workload:
    pool = sweep_pool()
    rng = np.random.default_rng(seed)
    per_q = 2 if tiny else SWEEP_CURVES_PER_Q
    units = []
    for q in SWEEP_ORDERS:
        # the same number of curves per point count n on every seed: unit cost
        # depends on n, so the mix of n would otherwise move the latency quantiles
        by_n: dict[int, list[int]] = {}
        for index, curve in enumerate(pool[q]):
            by_n.setdefault(curve.n, []).append(index)
        quota = stratified_quota({n: len(ix) for n, ix in by_n.items()}, per_q)
        for n in sorted(by_n):
            for index in rng.choice(by_n[n], size=quota[n], replace=False).tolist():
                curve = pool[q][index]
                units.extend(sweep_unit(q, index, curve, k) for k in sweep_ks(curve))
    # shuffled so that every prefix of a pass mixes q and k like the whole pass
    units = [units[i] for i in rng.permutation(len(units))]
    # warm-up: one classification per (q, k) fills the projective-space cache
    # and the field tables, as the first codes of any long sweep would
    for q in SWEEP_ORDERS:
        for k in range(3, 7):
            curve = next(c for c in pool[q] if c.n - 1 >= k)
            sweep_unit(q, -1, curve, k).run()
    # every run completes at least one whole pass, so the mix of q, n and k
    # is the same on every seed
    return Workload("sweep", units, 1 if tiny else len(units), "codes",
                    DEFAULT_BUDGET_LIMIT,
                    {"orders": list(SWEEP_ORDERS), "curves_per_q": per_q,
                     "codes_per_pass": len(units)})


# ---- q = 121 pools -------------------------------------------------------------


def curve_pool(size: int, band: tuple[int, int]):
    """Seeded j != 0 curves Y^2 = X^3 + aX^2 + bX + c over F_121 with n in band."""
    fld = field_of_order(Q_BIG)
    rng = np.random.default_rng([POOL_SEED, band[0], band[1]])
    out, seen = [], set()
    while len(out) < size:
        a, b, c = (int(v) for v in rng.integers(0, Q_BIG, size=3))
        if (a, b, c) in seen:
            continue
        seen.add((a, b, c))
        try:
            curve = curve_mod.short_curve(fld, a, b, c)
        except Singular:
            continue
        if curve.j != 0 and band[0] <= curve.n <= band[1]:
            out.append(curve)
    return out


def _curve_key(curve) -> str:
    return ",".join(str(v) for v in curve.coeffs)


def _verdict_payload(curve):
    def payload(res):
        doc = {"field": curve.field.descriptor()}
        doc.update(res["report"].to_json_dict())
        return doc
    return payload


def _warm_q121(curve, k_cached: int | None) -> None:
    """Fill the F_121 tables (and, for k = 4, the cached P^3 representatives)."""
    geometry.arc_make(curve, 3, Budget())
    if k_cached is not None:
        geometry.proj_reps_cached(curve.field, k_cached)


def k4_unit(curve, workers: int) -> Unit:
    def run():
        budget = Budget()
        return {"report": extendability.verify_main_theorem(curve, 4, budget, workers=workers)}

    def check(res):
        rep, bad = res["report"], []
        if rep.verdict != extendability.VERDICT_CONSISTENT:
            bad.append(f"verdict {rep.verdict}")
        off = [p for p in rep.addable if not (p[0] == 0 and p[1] == 0)]
        if off:
            bad.append(f"addable point off the fundamental line: {off[0]}")
        if len(rep.completion_added) > 1 or not rep.complete:
            bad.append(f"completion added {len(rep.completion_added)} (complete={rep.complete})")
        return bad

    return Unit(f"k4:{_curve_key(curve)}", run, _verdict_payload(curve), check, 1)


def k5_unit(curve, workers: int) -> Unit:
    def run():
        budget = Budget(K5_BUDGET)
        return {"report": extendability.verify_main_theorem(
            curve, 5, budget, seed=K5_SAMPLE_SEED, sample=K5_SAMPLE, workers=workers)}

    def check(res):
        rep, bad = res["report"], []
        if rep.verdict != extendability.VERDICT_CONSISTENT:
            bad.append(f"verdict {rep.verdict}")
        if rep.frame is None:
            bad.append("no frame")
            return bad
        framed = curve_mod.EllipticCurve(curve.field, rep.frame["coeffs"])
        fld = curve.field
        for pt in rep.addable:
            if not (pt[3] == 0 and pt[1] != 0 and pt[4] != 0
                    and framed.is_on_curve(0, fld.div(pt[4], pt[1]))):
                bad.append(f"addable point violates the candidate conditions: {pt}")
        if len(rep.completion_added) > 2 or not rep.complete:
            bad.append(f"completion added {len(rep.completion_added)} (complete={rep.complete})")
        if rep.sampled != K5_SAMPLE or rep.witness_failures:
            bad.append(f"sampled {rep.sampled}, {len(rep.witness_failures)} witness failures")
        return bad

    return Unit(f"k5:{_curve_key(curve)}", run, _verdict_payload(curve), check, 1)


def k6_unit(curve, sample_seed: int, workers: int) -> Unit:
    def run():
        budget = Budget()
        return {"report": extendability.verify_main_theorem(
            curve, 6, budget, seed=sample_seed, sample=K6_SAMPLE, workers=workers)}

    def check(res):
        rep, bad = res["report"], []
        if rep.verdict != extendability.VERDICT_CONSISTENT:
            bad.append(f"verdict {rep.verdict}")
        if rep.sampled != K6_SAMPLE or rep.witness_failures:
            bad.append(f"sampled {rep.sampled}, {len(rep.witness_failures)} witness failures")
        return bad

    return Unit(f"k6:{_curve_key(curve)}:{sample_seed}", run, _verdict_payload(curve), check,
                K6_SAMPLE)


def pool_units(name: str, workers: int) -> tuple[list, list[Unit]]:
    """The curve pool of a q = 121 workload and every unit a seed can draw from it."""
    if name == "verify-k4":
        pool = curve_pool(K4_POOL, K4_BAND)
        return pool, [k4_unit(c, workers) for c in pool]
    if name == "span-k5":
        pool = curve_pool(K5_POOL, K5_BAND)
        return pool, [k5_unit(c, workers) for c in pool]
    if name == "witness-k6":
        pool = curve_pool(K6_POOL, K6_BAND)
        return pool, [k6_unit(c, s, workers) for c in pool for s in range(K6_SAMPLE_SEEDS)]
    raise ValueError(f"unknown workload {name!r}")


def all_units(name: str, workers: int) -> list[Unit]:
    """Every unit any seed can produce, in a fixed order."""
    if name == "sweep":
        return sweep_all_units(sweep_pool())
    return pool_units(name, workers)[1]


def build(name: str, seed: int, tiny: bool, workers: int) -> Workload:
    """Inputs of one run, generated from the seed, with the caches warmed."""
    if name == "sweep":
        return build_sweep(seed, tiny)
    rng = np.random.default_rng(seed)
    if name == "witness-k6":
        # every pool curve once per pass, each with a sample seed from the
        # workload seed: witness cost differs from curve to curve, so a pass
        # over every curve keeps the mix the same on every seed
        pool = curve_pool(K6_POOL, K6_BAND)
        seeds = rng.integers(0, K6_SAMPLE_SEEDS, size=len(pool)).tolist()
        units = [k6_unit(pool[i], seeds[i], workers) for i in rng.permutation(len(pool))]
        _warm_q121(pool[0], None)
        return Workload(name, units, 1 if tiny else len(units), "witnesses", DEFAULT_BUDGET_LIMIT,
                        {"pool": K6_POOL, "n_band": list(K6_BAND), "sample": K6_SAMPLE})
    pool, units = pool_units(name, workers)
    units = [units[i] for i in rng.permutation(len(units))]
    if name == "verify-k4":
        _warm_q121(pool[0], 4)
        return Workload(name, units, 1, "verdicts", DEFAULT_BUDGET_LIMIT,
                        {"pool": K4_POOL, "n_band": list(K4_BAND)})
    _warm_q121(pool[0], None)
    return Workload(name, units, 1, "verdicts", K5_BUDGET,
                    {"pool": K5_POOL, "n_band": list(K5_BAND), "sample": K5_SAMPLE})


NAMES = ("sweep", "verify-k4", "span-k5", "witness-k6")
