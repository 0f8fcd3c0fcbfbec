"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy fixtures are
shared across criteria; the whole module is sized for a small machine and
took 118 s on a 2-core Xeon with 8 GB, of which the sweep fixture took 27 s
and criterion 4 about 70 s.
"""

import itertools
import json
import time

import numpy as np
import pytest

from ellnmds.cli import main as cli_main
from ellnmds.code import (
    LABEL_MDS,
    LABEL_NMDS,
    classify,
    generator_matrix,
    h_extendability_oracle,
    min_distance,
)
from ellnmds.curve import curve_scan, nq1
from ellnmds.errors import Budget
from ellnmds.extendability import verify_main_theorem
from ellnmds.geometry import addable_points, arc_make, complete_arc
from ellnmds.gf import field_make, field_of_order
from ellnmds.secants import min_trisecants
from reference import max_extension_chain, tangent_statistics

SWEEP_ORDERS = (5, 7, 9, 11, 13)


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" [{detail}]" if detail else ""
    print(f"\n[criterion {num:>2}] {status}: {desc}{tail}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


@pytest.fixture(scope="module")
def sweep():
    """Every nonsingular squared-away curve over the five scan fields,
    classified at every admissible k: the shared substrate of criteria
    1, 2, 3 and 11."""
    t0 = time.monotonic()
    records = []
    budget = Budget(None)
    for q in SWEEP_ORDERS:
        field = field_of_order(q)
        for curve in curve_scan(field):
            if curve.n - 1 < 3:
                continue
            for k in range(3, min(6, curve.n - 1) + 1):
                code = generator_matrix(curve, k, budget)
                d = min_distance(code, budget)
                cls = classify(code, budget)
                records.append(
                    {
                        "q": q,
                        "coeffs": curve.coeffs,
                        "n": curve.n,
                        "k": k,
                        "rank": code.k,
                        "d": d,
                        "d_paths": dict(code._d_paths),
                        "d_dual": cls.d_dual,
                        "s": cls.s,
                        "s_dual": cls.s_dual,
                        "label": cls.label,
                    }
                )
    elapsed = time.monotonic() - t0
    print(f"\n[sweep] {len(records)} codes over q in {SWEEP_ORDERS} in {elapsed:.0f}s")
    return {"records": records, "elapsed": elapsed}


@pytest.fixture(scope="module")
def f121_sample():
    field = field_make(11, 2)
    out = []
    for curve in curve_scan(field):
        if curve.j != 0:
            out.append(curve)
        if len(out) == 5:
            break
    return out


def test_criterion_1_bounds_exhaustive(sweep):
    t = sweep["elapsed"]
    bad = []
    for rec in sweep["records"]:
        ok = (
            rec["rank"] == rec["k"]
            and rec["d"] in (rec["n"] - rec["k"], rec["n"] - rec["k"] + 1)
            and rec["d_dual"] is not None
            and rec["d_dual"] >= rec["k"]
            and rec["label"] in (LABEL_MDS, LABEL_NMDS)
        )
        if not ok:
            bad.append(rec)
    _report(
        1,
        "every scanned code has dim k, d in {n-k, n-k+1}, dual distance >= k, "
        "label MDS or NMDS",
        not bad and t <= 600,
        f"{len(sweep['records'])} codes, sweep {t:.0f}s",
    )


def test_criterion_2_long_codes_are_nmds(sweep):
    bad = [
        rec
        for rec in sweep["records"]
        if rec["n"] >= 12 and not (rec["label"] == LABEL_NMDS and rec["d"] == rec["n"] - rec["k"])
    ]
    count = sum(1 for rec in sweep["records"] if rec["n"] >= 12)
    _report(2, "every code with n >= 12 is NMDS with d = n-k", not bad,
            f"{count} long codes")


def test_criterion_3_point_count_maximum(sweep):
    t0 = time.monotonic()
    ok = True
    details = []
    by_q = {}
    for rec in sweep["records"]:
        by_q.setdefault(rec["q"], 0)
        by_q[rec["q"]] = max(by_q[rec["q"]], rec["n"])
    for q in SWEEP_ORDERS:
        want = nq1(q)
        got = by_q[q]
        details.append(f"q={q}:{got}")
        ok = ok and got == want
    # consequence: a length-21 NMDS code over F_13, longer than q+1
    f13 = field_make(13)
    curve21 = next(c for c in curve_scan(f13) if c.n == 21)
    code = generator_matrix(curve21, 3, Budget(None))
    cls = classify(code, Budget(None))
    ok = ok and cls.n == 21 > 14 and cls.label == LABEL_NMDS
    _report(3, "scan maxima equal the point-count bound; F_13 carries a "
               "length-21 NMDS code", ok,
            f"{' '.join(details)}; [21,3,{cls.d}] {cls.label}, {time.monotonic()-t0:.0f}s")


def test_criterion_4_tangent_bounds():
    t0 = time.monotonic()
    checked = 0
    worst = 0
    failures = []
    for q in (11, 13):
        field = field_make(q)
        for curve in curve_scan(field):
            stats = tangent_statistics(curve)
            checked += 1
            worst = max(worst, stats.max_geometric_tangents)
            if (
                stats.max_geometric_tangents > 6
                or stats.degenerate_points
                or not stats.all_affine_have_nonvertical
            ):
                failures.append((q, curve.coeffs, stats))
    t = time.monotonic() - t0
    _report(4, "at most six tangents through any external point and a "
               "non-vertical tangent through every affine one (q=11,13)",
            not failures and t <= 300,
            f"{checked} curves, max {worst}, {t:.0f}s")


def test_criterion_5_seven_trisecants(f121_sample):
    t0 = time.monotonic()
    mins = []
    for curve in f121_sample:
        scan = min_trisecants(curve)
        mins.append(scan.min_count)
    t = time.monotonic() - t0
    ok = len(f121_sample) == 5 and all(m >= 7 for m in mins) and t <= 5 * 600
    _report(5, "at least seven trisecants through every external point "
               "(five j != 0 curves over F_121)", ok,
            f"mins {mins}, {t:.0f}s total")


def test_criterion_6_k3_complete(f121_sample):
    t0 = time.monotonic()
    verdicts = []
    for curve in f121_sample:
        report = verify_main_theorem(curve, 3, Budget(None))
        verdicts.append(report.verdict)
        assert report.addable == []
    t = time.monotonic() - t0
    ok = all(v == "CONSISTENT" for v in verdicts) and t <= 5 * 300
    _report(6, "k=3 ambient scan finds no addable point (five curves, F_121)",
            ok, f"{t:.0f}s total")


def test_criterion_7_k4_fundamental_line(f121_sample):
    t0 = time.monotonic()
    details = []
    ok = True
    for curve in f121_sample:
        tc = time.monotonic()
        report = verify_main_theorem(curve, 4, Budget(None))
        per = time.monotonic() - tc
        ok = ok and report.verdict == "CONSISTENT" and per <= 1800
        ok = ok and all(p[0] == 0 and p[1] == 0 for p in report.addable)
        ok = ok and len(report.completion_added) <= 1 and report.complete
        details.append(f"{len(report.addable)}add/{len(report.completion_added)}done/{per:.0f}s")
    t = time.monotonic() - t0
    _report(7, "k=4 ambient scan: addable points only on the fundamental "
               "line, completion by at most one point (five curves)",
            ok, f"{'; '.join(details)}; {t:.0f}s total")


def test_criterion_8_k5_candidates(f121_sample):
    t0 = time.monotonic()
    details = []
    ok = True
    for curve in f121_sample[:2]:
        tc = time.monotonic()
        # room for completion rounds; still refuses the 3e10 ambient scan
        report = verify_main_theorem(curve, 5, Budget(20_000_000_000),
                                     seed=0, sample=10_000)
        per = time.monotonic() - tc
        ok = ok and report.verdict == "CONSISTENT" and per <= 3600
        ok = ok and report.sampled == 10_000 and not report.witness_failures
        ok = ok and len(report.completion_added) <= 2 and report.complete
        ok = ok and any("skipped (budget)" in n for n in report.notes)
        details.append(
            f"{len(report.addable)}addable/{len(report.completion_added)}done/{per:.0f}s"
        )
    t = time.monotonic() - t0
    _report(8, "k=5: every candidate tested, addable points obey the "
               "candidate conditions, completion by at most two, 10^4 "
               "sampled non-candidates all witnessed (two curves)",
            ok, f"{'; '.join(details)}; {t:.0f}s total")


def test_criterion_9_k6_sampled_witnesses(f121_sample):
    t0 = time.monotonic()
    curve = f121_sample[0]
    report = verify_main_theorem(curve, 6, Budget(), seed=0, sample=100_000)
    t = time.monotonic() - t0
    ok = (
        report.verdict == "CONSISTENT"
        and report.sampled == 100_000
        and not report.witness_failures
    )
    _report(9, "k=6: 10^5 sampled ambient points all receive self-verifying "
               "witness hyperplanes", ok,
            f"0 failures out of {report.sampled}, {t:.0f}s")


def test_criterion_10_oracle_equivalence():
    """Greedy completion alone does not decide h-extendability for h >= 2:
    different addition orders complete at different sizes (see the frozen
    counterexample in test_code_chain_counterexample).  The exact geometric
    counterpart of the oracle is the longest extension chain, which this
    criterion cross-checks for h up to 3, together with the h = 1
    equivalence between the oracle and the addable-point scan."""
    t0 = time.monotonic()
    budget = Budget(None)
    checked = 0
    disagreements = []
    for q in (5, 7):
        field = field_make(q)
        for curve in curve_scan(field):
            for k in (3, 4):
                if k > curve.n - 1:
                    continue
                code = generator_matrix(curve, k, budget)
                arc = code.arc
                addable = addable_points(arc, budget)
                if h_extendability_oracle(code, 1, budget) != bool(addable):
                    disagreements.append((q, curve.coeffs, k, "h=1"))
                chain = max_extension_chain(arc, limit=3, budget=budget)
                for h in (1, 2, 3):
                    if h_extendability_oracle(code, h, budget) != (h <= chain):
                        disagreements.append((q, curve.coeffs, k, f"h={h} vs chain {chain}"))
                m = len(complete_arc(arc, max_add=3, budget=budget).added)
                if m > chain:
                    disagreements.append((q, curve.coeffs, k, "greedy exceeds max chain"))
                checked += 1
    t = time.monotonic() - t0
    _report(10, "oracle matches the addable scan at h=1 and the longest "
                "extension chain for h<=3; greedy counts never exceed the "
                "chain maximum (q=5,7)",
            not disagreements, f"{checked} codes, {t:.0f}s; {disagreements[:3]}")


def test_criterion_11_cross_paths_and_determinism(sweep, capsys):
    both = [rec for rec in sweep["records"] if rec["d_paths"]["codewords"] is not None]
    bad = [
        rec
        for rec in both
        if rec["d_paths"]["codewords"] != rec["d_paths"]["secants"]
        or rec["d_paths"]["secants"] != rec["d"]
    ]
    ok = len(both) == len(sweep["records"]) and not bad
    args = ["verify", "--q", "121", "--curve", "0,0,0,1,0", "--k", "3", "--seed", "17"]
    cli_main(args)
    first = capsys.readouterr().out
    cli_main(args)
    second = capsys.readouterr().out
    ok = ok and first == second and len(first) > 0
    _report(11, "codeword and group-law distance paths agree on every sweep "
                "code; reports are byte-identical across reruns",
            ok, f"{len(both)} codes double-checked")
