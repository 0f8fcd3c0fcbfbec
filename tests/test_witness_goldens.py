"""Witness reports for fixed point lists on framed F_121 curves.

One digest per (curve, k, seed): per point, either the case tag, the
hyperplane and the secant points of its witness, or the reason no witness
exists.  The points are the seeded sample ``_sample_proj_points`` draws off
the arc, plus points the case analysis rejects: the fundamental line for
k = 4 and a spread of the candidate family for k = 5.

The recorder runs the per-point ``WitnessContext.witness``; the test runs the
chunked ``WitnessContext.witnesses``.  Re-record (only when a witness is
meant to change) with

    PYTHONPATH=src python tests/test_witness_goldens.py
"""

import hashlib
import json
import os

import numpy as np
import pytest

from ellnmds.curve import curve_scan
from ellnmds.errors import NoWitnessFound
from ellnmds.extendability import WitnessContext, _sample_proj_points, choose_frame, k5_candidates
from ellnmds.geometry import arc_make, coords_to_enc
from ellnmds.gf import field_make

GOLDENS = os.path.join(os.path.dirname(__file__), "goldens", "witnesses.json")
CURVES = 2          # the first j != 0 curves of the F_121 scan
SEEDS = (0, 1)
SAMPLE = 400
CANDIDATE_STRIDE = 211


def _curves():
    field = field_make(11, 2)
    out = []
    for curve in curve_scan(field):
        if curve.j != 0:
            out.append(curve)
        if len(out) == CURVES:
            return out


def case_points(framed, arc, seed):
    """The sampled points followed by the rejected ones, as int tuples."""
    field, k = framed.field, arc.k
    exclude = set(int(e) for e in arc.encs)
    extra = []
    if k == 4:
        extra = [(0, 0, 1, x) for x in range(0, field.q, 17)]
    if k == 5:
        cands, _ = k5_candidates(framed)
        extra = cands[seed::CANDIDATE_STRIDE]
        exclude.update(int(e) for e in coords_to_enc(np.array(cands, dtype=np.int64), field.q))
    rng = np.random.default_rng(seed)
    sample = _sample_proj_points(field, k, SAMPLE, rng, np.array(sorted(exclude), dtype=np.int64))
    return [tuple(int(v) for v in pt) for pt in sample] + [tuple(pt) for pt in extra]


def _entry(report):
    return [report.case_tag, list(report.hyperplane), [list(p) for p in report.secant_points]]


def scalar_entries(ctx, points):
    """One entry per point from the per-point witness call."""
    out = []
    for pt in points:
        try:
            out.append(_entry(ctx.witness(pt)))
        except NoWitnessFound as exc:
            out.append(["fail", str(exc)])
    return out


def batched_entries(ctx, points):
    """The same entries from one call of the chunked engine."""
    batch = ctx.witnesses(points)
    reasons = iter(batch.failures)
    out = []
    for i in range(len(points)):
        if batch.found[i]:
            out.append(_entry(batch.report(i)))
        else:
            out.append(["fail", str(next(reasons))])
    return out


def digest(entries) -> str:
    text = json.dumps(entries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cases():
    """(key, context, points) for every recorded combination."""
    for curve in _curves():
        framed, _ = choose_frame(curve)
        for k in (4, 5, 6):
            ctx = WitnessContext(arc_make(framed, k))
            for seed in SEEDS:
                key = f"{','.join(map(str, curve.coeffs))}/k{k}/seed{seed}"
                yield key, ctx, case_points(framed, ctx.arc, seed)


def record(entries_of) -> dict:
    out = {}
    for key, ctx, points in cases():
        entries = entries_of(ctx, points)
        out[key] = {
            "points": len(points),
            "failures": sum(e[0] == "fail" for e in entries),
            "digest": digest(entries),
        }
    return out


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDENS) as fh:
        return json.load(fh)


def test_batched_engine_reproduces_the_witness_goldens(goldens):
    assert record(batched_entries) == goldens


def test_goldens_cover_failures_and_every_k(goldens):
    keys = list(goldens)
    assert {key.split("/")[1] for key in keys} == {"k4", "k5", "k6"}
    for key, row in goldens.items():
        if "/k6/" not in key:
            assert row["failures"] > 0, key


if __name__ == "__main__":
    table = record(scalar_entries)
    with open(GOLDENS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(table)} digests to {GOLDENS}")
