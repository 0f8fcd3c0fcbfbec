import random

import numpy as np
import pytest

from ellnmds.curve import INFINITY, curve_scan, short_curve
from ellnmds.errors import Budget, HypothesisNotMet, NoFrameFound, NoWitnessFound, Singular
from ellnmds.extendability import (
    Frame,
    WitnessContext,
    choose_frame,
    frame_conditions,
    k5_candidates,
    map_point_to_frame,
    transform_curve,
    verify_main_theorem,
    verify_zero_j_theorem,
)
from ellnmds.geometry import arc_make, normalize_coords
from ellnmds.gf import field_make
from ellnmds.secants import line_meet, KIND_TRISECANT


def f121_first_j_nonzero():
    field = field_make(11, 2)
    return next(c for c in curve_scan(field) if c.j != 0)


def test_transform_curve_preserves_points():
    from ellnmds.curve import curve_make

    f13 = field_make(13)
    rng = random.Random(5)
    done = 0
    while done < 20:
        coeffs = tuple(rng.randrange(13) for _ in range(5))
        try:
            curve = curve_make(f13, coeffs)
        except Singular:
            continue
        u = rng.randrange(1, 13)
        r, s, t = (rng.randrange(13) for _ in range(3))
        moved = transform_curve(curve, u, r, s, t)
        assert moved.n == curve.n and moved.j == curve.j
        frame = Frame(u, r, s, t)
        mapped = {map_point_to_frame(curve, frame, p) for p in curve.affine_points}
        assert mapped == set(moved.affine_points)
        done += 1


def test_choose_frame_q121():
    curve = f121_first_j_nonzero()
    framed, frame = choose_frame(curve)
    ok, detail = frame_conditions(framed)
    assert ok, detail
    # recheck the three bullet lines explicitly
    f = framed.field
    x0 = line_meet(framed, (0, 1, 0))
    assert x0.kind == KIND_TRISECANT
    affine_x0 = [p for p, _ in x0.points if p is not INFINITY]
    assert len(affine_x0) == 2 and all(p != (0, 0) for p in affine_x0)
    for dual in [(0, 0, 1), (0, 1, f.neg(1))]:
        meet = line_meet(framed, dual)
        assert meet.kind == KIND_TRISECANT
        assert all(p is not INFINITY for p, _ in meet.points)


def test_choose_frame_identity_when_conditions_hold():
    field = field_make(11, 2)
    for curve in curve_scan(field):
        if curve.j == 0:
            continue
        if frame_conditions(curve)[0]:
            framed, frame = choose_frame(curve)
            assert frame.is_identity and framed is curve
            break
    else:
        pytest.skip("no pre-framed curve among the leading scans")


def test_choose_frame_gate_and_force():
    f13 = field_make(13)
    curve = next(c for c in curve_scan(f13) if c.n >= 8)
    with pytest.raises(HypothesisNotMet):
        choose_frame(curve)
    try:
        framed, frame = choose_frame(curve, force=True)
    except NoFrameFound:
        pytest.skip("no frame exists at q=13 for this curve")
    assert frame_conditions(framed)[0]


def test_k5_candidates_shape_and_count():
    curve = f121_first_j_nonzero()
    framed, _ = choose_frame(curve)
    arc = arc_make(framed, 5)
    cands, ratios = k5_candidates(framed, arc)
    q = framed.field.q
    assert len(ratios) == 2
    assert len(cands) == 2 * q * q  # 2 ratios x (q(q-1) affine + q infinite) shapes
    f = framed.field
    for c in cands[:200]:
        assert c[3] == 0 and c[1] != 0 and c[4] != 0
        assert f.div(c[4], c[1]) in ratios
    assert cands == sorted(set(cands), key=lambda t: tuple(t))


def test_k5_candidates_empty_without_section():
    f13 = field_make(13)

    def no_section(c):
        # the X = 0 fiber is empty when the constant term is a nonsquare
        return not f13.is_square(c.coeffs[4])

    curve = next(c for c in curve_scan(f13) if no_section(c) and c.n >= 6)
    arc = arc_make(curve, 5)
    cands, ratios = k5_candidates(curve, arc)
    assert cands == [] and ratios == ()


@pytest.mark.parametrize("k", [4, 5, 6])
def test_witness_reports_verify(k):
    curve = f121_first_j_nonzero()
    framed, _ = choose_frame(curve)
    arc = arc_make(framed, k)
    ctx = WitnessContext(arc)
    field = framed.field
    rng = np.random.default_rng(k)
    cand_set = set()
    if k == 5:
        cand_set = set(k5_candidates(framed, arc)[0])
    seen_tags = set()
    count = 0
    while count < 60:
        row = rng.integers(0, field.q, size=k)
        if not row.any():
            continue
        pt = normalize_coords(field, [int(v) for v in row])
        if ctx.is_arc_point(pt) or pt in cand_set:
            continue
        report = ctx.witness(pt)
        assert report.q_point == pt
        assert len(report.secant_points) == k
        seen_tags.add(report.case_tag)
        count += 1
    assert seen_tags  # at least one case fired


def test_witness_candidates_rejected():
    curve = f121_first_j_nonzero()
    framed, _ = choose_frame(curve)
    arc = arc_make(framed, 5)
    ctx = WitnessContext(arc)
    cands, _ = k5_candidates(framed, arc)
    for pt in cands[:40]:
        with pytest.raises(NoWitnessFound):
            ctx.witness(pt)


def test_witness_k4_fundamental_line_rejected():
    curve = f121_first_j_nonzero()
    framed, _ = choose_frame(curve)
    arc = arc_make(framed, 4)
    ctx = WitnessContext(arc)
    with pytest.raises(NoWitnessFound):
        ctx.witness((0, 0, 1, 5))


def test_verify_main_k3_consistent():
    curve = f121_first_j_nonzero()
    report = verify_main_theorem(curve, 3, Budget(None))
    assert report.verdict == "CONSISTENT"
    assert report.addable == [] and report.complete


def test_verify_main_gates():
    field = field_make(11, 2)
    zero_j = next(c for c in curve_scan(field) if c.j == 0)
    with pytest.raises(HypothesisNotMet):
        verify_main_theorem(zero_j, 3)
    f13 = field_make(13)
    small_q = next(c for c in curve_scan(f13) if c.n >= 4)
    with pytest.raises(HypothesisNotMet):
        verify_main_theorem(small_q, 3)


def test_verify_zero_j_gate_and_forced_tag():
    field = field_make(11, 2)
    zero_j = next(c for c in curve_scan(field) if c.j == 0)
    with pytest.raises(HypothesisNotMet):
        verify_zero_j_theorem(zero_j, 3)
    report = verify_zero_j_theorem(zero_j, 3, Budget(None), force=True)
    assert report.theorem == "j0"
    assert report.out_of_hypothesis
    assert "OUT_OF_HYPOTHESIS" in report.notes
    assert report.verdict in ("CONSISTENT", "VIOLATION", "BUDGET_PARTIAL")


def test_verdict_json_roundtrip():
    curve = f121_first_j_nonzero()
    report = verify_main_theorem(curve, 3, Budget(None), seed=7)
    d = report.to_json_dict()
    assert d["theorem"] == "main" and d["k"] == 3 and d["q"] == 121
    assert d["verdict"] == "CONSISTENT"
    assert d["seed"] == 7
    import json

    json.dumps(d, sort_keys=True)
