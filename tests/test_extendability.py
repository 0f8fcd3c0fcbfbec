import functools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellnmds import extendability
from ellnmds.curve import INFINITY, curve_make, curve_scan, short_curve
from ellnmds.errors import (
    Budget,
    DimensionMismatch,
    HypothesisNotMet,
    InvariantViolated,
    NoFrameFound,
    NoWitnessFound,
    Singular,
)
from ellnmds.extendability import (
    Frame,
    VerdictReport,
    WitnessContext,
    _sample_proj_points,
    _sample_witnesses,
    choose_frame,
    frame_conditions,
    k5_candidates,
    transform_curve,
    verify_main_theorem,
    verify_zero_j_theorem,
)
from ellnmds.geometry import (
    addable_filter,
    arc_make,
    coords_to_enc,
    normalize_coords,
    phi_k,
)
from ellnmds.gf import field_make, field_of_order, linear_w_matrix
from ellnmds.secants import line_meet, KIND_TRISECANT
from reference import incidence, map_point_to_frame


def f121_first_j_nonzero():
    field = field_make(11, 2)
    return next(c for c in curve_scan(field) if c.j != 0)


@functools.lru_cache(maxsize=None)
def framed_context(k):
    framed, _ = choose_frame(f121_first_j_nonzero())
    return WitnessContext(arc_make(framed, k))


@functools.lru_cache(maxsize=None)
def small_k4_context():
    # at q = 13 the fundamental line and shadows without an affine trisecant
    # are frequent, so a few hundred samples include rejections
    return WitnessContext(arc_make(short_curve(field_make(13), 0, 2, 5), 4))


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
            assert frame == Frame(1, 0, 0, 0) and framed is curve
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
    cands, ratios = k5_candidates(framed)
    q = framed.field.q
    assert len(ratios) == 2
    assert len(cands) == 2 * q * q  # 2 ratios x (q(q-1) affine + q infinite) shapes
    f = framed.field
    for c in cands[:200]:
        assert c[3] == 0 and c[1] != 0 and c[4] != 0
        assert f.div(c[4], c[1]) in ratios
    assert cands == sorted(set(cands), key=lambda t: tuple(t))


def _k5_candidates_reference(curve):
    # the nested-loop construction: every shape, normalized one point at a time
    field = curve.field
    x0_affine = [p for p, _ in line_meet(curve, (0, 1, 0)).points if p is not INFINITY]
    ratios = tuple(sorted(y for _, y in x0_affine))
    out = []
    for rho in ratios:
        for q3 in range(field.q):
            out.append((0, 1, q3, 0, rho))
        for q2 in range(1, field.q):
            for q3 in range(field.q):
                out.append((1, q2, q3, 0, field.mul(rho, q2)))
    return sorted({normalize_coords(field, c) for c in out}), ratios


@pytest.mark.parametrize("q", [121, 11])
def test_k5_candidates_match_the_nested_loop_construction(q):
    if q == 121:
        framed, _ = choose_frame(f121_first_j_nonzero())
    else:
        framed, _ = choose_frame(curve_make(field_make(11), (0, 0, 0, 1, 4)), force=True)
    cands, ratios = k5_candidates(framed)
    assert ratios
    assert (cands, ratios) == _k5_candidates_reference(framed)


def test_k5_candidates_empty_without_section():
    f13 = field_make(13)

    def no_section(c):
        # the X = 0 fiber is empty when the constant term is a nonsquare
        return not f13.is_square(c.coeffs[4])

    curve = next(c for c in curve_scan(f13) if no_section(c) and c.n >= 6)
    cands, ratios = k5_candidates(curve)
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
        cand_set = set(k5_candidates(framed)[0])
    seen_tags = set()
    count = 0
    while count < 60:
        row = rng.integers(0, field.q, size=k)
        if not row.any():
            continue
        pt = normalize_coords(field, [int(v) for v in row])
        if pt in ctx.arc.points or pt in cand_set:
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
    cands, _ = k5_candidates(framed)
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


def test_verify_sample_counts():
    # None draws the default, 0 draws nothing and charges no witness_sample,
    # a negative count is refused before any charge
    curve = curve_make(field_make(11), (0, 0, 0, 1, 4))
    reports = {}
    for sample in (None, 0, 200):
        budget = Budget(None)
        reports[sample] = verify_main_theorem(curve, 5, budget, sample=sample, force=True)
        assert reports[sample].budget_spent == budget.spent
    assert reports[None].sampled == extendability.DEFAULT_SAMPLE_K5
    assert reports[0].sampled == 0 and reports[200].sampled == 200
    assert reports[200].budget_spent - reports[0].budget_spent == 200 * (11 + curve.n)
    budget = Budget(None)
    with pytest.raises(ValueError):
        verify_main_theorem(curve, 5, budget, sample=-500, force=True)
    with pytest.raises(InvariantViolated):
        budget.charge("witness_sample", -1)
    assert budget.spent == 0


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


def _reference_sample(field, k, count, rng, exclude_encs):
    """The per-row rejection loop the vectorised sampler replaced."""
    out = []
    exclude = set(int(e) for e in exclude_encs)
    while len(out) < count:
        batch = rng.integers(0, field.q, size=(max(64, count - len(out)), k))
        for row in batch:
            if not row.any():
                continue
            coords = normalize_coords(field, [int(v) for v in row])
            enc = int(coords_to_enc(np.array([coords]), field.q)[0])
            if enc in exclude:
                continue
            out.append(coords)
            if len(out) == count:
                break
    return out


@pytest.mark.parametrize("case", ["f121-k6", "f121-k5", "f13-k4", "f3-k3"])
def test_sampler_matches_the_reference_loop(case):
    if case == "f121-k6":
        arc = framed_context(6).arc
        field, k, count, exclude = arc.field, 6, 700, arc.encs
    elif case == "f121-k5":
        arc = framed_context(5).arc
        cands, _ = k5_candidates(arc.curve)
        field, k, count = arc.field, 5, 300
        exclude = np.union1d(arc.encs, coords_to_enc(np.array(cands), field.q))
    elif case == "f13-k4":
        arc = small_k4_context().arc
        field, k, count, exclude = arc.field, 4, 500, arc.encs
    else:
        # zero rows and excluded rows are frequent in P^2(F_3); a count below
        # 64 makes the batch size itself matter
        field, k, count = field_make(3), 3, 45
        exclude = coords_to_enc(np.array([(0, 0, 1), (0, 1, 2), (1, 0, 0), (1, 2, 2)]), 3)
    rng_got, rng_want = np.random.default_rng(11), np.random.default_rng(11)
    got = _sample_proj_points(field, k, count, rng_got, exclude)
    want = _reference_sample(field, k, count, rng_want, exclude)
    assert got.shape == (count, k) and got.dtype == np.int64
    assert [tuple(int(v) for v in row) for row in got] == want
    # the same batches were drawn, so the generator ends in the same state
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


# coordinates of the hyperplane that carry the planar line (a, b, c); the
# X = Y recipe writes (0, a, -a, b, c - b, -c), so c is the negated last one
_PLANAR_LINE = {
    "k4-planar": (0, 1, 2),
    "k5-vertical": (1, 3, 4),
    "k5-pencil": (1, 3, 4),
    "k6-case4": (2, 4, 5),
    "k6-case5": (2, 4, 5),
    "k6-case6": (1, 3, 4),
    "k6-case7": (1, 3, 4),
    "k6-case2": (1, 3, -5),
    "k6-case3": (1, 3, -5),
}


def _planar_line(field, tag, hyperplane):
    return tuple(
        field.neg(hyperplane[-i]) if i < 0 else hyperplane[i] for i in _PLANAR_LINE[tag]
    )


@settings(max_examples=120, deadline=None)
@given(k=st.sampled_from([4, 5, 6]), data=st.data())
def test_witness_planar_line_is_a_trisecant_by_exact_factorisation(k, data):
    ctx = framed_context(k)
    field, curve = ctx.field, ctx.curve
    coords = data.draw(st.lists(st.integers(0, field.q - 1), min_size=k, max_size=k))
    assume(any(coords))
    point = normalize_coords(field, coords)
    assume(point not in ctx.arc.points)
    try:
        report = ctx.witness(point)
    except NoWitnessFound:
        if k == 4:
            assert point[:2] == (0, 0)
        else:
            # only the candidate family escapes the dimension-5 analysis
            assert k == 5 and point[3] == 0 and point[1] != 0
            assert curve.is_on_curve(0, field.div(point[4], point[1]))
        return
    # the listed points and the query point lie on the hyperplane, by scalar dots
    assert incidence(field, report.hyperplane, point)
    assert len(set(report.secant_points)) == k
    assert all(incidence(field, report.hyperplane, p) for p in report.secant_points)
    if report.case_tag not in _PLANAR_LINE:
        return
    meet = line_meet(curve, _planar_line(field, report.case_tag, report.hyperplane))
    assert meet.kind == KIND_TRISECANT
    assert all(mult == 1 for _, mult in meet.points)
    assert set(report.secant_points[-3:]) == {phi_k(field, p, k) for p, _ in meet.points}


def _sample_failures(ctx, seed, sample):
    report = VerdictReport("main", ctx.arc.k, ctx.field.q, ctx.curve.coeffs, "CONSISTENT")
    _sample_witnesses(ctx, seed, sample, ctx.arc.encs, Budget(None), report)
    return report.sampled, report.witness_failures


@pytest.mark.parametrize("chunk", [1, 7])
def test_chunk_size_does_not_change_results(monkeypatch, chunk):
    small = small_k4_context()
    want_small = _sample_failures(small, 3, 400)
    want_k6 = _sample_failures(framed_context(6), 3, 150)
    assert want_small[1]  # the comparison covers rejections
    monkeypatch.setattr(extendability, "WITNESS_CHUNK", chunk)
    assert _sample_failures(small, 3, 400) == want_small
    assert _sample_failures(framed_context(6), 3, 150) == want_k6


@pytest.mark.parametrize("which", ["f13-k4", "f121-k5", "f121-k6"])
def test_one_point_witness_equals_its_batch_row(which):
    ctx = small_k4_context() if which == "f13-k4" else framed_context(int(which[-1]))
    field, k = ctx.field, ctx.arc.k
    points = _sample_proj_points(field, k, 120, np.random.default_rng(5), ctx.arc.encs)
    if k == 5:
        points = np.vstack([points, k5_candidates(ctx.curve)[0][::500]])
    batch = ctx.witnesses(points)
    failures = iter(batch.failures)
    for i, pt in enumerate(points):
        if batch.found[i]:
            assert ctx.witness(pt) == batch.report(i)
        else:
            expected = next(failures)
            with pytest.raises(NoWitnessFound) as caught:
                ctx.witness(pt)
            assert caught.value.point == expected.point == tuple(int(v) for v in pt)
            assert str(caught.value) == str(expected)
    assert next(failures, None) is None


def _corrupt_triples(ctx):
    tri = ctx.system.tri.copy()
    tri[tri >= 0] = (tri[tri >= 0] + 1) % ctx.arc.n
    return ctx.system, "tri", tri


def _repeat_a_base_point(ctx):
    return ctx, "_y0", ctx._y0[[0, 0, 1]]


def _shift_a_line(ctx):
    enc = ctx.system.dual_enc.copy()
    return ctx.system, "dual_enc", np.roll(enc, 1)


def _double_every_arc_point(ctx):
    # the listed points stay distinct and incident; only the section grows
    doubled = np.vstack([ctx.arc.coords, ctx.arc.coords])
    return ctx.arc, "_w", linear_w_matrix(ctx.field, doubled)


@pytest.mark.parametrize("corrupt", [_corrupt_triples, _repeat_a_base_point, _shift_a_line,
                                     _double_every_arc_point])
def test_self_verification_raises_on_a_broken_witness(monkeypatch, corrupt):
    ctx = framed_context(6)
    points = _sample_proj_points(ctx.field, 6, 200, np.random.default_rng(2), ctx.arc.encs)
    points = np.vstack([points, [(1, 2, 3, 4, 0, 5)]])  # a case-1 row uses the Y = 0 points
    monkeypatch.setattr(*corrupt(ctx))
    with pytest.raises(InvariantViolated):
        ctx.witnesses(points)


def test_rows_of_the_wrong_width_raise_dimension_mismatch():
    # an 8-coordinate point was once read as two points of P^3
    ctx = small_k4_context()
    with pytest.raises(DimensionMismatch):
        ctx.witnesses([(1, 2, 3, 4, 1, 0, 5, 6)])
    with pytest.raises(DimensionMismatch):
        ctx.witness((1, 2, 3, 4, 1, 0, 5, 6))
    with pytest.raises(DimensionMismatch):
        addable_filter(ctx.arc, [(1, 2, 3)])


def test_witness_rejects_arc_points_and_bad_coordinates():
    ctx = framed_context(4)
    with pytest.raises(ValueError):
        ctx.witness(ctx.arc.points[0])
    with pytest.raises(ValueError):
        ctx.witness((0, 0, 0, 0))
    with pytest.raises(ValueError):
        ctx.witness((1, 2, 3, ctx.field.q))


@pytest.mark.parametrize("q", [7, 9, 11, 13])
def test_coordinate_sections_and_frame_conditions_match_line_meet(q):
    # reference: exact factorisation of X = 0, Y = 0 and X = Y on every curve
    for curve in curve_scan(field_of_order(q)):
        f = curve.field
        meets = [line_meet(curve, dual) for dual in ((0, 1, 0), (0, 0, 1), (0, 1, f.neg(1)))]
        sections = tuple(tuple(p for p, _ in m.points if p is not INFINITY) for m in meets)
        assert extendability._coordinate_sections(curve) == sections
        (x0, y0, xy), (mx0, my0, mxy) = sections, meets
        expected = {
            "xZeroTwoAffineOffOrigin": len(x0) == 2 and (0, 0) not in x0
            and all(mult == 1 for _, mult in mx0.points),
            "yZeroThreeAffine": my0.kind == KIND_TRISECANT and len(y0) == 3,
            "diagonalThreeAffine": mxy.kind == KIND_TRISECANT and len(xy) == 3,
        }
        assert frame_conditions(curve) == (all(expected.values()), expected)
