import functools
import itertools

import numpy as np
import pytest

from ellnmds.curve import INFINITY, curve_make, curve_scan, short_curve
from ellnmds.errors import DimensionMismatch, PointOnCurve
from ellnmds.gf import field_make, field_of_order
from ellnmds.secants import (
    _KIND_BY_CODE,
    KIND_CHORD,
    KIND_SPARSE,
    KIND_TANGENT,
    KIND_TRISECANT,
    LineSystem,
    geometric_tangents,
    line_meet,
    line_profile,
    min_trisecants,
    point_on_curve,
    zero_j_hypotheses,
    zero_j_hypotheses_params,
)
from reference import incidence, lines_through, tangent_statistics


def test_line_at_infinity():
    f5 = field_make(5)
    curve = short_curve(f5, 0, 0, 1)
    meet = line_meet(curve, (1, 0, 0))
    assert meet.kind == KIND_TANGENT
    assert meet.points == ((INFINITY, 3),)


def test_line_y_zero_on_f5_cubic_plus_one():
    # x^3 + 1 = (x+1)(x^2 - x + 1) over F_5 and the quadratic has
    # nonsquare discriminant, so Y = 0 meets the curve only at (4, 0)
    f5 = field_make(5)
    curve = short_curve(f5, 0, 0, 1)
    meet = line_meet(curve, (0, 0, 1))
    assert meet.kind == KIND_SPARSE
    assert meet.points == (((4, 0), 1),)


def test_vertical_lines():
    f5 = field_make(5)
    curve = short_curve(f5, 0, 0, 1)
    # x = 0: fiber y^2 = 1 has two points, so with the infinite point this
    # is a three-point line
    meet = line_meet(curve, (0, 1, 0))
    assert meet.kind == KIND_TRISECANT
    assert meet.points == (((0, 1), 1), ((0, 4), 1), (INFINITY, 1))
    # x = 4: fiber y^2 = 0, vertical tangency
    meet = line_meet(curve, (f5.neg(4), 1, 0))
    assert meet.kind == KIND_TANGENT
    assert meet.points == (((4, 0), 2), (INFINITY, 1))


def test_multiplicities_sum_to_at_most_three():
    f7 = field_make(7)
    curve = short_curve(f7, 1, 2, 4)
    for dual in itertools.islice(_all_duals(7), 200):
        meet = line_meet(curve, dual)
        assert sum(m for _, m in meet.points) <= 3
        assert meet.kind != KIND_CHORD


def _all_duals(q):
    for lead in ((0, 0, 1), (0, 1), (1,)):
        tail = 3 - len(lead)
        for rest in itertools.product(range(q), repeat=tail):
            yield lead + rest


def test_line_system_matches_line_meet():
    for q, coeffs in [(7, (1, 2, 4)), (11, (0, 1, 5)), (9, (1, 0, 2))]:
        field = field_make(*(3, 2) if q == 9 else (q, 1))
        curve = short_curve(field, *coeffs)
        system = LineSystem(curve)
        for dual in _all_duals(field.q):
            assert _KIND_BY_CODE[int(system.kind[system.dual_to_id(dual)])] == line_meet(curve, dual).kind


def test_line_system_on_shifted_curve():
    # a curve with nonzero a1, a2 exercises the plane shift
    f7 = field_make(7)
    curve = curve_make(f7, (1, 2, 0, 3, 5))
    system = LineSystem(curve)
    for dual in _all_duals(7):
        assert _KIND_BY_CODE[int(system.kind[system.dual_to_id(dual)])] == line_meet(curve, dual).kind


def test_profile_sums_and_external_gate():
    f11 = field_make(11)
    curve = short_curve(f11, 0, 1, 3)
    on_curve = curve.affine_points[0]
    with pytest.raises(PointOnCurve):
        line_profile(curve, (1,) + on_curve)
    checked = 0
    for pt in [(1, 0, 5), (1, 3, 3), (0, 1, 4), (1, 10, 2)]:
        if point_on_curve(curve, pt):
            continue
        prof = line_profile(curve, pt)
        assert prof.total == 12
        assert prof.chords == 0
        checked += 1
    assert checked >= 3


def test_tangent_bound_and_nonvertical_tangent_q11():
    f11 = field_make(11)
    for curve in itertools.islice(curve_scan(f11), 25):
        stats = tangent_statistics(curve)
        assert stats.max_rational_tangents <= stats.max_geometric_tangents <= 6
        assert stats.degenerate_points == 0
        assert stats.all_affine_have_nonvertical, stats.first_missing


def test_rational_tangents_can_all_be_irrational_lines():
    # over F_11 and y^2 = x^3 + 1 the point (0, 2) is external yet no
    # rational line through it has a rational double contact; the tangent
    # lines exist only over the closure
    f11 = field_make(11)
    curve = short_curve(f11, 0, 0, 1)
    prof = line_profile(curve, (1, 0, 2))
    assert prof.tangents == 0
    assert prof.geometric_tangents and prof.geometric_tangents <= 6
    assert prof.has_nonvertical_tangent


def test_char3_tangent_counts_reported():
    # characteristic-3 fields are scanned and reported without asserting
    # the classical bound; the totals identity still must hold
    f9 = field_make(3, 2)
    worst = 0
    for curve in itertools.islice(curve_scan(f9), 25):
        system = LineSystem(curve)
        ext = [system.point_id_to_proj(int(pid)) for pid in np.flatnonzero(system.external_mask())]
        worst = max(worst, int(system.tangent[system.pencils(ext)].sum(axis=1).max()))
        prof = line_profile(curve, ext[0])
        assert prof.total == 10
    print(f"\n[report] char-3 max external tangent count over sample: {worst}")


def test_min_trisecants_matches_profiles():
    f7 = field_make(7)
    curve = short_curve(f7, 0, 5, 1)
    system = LineSystem(curve)
    scan = min_trisecants(curve)
    ext = system.external_mask()
    ids = np.flatnonzero(ext)
    # the scalar reference: line_meet on every line of each pencil
    brute = []
    for pid in ids:
        point = system.point_id_to_proj(int(pid))
        kinds = [line_meet(curve, dual).kind for dual in lines_through(curve.field, point)]
        prof = line_profile(curve, point)
        assert (prof.sparse, prof.tangents, prof.trisecants, prof.chords) == tuple(
            kinds.count(kind) for kind in (KIND_SPARSE, KIND_TANGENT, KIND_TRISECANT, KIND_CHORD))
        brute.append(kinds.count(KIND_TRISECANT))
    assert scan.min_count == min(brute)
    assert scan.histogram == {
        int(v): int(c) for v, c in zip(*np.unique(brute, return_counts=True))
    }
    first = ids[int(np.argmin(brute))]
    assert scan.argmin == system.point_id_to_proj(int(first))


@pytest.mark.parametrize("q", [5, 7, 9, 13, 25, 27])
def test_point_accumulation_matches_the_pencils(q):
    # the per-point counts, accumulated q marked lines at a time, against each
    # point's pencil read in the line table, for the trisecant and the tangent
    # masks; every curve has more than q marked non-vertical lines of each
    # kind, so the accumulation crosses a chunk boundary
    field = field_of_order(q)
    checked = 0
    for curve in itertools.islice(curve_scan(field), 60):
        system = LineSystem(curve)
        masks = (system.kind == 2, system.tangent)
        if min(int(mask[: q * q].sum()) for mask in masks) <= q:
            continue
        pencils = system.pencils([system.point_id_to_proj(pid) for pid in range(q * q + q + 1)])
        for mask in masks:
            assert np.array_equal(system._point_accumulate(mask), mask[pencils].sum(axis=1))
        checked += 1
        if checked == 3:
            break
    assert checked == 3


def test_min_trisecants_deterministic_across_instances():
    f11 = field_make(11)
    curve = short_curve(f11, 2, 0, 4)
    one = min_trisecants(curve)
    two = min_trisecants(curve)
    assert one == two


def _pencil_trisecants(curve, point):
    """(dual, triple) per trisecant through a point, from line_meet's exact
    factorisation of every line of the pencil."""
    out = []
    for dual in lines_through(curve.field, point):
        meet = line_meet(curve, dual)
        if meet.kind == KIND_TRISECANT:
            out.append((meet.dual, tuple(p for p, _ in meet.points)))
    return out


def test_trisecants_through_queries():
    # short and shifted models, a prime and a prime-square field; points of
    # all three planar types, on and off the curve
    for q, coeffs in [(7, (0, 0, 0, 5, 1)), (7, (1, 2, 0, 3, 5)), (9, (1, 0, 0, 1, 2)),
                      (13, (0, 0, 0, 2, 5))]:
        field = field_make(*(3, 2) if q == 9 else (q, 1))
        curve = curve_make(field, coeffs)
        system = LineSystem(curve)
        avoid = curve.affine_points[:2] + (INFINITY,)
        affine = [(1, x, y) for x in range(0, q, 2) for y in range(q)]
        infinite = [(0, 1, m) for m in range(q)]
        for pt in affine + infinite + [(0, 0, 1)]:
            exact = _pencil_trisecants(curve, pt)
            # the table-backed query lists the same lines, triples and order
            assert system.trisecants_through(pt) == exact
            assert system.trisecants_through(pt, require_affine=True) == [
                (d, t) for d, t in exact if INFINITY not in t
            ]
            assert system.trisecants_through(pt, avoid_points=avoid) == [
                (d, t) for d, t in exact if not set(t) & set(avoid)
            ]


def test_zero_j_hypotheses():
    assert not zero_j_hypotheses_params(11, 2, 121, True, True)  # q too small
    assert not zero_j_hypotheses_params(13, 1, 13, True, True)
    assert zero_j_hypotheses_params(7, 6, 7**6, True, True)  # p = 7 is 1 mod 3
    assert not zero_j_hypotheses_params(7, 6, 7**6, False, True)
    assert zero_j_hypotheses_params(11, 4, 11**4, True, True)  # r even
    assert not zero_j_hypotheses_params(11, 3, 11**3, True, True)
    f11sq = field_make(11, 2)
    curve = short_curve(f11sq, 0, 0, 1)
    assert curve.j == 0 and not zero_j_hypotheses(curve)


def test_lines_through_pencil():
    f7 = field_make(7)
    for pt in [(1, 2, 3), (0, 1, 4), (0, 0, 1)]:
        pencil = lines_through(f7, pt)
        assert len(pencil) == 8
        assert all(incidence(f7, d, pt) for d in pencil)


def test_pencils_reject_rows_of_the_wrong_width():
    curve = short_curve(field_make(13), 0, 2, 5)
    system = LineSystem(curve)
    with pytest.raises(DimensionMismatch):
        system.pencils([(1, 2, 3, 1, 4, 5)])
    with pytest.raises(DimensionMismatch):
        system.pencils([1, 2, 3])
    assert system.pencils([(1, 2, 3)]).shape == (1, 14)
    assert system.pencils(np.empty((0, 3), dtype=np.int64)).shape == (0, 14)
    # a plane point or line of the wrong width, where one was unpacked
    calls = [functools.partial(func, curve)
             for func in (point_on_curve, geometric_tangents, line_profile, line_meet)]
    for call in calls + [functools.partial(lines_through, curve.field), system.dual_to_id]:
        for point in [(1, 0), (1, 2, 3, 4)]:
            with pytest.raises(DimensionMismatch):
                call(point)
