import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellnmds.curve import INFINITY, EllipticCurve, curve_make, curve_scan, nq1, short_curve
from ellnmds.errors import EvenCharacteristic, NotPrimePower, ScanLimitExceeded, Singular
from ellnmds.gf import field_make, field_of_order
from ellnmds.secants import line_meet


def brute_count_points(field, coeffs):
    """Exhaustive oracle: affine solutions of the full curve equation, plus one."""
    a1, a2, a3, a4, a5 = coeffs
    count = 0
    sols = []
    for x in range(field.q):
        for y in range(field.q):
            lhs = field.add(
                field.mul(y, y),
                field.add(field.mul(a1, field.mul(x, y)), field.mul(a2, y)),
            )
            x2 = field.mul(x, x)
            rhs = field.add(
                field.mul(x, x2),
                field.add(
                    field.mul(a3, x2), field.add(field.mul(a4, x), a5)
                ),
            )
            if lhs == rhs:
                count += 1
                sols.append((x, y))
    return count + 1, sorted(sols)


def test_curve_make_examples_f5():
    f5 = field_make(5)
    e1 = curve_make(f5, (0, 0, 0, 1, 0))  # y^2 = x^3 + x
    assert e1.n == brute_count_points(f5, e1.coeffs)[0] == 4
    e2 = curve_make(f5, (0, 0, 0, 0, f5.neg(1)))  # y^2 = x^3 + 1 (note sign of a5)
    assert e2.n == brute_count_points(f5, e2.coeffs)[0]
    e3 = short_curve(f5, 0, 0, 1)  # y^2 = x^3 + 1 in the squared-away builder
    assert e3.n == 6
    with pytest.raises(Singular):
        curve_make(f5, (0, 0, 0, 0, 0))  # y^2 = x^3, cusp


def test_point_list_matches_oracle():
    f7 = field_make(7)
    for coeffs in [(0, 0, 0, 1, 3), (1, 0, 0, 2, 1), (0, 1, 0, 0, 6), (2, 3, 1, 0, 5)]:
        try:
            curve = curve_make(f7, coeffs)
        except Singular:
            continue
        n, sols = brute_count_points(f7, coeffs)
        assert curve.n == n
        assert list(curve.affine_points) == sols
        assert curve.points[-1] is INFINITY
        for x, y in curve.affine_points:
            assert curve.is_on_curve(x, y)


def test_even_characteristic_rejected():
    f2 = field_make(2, 3)
    with pytest.raises(EvenCharacteristic):
        curve_make(f2, (0, 0, 0, 1, 1))


def test_short_form_preserves_count():
    f5 = field_make(5)
    curve = curve_make(f5, (0, 1, 0, 0, 0))  # y^2 + y = x^3
    a, b, c = curve.short_form()
    recount, _ = brute_count_points(f5, (0, 0, a, b, c))
    assert recount == curve.n

    f13 = field_make(13)
    rng = random.Random(42)
    done = 0
    while done < 20:
        coeffs = tuple(rng.randrange(13) for _ in range(5))
        try:
            curve = curve_make(f13, coeffs)
        except Singular:
            continue
        a, b, c = curve.short_form()
        shifted = curve_make(f13, (0, 0, a, b, c))
        assert shifted.n == curve.n
        assert shifted.j == curve.j
        done += 1


def test_j_invariant_examples():
    f7 = field_make(7)
    assert short_curve(f7, 0, 0, 1).j == 0
    f5 = field_make(5)
    assert short_curve(f5, 0, 1, 0).j == 1728 % 5 == 3


def test_nq1_values():
    assert nq1(13) == 21
    assert nq1(128) == 150
    assert nq1(9) == 16
    assert nq1(5) == 10
    assert nq1(7) == 13
    assert nq1(11) == 18
    with pytest.raises(NotPrimePower):
        nq1(12)


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (3, 2)])
def test_scan_max_hits_waterhouse_bound(p, r):
    field = field_make(p, r)
    best = max(curve.n for curve in curve_scan(field))
    assert best == nq1(field.q)


def test_scan_hasse_and_filter():
    f7 = field_make(7)
    for curve in curve_scan(f7):
        dev = curve.n - 8
        assert dev * dev <= 28
    zeros = list(curve_scan(f7, summary_filter=lambda s: s.j_is_zero))
    assert zeros and all(c.j == 0 for c in zeros)
    with pytest.raises(ScanLimitExceeded):
        next(curve_scan(field_make(11, 2), scan_limit=100))


def test_deterministic_point_order():
    f13 = field_make(13)
    one = curve_make(f13, (1, 2, 3, 4, 5))
    two = curve_make(f13, (1, 2, 3, 4, 5))
    assert one.points == two.points
    assert one.summary() == two.summary()


def test_no_rational_singular_point_when_nonsingular():
    # partial-derivative check on a sample; the discriminant test is the gate
    f9 = field_make(3, 2)
    curve = short_curve(f9, 1, 0, 2)
    a, b, c = curve.short_form()
    fld = curve.field
    for x in range(9):
        for y in range(9):
            on = fld.mul(y, y) == curve.g_of_x(x)
            # grad of y^2 - g(x): (-g'(x), 2y)
            x2 = fld.mul(x, x)
            gp = fld.add(
                fld.mul(3 % 3, x2),
                fld.add(fld.mul(fld.mul(2 % 3, a), x), b),
            )
            if on and gp == 0 and fld.mul(2 % 3, y) == 0:
                raise AssertionError("rational singular point on nonsingular curve")


def test_json_shape():
    f5 = field_make(5)
    d = short_curve(f5, 0, 0, 1).to_json_dict()
    assert d["q"] == 5 and d["n"] == 6
    assert d["points"][-1] == "inf"
    assert all(len(pt) == 2 for pt in d["points"][:-1])


# ---- the group law ------------------------------------------------------------


def _plane_point(point):
    return (0, 0, 1) if point is INFINITY else (1, point[0], point[1])


def _line_through(field, u, v):
    """Dual (a, b, c) of a + bX + cY = 0 through two distinct plane points."""
    return tuple(
        field.sub(field.mul(u[i], v[j]), field.mul(u[j], v[i]))
        for i, j in ((1, 2), (2, 0), (0, 1))
    )


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([5, 7, 9, 11, 13, 25, 121]), data=st.data())
def test_addition_table_is_the_chord_tangent_group(q, data):
    field = field_of_order(q)
    coeffs = data.draw(st.lists(st.integers(0, q - 1), min_size=5, max_size=5))
    try:
        curve = curve_make(field, coeffs)
    except Singular:
        assume(False)
    add, neg = curve.addition_table, curve.negation
    n = curve.n
    idx = np.arange(n)
    o = n - 1
    assert curve.points[o] is INFINITY
    assert (add[o] == idx).all() and (add[:, o] == idx).all()
    assert (add[idx, neg] == o).all()
    assert (add == add.T).all()
    assert (add[add[:, :, None], idx] == add[idx[:, None, None], add[None, :, :]]).all()
    # P, Q and -(P + Q) are the points of the line PQ, with multiplicity
    where = {pt: i for i, pt in enumerate(curve.points)}
    for _ in range(6):
        i, j = data.draw(st.lists(st.integers(0, o), min_size=2, max_size=2, unique=True))
        line = _line_through(field, _plane_point(curve.points[i]), _plane_point(curve.points[j]))
        met = sorted(where[pt] for pt, mult in line_meet(curve, line).points for _ in range(mult))
        assert met == sorted([i, j, int(neg[add[i, j]])])


def test_zero_sum_counts_match_subset_enumeration():
    # Li-Wan's closed form against a walk over every j-subset, on every third
    # curve of each field; the subset sums fold through the addition table
    checked = 0
    for q in (5, 7, 9):
        for curve in itertools.islice(curve_scan(field_of_order(q)), 0, None, 3):
            add, o = curve.addition_table, curve.n - 1
            want = [1]
            for j in range(1, 7):
                subsets = np.array(list(itertools.combinations(range(curve.n), j)))
                sums = np.full(len(subsets), o)
                for col in subsets.T:
                    sums = add[sums, col]
                want.append(int((sums == o).sum()))
            assert curve.zero_sum_counts(6) == tuple(want)
            assert curve.zero_sum_counts(3) == tuple(want[:4])
            checked += 1
    assert checked > 300


def test_zero_sum_counts_walk_the_table_once(monkeypatch):
    # any kmax reads Z_j off one cached walk of point orders: calls with
    # kmax 3, 6, 4 give fresh curves' values and read the table once
    reads, real = [], EllipticCurve.addition_table
    monkeypatch.setattr(EllipticCurve, "addition_table",
                        property(lambda self: reads.append(self) or real.fget(self)))
    for q in (7, 13, 121):
        field = field_of_order(q)
        for coeffs in [c.coeffs for c in itertools.islice(curve_scan(field), 0, 60, 6)]:
            curve = curve_make(field, coeffs)
            got = [curve.zero_sum_counts(kmax) for kmax in (3, 6, 4)]
            assert got == [curve_make(field, coeffs).zero_sum_counts(kmax) for kmax in (3, 6, 4)]
            assert sum(r is curve for r in reads) == 1
            # each point's order: the least d >= 1 with d * P = O
            add, o = real.fget(curve), curve.n - 1
            for i, order in enumerate(curve._np_cache["orders"].tolist()):
                multiple = i
                for _ in range(order - 1):
                    assert multiple != o
                    multiple = add[multiple, i]
                assert multiple == o
