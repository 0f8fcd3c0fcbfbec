import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellnmds.curve import INFINITY, curve_make, curve_scan, short_curve
from ellnmds import curve as curve_mod
from ellnmds import geometry
from ellnmds.code import generator_matrix, min_distance
from ellnmds.errors import (
    ArcPropertyViolated,
    BadIndex,
    Budget,
    DimensionMismatch,
    InvariantViolated,
    KOutOfRange,
    Singular,
)
from ellnmds.extendability import choose_frame, k5_candidates
from ellnmds.geometry import (
    ProjPointSet,
    addable_filter,
    addable_points,
    arc_make,
    complete_arc,
    coords_to_enc,
    enc_to_coords,
    full_hyperplanes_via_subsets,
    pencil_tables,
    normalize_coords,
    normalize_points,
    normalize_rows,
    phi_k,
    proj_reps,
    proj_space_size,
    psi,
    secant_scan,
)
from ellnmds import gf
from ellnmds.gf import (
    dot_zero_mask,
    field_make,
    field_of_order,
    linear_w_matrix,
    parity_check,
    rows_digits,
)
from reference import incidence


# ---- independent oracles for prime fields (no library arithmetic) ----------


def prime_proj_reps(q, k):
    reps = []
    for lead in range(k - 1, -1, -1):
        for tail in itertools.product(range(q), repeat=k - 1 - lead):
            reps.append((0,) * lead + (1,) + tail)
    return np.array(reps, dtype=np.int64)


def naive_addable(q, k, arc_rows):
    reps = prime_proj_reps(q, k)
    arc = np.array(arc_rows, dtype=np.int64)
    counts = ((reps @ arc.T) % q == 0).sum(axis=1)
    assert counts.max() <= k
    fulls = reps[counts == k]
    arc_set = {tuple(r) for r in arc_rows}
    out = []
    for pt in reps:
        t = tuple(int(v) for v in pt)
        if t in arc_set:
            continue
        if len(fulls) == 0 or ((fulls @ pt) % q != 0).all():
            out.append(t)
    return out


def naive_max_secant(q, k, arc_rows):
    reps = prime_proj_reps(q, k)
    arc = np.array(arc_rows, dtype=np.int64)
    return int(((reps @ arc.T) % q == 0).sum(axis=1).max())


def unsieved_addable(ps):
    """Addable points with no pencil sieve: every point off the set, zero
    tested against the full hyperplanes of a plain copy's whole-space scan
    (blocks of them, dropping the points already on one)."""
    field, k = ps.field, ps.k
    _, fulls = secant_scan(ProjPointSet(field, k, ps.points))
    out = []
    for reps in proj_reps(field, k, 1 << 15):
        reps = reps[~np.isin(coords_to_enc(reps, field.q), ps.encs)]
        for start in range(0, len(fulls), 256):
            w = linear_w_matrix(field, fulls[start: start + 256])
            reps = reps[~dot_zero_mask(field, reps, w).any(axis=1)]
        out.extend(map(tuple, reps.tolist()))
    return out


# ---- monomials and the embedding -------------------------------------------


def test_psi_values():
    f = field_make(7)
    x, y = 3, 5
    assert psi(f, 2, x, y) == x
    assert psi(f, 3, x, y) == y
    assert psi(f, 4, x, y) == f.mul(x, x)
    assert psi(f, 5, x, y) == f.mul(x, y)
    assert psi(f, 6, x, y) == f.mul(y, y)
    assert psi(f, 7, x, y) == f.mul(f.mul(x, x), y)
    with pytest.raises(BadIndex):
        psi(f, 1, x, y)


def test_phi_k():
    f = field_make(5)
    assert phi_k(f, (2, 3), 4) == (1, 2, 3, 4)
    assert phi_k(f, INFINITY, 5) == (0, 0, 0, 0, 1)
    assert phi_k(f, (0, 1), 6) == (1, 0, 1, 0, 0, 1)


def test_arc_f5_cubic_plus_one():
    f5 = field_make(5)
    curve = short_curve(f5, 0, 0, 1)
    arc = arc_make(curve, 3)
    assert arc.n == 6
    assert arc.points[-1] == (0, 0, 1)
    # brute force: no line of P^2(F_5) carries 4 arc points
    assert naive_max_secant(5, 3, arc.points) == 3
    with pytest.raises(KOutOfRange):
        arc_make(curve, curve.n)
    with pytest.raises(KOutOfRange):
        arc_make(curve, 2)


def _incident_mask(ps, hyperplane):
    return dot_zero_mask(ps.field, normalize_points(ps.field, ps.k, [hyperplane]), ps.w_matrix)[0]


def test_secant_count_last_coordinate_plane():
    f5 = field_make(5)
    arc = arc_make(short_curve(f5, 0, 0, 1), 3)
    nonzero_last = sum(1 for pt in arc.points if pt[-1] != 0)
    assert _incident_mask(arc, (0, 0, 1)).sum() == arc.n - nonzero_last
    on_first = [pt for pt in arc.points if pt[0] == 0]
    assert [arc.points[i] for i in np.flatnonzero(_incident_mask(arc, (1, 0, 0)))] == on_first


def test_normalization_and_incidence_invariance():
    f = field_make(3, 2)
    coords = (0, 5, 7)
    norm = normalize_coords(f, coords)
    assert norm[1] == 1
    assert normalize_coords(f, norm) == norm
    h = (4, 2, 1)
    pt = (1, 3, f.neg(f.div(f.add(4, f.mul(2, 3)), 1)))
    base = incidence(f, h, pt)
    for s in range(1, 9):
        hs = tuple(f.mul(s, c) for c in h)
        ps = tuple(f.mul(s, c) for c in pt)
        assert incidence(f, hs, pt) == base
        assert incidence(f, h, ps) == base


def _reference_normalize(field, row):
    # scale by the inverse of the leading coordinate, found by search
    lead = next(c for c in row if c)
    inv = next(s for s in range(1, field.q) if field.mul(s, lead) == 1)
    return tuple(field.mul(inv, c) for c in row)


@pytest.mark.parametrize("p,r", [(7, 1), (13, 1), (3, 2), (5, 2), (3, 3)])
def test_normalize_rows_matches_a_plain_integer_reference(p, r):
    field = field_make(p, r)
    rng = np.random.default_rng(p * 10 + r)
    rows = rng.integers(0, field.q, size=(300, 4))
    rows[:100, :2] = 0  # leading zeros move the pivot
    rows[:50, 2] = 0
    rows = rows[rows.any(axis=1)]
    want = [_reference_normalize(field, [int(v) for v in row]) for row in rows]
    assert [tuple(row) for row in normalize_rows(field, rows).tolist()] == want
    assert [tuple(row) for row in normalize_points(field, 4, rows).tolist()] == want
    assert [normalize_coords(field, row) for row in rows[:20]] == want[:20]
    normalized = normalize_rows(field, rows)  # every leading coordinate 1: a copy comes back
    again = normalize_rows(field, normalized)
    assert again is not normalized and np.array_equal(again, normalized)
    for bad in ([0, 0, 0, 0], [1, 2, field.q, 0], [1, -1, 0, 0], [1, 2**70, 0, 0]):
        with pytest.raises(ValueError):
            normalize_points(field, 4, [rows[0], bad])
        with pytest.raises(ValueError):
            normalize_coords(field, bad)
    for bad in ([(1, 2, 3)], [(1, 2, 3, 4, 5)], [1, 2, 3, 4]):
        with pytest.raises(DimensionMismatch):
            normalize_points(field, 4, bad)


def test_proj_enumeration_order_and_size():
    f = field_make(5)
    rows = np.vstack(list(proj_reps(f, 3, chunk_rows=7)))
    assert len(rows) == proj_space_size(5, 3) == 31
    encs = coords_to_enc(rows, 5)
    assert (np.diff(encs) > 0).all()
    assert tuple(rows[0]) == (0, 0, 1)


@pytest.mark.parametrize("q", [5, 7])
def test_arc_property_and_independence_exhaustive(q):
    field = field_make(q)
    for curve in curve_scan(field):
        for k in range(3, min(6, curve.n - 1) + 1):
            arc = arc_make(curve, k)
            assert naive_max_secant(q, k, arc.points) <= k
            # every (k-1)-subset of points linearly independent
            pts = np.array(arc.points, dtype=np.int64)
            for sub in itertools.combinations(range(arc.n), k - 1):
                m = np.array([pts[i] for i in sub], dtype=np.float64)
                # integer rank via fraction-free elimination mod q
                mm = np.array([pts[i] for i in sub], dtype=np.int64) % q
                rank = _rank_mod_p(mm, q)
                assert rank == k - 1
        break  # independence subcheck is heavy; full sweep runs below


def _rank_mod_p(mat, p):
    mat = mat.copy() % p
    rank = 0
    rows, cols = mat.shape
    for c in range(cols):
        piv = None
        for r in range(rank, rows):
            if mat[r, c] % p:
                piv = r
                break
        if piv is None:
            continue
        mat[[rank, piv]] = mat[[piv, rank]]
        inv = pow(int(mat[rank, c]), p - 2, p)
        mat[rank] = (mat[rank] * inv) % p
        for r in range(rows):
            if r != rank and mat[r, c]:
                mat[r] = (mat[r] - mat[r, c] * mat[rank]) % p
        rank += 1
    return rank


@pytest.mark.parametrize("q", [5, 7])
def test_independence_all_curves(q):
    field = field_make(q)
    for curve in curve_scan(field):
        for k in range(3, min(6, curve.n - 1) + 1):
            arc = arc_make(curve, k)
            pts = np.array(arc.points, dtype=np.int64)
            for sub in itertools.combinations(range(arc.n), k - 1):
                assert _rank_mod_p(pts[list(sub)], q) == k - 1


@pytest.mark.parametrize("q", [5, 7])
def test_addable_matches_naive_oracle(q):
    field = field_make(q)
    for curve in curve_scan(field):
        for k in (3, 4):
            if k > curve.n - 1:
                continue
            arc = arc_make(curve, k)
            got = addable_points(arc)
            want = naive_addable(q, k, arc.points)
            assert got == want


def _walk_and_scan_agree(ps) -> bool:
    """The walk and the whole-space scan give the same full hyperplanes, or
    both refuse the set; True when they compared full hyperplanes."""
    try:
        _, fulls_scan = secant_scan(ps)
    except ArcPropertyViolated:
        with pytest.raises(ArcPropertyViolated):
            full_hyperplanes_via_subsets(ps)
        return False
    assert np.array_equal(full_hyperplanes_via_subsets(ps), coords_to_enc(fulls_scan, ps.field.q))
    return True


def test_subset_route_matches_scan_route():
    cases = [(5, 3), (5, 4), (7, 3), (7, 4), (7, 5), (7, 6), (9, 4), (9, 5), (9, 6),
             (11, 3), (11, 4), (11, 5), (11, 6), (13, 3), (13, 4), (13, 5), (13, 6),
             (25, 3), (25, 4), (25, 5), (27, 3), (27, 4), (27, 5)]
    extended = set()  # (q, k, points after the arc) of the compared sets
    for q, k in cases:
        field = field_of_order(q)
        rng = np.random.default_rng([q, k])
        for i, curve in enumerate(itertools.islice(curve_scan(field), 12 if q < 11 else 3)):
            if k > curve.n - 1:
                continue
            arc = arc_make(curve, k)
            assert _walk_and_scan_agree(arc)
            if k < 5 or (q > 13 and i):
                continue
            # one and two points after the arc, each the first addable point of
            # the set so far, else one drawn off it: the spans through them must
            # find what the scan finds, or both routes must refuse the set
            ps = arc
            for _ in range(2):
                row = (addable_points(ps) or [rng.integers(0, q, size=k)])[0]
                if (coords_to_enc(normalize_points(field, k, [row]), q) == ps.encs).any():
                    break
                ps = ps.with_point(row)
                if not _walk_and_scan_agree(ps):
                    break
                extended.add((q, k, ps.n - arc.n))
    assert extended >= {(q, k, j) for q in (7, 9, 13) for k in (5, 6) for j in (1, 2)}


def test_subset_route_after_completion_rounds():
    # the q = 11, k = 5 verdict of the CLI goldens adds two points to its
    # framed arc; after each, the spans through the added points must find
    # the same full hyperplanes as the whole-space scan
    field = field_make(11)
    framed, _ = choose_frame(curve_make(field, (0, 0, 0, 1, 4)), force=True)
    arc = arc_make(framed, 5)
    cands, _ = k5_candidates(framed)
    result = complete_arc(arc, 3, candidates=cands)
    assert result.added == [(0, 1, 0, 0, 2), (0, 1, 1, 0, 9)]
    ps = arc
    for pt in result.added:
        ps, prev = ps.with_point(pt), ps
        assert ps.parent is prev
        _, fulls_scan = secant_scan(ps)
        assert np.array_equal(full_hyperplanes_via_subsets(ps), coords_to_enc(fulls_scan, ps.field.q))


def test_a_child_walks_only_the_spans_through_its_new_point(monkeypatch):
    # a completion round's set takes its parent's kept walk and spans only
    # through the point it adds: no group-law window runs again, and without
    # the parent's hyperplanes the walk no longer matches the whole-space scan
    field = field_make(11)
    framed, _ = choose_frame(curve_make(field, (0, 0, 0, 1, 4)), force=True)
    arc = arc_make(framed, 5)
    arc.walk()
    windows, real = [], geometry._arc_windows
    monkeypatch.setattr(geometry, "_arc_windows", lambda *a: windows.append(a) or real(*a))
    child = arc.with_point((0, 1, 0, 0, 2))
    scanned = coords_to_enc(secant_scan(child)[1], field.q)
    assert np.array_equal(child.walk(), scanned)
    assert windows == []
    arc_make(framed, 5).walk()
    assert len(windows) == 1  # the spy sees an arc's walk
    monkeypatch.setattr(arc, "walk", lambda: np.empty(0, dtype=np.int64))
    assert not np.array_equal(full_hyperplanes_via_subsets(child), scanned)
    with pytest.raises(ValueError):
        ProjPointSet(field, 5, child.points[1:], parent=arc)


def test_group_law_check_catches_a_bad_table(monkeypatch):
    curve = next(c for c in curve_scan(field_make(11)) if c.n >= 12)
    arc = arc_make(curve, 3)
    add, neg = curve.addition_table, curve.negation
    # a chord i < j < last with room for a wrong prediction between j and last
    i, j = next((i, j) for i, j in itertools.combinations(range(curve.n), 2)
                if neg[add[i, j]] > j + 1)
    bad = add.copy()
    bad[i, j] = bad[j, i] = neg[j + 1]  # predicts j + 1, which is off the chord
    monkeypatch.setitem(curve._np_cache, "group", (bad, neg))
    with pytest.raises(InvariantViolated):
        full_hyperplanes_via_subsets(arc)


@pytest.mark.parametrize("q", [7, 9])
def test_subset_route_with_a_degenerate_subset(q):
    # three collinear points make a dependent 3-subset, whose whole pencil of
    # hyperplanes the subset route has to add
    field = field_of_order(q)
    ps = ProjPointSet(field, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0),
                                 (0, 0, 1, 0), (0, 0, 0, 1)])
    _, fulls_scan = secant_scan(ps)
    assert len(fulls_scan)
    assert np.array_equal(full_hyperplanes_via_subsets(ps), coords_to_enc(fulls_scan, ps.field.q))


def _null_vector(field, stack):
    """Normalized null vector of a (k-1) x k stack by Gaussian elimination
    (``parity_check`` over ``rref_gf``), or None below rank k-1."""
    basis = parity_check(field, stack.tolist())
    return normalize_coords(field, basis[0]) if len(basis) == 1 else None


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from([5, 7, 9, 11, 13, 25, 27]), k=st.integers(3, 6), data=st.data())
def test_trie_duals_match_gaussian_elimination(q, k, data):
    # every (k-1)-subset of a few rows, some of them combinations of earlier
    # rows so that rank-deficient stacks occur: the minor trie's dual is the
    # elimination's null vector up to a scalar, and zero below rank k-1
    field = field_of_order(q)
    elems = st.integers(0, q - 1)
    rows = []
    for _ in range(data.draw(st.integers(k - 1, k + 2))):
        if len(rows) >= 2 and data.draw(st.booleans()):
            (a, x), (b, y) = (data.draw(st.tuples(elems, st.sampled_from(rows))) for _ in "ab")
            rows.append([field.add(field.mul(a, u), field.mul(b, v)) for u, v in zip(x, y)])
        else:
            rows.append(data.draw(st.lists(elems, min_size=k, max_size=k)))
    rows = np.array(rows, dtype=np.int64)
    signed, minors = geometry._minor_trie(field, rows, k - 2, data.draw(st.integers(1, 4)))
    for top in range(k - 2, len(rows)):
        rests = sorted(itertools.combinations(range(top), k - 2), key=lambda c: c[::-1])
        duals = geometry._minors(field, signed[top], minors[:, : len(rests)], k - 1)[::-1].T
        for rest, dual in zip(rests, duals):
            want = _null_vector(field, rows[[*rest, top]])
            if want is None:
                assert not dual.any()
            else:
                assert normalize_coords(field, dual) == want


def test_walk_catches_a_corrupted_trie_minor(monkeypatch):
    # one wrong (k-2)-minor under a zero-sum k-subset moves that subset's
    # dual off its points; the predicted-point test must refuse the hyperplane
    real = geometry._minor_trie
    for q, k in [(11, 3), (11, 4), (13, 5), (13, 6)]:
        curve = next(c for c in curve_scan(field_of_order(q)) if c.n > k + 2)
        arc = arc_make(curve, k)
        add, o = curve.addition_table, curve.n - 1
        first = next(s for s in itertools.combinations(range(curve.n), k)
                     if functools.reduce(lambda acc, i: add[acc, i], s, o) == o)
        rank = sum(math.comb(c, i + 1) for i, c in enumerate(first[: k - 2]))

        # the minor over columns 2..k-1 enters dual coordinate 1 times the
        # top point's leading coordinate, 1
        row = list(itertools.combinations(range(k), k - 2)).index(tuple(range(2, k)))

        def corrupt(field, coords, depth, step):
            signed, minors = real(field, coords, depth, step)
            minors = minors.copy()
            minors[row, rank] = field.add(int(minors[row, rank]), 1)
            return signed, minors

        monkeypatch.setattr(geometry, "_minor_trie", corrupt)
        with pytest.raises((InvariantViolated, ArcPropertyViolated)):
            full_hyperplanes_via_subsets(arc)
        monkeypatch.undo()
        assert len(full_hyperplanes_via_subsets(arc)) == curve.zero_sum_counts(k)[k]


def _wrong_monomial_arc(monkeypatch, q, k):
    """An arc whose coordinate psi_i is read at a wrong pole order, the first
    (curve, i, order) whose images stay distinct."""
    real = geometry.psi
    curves = (c for c in curve_scan(field_of_order(q)) if c.n > k + 2)
    for curve, i, order in itertools.product(curves, range(2, k + 1), range(k + 1, k + 5)):
        monkeypatch.setattr(geometry, "psi", lambda field, j, x, y, i=i, order=order:
                            real(field, order if j == i else j, x, y))
        try:
            return arc_make(curve, k)
        except ValueError:  # two points share their image
            pass
        finally:
            monkeypatch.undo()
    raise AssertionError("no wrong monomial keeps the points distinct")


def test_walk_refuses_an_arc_off_the_embedding(monkeypatch):
    # a wrong monomial, or one wrong coordinate of one point: a zero-sum
    # k-subset's dual misses a point it predicts
    real_phi = geometry.phi_k
    for q, k in [(11, 3), (11, 4), (13, 5), (13, 6)]:
        curve = next(c for c in curve_scan(field_of_order(q)) if c.n > k + 2)
        images = {real_phi(curve.field, pt, k) for pt in curve.points}
        moved = curve.points[curve.n // 2]
        image = real_phi(curve.field, moved, k)
        wrong = next(image[:-1] + (c,) for c in range(q) if image[:-1] + (c,) not in images)
        monkeypatch.setattr(geometry, "phi_k", lambda field, pt, kk, moved=moved, wrong=wrong:
                            wrong if pt == moved else real_phi(field, pt, kk))
        one_off = arc_make(curve, k)
        monkeypatch.undo()
        for arc in (_wrong_monomial_arc(monkeypatch, q, k), one_off):
            with pytest.raises(InvariantViolated):
                full_hyperplanes_via_subsets(arc)


def test_walk_refuses_a_hyperplane_reached_twice(monkeypatch):
    # one window walked twice gives its hyperplanes twice, as a hyperplane
    # through more than k arc points would come from two zero-sum k-subsets;
    # at q = 121 consecutive tops share windows, at q <= 13 one window is all
    real = geometry._arc_windows

    def twice(*args):
        windows = list(real(*args))
        first = next(i for i, (_, rest, _) in enumerate(windows) if len(rest))
        return windows[: first + 1] + windows[first:]

    for q, k in [(11, 3), (13, 4), (13, 5), (121, 4)]:
        arc = arc_make(next(c for c in curve_scan(field_of_order(q)) if c.n > k + 2), k)
        monkeypatch.setattr(geometry, "_arc_windows", twice)
        with pytest.raises(ArcPropertyViolated, match="reached twice"):
            full_hyperplanes_via_subsets(arc)
        monkeypatch.undo()


def test_arc_windows_confirm_only_the_predicted_points(monkeypatch):
    # the arc's windows test each hyperplane at its k predicted points and
    # run no zero test against all n points; a set with points after the arc
    # counts its spans through them with the whole mask
    calls = {"mask": [], "mask_digits": [], "at": []}
    for name, key in (("dot_zero_mask", "mask"), ("dot_zero_mask_digits", "mask_digits"),
                      ("dot_zero_at_digits", "at")):
        real = getattr(geometry, name)
        monkeypatch.setattr(geometry, name,
                            lambda *a, real=real, key=key: calls[key].append(a) or real(*a))
    field = field_make(11)
    framed, _ = choose_frame(curve_make(field, (0, 0, 0, 1, 4)), force=True)
    arc = arc_make(framed, 5)
    fulls = arc.walk()
    assert len(fulls) == framed.zero_sum_counts(5)[5]
    assert calls["mask"] == calls["mask_digits"] == []
    assert sum(len(cols) for *_, cols in calls["at"]) == len(fulls)
    assert all(cols.shape[1] == 5 for *_, cols in calls["at"])
    calls["at"].clear()
    arc.with_point((0, 1, 0, 0, 2)).walk()
    assert calls["at"] == [] and len(calls["mask"]) >= 1


def test_the_negation_check_maps_the_walk_in_bounded_memory():
    # the check maps the walk a chunk at a time; mapping the whole walk at
    # once, as the check did before, takes more than one (Z, k) int64 array
    curve = curve_make(field_of_order(121), (0, 0, 75, 109, 5))
    arc = arc_make(curve, 5)
    fulls = arc.walk()
    odd = geometry.negation_odd(curve.field, 5)
    bound = fulls.size * 5 * 8
    tracemalloc.start()
    try:
        assert np.array_equal(geometry._negation_group(arc, Budget(None)), odd)
        chunked = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        images = geometry.negated_encs(curve.field, enc_to_coords(fulls, 121, 5), odd)
        assert np.array_equal(np.sort(images), fulls)
        whole = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chunked < bound < whole


def test_addable_filter_agrees_with_full_scan():
    field = field_make(7)
    for curve in itertools.islice(curve_scan(field), 8):
        if curve.n - 1 < 4:
            continue
        arc = arc_make(curve, 4)
        full = addable_points(arc)
        reps = prime_proj_reps(7, 4)
        filtered = addable_filter(arc, [tuple(int(v) for v in r) for r in reps])
        assert filtered == full


def test_scans_agree_without_the_reps_cache(monkeypatch):
    # both branches of proj_chunks: slices of the cached space, then
    # generated chunks once no space fits the cache
    curves = [next(c for c in curve_scan(field_of_order(q)) if c.n >= 8) for q in (7, 9)]

    def results():
        out = []
        for curve in curves:
            for k in (3, 4):
                arc = arc_make(curve, k)
                profile, fulls = secant_scan(arc)
                digits = np.vstack([d for _, d in geometry.proj_chunks(curve.field, k, 50)])
                out.append((profile.tolist(), fulls.tolist(), addable_points(arc),
                            min_distance(generator_matrix(curve, k)),
                            digits.dtype, digits.tolist()))
        return out

    cached = results()
    assert {row[4] for row in cached} == {np.dtype(np.uint8)}
    monkeypatch.setattr(geometry, "_REPS_CACHE_MAX_ROWS", 0)
    assert geometry.proj_reps_cached(curves[0].field, 3) is None
    assert results() == cached


def test_the_cached_space_is_built_in_bounded_memory(monkeypatch):
    # the entry is filled a chunk at a time into narrow arrays: building
    # P^3(F_121) costs the entry and one chunk's int64 temporaries, where
    # stacking the whole space at int64 and expanding it at once takes 10x more
    field, k = field_of_order(121), 4
    monkeypatch.delitem(geometry._REPS_CACHE, (field.p, field.r, k), raising=False)
    tracemalloc.start()
    try:
        coords, digits = geometry.proj_reps_cached(field, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coords.shape == (1_786_324, k) and digits.shape == (1_786_324, k * field.r)
    assert coords.dtype == digits.dtype == np.uint8
    chunk = geometry._REPS_CHUNK_ROWS * (k + k * field.r) * 8  # coords and digits at int64
    assert peak < coords.nbytes + digits.nbytes + 2 * chunk


def test_the_cached_space_cannot_be_mutated():
    # every caller shares the one entry: a write into a chunk must fail
    coords, digits = next(geometry.proj_chunks(field_make(7), 3, 10))
    for rows in (coords, digits):
        with pytest.raises(ValueError):
            rows[0, 0] = 1


def test_complete_arc_greedy_matches_naive(monkeypatch):
    # rounds after the first filter the previous round's addable points, so a
    # completion walks P^2 once, while each round still charges its set's scan
    real, walks = geometry.proj_chunks, []
    monkeypatch.setattr(geometry, "proj_chunks", lambda *a: walks.append(a) or real(*a))
    field = field_make(5)
    rounds = []
    for curve in itertools.islice(curve_scan(field), 25):
        if curve.n - 1 < 3:
            continue
        arc = arc_make(curve, 3)
        walks.clear()
        budget = Budget(None)
        result = complete_arc(arc, max_add=10, budget=budget)
        assert len(walks) == 1
        assert budget.spent == sum(proj_space_size(5, 3) * (arc.n + i)
                                   for i in range(len(result.added) + 1))
        rounds.append(len(result.added) + 1)
        # replay the greedy loop against the naive oracle
        pts = list(arc.points)
        naive_added = []
        while True:
            addable = naive_addable(5, 3, pts)
            if not addable:
                break
            choice = min(addable, key=lambda t: coords_to_enc(np.array([t]), 5)[0])
            naive_added.append(choice)
            pts.append(choice)
        assert result.added == naive_added
        assert result.complete
        if not result.added:
            assert result.final is arc or result.final.n == arc.n
    assert max(rounds) >= 3


def test_complete_arc_respects_max_add():
    field = field_make(5)
    for curve in curve_scan(field):
        if curve.n - 1 < 3:
            continue
        arc = arc_make(curve, 3)
        unlimited = complete_arc(arc, max_add=10)
        if len(unlimited.added) >= 2:
            capped = complete_arc(arc, max_add=1)
            assert capped.added == unlimited.added[:1]
            assert not capped.complete
            break
    else:
        pytest.skip("no curve needing two additions at q=5, k=3")


def test_scan_deterministic_across_chunk_sizes():
    field = field_make(7)
    curve = next(c for c in curve_scan(field) if c.n >= 6)
    p1, f1 = secant_scan(arc_make(curve, 4), chunk_rows=37)
    p2, f2 = secant_scan(arc_make(curve, 4), chunk_rows=11)
    assert (p1 == p2).all()
    assert np.array_equal(f1, f2)


def test_point_set_rejects_duplicates_and_dimension():
    f = field_make(5)
    with pytest.raises(ValueError):
        ProjPointSet(f, 3, [(1, 0, 0), (2, 0, 0)])
    with pytest.raises(DimensionMismatch):
        ProjPointSet(f, 3, [(1, 0, 0, 0)])
    # a hyperplane of the wrong width, as the zero test's rows are checked
    for hyperplane in [(1, 0, 0, 0), (1, 0)]:
        with pytest.raises(DimensionMismatch):
            normalize_points(f, 3, [hyperplane])


def test_a_point_set_walks_once_and_shares_read_only_results(monkeypatch):
    # an arc and a plain set each walk once: the charged fulls, the uncharged
    # walk, addable points and the candidate filter all read one kept array
    arc = arc_make(short_curve(field_make(7), 0, 5, 1), 3)
    plain = ProjPointSet(arc.field, 3, arc.points[:-1])
    walked = []
    real = geometry.full_hyperplanes_via_subsets
    monkeypatch.setattr(geometry, "full_hyperplanes_via_subsets",
                        lambda ps: walked.append(ps) or real(ps))
    budget = Budget(None)
    for ps in (arc, plain):
        spent = budget.spent
        fulls = ps.fulls(budget)
        assert np.array_equal(fulls, coords_to_enc(secant_scan(ps)[1], 7)) and len(fulls)
        addable_points(ps, budget)
        addable_filter(ps, [(1, 1, 1)], Budget(None))
        assert ps.fulls(budget) is fulls and ps.walk() is fulls
        assert sum(w is ps for w in walked) == 1
        assert budget.spent - spent == proj_space_size(7, 3) * ps.n
        with pytest.raises(ValueError):
            fulls[0] = 0
    # the group-law profile shares the arc's charge
    profile = arc.secant_profile(budget)
    assert np.array_equal(profile, secant_scan(arc)[0])
    assert arc.secant_profile() is profile
    with pytest.raises(ValueError):
        profile[0] = 0
    assert budget.spent == proj_space_size(7, 3) * (arc.n + plain.n)


def test_arc_led_sets_take_full_hyperplanes_from_the_group_law(monkeypatch):
    # the unsieved zero test against the scan of plain copies of each arc and
    # its extensions by one and two greedy points is the reference for the
    # group-law walk, on the sets and on plain copies of them alike
    chains = []
    for q in (5, 7, 9, 11, 13):
        field = field_of_order(q)
        for curve in [c for c in curve_scan(field) if c.n >= 8][:2]:
            for k in (3, 4, 5):
                ps, chain = arc_make(curve, k), []
                while len(chain) < 3:
                    want = unsieved_addable(ps)
                    chain.append(want)
                    if not want:
                        break
                    ps = ps.with_point(want[0])
                chains.append((curve, k, chain))
    assert sum(len(chain) == 3 for _, _, chain in chains) >= 10

    class RecordingBudget(Budget):
        def charge(self, label, estimate):
            super().charge(label, estimate)
            charges.append((label, int(estimate)))

    def no_scan(*args, **kwargs):
        raise AssertionError("secant_scan ran in the library")

    monkeypatch.setattr(geometry, "secant_scan", no_scan)
    for curve, k, chain in chains:
        ps = arc_make(curve, k)
        for want in chain:
            for tested in (ps, ProjPointSet(curve.field, k, ps.points)):
                charges = []
                budget = RecordingBudget(None)
                assert addable_points(tested, budget) == want
                assert addable_points(tested, budget) == want
                assert charges == [("hyperplane_scan", proj_space_size(curve.field.q, k) * ps.n)]
                with pytest.raises(ValueError):
                    tested.fulls()[0] = 0
            if want:
                ps = ps.with_point(want[0])


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([5, 7, 9, 11, 13, 25, 27]), data=st.data())
def test_group_law_profile_equals_the_scan(q, data):
    field = field_of_order(q)
    coeffs = data.draw(st.lists(st.integers(0, q - 1), min_size=3, max_size=3))
    try:
        curve = short_curve(field, *coeffs)
    except Singular:
        assume(False)
    assume(curve.n >= 4)
    k = data.draw(st.integers(3, min(6 if q < 25 else 5, curve.n - 1)))
    arc = arc_make(curve, k)
    assert np.array_equal(arc.secant_profile(), secant_scan(arc)[0])


def test_group_law_profile_breaks_under_mutation(monkeypatch):
    # one zero-sum subset more or less, or every theta_m read as theta_(m+1),
    # must move the profile off the scan's
    real_counts, real_size = curve_mod.EllipticCurve.zero_sum_counts, geometry.proj_space_size
    mutants = {
        "z+1": (lambda self, kmax: real_counts(self, kmax)[:-1] + (real_counts(self, kmax)[-1] + 1,),
                real_size),
        "z-1": (lambda self, kmax: real_counts(self, kmax)[:-1] + (real_counts(self, kmax)[-1] - 1,),
                real_size),
        "theta": (real_counts, lambda q, m: real_size(q, m + 1)),
    }
    for q, k in [(7, 3), (9, 4), (11, 5), (13, 6)]:
        curve = next(c for c in curve_scan(field_of_order(q)) if c.n > k + 2)
        scanned = secant_scan(arc_make(curve, k))[0]
        for counts, size in mutants.values():
            monkeypatch.setattr(curve_mod.EllipticCurve, "zero_sum_counts", counts)
            monkeypatch.setattr(geometry, "proj_space_size", size)
            assert not np.array_equal(arc_make(curve, k).secant_profile(), scanned)
        monkeypatch.undo()


@settings(max_examples=30, deadline=None)
@given(q=st.sampled_from([5, 7, 9, 11, 13, 25, 27, 81]), data=st.data())
def test_the_pencil_sieve_is_exact(q, data):
    # arc-led sets, with up to two addable points appended, and plain copies:
    # the sieved filters match the unsieved reference, in any axis order; at
    # q = 81 the fold has two groups of three digits, so the groups combine
    field = field_of_order(q)
    coeffs = data.draw(st.lists(st.integers(0, q - 1), min_size=3, max_size=3))
    try:
        curve = short_curve(field, *coeffs)
    except Singular:
        assume(False)
    assume(curve.n >= 4)
    k = data.draw(st.integers(3, min({81: 3, 25: 5, 27: 5}.get(q, 6), curve.n - 1)))
    assert geometry.proj_reps_cached(field, k) is not None
    ps = arc_make(curve, k)
    want = unsieved_addable(ps)
    for _ in range(data.draw(st.integers(0, 2))):
        if not want:
            break
        ps = ps.with_point(want[data.draw(st.integers(0, len(want) - 1))])
        want = unsieved_addable(ps)
    plain = data.draw(st.booleans())

    def fresh():
        if plain:
            return ProjPointSet(field, k, ps.points)
        return functools.reduce(ProjPointSet.with_point, ps.points[curve.n:], arc_make(curve, k))

    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    space = proj_space_size(q, k)
    picks = rng.choice(space, min(space, 2000), replace=False)
    reps = np.vstack(list(proj_reps(field, k)))
    cands = np.unique(np.vstack([reps[picks], np.array(want, dtype=np.int64).reshape(-1, k)]),
                      axis=0)
    rng.shuffle(cands)
    cand_set = set(map(tuple, cands.tolist()))
    assert addable_points(fresh()) == want
    assert addable_filter(fresh(), cands) == [p for p in want if p in cand_set]
    real = geometry._pencil_axes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_pencil_axes", lambda *a: real(*a)[::-1])
        assert addable_points(fresh()) == want
        assert addable_filter(fresh(), cands) == [p for p in want if p in cand_set]


def _combinations(field, coeffs, basis):
    """Rows coeffs @ basis over the field, by its scalar tables."""
    out = np.zeros((len(coeffs), basis.shape[1]), dtype=np.int64)
    for c, row in zip(coeffs.T, basis):
        out = field.add_np(out, field.mul_np(c[:, None], row[None, :]))
    return out


def _table_zero_dots(field, rows, duals):
    """(m, h) mask: row . dual is zero, by the field's scalar tables."""
    dots = np.zeros((len(rows), len(duals)), dtype=np.int64)
    for j in range(rows.shape[1]):
        dots = field.add_np(dots, field.mul_np(rows[:, j, None], duals[None, :, j]))
    return dots == 0


@pytest.mark.parametrize("q, k", [(81, 4), (1021, 5), (4099, 3)])
def test_the_pencil_sieve_is_exact_on_planted_hyperplanes(q, k):
    # three hyperplanes, k set points planted on each, and candidates on
    # them: the sieved filter matches a reference that finds the full
    # hyperplanes by their spanning subsets and zero tests by the field's
    # tables.  q = 81 folds two groups of three digits; at q = 1021, k = 5 the
    # digit dots reach past 2^22, so the pencils' W is float32 only because
    # the fold's guard admits every width below 2^24; past q = 4096 no table
    # fits, and the sieve keeps every candidate
    field, rng = field_of_order(q), np.random.default_rng(q)
    bases = rng.integers(0, q, size=(3, k - 1, k))
    ps = ProjPointSet(field, k, normalize_rows(field, np.vstack(
        [_combinations(field, rng.integers(1, q, size=(k, k - 1)), b) for b in bases])).tolist())
    fulls = set()
    for sub in itertools.combinations(range(ps.n), k - 1):
        dual = parity_check(field, ps.coords[list(sub)])
        if len(dual) == 1 and _table_zero_dots(field, ps.coords, np.array(dual)).sum() == k:
            fulls.add(tuple(normalize_rows(field, np.array(dual))[0]))
    assert len(fulls) >= 3  # the planted ones, and any the points span by chance
    cands = np.vstack([_combinations(field, rng.integers(0, q, size=(300, k - 1)), b) for b in bases]
                      + [rng.integers(0, q, size=(300, k))])
    cands = np.unique(normalize_rows(field, cands[cands.any(axis=1)]), axis=0)
    rng.shuffle(cands)
    digits = rows_digits(field, cands)
    on_full = _table_zero_dots(field, cands, np.array(sorted(fulls))).any(axis=1)
    want = cands[~on_full & ~np.isin(coords_to_enc(cands, q), ps.encs)]
    assert np.array_equal(geometry.filter_by_fulls(ps, cands, digits), want)
    w, tables = ps.pencils()
    sieved, kept = geometry._pencil_sieve(ps, cands, digits)
    if q > 4096:
        assert w.shape[1] == len(tables) == 0
        assert np.array_equal(sieved, cands) and np.array_equal(kept, digits)
    else:
        assert len(sieved) < len(cands) - 100  # the pencils do drop candidates
    if q == 81:
        assert gf._fold_plan(field, k * field.r)[2].shape == (4, 2)
    if q == 1021:
        assert 1 << 22 <= (field.p - 1) ** 2 * k * field.r < 1 << 24 and w.dtype == np.float32


def test_the_pencil_sieve_drops_most_candidates_by_table():
    # at q = 121 the pencils leave few of P^3's 1.79M points to the zero
    # tests: each keeps about 1 - (n - k)/(2(q + 1)) of them
    field = field_of_order(121)
    curve = short_curve(field, 1, 1, 2)
    arc = arc_make(curve, 4)
    w, tables, duals = pencil_tables(arc)
    assert len(tables) == 24
    kept = 1 - tables[:, 1:].mean()  # members' keys are equally many, q - 1 each
    assert abs(kept - (1 - (arc.n - 4) / (2 * 122))) < 0.05
    coords, digits = geometry.proj_reps_cached(field, 4)
    survivors, _ = geometry._pencil_sieve(arc, coords[::9], digits[::9])
    assert len(survivors) <= 100


def test_a_walk_missing_a_pencil_hyperplane_is_refused(monkeypatch):
    # drop one full member of a sieve pencil from the walk: the sieve would
    # remove its points although the zero tests would not, so the cross-check
    # must refuse the walk rather than let the two disagree
    curve = next(c for c in curve_scan(field_make(13)) if c.n >= 14)
    real = geometry.full_hyperplanes_via_subsets
    for k in (3, 4, 5):
        dropped = pencil_tables(arc_make(curve, k))[2][0]
        monkeypatch.setattr(geometry, "full_hyperplanes_via_subsets",
                            lambda ps: np.setdiff1d(real(ps), [dropped]))
        with pytest.raises(InvariantViolated):
            addable_points(arc_make(curve, k))
        with pytest.raises(InvariantViolated):
            addable_filter(arc_make(curve, k), [(1,) * k])
        monkeypatch.undo()
        addable_points(arc_make(curve, k))


def test_a_pencil_member_over_k_points_is_refused():
    # four collinear points of P^2: the line through each axis point holds
    # four set points, one more than k = 3
    ps = ProjPointSet(field_make(5), 3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1)])
    with pytest.raises(ArcPropertyViolated):
        pencil_tables(ps)


# ---- negation orbits ---------------------------------------------------------


def _mixed_curves(field, count):
    """``count`` nonsingular curves with (a1, a2) != 0, from a fixed seed."""
    rng, out = np.random.default_rng(field.q), []
    while len(out) < count:
        coeffs = [int(c) for c in rng.integers(0, field.q, size=5)]
        if coeffs[0] == coeffs[1] == 0:
            continue
        try:
            curve = curve_make(field, coeffs)
        except Singular:
            continue
        if curve.n >= 8:
            out.append(curve)
    return out


def test_negation_signs_are_the_odd_y_degrees_of_psi():
    # -(x, y) = (x, -y) on a1 = a2 = 0 models flips psi_i exactly when its
    # Y-degree is odd: Y^s, X Y^s, X^2 Y^s for i = 3s, 3s + 2, 3s + 4
    for q in (5, 7, 9, 121):
        f = field_of_order(q)
        odd = geometry.negation_odd(f, 12)
        for i in range(2, 13):
            s = i // 3 if i % 3 == 0 else (i - 2) // 3 if i % 3 == 2 else (i - 4) // 3
            assert odd[i - 1] == (s % 2 == 1)
            for x, y in ((3, 4), (2, 1)):
                flipped = psi(f, i, x, f.neg(y))
                assert flipped == (f.neg(psi(f, i, x, y)) if odd[i - 1] else psi(f, i, x, y))
        assert geometry.negation_odd(f, 4).tolist() == [False, False, True, False]
        assert geometry.negation_odd(f, 5).tolist() == [False, False, True, False, True]
        assert geometry.negation_odd(f, 6).tolist() == [False, False, True, False, True, False]


@pytest.mark.parametrize("cached", [True, False])
def test_orbit_chunks_hold_one_point_per_orbit(monkeypatch, cached):
    # cached spaces yield one point an orbit; generated ones ignore the sign
    # pattern and yield the whole space, which the orbit merge handles the same
    if not cached:
        monkeypatch.setattr(geometry, "_REPS_CACHE_MAX_ROWS", 0)
    for q in (5, 7, 9, 11, 13, 25, 27):
        field = field_of_order(q)
        for k in (3, 4, 5):
            if proj_space_size(q, k) > 40_000:
                continue
            odd = geometry.negation_odd(field, k)
            everything = coords_to_enc(np.vstack(list(proj_reps(field, k))), q)
            fixed = geometry.negated_encs(field, enc_to_coords(everything, q, k), odd) == everything
            reps = np.vstack([c for c, _ in geometry.proj_chunks(field, k, 97, odd)])
            encs = coords_to_enc(reps, q)
            images = geometry.negated_encs(field, reps, odd)
            assert np.array_equal(encs, np.unique(encs))  # canonical order, no repeats
            assert np.array_equal(np.union1d(encs, images), everything)
            if cached:
                assert len(encs) == (len(everything) + fixed.sum()) // 2
            else:
                assert np.array_equal(encs, everything)


def test_orbit_filter_matches_the_whole_space_reference(monkeypatch):
    # arcs of a1 = a2 = 0 curves filter one point an orbit, the others every
    # point; both must give the unsieved all-points reference from secant_scan
    real, modes = geometry.proj_chunks, []
    monkeypatch.setattr(geometry, "proj_chunks",
                        lambda *a: modes.append(len(a) == 4 and a[3] is not None) or real(*a))
    for q in (5, 7, 9, 11, 13, 25, 27):
        field = field_of_order(q)
        short = [c for c in itertools.islice(curve_scan(field), 40) if c.n >= 8][:2]
        for curve in short + _mixed_curves(field, 2 if q < 25 else 1):
            for k in (3, 4, 5):
                if k == 5 and q > 13 or k > curve.n - 1:
                    continue
                arc = arc_make(curve, k)
                want = unsieved_addable(arc)
                modes.clear()
                assert addable_points(arc) == want
                assert modes == [curve.a1 == curve.a2 == 0]
    # one more pass over generated chunks, which hand every point to the filter
    monkeypatch.setattr(geometry, "_REPS_CACHE_MAX_ROWS", 0)
    for q in (7, 9):
        curve = next(c for c in curve_scan(field_of_order(q)) if c.n >= 8)
        for k in (3, 4):
            arc = arc_make(curve, k)
            assert addable_points(arc) == unsieved_addable(arc)


def test_plain_and_extended_sets_filter_every_point(monkeypatch):
    real, modes = geometry.proj_chunks, []
    monkeypatch.setattr(geometry, "proj_chunks",
                        lambda *a: modes.append(len(a) == 4 and a[3] is not None) or real(*a))
    arc = arc_make(curve_make(field_make(7), (0, 0, 0, 0, 2)), 4)
    for ps in (ProjPointSet(arc.field, 4, arc.points), arc.with_point(addable_points(arc)[0])):
        want = unsieved_addable(ps)
        modes.clear()
        assert addable_points(ps) == want
        assert modes == [False]


def _curve_with_full_orbits(q=13):
    return next(c for c in curve_scan(field_make(q)) if c.n >= 14)


def test_a_walk_missing_a_hyperplane_is_refused(monkeypatch):
    # a walk short of a full hyperplane that D moves is not permuted by D, so
    # the filter of one point an orbit must refuse it rather than answer for
    # the images of the points it tested
    curve = _curve_with_full_orbits()
    real = geometry.full_hyperplanes_via_subsets
    for k in (3, 4, 5):
        fulls, odd = real(arc_make(curve, k)), geometry.negation_odd(curve.field, k)
        images = geometry.negated_encs(curve.field, enc_to_coords(fulls, 13, k), odd)
        for dropped in fulls[images != fulls][[0, -1]]:
            monkeypatch.setattr(geometry, "full_hyperplanes_via_subsets",
                                lambda ps: np.setdiff1d(real(ps), [dropped]))
            with pytest.raises(InvariantViolated, match="negation does not permute the walk"):
                addable_points(arc_make(curve, k))
            monkeypatch.undo()


def test_a_walk_missing_one_negation_image_is_refused(monkeypatch):
    # the image of a full hyperplane swapped for a hyperplane outside the walk:
    # the count holds, so only the check that D permutes the walk can refuse it
    curve = _curve_with_full_orbits()
    real = geometry.full_hyperplanes_via_subsets
    for k in (3, 4, 5):
        arc = arc_make(curve, k)
        fulls, odd = real(arc), geometry.negation_odd(curve.field, k)
        images = geometry.negated_encs(curve.field, enc_to_coords(fulls, 13, k), odd)
        image = images[images != fulls][0]
        outside = np.setdiff1d(np.arange(1, 13**k), fulls)[0]

        def walk(ps, image=image, outside=outside):
            out = real(ps)
            return np.sort(np.where(out == image, outside, out))

        monkeypatch.setattr(geometry, "full_hyperplanes_via_subsets", walk)
        fresh = arc_make(curve, k)
        assert len(fresh.walk()) == len(fulls)
        with pytest.raises(InvariantViolated, match="negation does not permute the walk"):
            addable_points(fresh)
        monkeypatch.undo()


def test_a_set_the_negation_does_not_permute_is_refused():
    curve = _curve_with_full_orbits()
    for k in (3, 4):
        points = arc_make(curve, k).points
        moved = next(i for i, pt in enumerate(points) if pt[2] != 0)  # y != 0
        broken = geometry.EllipticArc(curve, k, points[:moved] + points[moved + 1:])
        with pytest.raises(InvariantViolated, match="negation does not permute the arc"):
            addable_points(broken)


def test_completion_walks_only_sets_with_points_left_to_filter(monkeypatch):
    # a point added with no other addable point left leaves nothing to filter:
    # its set is charged as before but never walked.  On q = 7, (0,0,0,0,2),
    # k = 4, the added point leaves 41 others, which only the walk of the
    # extended set shows to be blocked
    walked, real = [], geometry.full_hyperplanes_via_subsets
    monkeypatch.setattr(geometry, "full_hyperplanes_via_subsets",
                        lambda ps: walked.append(ps.n) or real(ps))
    for q, coeffs, k, left in ((5, (0, 0, 0, 3, 0), 3, 0), (7, (0, 0, 0, 0, 2), 4, 41)):
        curve = curve_make(field_make(q), coeffs)
        assert len(addable_points(arc_make(curve, k))) == 1 + left
        arc, budget = arc_make(curve, k), Budget(None)
        walked.clear()
        result = complete_arc(arc, 3, budget)
        assert len(result.added) == 1 and result.complete
        assert walked == [arc.n] + [arc.n + 1] * (left > 0)
        assert budget.spent == proj_space_size(q, k) * (2 * arc.n + 1)
