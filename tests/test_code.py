import itertools

import numpy as np
import pytest

from ellnmds import code as code_mod, geometry
from ellnmds.code import (
    LABEL_AMDS,
    _codeword_weights,
    LABEL_MDS,
    LABEL_NMDS,
    LABEL_OTHER,
    Classification,
    LinearCode,
    classify,
    dual_min_distance,
    extend,
    generator_matrix,
    h_extendability_oracle,
    krawtchouk,
    macwilliams_transform,
    min_distance,
    parity_check,
    parse_matrix_text,
    rank_gf,
    weight_distribution,
)
from ellnmds.curve import curve_scan, short_curve
from ellnmds.errors import Budget, BudgetExceeded, KOutOfRange
from ellnmds.geometry import addable_points, proj_space_size
from ellnmds.gf import field_make, field_of_order
from reference import codeword_weights_by_zero_test, h_extendable_brute_force, max_extension_chain


def all_codewords(code):
    """Oracle: every codeword by full message enumeration, scalar loops only."""
    field = code.field
    m = len(code.rows)
    words = set()
    for msg in itertools.product(range(field.q), repeat=m):
        word = [0] * code.n
        for coef, row in zip(msg, code.rows):
            for i, v in enumerate(row):
                word[i] = field.add(word[i], field.mul(coef, v))
        words.add(tuple(word))
    return words


def test_generator_matrix_shape_and_last_column():
    f5 = field_make(5)
    curve = short_curve(f5, 0, 0, 1)
    code = generator_matrix(curve, 3)
    assert (code.n, code.k) == (6, 3)
    assert tuple(r[-1] for r in code.rows) == (0, 0, 1)
    with pytest.raises(KOutOfRange):
        generator_matrix(curve, curve.n)


def test_min_distance_frozen_f5_example():
    # y^2 = x^3 + 1 over F_5 embeds to a [6,3] code; the points (0,1), (2,3),
    # (4,0) are collinear, so the largest line section is 3 and d = 3
    f5 = field_make(5)
    code = generator_matrix(short_curve(f5, 0, 0, 1), 3)
    assert min_distance(code) == 3
    words = all_codewords(code)
    assert min(sum(1 for v in w if v) for w in words if any(w)) == 3
    cls = classify(code)
    assert cls.label == LABEL_NMDS and (cls.s, cls.s_dual) == (1, 1)


def test_min_distance_identity_code():
    f7 = field_make(7)
    code = LinearCode(f7, [[1 if i == j else 0 for j in range(4)] for i in range(4)])
    assert min_distance(code) == 1
    cls = classify(code)
    assert cls.label == LABEL_MDS and cls.s == 0
    assert dual_min_distance(code) is None and cls.d_dual is None and cls.s_dual is None


def test_group_law_distance_stands_alone_when_enumeration_is_refused():
    curve = short_curve(field_make(7), 0, 5, 1)
    d = min_distance(generator_matrix(curve, 3))
    code = generator_matrix(curve, 3)
    code.arc.secant_profile()  # the group-law profile, charged to a throwaway budget
    estimate = proj_space_size(7, len(code.rows)) * code.n  # codeword_enumeration
    assert min_distance(code, Budget(estimate - 1)) == d
    assert code._d_paths == {"codewords": None, "secants": d}
    with pytest.raises(BudgetExceeded):
        min_distance(LinearCode(code.field, code.rows), Budget(estimate - 1))


def test_min_distance_paths_agree_on_sample():
    for q in (5, 7, 9):
        p, r = (q, 1) if q != 9 else (3, 2)
        field = field_make(p, r)
        for curve in itertools.islice(curve_scan(field), 10):
            for k in range(3, min(6, curve.n - 1) + 1):
                code = generator_matrix(curve, k)
                d = min_distance(code)
                assert code._d_paths["codewords"] == code._d_paths["secants"] == d


def test_arc_codes_run_one_matmul_and_no_scan(monkeypatch):
    # an arc code's profile comes from the group law, so classifying it runs
    # the codeword enumeration once and never the whole-space scan
    def no_scan(*args, **kwargs):
        raise AssertionError("secant_scan ran on an arc code")

    calls = []

    def counting(code, budget):
        calls.append(code)
        return _codeword_weights(code, budget)

    monkeypatch.setattr(geometry, "secant_scan", no_scan)
    monkeypatch.setattr(code_mod, "_codeword_weights", counting)
    for q in (7, 13):
        for curve in itertools.islice(curve_scan(field_of_order(q)), 0, None, 40):
            for k in range(3, min(6, curve.n - 1) + 1):
                calls.clear()
                code = generator_matrix(curve, k)
                cls = classify(code)
                assert calls == [code]
                assert cls.d == code._d_paths["codewords"] == code._d_paths["secants"]


def test_weight_distribution_matches_enumeration():
    f5 = field_make(5)
    code = generator_matrix(short_curve(f5, 0, 0, 1), 3)
    dist = weight_distribution(code)
    words = all_codewords(code)
    brute = [0] * (code.n + 1)
    for w in words:
        brute[sum(1 for v in w if v)] += 1
    assert dist == brute
    assert sum(dist) == 5**3


def _dual_distance_by_enumeration(code):
    dual = LinearCode(code.field, parity_check(code.field, code.rows))
    return min(sum(1 for v in w if v) for w in all_codewords(dual) if any(w))


def test_dual_distance_against_dual_enumeration():
    f5 = field_make(5)
    for curve in itertools.islice(curve_scan(f5), 8):
        if curve.n - 1 < 3:
            continue
        code = generator_matrix(curve, 3)
        assert dual_min_distance(code) == _dual_distance_by_enumeration(code)


def test_dual_distance_zero_column():
    f5 = field_make(5)
    code = LinearCode(f5, [[1, 0, 2, 0], [0, 1, 3, 0]])
    assert dual_min_distance(code) == 1 == _dual_distance_by_enumeration(code)


@pytest.mark.parametrize("q, rows, d, d_dual, label", [
    # the [4,2,3] tetracode plus a zero column: s = 1, s_dual = 3 - 1 = 2
    (3, [[1, 0, 1, 1, 0], [0, 1, 1, 2, 0]], 3, 1, LABEL_AMDS),
    # an MDS [5,3,3] code with its last column repeated: s = 1, s_dual = 4 - 2
    (5, [[1, 0, 0, 1, 1, 1], [0, 1, 0, 1, 2, 2], [0, 0, 1, 1, 3, 3]], 3, 2, LABEL_AMDS),
    # a weight-1 word and a redundant third row: s = 5 - 2 + 1 - 1 = 3
    (5, [[1, 0, 0, 0, 0], [0, 1, 1, 1, 1], [1, 1, 1, 1, 1]], 1, 2, LABEL_OTHER),
    # [4,2,2] with s = 1 and s_dual = 3 - 2 = 1, for contrast
    (3, [[1, 0, 1, 0], [0, 1, 0, 1]], 2, 2, LABEL_NMDS),
])
def test_labels_of_hand_built_codes(q, rows, d, d_dual, label):
    code = LinearCode(field_of_order(q), rows)
    want = _dual_distance_by_enumeration(code)
    assert want == d_dual
    cls = classify(code)
    assert (cls.d, cls.d_dual, cls.label) == (d, d_dual, label)
    assert dual_min_distance(code) == want


def test_dual_distance_in_expected_band_for_arcs():
    for q in (5, 7, 13):
        field = field_make(q)
        for curve in itertools.islice(curve_scan(field), 6):
            for k in range(3, min(6, curve.n - 1) + 1):
                code = generator_matrix(curve, k)
                dd = dual_min_distance(code)
                assert dd in (k, k + 1)


def test_macwilliams_identity_code():
    # [4,2] code over F_3 cross-checked by hand enumeration
    f3 = field_make(3)
    code = LinearCode(f3, [[1, 0, 1, 2], [0, 1, 2, 1]])
    dist = weight_distribution(code)
    dual_dist = macwilliams_transform(dist, 4, 2, 3)
    h = parity_check(f3, code.rows)
    dual = LinearCode(f3, h)
    brute = [0] * 5
    for w in all_codewords(dual):
        brute[sum(1 for v in w if v)] += 1
    assert dual_dist == brute


def test_macwilliams_transform_on_sweep_codes():
    # the cached Krawtchouk matrix gives the sums of the pointwise formula,
    # on first use and on a cache hit
    for q in (7, 9, 13):
        field = field_make(*((3, 2) if q == 9 else (q, 1)))
        for curve in itertools.islice(curve_scan(field), 3):
            n = curve.n
            for k in range(3, min(6, n - 1) + 1):
                a = weight_distribution(generator_matrix(curve, k))
                expected = [
                    sum(a[i] * krawtchouk(n, q, j, i) for i in range(n + 1)) // q**k
                    for j in range(n + 1)
                ]
                assert macwilliams_transform(a, n, k, q) == expected
                assert macwilliams_transform(a, n, k, q) == expected


def test_extend_and_project_back():
    f5 = field_make(5)
    code = generator_matrix(short_curve(f5, 0, 0, 1), 3)
    ext = extend(code, (1, 2, 3))
    assert ext.n == code.n + 1
    # the first n columns are the code's rows, the last the one appended
    assert [row[:-1] for row in ext.rows] == list(code.rows)
    assert [row[-1] for row in ext.rows] == [1, 2, 3]
    assert ext.k == code.k


def test_extend_by_addable_point_raises_distance():
    f5 = field_make(5)
    found_addable = found_blocked = False
    for curve in curve_scan(f5):
        if curve.n - 1 < 3:
            continue
        code = generator_matrix(curve, 3)
        d = min_distance(code)
        addable = addable_points(code.arc)
        if addable and not found_addable:
            ext = extend(code, addable[0])
            assert min_distance(ext) == d + 1
            found_addable = True
        profile = code.arc.secant_profile()
        if profile[3] > 0 and not found_blocked:
            # a point on a 3-secant line keeps d unchanged
            from ellnmds.geometry import secant_scan

            _, fulls = secant_scan(code.arc)
            h = fulls[0]
            # find a point on that line outside the arc
            for x2 in range(5):
                for pt in ([1, x2, 0], [1, x2, 1], [1, x2, 2], [1, x2, 3], [1, x2, 4], [0, 1, x2]):
                    acc = sum(int(a) * int(b) for a, b in zip(h, pt)) % 5
                    if acc == 0 and tuple(pt) not in set(code.arc.points):
                        ext = extend(code, pt)
                        assert min_distance(ext) == d
                        found_blocked = True
                        break
                if found_blocked:
                    break
        if found_addable and found_blocked:
            break
    assert found_addable and found_blocked


def test_oracle_h0_and_h1_matches_addable():
    f5 = field_make(5)
    for curve in itertools.islice(curve_scan(f5), 12):
        if curve.n - 1 < 3:
            continue
        code = generator_matrix(curve, 3)
        assert h_extendability_oracle(code, 0)
        addable = addable_points(code.arc)
        assert h_extendability_oracle(code, 1) == bool(addable)


def test_oracle_prefilter_matches_brute_force():
    f5 = field_make(5)
    done = 0
    for curve in curve_scan(f5):
        if curve.n - 1 < 3:
            continue
        code = generator_matrix(curve, 3)
        for h in (1, 2):
            assert h_extendability_oracle(code, h) == h_extendable_brute_force(code, h)
        done += 1
        if done == 4:
            break


def test_oracle_repeats_a_column_when_only_a_repeat_extends():
    # ternary [6,2,4] with columns (1,0), (0,1), (1,1), each twice: its one
    # [8,2,6] extension adds (1,2) twice, so a chain that never reuses a
    # column finds none
    code = LinearCode(field_make(3), [[1, 1, 0, 0, 1, 1], [0, 0, 1, 1, 1, 1]])
    assert min_distance(code) == 4
    assert h_extendability_oracle(code, 2) and h_extendable_brute_force(code, 2)
    assert min_distance(extend(extend(code, (1, 2)), (1, 2))) == 6


def test_oracle_asks_every_added_column_to_raise_the_distance():
    # ternary [3,2,2] with columns (0,1), (1,1), (1,2): one added column
    # reaches d = 3, but no second one reaches d = 4
    code = LinearCode(field_make(3), [[0, 1, 1], [1, 1, 2]])
    assert min_distance(code) == 2
    assert h_extendability_oracle(code, 1) and h_extendable_brute_force(code, 1)
    assert not h_extendability_oracle(code, 2) and not h_extendable_brute_force(code, 2)


def test_the_oracle_charges_its_search_before_building_columns(monkeypatch):
    # the N x N indicator of the added columns is built only after the chain
    # search's charge passes: a refused search builds nothing
    code = generator_matrix(short_curve(field_make(7), 0, 5, 1), 3)
    min_distance(code)  # enumerates and keeps the weights
    calls = []
    real = code_mod.dot_zero_mask
    monkeypatch.setattr(code_mod, "dot_zero_mask", lambda *a: calls.append(a) or real(*a))
    with pytest.raises(BudgetExceeded) as refused:
        h_extendability_oracle(code, 1, Budget(0))
    assert refused.value.label == "extendability_chain_search"
    assert calls == []
    h_extendability_oracle(code, 1, Budget(None))
    assert len(calls) == 1  # the spy sees the indicator once the search runs


def test_code_chain_counterexample():
    # completion size depends on the greedy choice: for y^2 = x^3 + x + 1
    # over F_5 at k = 4, adding (0,0,1,1) completes the set immediately, yet
    # the chain (1,2,0,0), (1,4,0,0) extends twice, so the code is
    # 2-extendable even though one completion stops after a single point
    from ellnmds.curve import curve_make
    from ellnmds.geometry import complete_arc

    f5 = field_make(5)
    code = generator_matrix(curve_make(f5, (0, 0, 0, 1, 1)), 4)
    assert (code.n, code.k, min_distance(code)) == (9, 4, 5)
    result = complete_arc(code.arc, max_add=4)
    assert result.added == [(0, 0, 1, 1)] and result.complete
    assert max_extension_chain(code.arc, limit=3) == 2
    assert h_extendability_oracle(code, 2)
    assert not h_extendability_oracle(code, 3)
    ext = extend(extend(code, (1, 2, 0, 0)), (1, 4, 0, 0))
    assert min_distance(ext) == 7


def test_singleton_bound_everywhere():
    for q in (5, 7):
        field = field_make(q)
        for curve in itertools.islice(curve_scan(field), 15):
            for k in range(3, min(6, curve.n - 1) + 1):
                code = generator_matrix(curve, k)
                assert 1 <= min_distance(code) <= code.n - code.k + 1


def test_matrix_text_roundtrip():
    f5 = field_make(5)
    code = generator_matrix(short_curve(f5, 0, 0, 1), 3)
    text = f"5 {len(code.rows)} {code.n}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in code.rows)
    back = parse_matrix_text(text)
    assert back.rows == code.rows and back.field == code.field
    assert rank_gf(f5, back.rows) == 3


def test_a_code_enumerates_its_codewords_once():
    labels = []

    class RecordingBudget(Budget):
        def charge(self, label, estimate):
            super().charge(label, estimate)
            labels.append(label)

    budget = RecordingBudget(None)
    code = generator_matrix(short_curve(field_make(7), 0, 5, 1), 3, budget)
    d = min_distance(code, budget)
    weights = _codeword_weights(code, budget)
    h_extendability_oracle(code, 1, budget)
    weight_distribution(code, budget)
    assert _codeword_weights(code, budget) is weights
    assert labels.count("codeword_enumeration") == 1
    assert int(weights[weights > 0].min()) == d
    with pytest.raises(ValueError):
        weights[0] = 0


# every (q, m) with |P^(m-1)| <= 3e6 over these orders; q = 243 at m = 3 folds
# its digits in two groups, so the values kernel combines them
_ROOT_COUNT_CASES = [(q, m) for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 121, 243)
                     for m in range(1, 6) if proj_space_size(q, m) <= 3_000_000]


def _matrices(field, m, rng):
    """Random (m, n) matrices: plain, with a zero column, with zero last
    coordinates, with a repeated row and with an all-zero last row (the last
    two have rows > rank when m > 1)."""
    q = field.q
    for case in ("plain", "zero column", "zero last", "repeated row", "zero last row"):
        n = int(rng.integers(1, 11))
        mat = rng.integers(0, q, size=(m, n))
        if case == "zero column":
            mat[:, rng.integers(n)] = 0
        elif case == "zero last":
            mat[-1, rng.random(n) < 0.5] = 0
        elif case == "repeated row" and m > 1:
            mat[-1] = mat[0]
        elif case == "zero last row" and m > 1:
            mat[-1] = 0
        if not mat.any():
            mat[0, 0] = 1
        yield case, LinearCode(field, mat.tolist())


@pytest.mark.parametrize("q, m", _ROOT_COUNT_CASES, ids=[f"q{q}-m{m}" for q, m in _ROOT_COUNT_CASES])
def test_root_count_matches_the_zero_test(q, m):
    # the root count over P^(m-2) lists every message class's weight exactly
    # where the whole-space zero test over P^(m-1) does
    field = field_of_order(q)
    rng = np.random.default_rng([q, m])
    for case, code in _matrices(field, m, rng):
        got = _codeword_weights(code, Budget(None))
        want = codeword_weights_by_zero_test(code)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), (case, code.matrix.tolist())


@pytest.mark.parametrize("q", [5, 7])
def test_root_count_matches_the_zero_test_on_every_sweep_code(q):
    for curve in curve_scan(field_of_order(q)):
        for k in range(3, min(6, curve.n - 1) + 1):
            code = generator_matrix(curve, k)
            assert np.array_equal(_codeword_weights(code, Budget(None)),
                                  codeword_weights_by_zero_test(code)), (curve.coeffs, k)
