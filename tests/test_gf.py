import ast
import os
import pathlib
import platform
import random
import subprocess
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellnmds import gf
from ellnmds.errors import DivisionByZero, NotPrime, NotPrimePower, Overflow
from ellnmds.gf import (
    Field,
    factor_prime_power,
    field_make,
    field_of_order,
    gemm_dtype,
    linear_w_matrix,
    dot_values_digits,
    dot_zero_at_digits,
    dot_zero_mask,
    parity_check,
    rows_digits,
    rank_gf,
)


def test_field_make_basic():
    f5 = field_make(5, 1)
    assert (f5.p, f5.r, f5.q) == (5, 1, 5)
    assert list(f5.modulus) == [0, 1]

    f121 = field_make(11, 2)
    assert f121.q == 121

    with pytest.raises(NotPrime):
        field_make(4, 1)
    with pytest.raises(Overflow):
        field_make(2, 21)


def test_moduli_are_lex_smallest():
    # over F_3 and F_11 the first monic irreducible quadratic is X^2 + 1;
    # over F_5 that factors as (X+2)(X+3), and X^2 + X + 1 comes next
    assert list(field_make(3, 2).modulus) == [1, 0, 1]
    assert list(field_make(11, 2).modulus) == [1, 0, 1]
    assert list(field_make(5, 2).modulus) == [1, 1, 1]


def test_scalar_examples():
    f5 = field_make(5)
    assert f5.mul(2, 3) == 1
    assert f5.inv(4) == 4
    for a in range(5):
        assert f5.add(a, f5.neg(a)) == 0
    with pytest.raises(DivisionByZero):
        f5.inv(0)


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (3, 2), (13, 1), (5, 2)])
def test_axioms_exhaustive(p, r):
    f = field_make(p, r)
    q = f.q
    elems = range(q)
    for a in elems:
        assert f.mul(1, a) == a
        assert f.add(0, a) == a
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in elems:
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in list(elems)[:: max(1, q // 7)]:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_axioms_randomized_f121():
    f = field_make(11, 2)
    rng = random.Random(0)
    for _ in range(100_000 // 10):
        a, b, c = (rng.randrange(121) for _ in range(3))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    # bulk vectorized pass to reach the sample volume cheaply
    rng_np = np.random.default_rng(0)
    a, b, c = (rng_np.integers(0, 121, size=100_000) for _ in range(3))
    lhs = f.mul_np(a, f.add_np(b, c))
    rhs = f.add_np(f.mul_np(a, b), f.mul_np(a, c))
    assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("p,r", [(5, 1), (3, 2), (11, 2), (13, 1)])
def test_frobenius_and_square_counts(p, r):
    f = field_make(p, r)
    q = f.q
    squares = 0
    for a in range(q):
        assert f.pow(a, q) == a
        if a and f.is_square(a):
            squares += 1
    assert squares == (q - 1) // 2


def test_sqrt():
    f5 = field_make(5)
    assert f5.is_square(4) and f5.sqrt(4) == 2
    assert not f5.is_square(2) and f5.sqrt(2) is None
    assert f5.sqrt(0) == 0
    f9 = field_make(3, 2)
    g = f9.generator
    assert not f9.is_square(g)
    for a in range(9):
        s = f9.sqrt(a)
        if s is not None:
            assert f9.mul(s, s) == a
            assert s <= f9.neg(s)


# every element up to 3125, and 600 of F_{5^6}, a field above TABLE_THRESHOLD
@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 25, 27, 121, 3125, 15625])
def test_sqrt_and_residues_match_euler_criterion(q):
    # Euler's criterion through _ref_pow decides squareness; a root must
    # square to the element under _ref_mul and be the smaller of +-root
    field = field_of_order(q)
    minus_one = _ref_add(field, 0, 1, -1)
    for a in range(q) if q <= 3125 else random.Random(7).sample(range(q), 600):
        euler = 1 if a == 0 else _ref_pow(field, a, (q - 1) // 2)
        assert euler in (1, minus_one)
        assert field.is_square(a) == (euler == 1)
        root = field.sqrt(a)
        assert (root is not None) == (euler == 1)
        if root is not None:
            assert _ref_mul(field, root, root) == a
            assert root <= _ref_add(field, 0, root, -1)


def test_encoding_roundtrip():
    for p, r in [(5, 1), (3, 4), (11, 2), (2, 10)]:
        f = field_make(p, r)
        for a in range(0, f.q, max(1, f.q // 257)):
            assert sum(c * p**i for i, c in enumerate(gf._int_digits(a, p, r))) == a
        arr = np.arange(f.q, dtype=np.int64)
        assert np.array_equal(f.undigits_np(f.digits_np(arr)), arr)


def test_vector_ops_match_scalar():
    # q*q tables up to 1024 (9, 121, 625), digit and product tables up to
    # 4096 (1369), digit arithmetic above (4489)
    for p, r in [(7, 1), (3, 2), (11, 2), (5, 4), (37, 2), (67, 2)]:
        f = field_make(p, r)
        rng = np.random.default_rng(1)
        a = rng.integers(0, f.q, size=500)
        b = rng.integers(0, f.q, size=500)
        assert np.array_equal(f.digits_np(a), [_ref_digits(f, int(x)) for x in a])
        assert np.array_equal(f.add_np(a, b), [f.add(int(x), int(y)) for x, y in zip(a, b)])
        assert np.array_equal(f.sub_np(a, b), [f.sub(int(x), int(y)) for x, y in zip(a, b)])
        assert np.array_equal(f.sub_np(a[0], b), [f.sub(int(a[0]), int(y)) for y in b])
        assert np.array_equal(f.mul_np(a, b), [f.mul(int(x), int(y)) for x, y in zip(a, b)])
        assert np.array_equal(f.neg_np(a), [f.neg(int(x)) for x in a])
        nz = np.where(a == 0, 1, a)
        assert np.array_equal(f.inv_np(nz), [f.inv(int(x)) for x in nz])


def _ref_digits(field, a):
    return [a // field.p**i % field.p for i in range(field.r)]


def _ref_encode(field, coeffs):
    return sum(c % field.p * field.p**i for i, c in enumerate(coeffs))


def _ref_add(field, a, b, sign=1):
    return _ref_encode(field, [x + sign * y for x, y in zip(_ref_digits(field, a), _ref_digits(field, b))])


def _ref_mul(field, a, b):
    """Schoolbook product of the digit polynomials, then the remainder modulo
    the monic ``field.modulus``, in plain integers over F_p."""
    r = field.r
    prod = [0] * (2 * r - 1)
    for i, x in enumerate(_ref_digits(field, a)):
        for j, y in enumerate(_ref_digits(field, b)):
            prod[i + j] += x * y
    for m in range(2 * r - 2, r - 1, -1):
        lead = prod[m] % field.p
        for i, c in enumerate(field.modulus):
            prod[m - r + i] -= lead * c
    return _ref_encode(field, prod[:r])


def _ref_pow(field, a, e):
    out = 1
    for bit in bin(e)[2:]:
        out = _ref_mul(field, out, out)
        if bit == "1":
            out = _ref_mul(field, out, a)
    return out


# odd orders across every table regime: q*q add tables up to PAIR_TABLE_MAX,
# exp/log, product and inverse tables up to TABLE_THRESHOLD, digit products above
_PROPERTY_ORDERS = [7, 9, 25, 27, 121, 625, 729, 1369, 2187, 4489, 15625]


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from(_PROPERTY_ORDERS), data=st.data())
def test_field_arithmetic_matches_polynomial_arithmetic(q, data):
    field = field_of_order(q)
    size = data.draw(st.integers(1, 12), label="size")
    elems = st.lists(st.integers(0, q - 1), min_size=size, max_size=size)
    a, b, c = (data.draw(elems, label=name) for name in "abc")
    minus_one = _ref_add(field, 0, 1, -1)
    for x, y, z in zip(a, b, c):
        assert field.add(x, y) == _ref_add(field, x, y)
        assert field.sub(x, y) == _ref_add(field, x, y, -1)
        assert field.mul(x, y) == _ref_mul(field, x, y)
        assert field.mul(x, field.add(y, z)) == field.add(field.mul(x, y), field.mul(x, z))
        assert field.mul(field.mul(x, y), z) == field.mul(x, field.mul(y, z))
        assert field.add(field.add(x, y), z) == field.add(x, field.add(y, z))
    # after the products are checked: the square-root table squares every element
    for x in a:
        if x:
            assert _ref_mul(field, x, field.inv(x)) == 1
        assert field.pow(x, q) == x
        root = field.sqrt(x)
        if root is None:
            assert _ref_pow(field, x, (q - 1) // 2) == minus_one
        else:
            assert _ref_mul(field, root, root) == x
            assert root <= _ref_add(field, 0, root, -1)
        assert field.sqrt(_ref_mul(field, x, x)) == min(x, _ref_add(field, 0, x, -1))
    va, vb = np.array(a), np.array(b)
    assert field.add_np(va, vb).tolist() == [_ref_add(field, x, y) for x, y in zip(a, b)]
    assert field.sub_np(va, vb).tolist() == [_ref_add(field, x, y, -1) for x, y in zip(a, b)]
    assert field.mul_np(va, vb).tolist() == [_ref_mul(field, x, y) for x, y in zip(a, b)]
    nonzero = [x for x in a if x]
    if nonzero:
        assert field.inv_np(np.array(nonzero)).tolist() == [field.inv(x) for x in nonzero]
    roots = [field.sqrt(x) for x in a]
    assert field.sqrt_table_np[va].tolist() == [-1 if s is None else s for s in roots]


def test_mul_table_is_built_in_bounded_memory():
    field = Field(3, 7)  # fresh instance: no cached tables
    tracemalloc.start()
    try:
        table = field.mul_table_np
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    assert table.dtype == np.int32 and table.shape == (field.q, field.q)
    log = np.array(field.log[1:])
    expected = np.array(field.exp)[(log[:, None] + log[None, :]) % (field.q - 1)]
    assert np.array_equal(table[1:, 1:], expected)
    assert not table[0].any() and not table[:, 0].any()
    rng = random.Random(11)
    for _ in range(200):
        x, y = rng.randrange(field.q), rng.randrange(field.q)
        assert table[x, y] == _ref_mul(field, x, y)


def test_dot_zero_mask():
    f = field_make(11, 2)
    rng = np.random.default_rng(3)
    pts = rng.integers(0, f.q, size=(20, 3))
    rows = rng.integers(0, f.q, size=(50, 3))
    w = linear_w_matrix(f, pts)
    mask = dot_zero_mask(f, rows, w)
    for i in range(50):
        for j in range(20):
            acc = 0
            for t in range(3):
                acc = f.add(acc, f.mul(int(rows[i, t]), int(pts[j, t])))
            assert mask[i, j] == (acc == 0)


def _scalar_dot(field, x, c):
    acc = 0
    for a, b in zip(x, c):
        acc = field.add(acc, field.mul(int(a), int(b)))
    return acc


def _rows_with_zero_dots(field, rng, m, cols):
    """Random rows; about half have dot 0 and a quarter dot 1 with a random column."""
    k = cols.shape[1]
    rows = rng.integers(0, field.q, size=(m, k))
    for row in rows:
        j = int(rng.integers(len(cols)))
        last = int(cols[j, -1])
        target = int(rng.choice([0, 0, 1, -1]))
        if last and target >= 0:
            rest = _scalar_dot(field, row[:-1], cols[j, :-1])
            row[-1] = field.div(field.sub(target, rest), last)
    return rows


# (q, k) pairs reaching each branch of the folded zero test
_GROUPED = [(81, 6), (243, 6), (243, 3)]               # g < r: groups are ANDed
_REMAINDER = [(1021, 5), (1021**2, 3), (4099, 3)]      # B > 2^22: v % p, no table
_AT_LIMIT = [(1021, 4), (2039, 4)]                     # B^g just under 2^22; B just under 2^24


@settings(max_examples=120, deadline=None)
@given(
    qk=st.one_of(
        st.tuples(st.sampled_from([7, 9, 13, 25, 27, 121]), st.integers(3, 6)),
        st.sampled_from(_GROUPED + _REMAINDER + _AT_LIMIT),
    ),
    m=st.integers(1, 12),
    n=st.integers(1, 9),
    slab=st.sampled_from([1, 7, 1 << 17]),
    seed=st.integers(0, 2**32 - 1),
)
def test_dot_zero_mask_matches_scalar_dots(qk, m, n, slab, seed):
    q, k = qk
    field = field_of_order(q)
    rng = np.random.default_rng(seed)
    cols = rng.integers(0, q, size=(n, k))
    rows = _rows_with_zero_dots(field, rng, m, cols)
    w = linear_w_matrix(field, cols)
    with mock.patch.object(gf, "_ZERO_SLAB_ELEMS", slab):
        mask = dot_zero_mask(field, rows, w)
    expected = [[_scalar_dot(field, x, c) == 0 for c in cols] for x in rows]
    assert mask.tolist() == expected


@pytest.mark.parametrize("q, k", [(7, 3), (13, 6), (121, 4)] + _GROUPED + _REMAINDER + _AT_LIMIT)
@pytest.mark.parametrize("slab", [7, 1 << 17])
def test_dot_values_match_scalar_dots(q, k, slab):
    # one folded group read through the value table, ANDed groups (g < r)
    # combined digit group by digit group, and v % p where there is no table
    field = field_of_order(q)
    rng = np.random.default_rng([q, k, slab])
    cols = rng.integers(0, q, size=(9, k))
    rows = _rows_with_zero_dots(field, rng, 12, cols)
    w = linear_w_matrix(field, cols)
    with mock.patch.object(gf, "_ZERO_SLAB_ELEMS", slab):
        values = dot_values_digits(field, rows_digits(field, rows), w)
    assert values.tolist() == [[_scalar_dot(field, x, c) for c in cols] for x in rows]
    assert np.array_equal(values == 0, dot_zero_mask(field, rows, w))


@settings(max_examples=120, deadline=None)
@given(
    qk=st.one_of(
        st.tuples(st.sampled_from([7, 9, 13, 25, 27, 121]), st.integers(3, 6)),
        st.sampled_from(_GROUPED + _REMAINDER + _AT_LIMIT),
    ),
    m=st.integers(0, 12),
    n=st.integers(1, 9),
    s=st.integers(1, 7),
    slab=st.sampled_from([7, 1 << 17]),
    seed=st.integers(0, 2**32 - 1),
)
def test_dot_zero_at_matches_the_gathered_mask(qk, m, n, s, slab, seed):
    # arbitrary column indices per row, repeats within a row included: the
    # gathered test reads exactly the entries of the whole mask it names
    q, k = qk
    field = field_of_order(q)
    rng = np.random.default_rng(seed)
    points = rng.integers(0, q, size=(n, k))
    rows = _rows_with_zero_dots(field, rng, m, points).reshape(m, k)
    cols = rng.integers(0, n, size=(m, s))
    cols[:, -1] = cols[:, 0]
    w = linear_w_matrix(field, points)
    with mock.patch.object(gf, "_ZERO_SLAB_ELEMS", slab):
        want = np.take_along_axis(dot_zero_mask(field, rows, w), cols, axis=1)
        got = dot_zero_at_digits(field, rows_digits(field, rows), w, cols)
    assert got.shape == (m, s) and got.dtype == bool
    assert np.array_equal(got, want)


def test_dot_zero_at_rejects_an_inexact_dtype():
    field = field_of_order(4099)
    cols = np.ones((2, 3), dtype=np.int64)
    w = linear_w_matrix(field, cols).astype(np.float32)
    with pytest.raises(Overflow):
        dot_zero_at_digits(field, rows_digits(field, cols), w, np.zeros((2, 1), int))


def _callers(source, name):
    """Names of the functions of ``source`` that call ``name``."""
    return sorted(f.name for f in ast.walk(ast.parse(source)) if isinstance(f, ast.FunctionDef)
                  for c in ast.walk(f) if isinstance(c, ast.Call) and getattr(c.func, "id", None) == name)


def test_the_fold_is_written_once():
    # one folded W: the one folded product, which the zero mask and the
    # values read, and the gathered test fold it; the product's matmul is
    # written once, and all three read folded values through one helper
    # and one plan
    source = pathlib.Path(gf.__file__).read_text()
    assert source.count("fold).reshape(") == 1
    assert source.count("_folded(field,") == 2
    assert _callers(source, "_folded") == ["_folded_product", "dot_zero_at_digits"]
    assert _callers(source, "_folded_product") == ["dot_values_digits", "dot_zero_mask_digits"]
    assert _callers(source, "_encodings") == [
        "dot_values_digits", "dot_zero_at_digits", "dot_zero_mask_digits"]
    assert source.count("wf.T @ digits") == 1
    defined = {f.name for f in ast.walk(ast.parse(source)) if isinstance(f, ast.FunctionDef)}
    assert defined & {"_zero_plan", "_value_plan"} == set()


def _plan(q, k):
    field = field_of_order(q)
    top, _, fold, _, values, _ = gf._fold_plan(field, k * field.r)
    return field, top, fold.shape[1], values


def test_fold_branch_cases_reach_their_branch():
    for q, k in _GROUPED:
        field, _, groups, table = _plan(q, k)
        assert 1 < groups < field.r and table is not None
    for q, k in _REMAINDER:
        _, top, _, table = _plan(q, k)
        assert table is None and top >= gf.VALUE_TABLE_MAX
    (q_small, k_small), (q_large, k_large) = _AT_LIMIT
    _, top, _, table = _plan(q_small, k_small)
    assert table is not None and 0.99 * gf.VALUE_TABLE_MAX < top + 1 <= gf.VALUE_TABLE_MAX
    field, top, _, table = _plan(q_large, k_large)
    assert table is None and gemm_dtype(field, k_large) is np.float32
    assert 0.99 * (1 << 24) < top < 1 << 24


def test_the_value_table_is_exact():
    # entry v is the encoding whose digit t is radix-B digit t of v mod p,
    # so it is 0 exactly where every radix-B digit of v is divisible by p
    for q, k in [(9, 3), (27, 3), (13, 4)]:
        field, top, _, table = _plan(q, k)
        p = field.p
        base = (p - 1) ** 2 * k * field.r + 1
        v = np.arange(top + 1)
        encodings = np.zeros(v.size, dtype=np.int64)
        all_divisible = np.ones(v.size, dtype=bool)
        t = 0
        while v.any():
            encodings += p**t * (v % base % p)
            all_divisible &= v % base % p == 0
            v //= base
            t += 1
        assert top + 1 in (base**g for g in range(1, field.r + 1))
        assert table.dtype == np.min_scalar_type(q - 1)
        assert np.array_equal(table, encodings)
        assert np.array_equal(table == 0, all_divisible)


def test_dot_zero_mask_rejects_an_inexact_dtype():
    field = field_of_order(4099)
    cols = np.ones((2, 3), dtype=np.int64)
    w = linear_w_matrix(field, cols).astype(np.float32)
    with pytest.raises(Overflow):
        dot_zero_mask(field, cols, w)


def test_zero_table_cache_is_shared_across_threads():
    field = Field(11, 2)  # fresh instance: empty table cache
    rng = np.random.default_rng(5)
    cols = rng.integers(0, field.q, size=(30, 4))
    rows = _rows_with_zero_dots(field, rng, 400, cols)
    at = rng.integers(0, len(cols), size=(len(rows), 3))
    workers = 6
    start = threading.Barrier(workers)
    results = [None] * workers

    def work(i):
        start.wait(timeout=30)
        w = linear_w_matrix(field, cols)
        digits = rows_digits(field, rows)
        results[i] = (dot_zero_mask(field, rows, w), dot_values_digits(field, digits, w),
                      dot_zero_at_digits(field, digits, w, at), gf._fold_plan(field, 8))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    masks, values, gathered, plans = zip(*results)
    expected = [[_scalar_dot(field, x, c) == 0 for c in cols] for x in rows[:40]]
    assert masks[0][:40].tolist() == expected
    assert all(np.array_equal(mk, masks[0]) for mk in masks)
    assert all(np.array_equal(v, values[0]) for v in values)
    assert np.array_equal(values[0] == 0, masks[0])
    assert all(np.array_equal(z, np.take_along_axis(masks[0], at, axis=1)) for z in gathered)
    # one kernel plan for the digit width, shared by all three readers
    assert [key for key in field._np_cache if isinstance(key, tuple)] == [("fold", 8)]
    cached = field._np_cache[("fold", 8)]
    assert all(plan is cached for plan in plans)
    assert cached[4].size == cached[0] + 1 <= gf.VALUE_TABLE_MAX


def test_factor_prime_power():
    assert factor_prime_power(121) == (11, 2)
    assert factor_prime_power(128) == (2, 7)
    assert factor_prime_power(13) == (13, 1)
    with pytest.raises(NotPrimePower):
        factor_prime_power(12)
    assert field_of_order(9).q == 9


def test_field_is_cached_and_deterministic():
    assert field_make(11, 2) is field_make(11, 2)
    f1 = Field(11, 2)
    f2 = Field(11, 2)
    assert f1.modulus == f2.modulus
    assert f1.generator == f2.generator


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from([7, 9, 25]), data=st.data())
def test_parity_check_is_a_null_space_basis(q, data):
    field = field_of_order(q)
    m = data.draw(st.integers(1, 5), label="rows")
    n = data.draw(st.integers(1, 7), label="columns")
    entry = st.integers(0, q - 1)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    h = parity_check(field, rows)
    assert len(h) == n - rank_gf(field, rows)
    if h:
        assert rank_gf(field, h) == len(h)
    for vec in h:
        for row in rows:
            acc = 0
            for a, b in zip(vec, row):
                acc = field.add(acc, field.mul(a, b))
            assert acc == 0


_FAULTS_PROBE = """
import resource
import numpy as np
import ellnmds  # noqa: F401  (sets the allocator thresholds on import)

def chunk():  # a few 2 MB work arrays alive at once, then freed
    return np.ones(1 << 18) + np.ones(1 << 18) * np.ones(1 << 18)

chunk()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    chunk()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
def test_freed_work_arrays_are_reused_without_page_faults():
    # a fresh process: with glibc's default thresholds each round's arrays
    # are mapped or trimmed and faulted in again, thousands of faults a round
    src = str(pathlib.Path(gf.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _FAULTS_PROBE], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert int(out.stdout) < 1000
