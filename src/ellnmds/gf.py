"""Exact arithmetic in finite fields F_q, q = p^r with p prime.

Elements are plain integers in [0, q) encoding polynomial-basis coordinates:
e = sum(c_i * p**i) where c_0 + c_1*X + ... + c_{r-1}*X^{r-1} is the residue
modulo the field modulus.  The modulus is pinned to the lexicographically
smallest monic irreducible of degree r over F_p (coefficients compared from
degree 0 upward), so encodings are reproducible across runs.

Scalar operations work on the integer encodings, through the vector
operations where a field has no scalar table.  Vector operations accept
numpy integer arrays and are table-driven for small fields: the exp/log
tables come from one digit-convolution multiply, and the product and inverse
tables are derived from them by vector code.  Square roots and the residue
test, scalar or vector, read one square-root table of every field, built by
squaring each element.  Polynomials over a field (coefficient lists) have one
toolkit here, used for the modulus search and by the tangent and root
computations in :mod:`ellnmds.secants`.
The digit-level matrix product helpers at the bottom turn bulk dot products
over F_q into a single exact floating-point matmul over the prime subfield,
which is what the projective scans elsewhere in the package run on.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (
    DivisionByZero,
    EvenCharacteristic,
    InvariantViolated,
    NotPrime,
    NotPrimePower,
    Overflow,
)

MAX_FIELD_ORDER = 1 << 20
TABLE_THRESHOLD = 4096   # log/exp, product and inverse tables up to this order
PAIR_TABLE_MAX = 1024    # q*q add and sub tables up to this order
_TABLE_BLOCK_ELEMS = 1 << 16  # entries per block when a table is built blockwise


# Until a process frees one array larger than its work arrays, glibc maps and
# trims those anew in every chunk (a fresh k = 6 verdict at q = 121 took 2,600
# page faults, a quarter of its time); after it, glibc keeps them in its heap.
# Freeing one untouched 8 MiB array here sets that state (mmap and trim
# thresholds 8 and 16 MiB, still adjusted later); other allocators ignore it.
np.empty(1 << 20)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, r) with q = p^r, or raise NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if p * p > q:
            p = q
        if q % p == 0:
            r = 0
            m = q
            while m % p == 0:
                m //= p
                r += 1
            if m != 1 or not is_prime(p):
                raise NotPrimePower(f"{q} is not a prime power")
            return p, r
    raise NotPrimePower(f"{q} is not a prime power")


def _int_digits(e: int, p: int, r: int) -> list[int]:
    out = []
    for _ in range(r):
        out.append(e % p)
        e //= p
    return out


# ---- polynomials over a field ------------------------------------------------
#
# Coefficient lists, degree 0 first, with entries encoded in ``field``; the
# zero polynomial is [0] and has degree -1.


def _pdeg(poly) -> int:
    d = len(poly) - 1
    while d > 0 and poly[d] == 0:
        d -= 1
    return d if any(poly) else -1


def _ptrim(poly):
    d = _pdeg(poly)
    return [0] if d < 0 else list(poly[: d + 1])


def _padd(field, a, b):
    n = max(len(a), len(b))
    return _ptrim([
        field.add(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
        for i in range(n)
    ])


def _psub(field, a, b):
    n = max(len(a), len(b))
    return _ptrim([
        field.sub(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
        for i in range(n)
    ])


def _pmul(field, a, b):
    if _pdeg(a) < 0 or _pdeg(b) < 0:
        return [0]
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return _ptrim(out)


def _pscale(field, a, s):
    return _ptrim([field.mul(s, v) for v in a])


def _pderiv(field, a):
    return _ptrim([field.mul(i % field.p, a[i]) for i in range(1, len(a))]) if len(a) > 1 else [0]


def _pgcd(field, a, b):
    a, b = _ptrim(a), _ptrim(b)
    while _pdeg(b) >= 0:
        a, b = b, _pdivmod(field, a, b)[1]
    return a


def _pdivmod(field, a, b):
    a = list(a)
    db = _pdeg(b)
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    inv = field.inv(b[db])
    quot = [0] * max(1, _pdeg(a) - db + 1)
    while _pdeg(a) >= db:
        da = _pdeg(a)
        coef = field.mul(a[da], inv)
        quot[da - db] = coef
        for i in range(db + 1):
            a[da - db + i] = field.sub(a[da - db + i], field.mul(coef, b[i]))
    return _ptrim(quot), _ptrim(a)


def _smallest_modulus(fp: "Field", r: int) -> list[int]:
    """Lexicographically smallest monic irreducible of degree r over F_p.

    Candidates X^r + c_{r-1}X^{r-1} + ... + c_0 are ordered by the coefficient
    tuple (c_0, ..., c_{r-1}); the prime-field convention is the polynomial X.
    Irreducibility is trial division by every monic polynomial of degree at
    most r/2.
    """
    if r == 1:
        return [0, 1]
    p = fp.p
    for m in range(p**r):
        # big-endian decode so increasing m walks tuples in lex order
        candidate = _int_digits(m, p, r)[::-1] + [1]
        if candidate[0] == 0:
            continue  # root at zero, never irreducible
        if all(
            _pdeg(_pdivmod(fp, candidate, _int_digits(e, p, d) + [1])[1]) >= 0
            for d in range(1, r // 2 + 1)
            for e in range(p**d)
        ):
            return candidate
    raise InvariantViolated("no irreducible polynomial found")  # unreachable


class Field:
    """Immutable finite field F_q with integer-encoded elements.

    Safe to share across workers: every method is a pure function of its
    arguments and precomputed tables.
    """

    def __init__(self, p: int, r: int):
        if p < 2 or not is_prime(p):
            raise NotPrime(f"characteristic {p} is not prime")
        if r < 1:
            raise ValueError("extension degree must be >= 1")
        q = p**r
        if q > MAX_FIELD_ORDER:
            raise Overflow(f"field order {q} exceeds maximum {MAX_FIELD_ORDER}")
        self.p = p
        self.r = r
        self.q = q
        # numpy tables, each built completely on first use and published
        # with one setdefault, so worker threads that race only duplicate work
        self._np_cache: dict[str | tuple, np.ndarray | tuple] = {}
        fp = self if r == 1 else field_make(p)
        self.modulus = tuple(_smallest_modulus(fp, r))
        # digit rows of X^m mod modulus for m in [r, 2r-2], used in reduction
        self._xpow = []
        for m in range(r, 2 * r - 1):
            row = _pdivmod(fp, [0] * m + [1], self.modulus)[1]
            self._xpow.append(row + [0] * (r - len(row)))
        self.exp: list[int] | None = None
        self.log: list[int] | None = None
        self.generator: int | None = None
        if q <= TABLE_THRESHOLD:
            self._build_log_tables()
        self._add_list: list[list[int]] | None = None
        self._neg_list: list[int] | None = None
        if q <= PAIR_TABLE_MAX and r > 1:
            self._add_list = self._pair_table_np("add").reshape(q, q).tolist()
            self._neg_list = self._pair_table_np("sub")[:q].tolist()  # the row 0 - b

    def _build_log_tables(self) -> None:
        """exp/log tables of the smallest primitive element g, whose powers
        g^0 .. g^(q-2) are taken by doubling: each round multiplies the
        powers so far by the next power of g, until a second 1 shows that
        the order of g is below q - 1."""
        q = self.q
        if q == 2:
            self.exp, self.log, self.generator = [1], [0, 0], 1
            return
        for g in range(2, q):
            powers = np.ones(1, dtype=np.int64)
            step = np.int64(g)  # g ** len(powers)
            while len(powers) < q - 1 and np.count_nonzero(powers == 1) == 1:
                powers = np.concatenate([powers, self._mul_np_digits(powers, step)])
                step = self._mul_np_digits(step, step)
            powers = powers[: q - 1]
            if np.count_nonzero(powers == 1) == 1:  # no smaller order than q - 1
                log = np.zeros(q, dtype=np.int64)
                log[powers] = np.arange(q - 1)
                self.exp = powers.tolist()
                self.log = log.tolist()
                self.generator = g
                return
        raise InvariantViolated("no generator found")  # unreachable for q > 2

    # ---- scalar operations ----------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a + b) % self.p
        if self._add_list is not None:
            return self._add_list[a][b]
        return int(self.add_np(a, b))

    def neg(self, a: int) -> int:
        if self.r == 1:
            return (-a) % self.p
        if self._neg_list is not None:
            return self._neg_list[a]
        return int(self.neg_np(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        if self.log is not None:
            return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]
        return int(self._mul_np_digits(a, b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.r == 1:
            return pow(a, self.p - 2, self.p)
        if self.log is not None:
            return self.exp[(-self.log[a]) % (self.q - 1)]
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def is_square(self, a: int) -> bool:
        """Quadratic residue test; zero counts as a square.  Odd order only."""
        if self.q % 2 == 0:
            raise EvenCharacteristic("squareness needs odd field order")
        return bool(self.sqrt_table_np[a] >= 0)

    def sqrt(self, a: int) -> int | None:
        """A square root of a, the one with the smaller encoding, or None."""
        if self.q % 2 == 0:
            raise EvenCharacteristic("sqrt needs odd field order")
        root = int(self.sqrt_table_np[a])
        return None if root < 0 else root

    def descriptor(self) -> dict:
        return {"p": self.p, "r": self.r, "modulus": list(self.modulus)}

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.p, self.r) == (other.p, other.r)

    def __hash__(self) -> int:
        return hash((self.p, self.r))

    # ---- numpy vector operations ----------------------------------------

    def digits_np(self, a: np.ndarray) -> np.ndarray:
        """Base-p digit expansion along a new last axis of length r."""
        a = np.asarray(a, dtype=np.int64)
        if 1 < self.r and self.q <= TABLE_THRESHOLD:
            return np.take(self._digit_table_np, a, axis=0)
        out = np.empty(a.shape + (self.r,), dtype=np.int64)
        rem = a
        for i in range(self.r):
            out[..., i] = rem % self.p
            rem = rem // self.p
        return out

    def undigits_np(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=np.int64) % self.p
        out = np.zeros(d.shape[:-1], dtype=np.int64)
        for i in range(self.r - 1, -1, -1):
            out = out * self.p + d[..., i]
        return out

    def add_np(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.r == 1:
            return (np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)) % self.p
        if self.q <= PAIR_TABLE_MAX:
            return self._pair_np(self._pair_table_np("add"), a, b)
        return self.undigits_np(self.digits_np(a) + self.digits_np(b))

    def neg_np(self, a: np.ndarray) -> np.ndarray:
        if self.r == 1:
            return (-np.asarray(a, dtype=np.int64)) % self.p
        if self.q <= PAIR_TABLE_MAX:
            return self._pair_np(self._pair_table_np("sub"), 0, a)
        return self.undigits_np(-self.digits_np(a))

    def sub_np(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.r == 1:
            return (np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64)) % self.p
        if self.q <= PAIR_TABLE_MAX:
            return self._pair_np(self._pair_table_np("sub"), a, b)
        return self.undigits_np(self.digits_np(a) - self.digits_np(b))

    def mul_np(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.r == 1:
            return (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % self.p
        table = self.mul_table_np
        if table is not None:
            return self._pair_np(table.reshape(-1), a, b)
        return self._mul_np_digits(a, b)

    def _pair_np(self, flat: np.ndarray, a, b) -> np.ndarray:
        """Elementwise lookup in a flattened q*q operation table; a and b
        must hold field elements, since a*q + b is the flat index."""
        idx = np.asarray(a, dtype=np.int64) * self.q + np.asarray(b, dtype=np.int64)
        return np.take(flat, idx).astype(np.int64, copy=False)

    def _mul_np_digits(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products by digit convolution and reduction with the X^m rows: the
        one multiply that needs no table, behind the exp/log tables and the
        scalar and vector products of fields without them."""
        da = self.digits_np(a)
        db = self.digits_np(b)
        r = self.r
        conv = np.zeros(np.broadcast(da[..., 0], db[..., 0]).shape + (2 * r - 1,), dtype=np.int64)
        for i in range(r):
            for j in range(r):
                conv[..., i + j] += da[..., i] * db[..., j]
        out = conv[..., :r] % self.p
        for m in range(r, 2 * r - 1):
            row = self._xpow[m - r]
            cm = conv[..., m] % self.p
            for t in range(r):
                if row[t]:
                    out[..., t] = (out[..., t] + cm * row[t]) % self.p
        return self.undigits_np(out)

    def inv_np(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise DivisionByZero("inverse of zero in vector")
        table = self.inv_table_np
        if table is not None:
            return table[a].astype(np.int64)
        flat = a.reshape(-1)
        out = np.fromiter((self.inv(int(v)) for v in flat), dtype=np.int64, count=flat.size)
        return out.reshape(a.shape)

    @property
    def mul_table_np(self) -> np.ndarray | None:
        """(q, q) int32 products, from the exp/log tables a block of rows at
        a time, so the int64 index temporaries stay near _TABLE_BLOCK_ELEMS."""
        if self.q > TABLE_THRESHOLD:
            return None
        t = self._np_cache.get("mul")
        if t is None:
            q = self.q
            log = np.asarray(self.log, dtype=np.int64)
            exp2 = np.asarray(self.exp * 2, dtype=np.int32)  # exponents up to 2q - 4
            t = np.zeros((q, q), dtype=np.int32)
            step = max(1, _TABLE_BLOCK_ELEMS // q)
            for start in range(1, q, step):
                stop = min(q, start + step)
                t[start:stop, 1:] = exp2[log[start:stop, None] + log[None, 1:]]
            t = self._np_cache.setdefault("mul", t)
        return t

    @property
    def _digit_table_np(self) -> np.ndarray:
        """(q, r) base-p digits of every element."""
        t = self._np_cache.get("digits")
        if t is None:
            idx = np.arange(self.q, dtype=np.int64)
            t = np.stack([idx // self.p**i % self.p for i in range(self.r)], axis=-1)
            t = self._np_cache.setdefault("digits", t)
        return t

    def _pair_table_np(self, op: str) -> np.ndarray:
        """Flattened q*q table of a + b ("add") or a - b ("sub"), for
        q <= PAIR_TABLE_MAX (at most 8 MiB each), built one digit at a time."""
        t = self._np_cache.get(op)
        if t is None:
            d = self._digit_table_np
            sign = 1 if op == "add" else -1
            t = np.zeros((self.q, self.q), dtype=np.int64)
            for i in range(self.r):
                t += (d[:, None, i] + sign * d[None, :, i]) % self.p * self.p**i
            t = self._np_cache.setdefault(op, t.reshape(-1))
        return t

    @property
    def inv_table_np(self) -> np.ndarray | None:
        if self.q > TABLE_THRESHOLD:
            return None
        t = self._np_cache.get("inv")
        if t is None:
            log = np.asarray(self.log[1:], dtype=np.int64)
            t = np.zeros(self.q, dtype=np.int32)
            t[1:] = np.asarray(self.exp, dtype=np.int32)[-log % (self.q - 1)]
            t = self._np_cache.setdefault("inv", t)
        return t

    @property
    def sqrt_table_np(self) -> np.ndarray:
        """Minimal square root per element, -1 where none exists.

        Both roots z and -z of a square write the same value min(z, -z), so
        the table does not depend on the order of repeated assignments."""
        t = self._np_cache.get("sqrt")
        if t is None:
            t = np.full(self.q, -1, dtype=np.int64)
            for start in range(0, self.q, _TABLE_BLOCK_ELEMS):
                z = np.arange(start, min(self.q, start + _TABLE_BLOCK_ELEMS), dtype=np.int64)
                t[self.mul_np(z, z)] = np.minimum(z, self.neg_np(z))
            t = self._np_cache.setdefault("sqrt", t)
        return t


@lru_cache(maxsize=None)
def _field_cached(p: int, r: int) -> Field:
    return Field(p, r)


def field_make(p: int, r: int = 1) -> Field:
    """Field of order p^r with the deterministic smallest modulus."""
    if p < 2:
        raise NotPrime(f"characteristic {p} is not prime")
    return _field_cached(p, r)


def field_of_order(q: int) -> Field:
    p, r = factor_prime_power(q)
    return field_make(p, r)


# ---- row reduction ---------------------------------------------------------


def rref_gf(field: Field, rows):
    """Reduced row echelon form with leftmost pivoting; returns (rref, pivots)."""
    mat = [list(map(int, r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = field.inv(mat[rank][col])
        mat[rank] = [field.mul(inv, v) for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                c = mat[i][col]
                mat[i] = [field.sub(v, field.mul(c, w)) for v, w in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return mat, pivots


def rank_gf(field: Field, rows) -> int:
    return len(rref_gf(field, rows)[1])


def parity_check(field: Field, rows):
    """Basis of the right null space of ``rows``: rows spanning the dual code,
    from the standard-form construction."""
    rref, pivots = rref_gf(field, rows)
    n = len(rows[0])
    free = [c for c in range(n) if c not in pivots]
    h = []
    for fc in free:
        vec = [0] * n
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = field.neg(rref[i][fc])
        h.append(vec)
    return h


# ---- digit-level bulk linear algebra -------------------------------------
#
# A dot product sum_j a_j * b_j over F_q expands over the prime subfield:
# digit_t(a_j * b_j) = sum_s digits(a_j)[s] * digit_t(X^s * b_j).  Stacking
# the right factors into W, shape (k*r, n*r) with column j*r + t holding
# output digit t of point j, turns a batch of dot products into one integer
# matmul run exactly in floating point, so BLAS does the heavy lifting.
#
# Every bulk dot product folds before it multiplies.  Each integer digit dot product
# is a sum of k*r terms in [0, (p-1)^2], so it lies in [0, B) with
# B = (p-1)^2*k*r + 1.  Weighting a point's r digit columns of W by 1, B,
# B^2, ... and summing them in groups of g gives one column per group whose
# product entry is sum_t B^t * dot_t: a radix-B number whose digits are the
# digit dot products, with no carries because every digit is below B.  All
# entries and partial sums are non-negative integers below B^g, so the float
# matmul is exact in any summation order once B^g fits the mantissa.  The
# F_q dot product is the element whose digit t is dot_t mod p; one table of
# encodings, indexed by the folded value, reads a group's g digits off in
# one lookup (_encodings), and the product is zero exactly when that
# encoding is 0.  One folded product (_folded_product) and that one read
# serve the values (and the pencil keys built from them), the zero mask and
# the zero test at gathered points.

VALUE_TABLE_MAX = 1 << 22         # entries of the largest cached value table
_ZERO_SLAB_ELEMS = 1 << 17        # folded entries cast and looked up per step


def gemm_dtype(field: Field, k: int) -> type:
    bound = (field.p - 1) ** 2 * k * field.r
    if bound < (1 << 24):
        return np.float32
    if bound < (1 << 52):
        return np.float64
    raise Overflow("dot-product digits exceed exact float range")


def linear_w_matrix(field: Field, cols: np.ndarray) -> np.ndarray:
    """W of shape (k*r, n*r) for the column set ``cols`` of shape (n, k)."""
    cols = np.asarray(cols, dtype=np.int64)
    n, k = cols.shape
    r = field.r
    w = np.empty((k, r, n, r), dtype=gemm_dtype(field, k))
    xpow_enc = 1
    for s in range(r):
        shifted = field.mul_np(cols, np.int64(xpow_enc))  # (n, k)
        dg = field.digits_np(shifted)  # (n, k, r)
        w[:, s, :, :] = dg.transpose(1, 0, 2)
        xpow_enc *= field.p
    return w.reshape(k * r, n * r)


def rows_digits(field: Field, rows: np.ndarray) -> np.ndarray:
    """Digit expansion of row vectors, shape (m, k) -> (m, k*r), at the
    smallest unsigned type holding p - 1; the kernels cast to W's dtype."""
    rows = np.asarray(rows, dtype=np.int64)
    m, k = rows.shape
    return field.digits_np(rows).reshape(m, k * field.r).astype(np.min_scalar_type(field.p - 1))


def dot_values_digits(field: Field, digits: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Element encodings (m, n) of the dot products of digit rows (m, k*r)
    with the points of W (k*r, n*r): :func:`_encodings` of each slab of
    :func:`_folded_product`, at the smallest unsigned type holding q - 1, as
    the (m, n) transpose of a point-major array.
    """
    plan = _fold_plan(field, digits.shape[1])
    out = np.empty((w.shape[1] // field.r, len(digits)), dtype=plan[-1])
    for cols, vals in _folded_product(field, digits, w):
        out[:, cols] = _encodings(field, plan, vals)
    return out.T


def dot_zero_mask_digits(field: Field, digits: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Zero-dot mask (m, n) from digit rows (m, k*r) and W (k*r, n*r).

    :func:`dot_values_digits`' encodings, compared with 0 one slab at a
    time, so no (m, n) array of values is ever held.  The mask is the (m, n)
    transpose of a point-major array, so the per-row sum and any that every
    caller takes run over contiguous memory.
    """
    plan = _fold_plan(field, digits.shape[1])
    out = np.empty((w.shape[1] // field.r, len(digits)), dtype=bool)
    for cols, vals in _folded_product(field, digits, w):
        out[:, cols] = _encodings(field, plan, vals) == 0
    return out.T


def dot_zero_at_digits(field: Field, digits: np.ndarray, w: np.ndarray,
                       cols: np.ndarray) -> np.ndarray:
    """Zero-dot mask (m, s): row i's digits (m, k*r) against point ``cols[i, j]``
    of W (k*r, n*r), only at those points.

    The same fold (:func:`_folded`) and read (:func:`_encodings`) as
    :func:`dot_zero_mask_digits`, on the folded columns gathered per row,
    (m, s, groups, k*r): one exact row-by-row product, group-major.  The
    gather takes s * groups * k*r entries of ``w.dtype`` a row; callers
    bound m.
    """
    wf, plan = _folded(field, digits.shape[1], w)
    _, idtype, fold, *_ = plan
    per_point = wf.reshape(len(wf), fold.shape[1], -1).transpose(2, 1, 0)  # (n, groups, k*r)
    vals = np.einsum("mi,msgi->gms", digits.astype(w.dtype, copy=False),
                     per_point[cols]).astype(idtype)
    return _encodings(field, plan, vals) == 0


def _encodings(field: Field, plan: tuple, vals: np.ndarray) -> np.ndarray:
    """Element encodings of folded values ``vals`` (groups, ...): each value
    read in the value table, or ``v % p`` where there is none (g = 1), with
    group c weighted by p^(c*g).  Every value lies below B^g, so the table
    is read with mode 'clip', which skips numpy's buffered bounds check."""
    p = field.p
    _, _, _, g, values, _ = plan
    enc = vals % p if values is None else np.take(values, vals, mode="clip")
    for c in range(1, len(enc)):
        enc[0] += enc[c] * p ** (c * g)
    return enc[0]


def _folded(field: Field, kr: int, w: np.ndarray) -> tuple:
    """(W folded group-major, :func:`_fold_plan`) for digit rows of width kr:
    group c of point j is column c*n + j.  float32 and float64 hold every
    integer below 2^24 and 2^53 exactly; a ``w.dtype`` that cannot hold
    B^g - 1 raises Overflow."""
    r = field.r
    plan = _fold_plan(field, kr)
    top, _, fold, *_ = plan
    if top >= 1 << (np.finfo(w.dtype).nmant + 1):
        raise Overflow("dot-product digits exceed the exact range of the matmul dtype")
    groups, n = fold.shape[1], w.shape[1] // r
    wf = w if r == 1 else np.dot(w.reshape(kr * n, r), fold).reshape(
        kr, n, groups).transpose(0, 2, 1).reshape(kr, groups * n)
    return wf, plan


def _folded_product(field: Field, digits: np.ndarray, w: np.ndarray):
    """Slabs (cols, vals) of the one exact matmul, point-major, of W (k*r, n*r)
    folded by :func:`_folded` with the digit rows (m, k*r): vals[c, j, i] is
    the folded value of group c of row cols[i]'s dot with point j, cast to
    the integer dtype about ``_ZERO_SLAB_ELEMS`` entries at a time, which
    bounds the integer copy.  The fold, its Overflow check and the matmul
    run on the call; only the casts wait for the slabs to be read."""
    wf, (_, idtype, fold, *_) = _folded(field, digits.shape[1], w)
    groups, n = fold.shape[1], w.shape[1] // field.r
    prod = (wf.T @ digits.astype(w.dtype, copy=False).T).reshape(groups, n, len(digits))
    step = max(1, _ZERO_SLAB_ELEMS // max(1, groups * n))
    cols = (slice(start, start + step) for start in range(0, len(digits), step))
    return ((c, prod[..., c].astype(idtype)) for c in cols)


def _fold_plan(field: Field, kr: int) -> tuple:
    """(B^g - 1, its integer dtype, fold matrix (r, ceil(r/g)), g, value table
    or None, encoding dtype) for digit rows of width kr.  g is the largest
    group size with B^g <= VALUE_TABLE_MAX; the table holds the encoding
    sum_t p^t * (digit_t(v) mod p) of every folded value v below B^g, at the
    smallest unsigned type holding q - 1.  When B alone exceeds
    VALUE_TABLE_MAX, g = 1 and there is none.

    Cached in ``field._np_cache``: built completely, then published with one
    setdefault, so threads that race only duplicate the work.
    """
    key = ("fold", kr)
    plan = field._np_cache.get(key)
    if plan is None:
        p, r, dtype = field.p, field.r, np.min_scalar_type(field.q - 1)
        base = (p - 1) ** 2 * kr + 1
        g = 1
        while g < r and base ** (g + 1) <= VALUE_TABLE_MAX:
            g += 1
        fold = np.zeros((r, -(-r // g)), dtype=np.float32)
        for t in range(r):
            fold[t, t // g] = base ** (t % g)
        values = None
        if base <= VALUE_TABLE_MAX:
            digit = (np.arange(base) % p).astype(dtype)
            values = digit
            for j in range(1, g):
                values = (digit[:, None] * p**j + values[None, :]).reshape(-1)
            values.flags.writeable = False
        top = base**g - 1
        plan = field._np_cache.setdefault(key, (top, np.min_scalar_type(top), fold, g, values, dtype))
    return plan


def dot_zero_mask(field: Field, rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Boolean mask (m, n): True where the F_q dot product is zero."""
    return dot_zero_mask_digits(field, rows_digits(field, rows), w)
