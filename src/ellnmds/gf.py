"""Exact arithmetic in finite fields F_q, q = p^r with p prime.

Elements are plain integers in [0, q) encoding polynomial-basis coordinates:
e = sum(c_i * p**i) where c_0 + c_1*X + ... + c_{r-1}*X^{r-1} is the residue
modulo the field modulus.  The modulus is pinned to the lexicographically
smallest monic irreducible of degree r over F_p (coefficients compared from
degree 0 upward), so encodings are reproducible across runs.

Scalar operations work on the integer encodings.  Vector operations accept
numpy integer arrays and are table-driven for small fields.  The digit-level
matrix product helpers at the bottom turn bulk dot products over F_q into a
single exact floating-point matmul over the prime subfield, which is what the
projective scans elsewhere in the package run on.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (
    DivisionByZero,
    EvenCharacteristic,
    FieldMismatch,
    InvariantViolated,
    NotPrime,
    NotPrimePower,
    Overflow,
)

MAX_FIELD_ORDER = 1 << 20
TABLE_THRESHOLD = 4096   # log/exp tables kept below this order
PAIR_TABLE_MAX = 1024    # full q*q add/mul tables below this order


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


def _poly_trim(c: list[int]) -> list[int]:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of a modulo monic m, coefficients in F_p, degree-0 first."""
    a = a[:]
    dm = len(m) - 1
    while len(a) - 1 >= dm and any(a):
        shift = len(a) - 1 - dm
        lead = a[-1] % p
        if lead:
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _poly_trim(a)


def _poly_is_zero(a: list[int]) -> bool:
    return all(c == 0 for c in a)


def _irreducible(candidate: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(candidate) - 1
    for d in range(1, deg // 2 + 1):
        for m in range(p**d):
            divisor = _int_digits(m, p, d) + [1]
            if _poly_is_zero(_poly_mod(candidate, divisor, p)):
                return False
    return True


def _int_digits(e: int, p: int, r: int) -> list[int]:
    out = []
    for _ in range(r):
        out.append(e % p)
        e //= p
    return out


def _digits_int(c: list[int], p: int) -> int:
    e = 0
    for d in reversed(c):
        e = e * p + d
    return e


def _smallest_irreducible(p: int, r: int) -> list[int]:
    """Lexicographically smallest monic irreducible of degree r over F_p.

    Candidates X^r + c_{r-1}X^{r-1} + ... + c_0 are ordered by the coefficient
    tuple (c_0, ..., c_{r-1}); the prime-field convention is the polynomial X.
    """
    if r == 1:
        return [0, 1]
    for m in range(p**r):
        # big-endian decode so increasing m walks tuples in lex order
        digits = _int_digits(m, p, r)[::-1]
        candidate = digits + [1]
        if candidate[0] == 0:
            continue  # root at zero, never irreducible
        if _irreducible(candidate, p):
            return candidate
    raise InvariantViolated("no irreducible polynomial found")  # unreachable


class Field:
    """Immutable finite field F_q with integer-encoded elements.

    Safe to share across workers: every method is a pure function of its
    arguments and precomputed tables.
    """

    def __init__(self, p: int, r: int, max_order: int = MAX_FIELD_ORDER):
        if p < 2 or not is_prime(p):
            raise NotPrime(f"characteristic {p} is not prime")
        if r < 1:
            raise ValueError("extension degree must be >= 1")
        q = p**r
        if q > max_order:
            raise Overflow(f"field order {q} exceeds maximum {max_order}")
        self.p = p
        self.r = r
        self.q = q
        self.modulus = tuple(_smallest_irreducible(p, r))
        # digit rows of X^m mod modulus for m in [r, 2r-2], used in reduction
        self._xpow = []
        row = _int_digits(0, p, r)
        if r > 1:
            row = [(-c) % p for c in self.modulus[:r]]  # X^r = -(low part)
            self._xpow.append(row[:])
            for _ in range(r - 2):
                row = self._shift_reduce(row)
                self._xpow.append(row[:])
        self.exp: list[int] | None = None
        self.log: list[int] | None = None
        self.generator: int | None = None
        if q <= TABLE_THRESHOLD:
            self._build_log_tables()
        self._add_list: list[list[int]] | None = None
        self._neg_list: list[int] | None = None
        if q <= PAIR_TABLE_MAX and r > 1:
            self._build_pair_lists()
        # lazily built numpy tables; each is built completely and published
        # with one setdefault, so worker threads that race only duplicate work
        self._np_cache: dict[str | tuple, np.ndarray | tuple] = {}

    # ---- construction helpers -------------------------------------------

    def _shift_reduce(self, row: list[int]) -> list[int]:
        """Multiply a digit row by X and reduce once."""
        p, r = self.p, self.r
        carry = row[-1]
        out = [0] + row[:-1]
        if carry:
            base = self._xpow[0]
            out = [(o + carry * b) % p for o, b in zip(out, base)]
        return out

    def _mul_digits(self, da: list[int], db: list[int]) -> list[int]:
        p, r = self.p, self.r
        conv = [0] * (2 * r - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    conv[i + j] = (conv[i + j] + ai * bj) % p
        out = conv[:r]
        for m in range(r, 2 * r - 1):
            cm = conv[m]
            if cm:
                row = self._xpow[m - r]
                out = [(o + cm * b) % p for o, b in zip(out, row)]
        return out

    def _mul_raw(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a * b) % self.p
        return _digits_int(self._mul_digits(self.digits(a), self.digits(b)), self.p)

    def _build_log_tables(self) -> None:
        q = self.q
        if q == 2:
            self.exp, self.log, self.generator = [1], [0, 0], 1
            return
        for g in range(2, q):
            exp = [1]
            x = 1
            proper = True
            for _ in range(q - 2):
                x = self._mul_raw(x, g)
                if x == 1:
                    proper = False  # multiplicative order divides a smaller exponent
                    break
                exp.append(x)
            if proper and self._mul_raw(x, g) == 1:
                log = [0] * q
                for i, v in enumerate(exp):
                    log[v] = i
                self.exp = exp
                self.log = log
                self.generator = g
                return
        raise InvariantViolated("no generator found")  # unreachable for q > 2

    def _build_pair_lists(self) -> None:
        q = self.q
        add = [[0] * q for _ in range(q)]
        neg = [0] * q
        for a in range(q):
            da = self.digits(a)
            row = add[a]
            for b in range(a, q):
                db = self.digits(b)
                s = _digits_int([(x + y) % self.p for x, y in zip(da, db)], self.p)
                row[b] = s
                add[b][a] = s
                if s == 0:
                    neg[a], neg[b] = b, a
        self._add_list = add
        self._neg_list = neg

    # ---- scalar operations ----------------------------------------------

    def digits(self, a: int) -> list[int]:
        return _int_digits(a, self.p, self.r)

    def undigits(self, c: list[int]) -> int:
        return _digits_int([x % self.p for x in c], self.p)

    def add(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a + b) % self.p
        if self._add_list is not None:
            return self._add_list[a][b]
        return _digits_int(
            [(x + y) % self.p for x, y in zip(self.digits(a), self.digits(b))], self.p
        )

    def neg(self, a: int) -> int:
        if self.r == 1:
            return (-a) % self.p
        if self._neg_list is not None:
            return self._neg_list[a]
        return _digits_int([(-x) % self.p for x in self.digits(a)], self.p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        if self.log is not None:
            return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]
        return self._mul_raw(a, b)

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
        if a == 0:
            return True
        if self.log is not None:
            return self.log[a] % 2 == 0
        return self.pow(a, (self.q - 1) // 2) == 1

    def sqrt(self, a: int) -> int | None:
        """A square root of a, the one with the smaller encoding, or None."""
        if self.q % 2 == 0:
            raise EvenCharacteristic("sqrt needs odd field order")
        if a == 0:
            return 0
        if self.log is not None:
            la = self.log[a]
            if la % 2:
                return None
            root = self.exp[la // 2]
        else:
            root = self._tonelli_shanks(a)
            if root is None:
                return None
        return min(root, self.neg(root))

    def _tonelli_shanks(self, a: int) -> int | None:
        if not self.is_square(a):
            return None
        q1 = self.q - 1
        s = 0
        m = q1
        while m % 2 == 0:
            m //= 2
            s += 1
        z = 2
        while z < self.q and self.is_square(z):
            z += 1
        c = self.pow(z, m)
        t = self.pow(a, m)
        root = self.pow(a, (m + 1) // 2)
        e = s
        while t != 1:
            i = 1
            tt = self.mul(t, t)
            while tt != 1:
                tt = self.mul(tt, tt)
                i += 1
            b = self.pow(c, 1 << (e - i - 1))
            root = self.mul(root, b)
            c = self.mul(b, b)
            t = self.mul(t, c)
            e = i
        return root

    def element(self, value: int) -> "FieldElement":
        return FieldElement(self, value % self.q if self.r == 1 else value)

    __call__ = element

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
        if self.q > TABLE_THRESHOLD:
            return None
        t = self._np_cache.get("mul")
        if t is None:
            idx = np.arange(self.q, dtype=np.int64)
            if self.r == 1:
                t = (idx[:, None] * idx[None, :]) % self.p
            else:
                t = self._mul_np_digits(
                    np.repeat(idx, self.q), np.tile(idx, self.q)
                ).reshape(self.q, self.q)
            t = self._np_cache.setdefault("mul", t.astype(np.int32))
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
            t = np.zeros(self.q, dtype=np.int32)
            for v in range(1, self.q):
                t[v] = self.inv(v)
            t = self._np_cache.setdefault("inv", t)
        return t

    @property
    def sqrt_table_np(self) -> np.ndarray:
        """Minimal square root per element, -1 where none exists."""
        t = self._np_cache.get("sqrt")
        if t is None:
            t = np.full(self.q, -1, dtype=np.int64)
            for z in range(self.q):
                sq = self.mul(z, z)
                if t[sq] == -1 or z < t[sq]:
                    t[sq] = z
            t = self._np_cache.setdefault("sqrt", t)
        return t


class FieldElement:
    """Thin operator-overloading wrapper over an integer encoding."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value: int):
        if not 0 <= value < field.q:
            raise ValueError(f"encoding {value} out of range for {field}")
        self.field = field
        self.value = value

    def _coerce(self, other) -> int | None:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch("elements of different fields")
            return other.value
        if isinstance(other, int):
            return other % self.field.p if self.field.r == 1 else other
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.field.add(self.value, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(self.value, v))

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.value, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.field.div(self.value, v))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.value))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow(self.value, e))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == (other % self.field.q if self.field.r == 1 else other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.r, self.value))

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"GF({self.field.q})[{self.value}]"


@lru_cache(maxsize=None)
def _field_cached(p: int, r: int, max_order: int) -> Field:
    return Field(p, r, max_order)


def field_make(p: int, r: int = 1, max_order: int = MAX_FIELD_ORDER) -> Field:
    """Field of order p^r with the deterministic smallest modulus."""
    if p < 2:
        raise NotPrime(f"characteristic {p} is not prime")
    return _field_cached(p, r, max_order)


def field_of_order(q: int, max_order: int = MAX_FIELD_ORDER) -> Field:
    p, r = factor_prime_power(q)
    return field_make(p, r, max_order)


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
# The zero test folds before it multiplies.  Each integer digit dot product
# is a sum of k*r terms in [0, (p-1)^2], so it lies in [0, B) with
# B = (p-1)^2*k*r + 1.  Weighting a point's r digit columns of W by 1, B,
# B^2, ... and summing them in groups of g gives one column per group whose
# product entry is sum_t B^t * dot_t: a radix-B number whose digits are the
# digit dot products, with no carries because every digit is below B.  All
# entries and partial sums are non-negative integers below B^g, so the float
# matmul is exact in any summation order once B^g fits the mantissa.  The
# F_q dot product is zero when every digit dot product is divisible by p,
# which a boolean table indexed by the folded value answers in one lookup.

ZERO_TABLE_MAX = 1 << 22          # largest cached zero table, in one-byte entries
_ZERO_SLAB_ELEMS = 1 << 17        # folded entries cast and looked up per step


def gemm_dtype(field: Field, k: int) -> type:
    bound = (field.p - 1) ** 2 * k * field.r
    if bound < (1 << 24):
        return np.float32
    if bound < (1 << 52):
        return np.float64
    raise Overflow("dot-product digits exceed exact float range")


def linear_w_matrix(field: Field, cols: np.ndarray, dtype=None) -> np.ndarray:
    """W of shape (k*r, n*r) for the column set ``cols`` of shape (n, k)."""
    cols = np.asarray(cols, dtype=np.int64)
    n, k = cols.shape
    r = field.r
    if dtype is None:
        dtype = gemm_dtype(field, k)
    w = np.empty((k, r, n, r), dtype=dtype)
    xpow_enc = 1
    for s in range(r):
        shifted = field.mul_np(cols, np.int64(xpow_enc))  # (n, k)
        dg = field.digits_np(shifted)  # (n, k, r)
        w[:, s, :, :] = dg.transpose(1, 0, 2)
        xpow_enc *= field.p
    return w.reshape(k * r, n * r)


def rows_digits(field: Field, rows: np.ndarray, dtype=None) -> np.ndarray:
    """Digit expansion of row vectors, shape (m, k) -> (m, k*r)."""
    rows = np.asarray(rows, dtype=np.int64)
    m, k = rows.shape
    if dtype is None:
        dtype = gemm_dtype(field, k)
    return field.digits_np(rows).reshape(m, k * field.r).astype(dtype)


def dot_zero_mask_digits(field: Field, digits: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Zero-dot mask (m, n) from digit rows (m, k*r) and W (k*r, n*r).

    Folds each point's r digit columns of W into ceil(r/g) radix-B columns
    (see the section comment), runs one exact matmul, casts the product to
    the smallest integer type holding B^g - 1 and looks each entry up in the
    cached table ``zero[v]`` (every radix-B digit of v divisible by p),
    ANDing the groups when g < r.  g is the largest group size with
    B^g <= ZERO_TABLE_MAX, so a table holds at most 2^22 booleans (4 MiB)
    per (p, r, k*r); when B alone exceeds that, g = 1 and the test is
    ``v % p == 0``.  float32 and float64 hold every integer below 2^24
    exactly; a ``w.dtype`` that cannot hold B^g - 1 raises Overflow.  The
    cast and the lookup run in slabs of about 2^17 entries, which bounds the
    integer copy.  The product is formed point-major, (n, m), and the mask
    is returned as its (m, n) transpose, so the per-row sum and any that
    every caller takes run over contiguous memory.
    """
    p, r = field.p, field.r
    kr = digits.shape[1]
    n = w.shape[1] // r
    top, idtype, fold, table = _zero_plan(field, kr)
    if top >= 1 << (np.finfo(w.dtype).nmant + 1):
        raise Overflow("dot-product digits exceed the exact range of the matmul dtype")
    groups = fold.shape[1]
    # group-major folded columns: group c of point j is column c*n + j
    wf = w if r == 1 else np.dot(w.reshape(kr * n, r), fold).reshape(
        kr, n, groups).transpose(0, 2, 1).reshape(kr, groups * n)
    prod = wf.T @ digits.astype(w.dtype, copy=False).T
    m = digits.shape[0]
    out = np.empty((n, m), dtype=bool)
    step = max(1, _ZERO_SLAB_ELEMS // max(1, groups * n))
    for start in range(0, m, step):
        vals = prod[:, start: start + step].astype(idtype)
        # indices are below B^g by construction; 'clip' skips the buffered
        # bounds check of the default mode
        hits = vals % p == 0 if table is None else np.take(table, vals, mode="clip")
        for c in range(1, groups):
            hits[:n] &= hits[c * n: (c + 1) * n]
        out[:, start: start + step] = hits[:n]
    return out.T


def _zero_plan(field: Field, kr: int) -> tuple:
    """(B^g - 1, its integer dtype, fold matrix (r, ceil(r/g)), zero table or
    None) for digit rows of width kr.

    Cached in ``field._np_cache``: built completely, then published with one
    setdefault, so threads that race only duplicate the work.
    """
    key = ("zero", kr)
    plan = field._np_cache.get(key)
    if plan is None:
        p, r = field.p, field.r
        base = (p - 1) ** 2 * kr + 1
        g = 1
        while g < r and base ** (g + 1) <= ZERO_TABLE_MAX:
            g += 1
        fold = np.zeros((r, -(-r // g)), dtype=np.float32)
        for t in range(r):
            fold[t, t // g] = base ** (t % g)
        table = None
        if base <= ZERO_TABLE_MAX:
            digit_zero = np.zeros(base, dtype=bool)
            digit_zero[::p] = True
            table = digit_zero
            for _ in range(g - 1):
                table = (digit_zero[:, None] & table[None, :]).reshape(-1)
        top = base**g - 1
        plan = field._np_cache.setdefault(key, (top, np.min_scalar_type(top), fold, table))
    return plan


def dot_zero_mask(field: Field, rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Boolean mask (m, n): True where the F_q dot product is zero."""
    return dot_zero_mask_digits(field, rows_digits(field, rows, w.dtype), w)


def gf_matmul(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over F_q on integer encodings: (m,k) @ (k,n) -> (m,n)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    w = linear_w_matrix(field, b.T)
    prod = (rows_digits(field, a, w.dtype) @ w).astype(np.int64)
    prod %= field.p
    m = a.shape[0]
    n = b.shape[1]
    return field.undigits_np(prod.reshape(m, n, field.r))
