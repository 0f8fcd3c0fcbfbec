"""Plane elliptic curves over F_q of odd order.

Curves are given by the affine equation

    Y^2 + a1*X*Y + a2*Y = X^3 + a3*X^2 + a4*X + a5

with coefficients in F_q.  Note the labelling: relative to the conventional
Weierstrass names (w1, w3, w2, w4, w6) our tuple is (a1, a2, a3, a4, a5) =
(w1, w3, w2, w4, w6).  The unique infinite point of the projective closure is
(0, 0, 1), kept last in the point list.

Rational points are enumerated by an exhaustive x-loop after completing the
square, which is exact and fast enough for every order this package scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvenCharacteristic, InvariantViolated, ScanLimitExceeded, Singular
from .gf import Field, factor_prime_power

SCAN_LIMIT = 169
_TABLE_BLOCK_PAIRS = 1 << 20  # point pairs per block of the addition-table build


class _PointAtInfinity:
    """Singleton marker for the infinite point (0, 0, 1)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INFINITY = _PointAtInfinity()


@dataclass(frozen=True)
class CurveSummary:
    p: int
    r: int
    q: int
    coeffs: tuple[int, int, int, int, int]
    n: int
    j: int
    j_is_zero: bool
    n_is_even: bool


class EllipticCurve:
    """Nonsingular plane cubic with its enumerated rational points.

    Immutable after construction; safe to share between workers.
    """

    def __init__(self, field: Field, coeffs):
        if field.p == 2:
            raise EvenCharacteristic("curves require odd field order")
        self.field = field
        self.a1, self.a2, self.a3, self.a4, self.a5 = (int(c) for c in coeffs)
        for c in (self.a1, self.a2, self.a3, self.a4, self.a5):
            if not 0 <= c < field.q:
                raise ValueError(f"coefficient encoding {c} out of range")
        self._short = self._complete_square()
        self._invariants = self._discriminant_chain()
        if self._invariants["delta"] == 0:
            raise Singular(
                f"curve {self.coeffs} over GF({field.q}) has vanishing discriminant"
            )
        self.j = self._invariants["j"]
        self._affine = None
        self._n = None
        # numpy tables, each built completely on first use and published
        # with one setdefault, so worker threads that race only duplicate work
        self._np_cache: dict[str, tuple] = {}

    # ---- basic data -------------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a5)

    def _complete_square(self):
        f = self.field
        inv2 = f.inv(2 % f.p)
        # shift Y -> Y - (a1*X + a2)/2 gives Z^2 = X^3 + A X^2 + B X + C
        h1 = f.mul(self.a1, inv2)
        h0 = f.mul(self.a2, inv2)
        A = f.add(self.a3, f.mul(h1, h1))
        B = f.add(self.a4, f.mul(f.mul(self.a1, self.a2), inv2))
        C = f.add(self.a5, f.mul(h0, h0))
        return {"A": A, "B": B, "C": C, "h1": h1, "h0": h0}

    def short_form(self) -> tuple[int, int, int]:
        """Coefficients (a, b, c) of the squared-away model Y^2 = X^3 + aX^2 + bX + c."""
        s = self._short
        return (s["A"], s["B"], s["C"])

    def y_shift(self, x: int, y: int) -> int:
        """Map an original y to the squared-away model: z = y + (a1*x + a2)/2."""
        f = self.field
        return f.add(y, f.add(f.mul(self._short["h1"], x), self._short["h0"]))

    def y_unshift(self, x: int, z: int) -> int:
        f = self.field
        return f.sub(z, f.add(f.mul(self._short["h1"], x), self._short["h0"]))

    def _discriminant_chain(self):
        f = self.field
        A, B, C = self.short_form()
        b2 = f.mul(self._small(4), A)
        b4 = f.mul(self._small(2), B)
        b6 = f.mul(self._small(4), C)
        # 4*b8 = b2*b6 - b4^2
        b8 = f.mul(f.inv(self._small(4)), f.sub(f.mul(b2, b6), f.mul(b4, b4)))
        c4 = f.sub(f.mul(b2, b2), f.mul(self._small(24), b4))
        delta = f.sub(
            f.add(
                f.neg(f.mul(f.mul(b2, b2), b8)),
                f.mul(self._small(9), f.mul(b2, f.mul(b4, b6))),
            ),
            f.add(
                f.mul(self._small(8), f.mul(b4, f.mul(b4, b4))),
                f.mul(self._small(27), f.mul(b6, b6)),
            ),
        )
        j = 0 if delta == 0 else f.div(f.mul(c4, f.mul(c4, c4)), delta)
        return {"b2": b2, "b4": b4, "b6": b6, "b8": b8, "c4": c4, "delta": delta, "j": j}

    def _small(self, m: int) -> int:
        """Encoding of the integer m reduced into the prime subfield."""
        return m % self.field.p

    # ---- points -----------------------------------------------------------

    def g_of_x(self, x: int) -> int:
        """Right side X^3 + A X^2 + B X + C of the squared-away model."""
        f = self.field
        A, B, C = self.short_form()
        x2 = f.mul(x, x)
        return f.add(f.add(f.mul(x, x2), f.mul(A, x2)), f.add(f.mul(B, x), C))

    def is_on_curve(self, x: int, y: int) -> bool:
        z = self.y_shift(x, y)
        return self.field.mul(z, z) == self.g_of_x(x)

    def _enumerate(self):
        f = self.field
        q = f.q
        xs = np.arange(q, dtype=np.int64)
        A, B, C = self.short_form()
        x2 = f.mul_np(xs, xs)
        x3 = f.mul_np(x2, xs)
        g = f.add_np(f.add_np(x3, f.mul_np(np.int64(A), x2)),
                     f.add_np(f.mul_np(np.int64(B), xs), np.int64(C)))
        roots = f.sqrt_table_np[g]
        pts = []
        h1, h0 = self._short["h1"], self._short["h0"]
        for x in range(q):
            z = int(roots[x])
            if z < 0:
                continue
            shift = f.add(f.mul(h1, x), h0)
            y0 = f.sub(z, shift)
            if z == 0:
                pts.append((x, y0))
            else:
                y1 = f.sub(f.neg(z), shift)
                pts.append((x, min(y0, y1)))
                pts.append((x, max(y0, y1)))
        pts.sort()
        self._affine = tuple(pts)
        self._n = len(pts) + 1
        dev = self._n - (f.q + 1)
        if dev * dev > 4 * f.q:
            raise InvariantViolated(f"point count {self._n} outside the Hasse interval")

    @property
    def affine_points(self) -> tuple:
        if self._affine is None:
            self._enumerate()
        return self._affine

    @property
    def points(self) -> tuple:
        """All rational points in canonical order, infinite point last."""
        return self.affine_points + (INFINITY,)

    @property
    def n(self) -> int:
        if self._n is None:
            self._enumerate()
        return self._n

    # ---- group law --------------------------------------------------------

    @property
    def addition_table(self) -> np.ndarray:
        """(n, n) int32 table: entry [i, j] is the index of points[i] + points[j].

        The chord-tangent law on the squared-away model, over the ``points``
        order with O (the infinite point) last; the shift y -> z is a group
        isomorphism that fixes O.  Cached: n*n entries, 83 KB at n = 144.
        """
        return self._group()[0]

    @property
    def negation(self) -> np.ndarray:
        """(n,) int32 index of -points[i], read off the addition table."""
        return self._group()[1]

    def zero_sum_counts(self, kmax: int) -> tuple[int, ...]:
        """Exact Z_0..Z_kmax, Z_j the j-subsets of the points summing to O, by Li and
        Wan (JCTA 2012): Z_j = (1/n) sum over d | j of N_d C(n/d, j/d) e_d^(j/d), with
        N_d the points of order exactly d and e_d = -1 for even d, +1 for odd d.  The
        orders are cached after one walk P, 2P, ... down the addition table; they
        divide n, so one above n's largest proper divisor is n."""
        n, order = self.n, self._np_cache.get("orders")
        if order is None:
            add, order, multiple = self.addition_table, np.zeros(n, dtype=np.int64), np.arange(n)
            for d in range(1, max((e for e in range(1, n) if n % e == 0), default=0) + 1):
                order[(multiple == n - 1) & (order == 0)] = d  # multiple[i] = d * points[i]
                multiple = add[multiple, np.arange(n)]
            order[order == 0] = n
            order = self._np_cache.setdefault("orders", order)
        of_order = np.bincount(order, minlength=kmax + 1).tolist()
        counts = [1]
        for j in range(1, kmax + 1):
            terms = (of_order[d] * math.comb(n // d, j // d) * (-1) ** (j // d * (1 - d % 2))
                     for d in range(1, j + 1) if j % d == 0 and of_order[d])
            z, rest = divmod(sum(terms), n)
            if rest:
                raise InvariantViolated(f"the count of zero-sum {j}-subsets is not integral")
            counts.append(z)
        return tuple(counts)

    def _group(self) -> tuple[np.ndarray, np.ndarray]:
        hit = self._np_cache.get("group")
        if hit is None:
            table = self._chord_tangent_table()
            is_o = table == self.n - 1
            if not (is_o.sum(axis=1) == 1).all():
                raise InvariantViolated("a row of the addition table has no unique inverse")
            neg = np.argmax(is_o, axis=1).astype(np.int32)
            hit = self._np_cache.setdefault("group", (table, neg))
        return hit

    def _chord_tangent_table(self) -> np.ndarray:
        f = self.field
        A, B, _ = self.short_form()
        aff = self.affine_points
        m = len(aff)  # O is index m
        xs = np.array([x for x, _ in aff], dtype=np.int64)
        zs = np.array([self.y_shift(x, y) for x, y in aff], dtype=np.int64)
        keys = xs * f.q + zs
        order = np.argsort(keys)
        sorted_keys = keys[order]
        table = np.empty((m + 1, m + 1), dtype=np.int32)
        table[m, :] = table[:, m] = np.arange(m + 1)
        x2, z2 = xs[None, :], zs[None, :]
        step = max(1, _TABLE_BLOCK_PAIRS // max(1, m))
        for start in range(0, m, step):
            rows = slice(start, min(start + step, m))
            x1, z1 = xs[rows, None], zs[rows, None]
            same_x = x1 == x2
            opposite = same_x & (f.add_np(z1, z2) == 0)  # P + (-P) = O
            # chord slope (z2 - z1)/(x2 - x1); tangent slope g'(x1)/(2 z1)
            g_prime = f.add_np(f.add_np(f.mul_np(np.int64(3 % f.p), f.mul_np(x1, x1)),
                                        f.mul_np(np.int64(f.add(A, A)), x1)), np.int64(B))
            num = np.where(same_x, g_prime, f.sub_np(z2, z1))
            den = np.where(same_x, f.add_np(z1, z1), f.sub_np(x2, x1))
            lam = f.mul_np(num, f.inv_np(np.where(opposite, 1, den)))
            x3 = f.sub_np(f.mul_np(lam, lam), f.add_np(f.add_np(x1, x2), np.int64(A)))
            z3 = f.sub_np(f.mul_np(lam, f.sub_np(x1, x3)), z1)
            key3 = x3 * f.q + z3
            pos = np.minimum(np.searchsorted(sorted_keys, key3), m - 1)
            if not ((sorted_keys[pos] == key3) | opposite).all():
                raise InvariantViolated("a chord-tangent sum left the curve")
            table[rows, :m] = np.where(opposite, m, order[pos])
        return table

    def summary(self) -> CurveSummary:
        f = self.field
        return CurveSummary(
            p=f.p,
            r=f.r,
            q=f.q,
            coeffs=self.coeffs,
            n=self.n,
            j=self.j,
            j_is_zero=self.j == 0,
            n_is_even=self.n % 2 == 0,
        )

    def to_json_dict(self, include_points: bool = True) -> dict:
        d = {
            "q": self.field.q,
            "coeffs": list(self.coeffs),
            "n": self.n,
            "j": self.j,
        }
        if include_points:
            d["points"] = [[x, y] for x, y in self.affine_points] + ["inf"]
        return d

    def __repr__(self):
        return f"EllipticCurve(q={self.field.q}, coeffs={self.coeffs})"

    def __eq__(self, other):
        return (
            isinstance(other, EllipticCurve)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.field.r, self.coeffs))


def curve_make(field: Field, coeffs) -> EllipticCurve:
    """Validated nonsingular curve with deterministically ordered points."""
    return EllipticCurve(field, coeffs)


def short_curve(field: Field, a: int, b: int, c: int) -> EllipticCurve:
    return EllipticCurve(field, (0, 0, a, b, c))


def nq1(q: int) -> int:
    """Largest rational point count of an elliptic curve over F_q.

    Equals q + t + 1 with t = floor(2*sqrt(q)), except q + t when the
    characteristic divides t and the extension degree is odd and >= 3.
    """
    p, r = factor_prime_power(q)
    t = math.isqrt(4 * q)
    if t % p == 0 and r % 2 == 1 and r >= 3:
        return q + t
    return q + t + 1


def curve_scan(field: Field, summary_filter=None, scan_limit: int = SCAN_LIMIT):
    """Yield every nonsingular squared-away curve Y^2 = X^3 + aX^2 + bX + c.

    Deterministic order by the (a, b, c) encodings.  The optional filter is a
    predicate over CurveSummary.
    """
    if field.q > scan_limit:
        raise ScanLimitExceeded(
            f"scan of GF({field.q}) exceeds configured limit {scan_limit}"
        )
    for a in range(field.q):
        for b in range(field.q):
            for c in range(field.q):
                try:
                    curve = EllipticCurve(field, (0, 0, a, b, c))
                except Singular:
                    continue
                if summary_filter is None or summary_filter(curve.summary()):
                    yield curve
