"""Linear codes over F_q from generator matrices.

Parameters [n, k, d], dual distance (by MacWilliams for every code), Singleton
defects and the MDS / NMDS / AMDS classification.  Codes built from curve
embeddings keep a reference to their arc, whose group law fixes the hyperplane
sections and so, independently, the weights (n minus a codeword's section);
whenever both routes run their section histograms are compared and a mismatch
is a hard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curve import EllipticCurve
from .errors import ArcPropertyViolated, Budget, BudgetExceeded, InvariantViolated, ensure_budget
from .gf import (  # noqa: F401  (parity_check is re-exported)
    Field,
    dot_values_digits,
    dot_zero_mask,
    field_of_order,
    linear_w_matrix,
    parity_check,
    rank_gf,
)
from .geometry import (EllipticArc, arc_make, proj_chunks, proj_reps, proj_space_size,
                       scan_chunk_rows)

LABEL_MDS = "MDS"
LABEL_NMDS = "NMDS"
LABEL_AMDS = "AMDS-not-NMDS"
LABEL_OTHER = "OTHER"


class LinearCode:
    """A code presented by spanning rows; parameters are computed on demand."""

    def __init__(self, field: Field, rows, arc: EllipticArc | None = None):
        rows = [tuple(int(v) for v in r) for r in rows]
        if not rows or not rows[0]:
            raise ValueError("generator matrix must be nonempty")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("ragged generator matrix")
        for r in rows:
            for v in r:
                if not 0 <= v < field.q:
                    raise ValueError(f"entry {v} out of range for GF({field.q})")
        self.field = field
        self.rows = tuple(rows)
        self.n = n
        self.k = rank_gf(field, rows)
        if self.k == 0:
            raise ValueError("zero code has no distance parameters")
        self.arc = arc
        self._d = None
        self._weights = None
        self._d_paths = None

    @property
    def matrix(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int64)

    def __repr__(self):
        return f"LinearCode(q={self.field.q}, n={self.n}, k={self.k})"


def parse_matrix_text(text: str) -> LinearCode:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("matrix text is empty: expected a 'q k n' header and k rows")
    q, k, n = (int(t) for t in lines[0].split())
    field = field_of_order(q)
    rows = [[int(t) for t in ln.split()] for ln in lines[1:]]
    if len(rows) != k or any(len(r) != n for r in rows):
        raise ValueError("matrix body does not match declared shape")
    return LinearCode(field, rows)


def generator_matrix(curve: EllipticCurve, k: int, budget: Budget | None = None) -> LinearCode:
    """Code spanned by the embedded curve points; ``budget`` is ignored, kept for callers."""
    arc = arc_make(curve, k)
    cols = arc.coords  # (n, k), curve point order with the infinite image last
    rows = cols.T.tolist()
    return LinearCode(curve.field, rows, arc=arc)


def _codeword_weights(code: LinearCode, budget: Budget) -> np.ndarray:
    """Hamming weights of one codeword per projective class of messages, in
    canonical order, enumerated on the first call and kept on the code
    (read-only).

    Canonical P^(m-1) is e_m followed by one run of q rows (x', t), t = 0..q-1,
    for each x' of P^(m-2) in its own canonical order.  A column c with
    c_m != 0, scaled to c' = -c / c_m (scaling keeps the zero dots), has
    (x', t).c' = x'.c'_{<m} - t, so one field value x'.c'_{<m} a run is the
    row t it vanishes on, and one bincount over run*q + root counts the zeros
    of every row; a column with c_m = 0 is zero on all of a run's rows when
    x'.c_{<m} = 0.  The work is |P^(m-2)| * n dot products and |P^(m-1)| bins,
    in chunks of P^(m-2) rows; no group law enters.
    """
    if code._weights is None:
        field, m, n, q = code.field, len(code.rows), code.n, code.field.q
        size = proj_space_size(q, m)
        budget.charge("codeword_enumeration", size * n)
        cols = code.matrix.T  # (n, m)
        last = cols[:, -1]
        free = last != 0
        weights = np.empty(size, dtype=np.int64)
        weights[0] = n_free = np.count_nonzero(free)  # e_m
        if m > 1:
            scale = field.inv_np(field.neg_np(np.where(free, last, 1)))  # -1 / c_m
            w = linear_w_matrix(field, field.mul_np(cols[:, :-1], scale[:, None]))
            at = 1
            for _, digits in proj_chunks(field, m - 1, max(1, scan_chunk_rows(field, n) // q)):
                vals = dot_values_digits(field, digits, w).T  # (n, runs), contiguous
                runs = vals.shape[1]
                keys = (vals if n_free == n else vals[free]) + np.arange(0, runs * q, q)
                zeros = np.bincount(keys.ravel(), minlength=runs * q)
                if n_free < n:  # a column with c_m = 0 vanishes on all of a run or on none
                    zeros += np.repeat(np.count_nonzero(vals[~free] == 0, axis=0), q)
                np.subtract(n, zeros, out=weights[at: at + runs * q])
                at += runs * q
        code._weights = weights
        weights.flags.writeable = False
    return code._weights


def min_distance(code: LinearCode, budget: Budget | None = None) -> int:
    """Exact minimum Hamming weight over nonzero codewords.

    An arc code takes it from the group-law section profile (n minus the largest
    section) and, when the budget allows, checks the codewords' sections,
    ``bincount(n - weights)``, against the whole profile: a section above k
    raises ArcPropertyViolated, any other mismatch InvariantViolated.
    """
    if code._d is not None:
        return code._d
    budget = ensure_budget(budget)
    profile = None if code.arc is None else code.arc.secant_profile(budget)
    try:
        weights = _codeword_weights(code, budget)
    except BudgetExceeded:
        if profile is None:
            raise
        weights = None  # refused before any work; the group-law path stands alone
    counts = None if weights is None else np.bincount(weights, minlength=code.n + 1)
    d_cw = None if counts is None else int(np.flatnonzero(counts[1:])[0]) + 1
    d_geo = None if profile is None else code.n - int(np.flatnonzero(profile)[-1])
    if profile is not None and counts is not None:
        # bincount(n - weights, minlength=len(profile)), read off the weight counts
        sections = counts[::-1][: max(len(profile), code.n + 1 - int(np.flatnonzero(counts)[0]))]
        if len(sections) > len(profile):
            raise ArcPropertyViolated(f"a hyperplane holds {len(sections) - 1} > k arc points")
        if not np.array_equal(sections, profile):
            raise InvariantViolated(f"distance paths disagree: codeword sections "
                                    f"{sections.tolist()}, group-law sections {profile.tolist()}")
    code._d = d_geo if d_geo is not None else d_cw
    code._d_paths = {"codewords": d_cw, "secants": d_geo}
    return code._d


def weight_distribution(code: LinearCode, budget: Budget | None = None) -> list[int]:
    """Full weight enumerator coefficients A_0..A_n."""
    budget = ensure_budget(budget)
    a = [0] * (code.n + 1)
    a[0] = 1
    if code.arc is not None and code.k == len(code.rows):
        profile = code.arc.secant_profile(budget)
        for s, cnt in enumerate(profile.tolist()):
            if cnt:
                a[code.n - s] += (code.field.q - 1) * cnt
        return a
    weights = _codeword_weights(code, budget)
    binc = np.bincount(weights, minlength=code.n + 1)
    # each nonzero codeword class is hit by q^(rows - rank) message classes
    fiber = code.field.q ** (len(code.rows) - code.k)
    for wgt in range(1, code.n + 1):
        hits = (code.field.q - 1) * int(binc[wgt])
        if hits % fiber:
            raise InvariantViolated(f"{hits} weight-{wgt} words do not fill whole fibres of {fiber}")
        a[wgt] += hits // fiber
    return a


def krawtchouk(n: int, q: int, j: int, i: int) -> int:
    return sum(
        (-1) ** s * math.comb(i, s) * math.comb(n - i, j - s) * (q - 1) ** (j - s)
        for s in range(0, min(i, j) + 1)
        if j - s <= n - i
    )


@lru_cache(maxsize=128)
def _krawtchouk_matrix(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Rows (K_j(i))_i for j = 0..n; cached for the last 128 (n, q) pairs."""
    return tuple(tuple(krawtchouk(n, q, j, i) for i in range(n + 1)) for j in range(n + 1))


def macwilliams_transform(a: list[int], n: int, k: int, q: int) -> list[int]:
    """Weight distribution of the dual code, exact integer arithmetic."""
    size = q**k
    b = []
    for row in _krawtchouk_matrix(n, q):
        acc = sum(ai * kji for ai, kji in zip(a, row))
        if acc % size:
            raise InvariantViolated("dual weight distribution is not integral")
        b.append(acc // size)
    if b[0] != 1 or any(v < 0 for v in b):
        raise InvariantViolated("invalid dual weight distribution")
    return b


def dual_min_distance(code: LinearCode, budget: Budget | None = None) -> int | None:
    """Smallest nonzero weight of the dual code, from the MacWilliams transform
    of the weight distribution; None when n == k, whose dual is the zero code.

    A code without an arc is charged ``dual_subset_rank``, the sum of C(n, s)
    over s <= k + 1, an estimate that recorded budgets and reports rely on."""
    n, k = code.n, code.k
    if n == k:
        return None
    budget = ensure_budget(budget)
    if code.arc is None:
        budget.charge("dual_subset_rank", sum(math.comb(n, s) for s in range(1, min(k + 1, n) + 1)))
    b = macwilliams_transform(weight_distribution(code, budget), n, k, code.field.q)
    return next(j for j in range(1, n + 1) if b[j])  # b sums to q^(n-k) > 1


@dataclass
class Classification:
    n: int
    k: int
    d: int
    d_dual: int | None
    s: int
    s_dual: int | None
    label: str

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "dDual": self.d_dual,
            "s": self.s,
            "sDual": self.s_dual,
            "label": self.label,
        }


def classify(code: LinearCode, budget: Budget | None = None) -> Classification:
    """Singleton defects of the code and its dual, and the derived label."""
    budget = ensure_budget(budget)
    d = min_distance(code, budget)
    d_dual = dual_min_distance(code, budget)
    s = code.n - code.k + 1 - d
    if not 0 <= s <= max(0, code.n - code.k):
        raise InvariantViolated(f"Singleton bound violated: defect {s}")
    if d_dual is None:
        s_dual = None
        label = LABEL_MDS if s == 0 else LABEL_OTHER
    else:
        s_dual = code.k + 1 - d_dual
        if s == 0:
            label = LABEL_MDS
        elif s == 1 and s_dual == 1:
            label = LABEL_NMDS
        elif s == 1 and s_dual >= 2:
            label = LABEL_AMDS
        else:
            label = LABEL_OTHER
    return Classification(code.n, code.k, d, d_dual, s, s_dual, label)


def extend(code: LinearCode, column) -> LinearCode:
    """Code of length n+1 spanned by the rows with one appended column.

    No parameter claims are made; compute them on the result.
    """
    col = [int(v) for v in column]
    if len(col) != len(code.rows):
        raise ValueError(f"column length {len(col)} does not match {len(code.rows)} rows")
    rows = [r + (c,) for r, c in zip(code.rows, col)]
    return LinearCode(code.field, rows)


def h_extendability_oracle(code: LinearCode, h: int, budget: Budget | None = None) -> bool:
    """Whether an [n+h, k, d+h] extension exists, by search over added columns.

    Columns are taken up to scalar (scaling a column never changes weights).
    The search walks only chains whose every prefix is itself a valid
    extension, which is an exact reduction of the whole tuple space.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    if h == 0:
        return True
    budget = ensure_budget(budget)
    field = code.field
    d = min_distance(code, budget)
    weights = _codeword_weights(code, budget)
    n_cols = len(weights)  # added columns range over the messages' P^(rows-1)
    budget.charge("extendability_chain_search", n_cols * h * len(weights))
    reps = np.vstack(list(proj_reps(field, len(code.rows))))
    nonzero = ~dot_zero_mask(field, reps, linear_w_matrix(field, reps))  # (N_x, N_c): x.c != 0
    nz_mask = weights > 0

    def search(depth: int, acc: np.ndarray, start: int) -> bool:
        if depth == h:
            return True
        target = d + depth + 1
        for c in range(start, n_cols):
            nxt = acc + nonzero[:, c]
            if int(nxt[nz_mask].min()) == target:
                if search(depth + 1, nxt, c):
                    return True
        return False

    return search(0, weights.astype(np.int64), 0)
