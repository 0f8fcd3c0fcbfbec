"""Projective point sets, the monomial embedding of curves, and arc scans.

Points and hyperplanes of P^{k-1}(F_q) are tuples of k integer encodings,
normalized so the first nonzero coordinate is 1.  The canonical enumeration
walks normalized tuples in increasing big-endian value sum(c_i * q^(k-1-i)),
so (0,...,0,1) always comes first; all scans, reports and greedy choices
follow that order.

Point sets take full hyperplanes, and arcs their section profile, from the group
law; the addable-point filter and :func:`secant_scan`, the tests' reference, run
on a digit level matmul engine from :mod:`ellnmds.gf`, chunked to bounded memory.
An elliptic arc at k >= 4 finds its addable points by projection from O: one
filter pass over P^(k-2) against the arc one dimension down, then the q lifts of
the survivors; every other set, arcs at k = 3 among them, filters all of
P^(k-1) on one path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .curve import INFINITY, EllipticCurve
from .errors import (
    ArcPropertyViolated,
    BadIndex,
    Budget,
    DimensionMismatch,
    DivisionByZero,
    InvariantViolated,
    KOutOfRange,
    ensure_budget,
)
from .gf import (
    Field,
    dot_values_digits,
    dot_zero_at_digits,
    dot_zero_mask,
    dot_zero_mask_digits,
    linear_w_matrix,
    parity_check,
    rows_digits,
)

_CHUNK_FLOATS = 24_000_000       # working-set bound for scan chunks
_FULLS_START_BATCH = 32          # hyperplanes in filter_by_fulls' first batch
_FULLS_MAX_BATCH = 4096          # ... and its largest, after doubling
_SIEVE_AXES = 24                 # most pencils a point set's sieve keeps
_SIEVE_TABLE_BYTES = 1 << 24     # bound on their tables, one byte for each of q^2 keys


def proj_space_size(q: int, k: int) -> int:
    return (q**k - 1) // (q - 1)


def normalize_coords(field: Field, coords) -> tuple[int, ...]:
    """One-row form of :func:`normalize_points`."""
    return tuple(normalize_points(field, len(coords), [coords])[0].tolist())


def normalize_points(field: Field, k: int, rows) -> np.ndarray:
    """Checked, normalized (m, k) int64 array of point or hyperplane rows from
    outside the module: a width other than k raises DimensionMismatch, an
    encoding outside [0, q) or an all-zero row raises ValueError."""
    try:
        rows = np.asarray(rows, dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"encodings must lie in [0, {field.q})") from exc
    if rows.shape == (0,):
        rows = rows.reshape(0, k)
    if rows.ndim != 2 or rows.shape[1] != k:
        raise DimensionMismatch(f"rows of shape {rows.shape} need {k} coordinates each")
    if rows.size and (rows.min() < 0 or rows.max() >= field.q):
        raise ValueError(f"encodings must lie in [0, {field.q})")
    try:
        return normalize_rows(field, rows)
    except DivisionByZero as exc:  # only an all-zero row has a zero leading coordinate
        raise ValueError("projective coordinates cannot all vanish") from exc


def normalize_rows(field: Field, coords: np.ndarray) -> np.ndarray:
    """Vectorized projective normalization of nonzero rows; rows from outside
    the module go through :func:`normalize_points` first."""
    lead = coords[np.arange(len(coords)), np.argmax(coords != 0, axis=1)]
    if (lead == 1).all():  # already normalized, as embedded curve points are
        return coords.copy()
    scale = field.inv_np(lead)
    if field.r == 1:
        return (coords * scale[:, None]) % field.p
    return field.mul_np(coords, scale[:, None])


def _within(sorted_encs: np.ndarray, encs: np.ndarray) -> bool:
    """Whether every one of ``encs`` occurs in the sorted array ``sorted_encs``."""
    if not len(sorted_encs):
        return not len(encs)
    at = np.minimum(np.searchsorted(sorted_encs, encs), len(sorted_encs) - 1)
    return bool((sorted_encs[at] == encs).all())


def coords_to_enc(coords: np.ndarray, q: int) -> np.ndarray:
    """Big-endian integer key of coordinate rows, unique per normalized point."""
    coords = np.asarray(coords, dtype=np.int64)
    enc = np.zeros(coords.shape[:-1], dtype=np.int64)
    for i in range(coords.shape[-1]):
        enc = enc * q + coords[..., i]
    return enc


def enc_to_coords(enc: np.ndarray, q: int, k: int) -> np.ndarray:
    enc = np.asarray(enc, dtype=np.int64)
    out = np.empty(enc.shape + (k,), dtype=np.int64)
    rem = enc
    for i in range(k - 1, -1, -1):
        out[..., i] = rem % q
        rem = rem // q
    return out


_REPS_CACHE: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}
_REPS_CACHE_MAX_ROWS = 4_000_000
_REPS_CHUNK_ROWS = 1 << 16       # rows generated and expanded a step while filling


def proj_reps_cached(field: Field, k: int):
    """All normalized representatives plus their digit expansion, cached.

    Only spaces of at most ``_REPS_CACHE_MAX_ROWS`` points are cached, one
    entry per (p, r, k); :func:`proj_chunks` generates larger ones.  An entry
    holds read-only coords at the smallest unsigned type holding q - 1 and
    digit rows at :func:`rows_digits`' type, k + kr bytes a row for q < 256:
    P^3(F_121), 1.79M rows, takes about 21 MB.  It is filled
    ``_REPS_CHUNK_ROWS`` rows at a time, so its build costs one chunk's int64
    temporaries beyond it, and published with one setdefault, so threads that
    race only duplicate the work.  Returns (coords, digits) or None when the
    space is too large.
    """
    size = proj_space_size(field.q, k)
    if size > _REPS_CACHE_MAX_ROWS:
        return None
    key = (field.p, field.r, k)
    hit = _REPS_CACHE.get(key)
    if hit is None:
        coords = np.empty((size, k), dtype=np.min_scalar_type(field.q - 1))
        digits = np.empty((size, k * field.r), dtype=np.min_scalar_type(field.p - 1))
        at = 0
        for chunk in proj_reps(field, k, _REPS_CHUNK_ROWS):
            coords[at: at + len(chunk)] = chunk
            digits[at: at + len(chunk)] = rows_digits(field, chunk)
            at += len(chunk)
        coords.flags.writeable = digits.flags.writeable = False
        hit = _REPS_CACHE.setdefault(key, (coords, digits))
    return hit


def proj_reps(field: Field, k: int, chunk_rows: int | None = None):
    """Yield all normalized representatives of P^{k-1}(F_q) in canonical order."""
    q = field.q
    if chunk_rows is None:
        chunk_rows = max(1, _CHUNK_FLOATS // (4 * k))
    for lead in range(k - 1, -1, -1):
        tail = k - 1 - lead
        total = q**tail
        for start in range(0, total, chunk_rows):
            stop = min(start + chunk_rows, total)
            m = np.arange(start, stop, dtype=np.int64)
            coords = np.zeros((stop - start, k), dtype=np.int64)
            coords[:, lead] = 1
            rem = m
            for i in range(k - 1, lead, -1):
                coords[:, i] = rem % q
                rem = rem // q
            yield coords


def proj_chunks(field: Field, k: int, rows: int):
    """Yield (coords, digit rows) of P^{k-1}(F_q) in canonical order, at most
    ``rows`` points a chunk: slices of :func:`proj_reps_cached` when the space
    fits the cache, generated chunks otherwise."""
    cached = proj_reps_cached(field, k)
    if cached is not None:
        coords, digits = cached
        for start in range(0, len(coords), rows):
            yield coords[start: start + rows], digits[start: start + rows]
        return
    for coords in proj_reps(field, k, rows):
        yield coords, rows_digits(field, coords)


def psi(field: Field, i: int, x: int, y: int) -> int:
    """Monomial of pole order exactly i at the infinite point.

    Y^s for i = 3s, X*Y^s for i = 3s+2, X^2*Y^s for i = 3s+4.
    """
    if i < 2:
        raise BadIndex(f"monomial index {i} must be at least 2")
    rem = i % 3
    if rem == 0:
        s = i // 3
        return field.pow(y, s)
    if rem == 2:
        s = (i - 2) // 3
        return field.mul(x, field.pow(y, s))
    s = (i - 4) // 3
    return field.mul(field.mul(x, x), field.pow(y, s))


def phi_k(field: Field, point, k: int) -> tuple[int, ...]:
    """Image of a curve point under (1, psi_2, ..., psi_k); infinity maps to e_k."""
    if k < 3:
        raise KOutOfRange(f"embedding dimension k={k} must be at least 3")
    if point is INFINITY:
        return (0,) * (k - 1) + (1,)
    x, y = int(point[0]), int(point[1])
    return (1,) + tuple(psi(field, i, x, y) for i in range(2, k + 1))


class ProjPointSet:
    """An ordered list of distinct normalized points of P^{k-1}(F_q).

    Provides incidence machinery shared by arcs and their extensions.
    Instances are immutable; ``with_point`` returns an extended copy that
    keeps this set, and so its walk, as its ``parent``.
    """

    def __init__(self, field: Field, k: int, points, parent: ProjPointSet | None = None):
        self.field = field
        self.k = k
        self.coords = normalize_points(field, k, points)
        self.encs = coords_to_enc(self.coords, field.q)
        if len(set(self.encs.tolist())) != len(self.encs):
            raise ValueError("points must be distinct")
        self.points = tuple(map(tuple, self.coords.tolist()))
        self._w = None
        self._charged = False
        self._fulls = None
        self._pencils = None
        if parent is not None and not np.array_equal(self.encs[: parent.n], parent.encs):
            raise ValueError("a set's points must begin with its parent's")
        self.parent = parent

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def w_matrix(self) -> np.ndarray:
        if self._w is None:
            self._w = linear_w_matrix(self.field, self.coords)
        return self._w

    def with_point(self, coords) -> "ProjPointSet":
        """Extended copy whose walk adds to this set's walk the full hyperplanes
        through the new point."""
        return ProjPointSet(self.field, self.k, [*self.points, coords], parent=self)

    def _charge_scan(self, budget: Budget | None) -> None:
        """Charge ``hyperplane_scan`` at a whole-space scan's estimate once per set, whichever
        of :meth:`fulls` and the group-law profile is first (``None``: a throwaway budget)."""
        if not self._charged:
            ensure_budget(budget).charge("hyperplane_scan",
                                         proj_space_size(self.field.q, self.k) * self.n)
            self._charged = True

    def fulls(self, budget: Budget | None = None) -> np.ndarray:
        """The kept :meth:`walk`, charged ``hyperplane_scan`` before it runs."""
        self._charge_scan(budget)
        return self.walk()

    def walk(self) -> np.ndarray:
        """:func:`full_hyperplanes_via_subsets` of the set, run on the first call and
        kept read-only; callers charge it.  An elliptic arc's walk holds one
        hyperplane per zero-sum k-subset, or InvariantViolated is raised: its
        count Z_k (``zero_sum_counts``) sees a hyperplane the walk never reached."""
        if self._fulls is None:
            fulls = full_hyperplanes_via_subsets(self)
            if isinstance(self, EllipticArc):
                z = self.curve.zero_sum_counts(self.k)[self.k]
                if len(fulls) != z:
                    raise InvariantViolated(f"the walk holds {len(fulls)} full hyperplanes, "
                                            f"not the Z_k = {z} zero-sum k-subsets")
            fulls.flags.writeable = False
            self._fulls = fulls
        return self._fulls

    def pencils(self):
        """(w, tables) of :func:`pencil_tables`, built on the first call and kept; a
        full member missing from the :meth:`walk` raises InvariantViolated."""
        if self._pencils is None:
            fulls, (w, tables, duals) = self.walk(), pencil_tables(self)
            if not _within(fulls, duals):
                raise InvariantViolated("a full hyperplane of a pencil is missing from the walk")
            self._pencils = w, tables
        return self._pencils


class EllipticArc(ProjPointSet):
    """Image of a curve's rational points in P^{k-1}, infinite image last."""

    def __init__(self, curve: EllipticCurve, k: int, points):
        super().__init__(curve.field, k, points)
        self.curve = curve
        self._profile = None

    def secant_profile(self, budget: Budget | None = None) -> np.ndarray:
        """Histogram over all hyperplanes of the incidence count, length k+1, kept
        read-only.  By Riemann-Roch no hyperplane holds k+1 arc points, and M_j = sum
        over H of C(|H & A|, j) is C(n, j) theta_{k-1-j} for j < k (theta_m =
        ``proj_space_size(q, m + 1)``) and Z_k, the zero-sum k-subsets, for j = k; so
        profile[s] = sum_{j=s..k} (-1)^(j-s) C(j, s) M_j."""
        if self._profile is None:
            self._charge_scan(budget)
            n, k = self.n, self.k
            moments = [math.comb(n, j) * proj_space_size(self.field.q, k - j) for j in range(k)]
            moments.append(self.curve.zero_sum_counts(k)[k])
            self._profile = np.array(
                [sum((-1) ** (j - s) * math.comb(j, s) * moments[j] for j in range(s, k + 1))
                 for s in range(k + 1)], dtype=np.int64)
            self._profile.flags.writeable = False
        return self._profile


def arc_make(curve: EllipticCurve, k: int, budget: Budget | None = None) -> EllipticArc:
    """Embed the curve's point list (``budget`` is ignored, kept for callers); codeword
    enumeration and the group-law walk check the no-(k+1)-coplanar property."""
    n = curve.n
    if not 3 <= k <= n - 1:
        raise KOutOfRange(f"k={k} outside [3, {n - 1}] for a curve with {n} points")
    return EllipticArc(curve, k, [phi_k(curve.field, pt, k) for pt in curve.points])


# ---- scanning engines ------------------------------------------------------


def scan_chunk_rows(field: Field, n: int) -> int:
    """Rows a chunk when scanning against n points (see ``_CHUNK_FLOATS``)."""
    return max(4096, _CHUNK_FLOATS // max(1, n * field.r))


def secant_scan(ps: ProjPointSet, chunk_rows: int | None = None):
    """Incidence counts over every hyperplane of P^{k-1}.

    Returns (profile, fulls) where profile[s] counts hyperplanes meeting the
    set in exactly s points and fulls holds the dual coordinates of the
    k-secant ones.  Raises ArcPropertyViolated if any hyperplane exceeds k
    points.  No library path runs it: uncharged and unkept, it is the tests'
    whole-space reference for :meth:`ProjPointSet.walk`.
    """
    field, k, n = ps.field, ps.k, ps.n
    profile = np.zeros(k + 1, dtype=np.int64)
    fulls = [np.empty((0, k), dtype=np.int64)]  # widens the cached space's narrow rows
    w = ps.w_matrix
    for coords, digits in proj_chunks(field, k, chunk_rows or scan_chunk_rows(field, n)):
        counts = dot_zero_mask_digits(field, digits, w).sum(axis=1)
        top = int(counts.max(initial=0))
        if top > k:
            bad = coords[int(np.argmax(counts))]
            raise ArcPropertyViolated(
                f"hyperplane {tuple(int(c) for c in bad)} meets the set in {top} > k={k} points"
            )
        profile += np.bincount(counts, minlength=k + 1)[: k + 1]
        fulls.append(coords[counts == k])
    return profile, np.vstack(fulls)


def _pencil_axes(n: int, k: int, count: int) -> list[tuple[int, ...]]:
    """``count`` distinct (k-2)-subsets of range(n), all of them when there are
    no more, drawn from a fixed seed so that they spread over the set.  Axes
    of neighbours in the curve's point order sieve less: at k = 4 the line
    through the images of P != -P and -P passes through (0, 0, 1, 0)."""
    if math.comb(n, k - 2) <= count:
        return list(itertools.combinations(range(n), k - 2))
    rng = np.random.default_rng(0)
    axes: dict[tuple[int, ...], None] = {}
    while len(axes) < count:
        axes.setdefault(tuple(sorted(rng.choice(n, k - 2, replace=False).tolist())), None)
    return list(axes)


def pencil_tables(ps: ProjPointSet):
    """(w, tables, duals): the pencils of the set's sieve, by counting its points.

    An axis is k-2 independent set points S (:func:`_pencil_axes`, at most
    ``_SIEVE_AXES``, and at most ``_SIEVE_TABLE_BYTES / q^2``).  With (f0, f1) =
    ``parity_check(S)``, the q+1 hyperplanes through span(S) are the duals
    u1 f0 - u0 f1, one for each class (u0 : u1) of P^1, and a point x off
    span(S) lies on the one whose class is that of its key (f0.x, f1.x).  A
    member is full when it holds exactly k set points: those of its class plus
    those of span(S), key (0, 0), which lie on every member.

    ``w`` is the W matrix of f0, f1 of every axis, whose values in gf's one
    folded product (:func:`dot_values_digits`) are the keys; ``tables[a]`` the
    q^2 booleans "the member of axis a through key a*q + b is full" (key 0, a
    point of span(S), lies on every member), and ``duals`` the encodings of
    the full members.  Cost O(A n) keys and O(A q) table entries; memory
    A q^2 bytes.
    A member with more than k set points raises ArcPropertyViolated.
    """
    field, k, q = ps.field, ps.k, ps.field.q
    forms = []
    for axis in _pencil_axes(ps.n, k, min(_SIEVE_AXES, _SIEVE_TABLE_BYTES // q**2)):
        basis = parity_check(field, ps.coords[list(axis)])
        if len(basis) == 2:  # S is independent
            forms.extend(basis)
    forms = np.array(forms, dtype=np.int64).reshape(-1, 2, k)
    w = linear_w_matrix(field, forms.reshape(-1, k))
    keys = dot_values_digits(field, rows_digits(field, ps.coords), w).reshape(ps.n, len(forms), 2)
    tables = np.zeros((len(forms), q * q), dtype=bool)
    lam = np.arange(1, q, dtype=np.int64)
    duals = []
    for a, (f0, f1) in enumerate(forms):
        on_axis = ~keys[:, a].any(axis=1)
        u = normalize_rows(field, keys[~on_axis, a].astype(np.int64))
        sizes = np.bincount(np.where(u[:, 0] == 1, u[:, 1], q), minlength=q + 1) + on_axis.sum()
        if sizes.max() > k:
            raise ArcPropertyViolated(f"a hyperplane through {int(on_axis.sum())} set points "
                                      f"meets the set in {int(sizes.max())} > k={k} points")
        full = np.flatnonzero(sizes == k)
        c = full[full < q]  # class (1 : c), keys lam * (1, c); dual c f0 - f1
        tables[a, (lam[:, None] * q + field.mul_np(lam[:, None], c[None, :])).reshape(-1)] = True
        d = [field.sub_np(field.mul_np(c[:, None], f0[None, :]), f1[None, :])]
        if len(full) and full[-1] == q:  # class (0 : 1), keys (0, lam); dual f0
            tables[a, lam] = True
            d.append(f0[None, :])
        tables[a, 0] = len(full) > 0
        duals.append(coords_to_enc(normalize_rows(field, np.vstack(d)), q))
    tables.flags.writeable = False
    return w, tables, np.concatenate(duals) if duals else np.empty(0, dtype=np.int64)


def _pencil_sieve(ps: ProjPointSet, cand: np.ndarray, digits: np.ndarray):
    """(cand, digits) without the candidates on a full member of the set's
    :meth:`ProjPointSet.pencils`: one key lookup a pencil, the pencils taken in
    doubling batches, each on the survivors of the one before."""
    w, tables = ps.pencils()
    q, cols = ps.field.q, 2 * ps.field.r
    live = np.arange(len(cand), dtype=np.int32)  # compacted in place of the wider rows
    lo, batch = 0, 1
    while lo < len(tables) and len(live):
        hi = min(lo + batch, len(tables))
        values = dot_values_digits(ps.field, digits, w[:, lo * cols: hi * cols]).T  # (2b, m)
        offsets = np.arange(hi - lo, dtype=np.int32)[:, None] * q * q  # A q^2 <= 2^24
        keys = values[0::2].astype(np.int32) * q + values[1::2] + offsets  # a row an axis
        keep = ~np.logical_or.reduce(np.take(tables[lo:hi].reshape(-1), keys), axis=0)
        live, digits = live[keep], digits[keep]
        lo, batch = hi, 2 * batch
    return cand[live], digits


def filter_by_fulls(ps: ProjPointSet, cand: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """The candidates that are not points of the set and lie on none of its
    full hyperplanes, in their order.

    ``cand`` holds normalized rows and ``digits`` their digit rows; the full
    hyperplanes are the set's kept :meth:`ProjPointSet.walk`.  The pencil sieve
    (:func:`_pencil_sieve`) runs first: a pencil drops about (n-k)/(2(q+1)) of
    the candidates for one key lookup, where one zero test drops 1/q.  The set's
    own points go next, then the survivors meet the walk (:func:`_off_walk`).
    A candidate dropped by the sieve lies on a member with k set points, a full
    hyperplane, so the result is exact.
    """
    if len(cand) == 0:
        return cand
    cand, digits = _pencil_sieve(ps, cand, digits)
    keep = ~np.isin(coords_to_enc(cand, ps.field.q), ps.encs)
    return _off_walk(ps, cand[keep], digits[keep])


def _off_walk(ps: ProjPointSet, cand: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """The candidates on no hyperplane of the set's kept walk, in their order:
    exact zero tests against the walk in doubling batches."""
    field, fulls = ps.field, ps.walk()
    pos = 0
    batch = _FULLS_START_BATCH
    while pos < len(fulls) and len(cand):
        block = enc_to_coords(fulls[pos: pos + batch], field.q, ps.k)
        keep = ~dot_zero_mask_digits(field, digits, linear_w_matrix(field, block)).any(axis=1)
        cand, digits = cand[keep], digits[keep]
        pos += len(block)
        batch = min(batch * 2, _FULLS_MAX_BATCH)
    return cand


def addable_points(ps: ProjPointSet, budget: Budget | None = None) -> list[tuple[int, ...]]:
    """All external points every hyperplane through which meets the set
    in at most k-1 points, in the canonical point order.

    An elliptic arc with k >= 4 projects from O (:func:`_projected_addable`).
    Any other set walks its full hyperplanes through :meth:`ProjPointSet.fulls`,
    then runs every point of P^(k-1), a chunk at a time, through
    :func:`filter_by_fulls`.
    """
    field, k = ps.field, ps.k
    if isinstance(ps, EllipticArc) and k >= 4:
        return list(map(tuple, _projected_addable(ps, budget).tolist()))
    ps.fulls(budget)
    found = [np.empty((0, k), dtype=np.int64)]
    for coords, digits in proj_chunks(field, k, scan_chunk_rows(field, ps.n)):
        found.append(filter_by_fulls(ps, coords, digits))
    return list(map(tuple, np.vstack(found).tolist()))


def _affine_part(arc: EllipticArc) -> ProjPointSet:
    """A_(k-1) less O as a plain set: the affine points of ``arc_make(curve, k - 1)``,
    kept with that arc's walk less its hyperplanes through O, the duals whose
    last coordinate is 0.  Neither walk is charged."""
    low = arc_make(arc.curve, arc.k - 1)
    part = ProjPointSet(arc.field, arc.k - 1, low.coords[:-1])
    walk = low.walk()
    part._fulls = walk[walk % arc.field.q != 0]
    part._fulls.flags.writeable = False
    return part


def _projected_addable(arc: EllipticArc, budget: Budget | None) -> np.ndarray:
    """Addable points of an elliptic arc with k >= 4, by projection from O.

    Dropping the last coordinate maps the affine points of A_k onto those of
    A_(k-1) (:func:`_affine_part`), and a full hyperplane h of that part lifts
    to the full hyperplane (h, 0) of A_k through O.  So an addable point
    (x, t) has x in Add', the points of P^(k-2) on no full hyperplane of the
    part, its own points included; the part's points are checked against its
    walk alone (:func:`_off_walk`), as :func:`filter_by_fulls` drops them.
    The q lifts (x, t) of Add', in bounded chunks, are then filtered exactly
    against the arc.  At k = 3 the projection to P^1 is not injective, P and
    -P sharing x.  The arc's walk is charged (:meth:`ProjPointSet.fulls`)
    before the part is built."""
    field, k, q = arc.field, arc.k, arc.field.q
    arc.fulls(budget)
    part = _affine_part(arc)
    rows = scan_chunk_rows(field, arc.n)
    base = [filter_by_fulls(part, coords, digits)
            for coords, digits in proj_chunks(field, k - 1, rows)]
    base.append(_off_walk(part, part.coords, rows_digits(field, part.coords)))
    base = np.vstack(base).astype(np.int64)
    base = base[np.argsort(coords_to_enc(base, q))]
    found, step = [np.empty((0, k), dtype=np.int64)], max(1, rows // q)
    for lo in range(0, len(base), step):
        x = np.repeat(base[lo: lo + step], q, axis=0)
        cand = np.column_stack([x, np.tile(np.arange(q), len(x) // q)])
        found.append(filter_by_fulls(arc, cand, rows_digits(field, cand)))
    return np.vstack(found)


def _addable_among(ps: ProjPointSet, rows) -> list[tuple[int, ...]]:
    """:func:`filter_by_fulls` of normalized rows, as tuples."""
    cand = np.asarray(rows, dtype=np.int64).reshape(-1, ps.k)
    return list(map(tuple, filter_by_fulls(ps, cand, rows_digits(ps.field, cand)).tolist()))


def _colex_subsets(n: int, m: int) -> np.ndarray:
    """(C(n, m), m) members of the m-subsets of range(n) in colex order: those with
    top t are the first C(t, m - 1) (m-1)-subsets, each followed by t."""
    subs = np.zeros((1, 0), dtype=np.min_scalar_type(n))
    for j in range(1, m + 1):
        subs = np.vstack([np.insert(subs[: math.comb(t, j - 1)], j - 1, t, axis=1)
                          for t in range(j - 1, n)])
    return subs


def _minors(field: Field, rows: np.ndarray, prev: np.ndarray, j: int) -> np.ndarray:
    """(C(k, j), m) j x j minors of m stacks of j rows, one row per column set
    in ``combinations`` order, up to a sign set by j: cofactor expansion along
    the last rows ``rows`` ((k,) shared by the stacks, or (k, m)), given the
    (j-1)-minors ``prev`` of the rows above them, in the same layout."""
    index = {cols: s for s, cols in enumerate(itertools.combinations(range(len(rows)), j - 1))}
    out = []
    for cols in itertools.combinations(range(len(rows)), j):
        acc = field.mul_np(rows[cols[0]], prev[index[cols[1:]]])
        for i in range(1, j):
            term = field.mul_np(rows[cols[i]], prev[index[cols[:i] + cols[i + 1:]]])
            acc = field.sub_np(acc, term) if i % 2 else field.add_np(acc, term)
        out.append(acc)
    return np.array(out)


def _minor_trie(field: Field, coords: np.ndarray, depth: int, step: int):
    """(signed, level): the rows with column c times (-1)^c, whose maximal
    minors, last column set first, are a null vector of k-1 unsigned rows, and
    level ``depth`` of their colex minor trie, at ``min_scalar_type(q - 1)``.

    Level j holds the :func:`_minors` of every j-subset in colex order.  The
    one of rank r has top (largest) row t, C(t, j) <= r < C(t+1, j), and its
    rest is rank r - C(t, j) of level j - 1: level j is level j - 1 expanded
    along the top rows, ``step`` subsets at a time."""
    n, k = coords.shape
    signed = np.where(np.arange(k) % 2, field.neg_np(coords), coords)
    level = signed.T.astype(np.min_scalar_type(field.q - 1))
    for j in range(2, depth + 1):
        nxt = np.empty((math.comb(k, j), math.comb(n, j)), dtype=level.dtype)
        binom = np.array([math.comb(c, j) for c in range(n + 1)], dtype=np.int64)
        for lo in range(0, nxt.shape[1], step):
            ranks = np.arange(lo, min(lo + step, nxt.shape[1]), dtype=np.int64)
            top = np.searchsorted(binom, ranks, side="right") - 1
            nxt[:, ranks] = _minors(field, signed[top].T, level[:, ranks - binom[top]], j)
        level = nxt
    return signed, level


def _arc_windows(add: np.ndarray, neg: np.ndarray, sums: np.ndarray, k: int, n_arc: int,
                 cap: int):
    """Yield (tops, rests, lasts) of the walk's arc windows: for each arc top t < n_arc
    in order, the ranks of the rests S with last = -(S + t) above t, and those
    lasts.  Tops share a window until the next would take it past ``cap``
    subsets; a window of one top, as one over ``cap`` is, yields it as an int."""
    window = []

    def merged():
        tops, rests, lasts = zip(*window)
        if len(tops) == 1:
            return tops[0], rests[0], lasts[0]
        return (np.repeat(tops, [len(r) for r in rests]), np.concatenate(rests),
                np.concatenate(lasts))

    size = 0
    for top in range(k - 2, n_arc):
        last = neg[add[sums[: math.comb(top, k - 2)], top]]
        rest = np.flatnonzero(last > top)
        if window and size + len(rest) > cap:
            yield merged()
            window, size = [], 0
        window.append((top, rest, last[rest]))
        size += len(rest)
    if window:
        yield merged()


def full_hyperplanes_via_subsets(ps: ProjPointSet) -> np.ndarray:
    """Sorted encodings (:func:`coords_to_enc`) of the duals of every k-secant
    (full) hyperplane.

    Let A be the points whose full hyperplanes are known, all of an elliptic
    arc, those of the set's ``parent``, or none, and X the points after them.
    The walk takes the (k-1)-subsets one top (largest) point t at a time;
    their rests are the first C(t, k-2) (k-2)-subsets in colex order.

    * On an arc, from the group law: k distinct arc points lie on one
      hyperplane exactly when they sum to O.  For a top t a rest S is
      kept when last = -(S + t) lies above t, so each zero-sum k-subset gives
      its first k-1 points once: C(n, k-1) table lookups, one dual a kept
      subset.  Consecutive tops share a window (:func:`_arc_windows`) of at
      most ``scan_chunk_rows // 8`` subsets, or one top's when it keeps more.
    * Of a parent, its kept walk.  Those hyperplanes hold no point of X: a
      point of X on one would give it k + 1 points among the spans below.
    * A full hyperplane holding points of X is spanned by the subsets whose
      top lies in X, about |X| * C(n, k-2), in windows of ``scan_chunk_rows``.
      Rank-deficient ones contribute their whole pencil.

    A dual is the rest's minors in the :func:`_minor_trie` expanded along the
    top row: k(k-1) multiplies, after C(n, k-2) * C(k, 2) trie minors.  A
    group-law hyperplane is zero tested at its k predicted points only, the
    subset and last (:func:`dot_zero_at_digits`), or InvariantViolated is
    raised; a hyperplane through more than k arc points would come from two
    zero-sum k-subsets, so a repeat in the sorted walk raises
    ArcPropertyViolated.  The spans through X are counted against all n
    points: exactly k keeps one, more raises ArcPropertyViolated.  Memory: per
    (k-2)-subset its group sum (int32), k-2 members and C(k, k-2) trie minors
    (``min_scalar_type`` of n and q - 1), plus one window's subsets and, in an
    arc window, their gathered W columns (k * ceil(r/g) * kr floats a
    hyperplane), in an X window its (m, n) mask.  Uncharged: see
    :meth:`ProjPointSet.walk`.
    """
    field, k, n = ps.field, ps.k, ps.n
    members = _colex_subsets(n, k - 2)
    step = scan_chunk_rows(field, n)
    arc_windows, encs, x_encs, n_known = (), [], [], 0
    if isinstance(ps, EllipticArc):
        if n != ps.curve.n:
            raise InvariantViolated(f"an arc of {n} points on a curve of {ps.curve.n}")
        add, neg = ps.curve.addition_table, ps.curve.negation
        sums = np.full(len(members), n - 1, dtype=add.dtype)
        for col in members.T:  # group sums of the (k-2)-subsets
            sums = add[sums, col]
        arc_windows, n_known = _arc_windows(add, neg, sums, k, n, step // 8), n
    elif ps.parent is not None:
        encs, n_known = [ps.parent.walk()], ps.parent.n
    signed, minors = _minor_trie(field, ps.coords, k - 2, step)
    w = ps.w_matrix
    x_windows = ((top, np.arange(lo, min(lo + step, math.comb(top, k - 2))), None)
                 for top in range(max(k - 2, n_known), n)
                 for lo in range(0, math.comb(top, k - 2), step))
    for tops, rest, last in itertools.chain(arc_windows, x_windows):
        on_arc = last is not None
        subsets = np.column_stack([members[rest], np.broadcast_to(tops, len(rest))])
        duals = _minors(field, signed[tops].T, minors[:, rest], k - 1)[::-1].T
        singular = ~duals.any(axis=1)
        if on_arc and singular.any():
            raise InvariantViolated("k-1 arc points span less than a hyperplane")
        found = [normalize_rows(field, duals[~singular])]
        for sub in subsets[singular]:
            basis = np.asarray(parity_check(field, ps.coords[sub]), dtype=np.int64)
            for mix in proj_reps(field, len(basis), 1 << 12):
                combo = np.zeros((len(mix), k), dtype=np.int64)
                for t in range(len(basis)):
                    combo = field.add_np(combo, field.mul_np(mix[:, t: t + 1], basis[t][None, :]))
                found.append(normalize_rows(field, combo))
        hyper = np.vstack(found)
        if on_arc:
            predicted = np.column_stack([subsets, last])
            if not dot_zero_at_digits(field, rows_digits(field, hyper), w, predicted).all():
                raise InvariantViolated("a group-law hyperplane misses its predicted points")
            encs.append(coords_to_enc(hyper, field.q))
            continue
        counts = dot_zero_mask(field, hyper, w).sum(axis=1)
        if counts.max(initial=0) > k:
            raise ArcPropertyViolated("a spanned hyperplane exceeds k incidences")
        x_encs.append(coords_to_enc(hyper[counts == k], field.q))
    if x_encs:
        encs.append(np.unique(np.concatenate(x_encs)))
    walk = np.sort(np.concatenate(encs)) if encs else np.empty(0, dtype=np.int64)
    if (walk[1:] == walk[:-1]).any():
        raise ArcPropertyViolated("a hyperplane is reached twice: it holds more than k set points")
    return walk


def addable_filter(ps: ProjPointSet, candidates,
                   budget: Budget | None = None) -> list[tuple[int, ...]]:
    """Addability test restricted to a candidate point list.

    Full hyperplanes come from the set's kept :meth:`ProjPointSet.walk`, not
    from a scan of the whole space: on an arc, a walk of the C(n, k-2) subsets
    of k-2 points with one dual per full hyperplane, plus about C(n, k-2) spans
    per point added after the arc.  The charge keeps the (k-1)-subset span
    estimate, which overstates this work.
    """
    budget = ensure_budget(budget)
    field, k, n = ps.field, ps.k, ps.n
    cand = normalize_points(field, k, candidates)
    if len(cand) == 0:
        return []
    cand = cand[np.argsort(coords_to_enc(cand, field.q), kind="stable")]
    budget.charge("subset_span_scan", math.comb(n, k - 1) * (n + k * (k - 1) ** 2))
    return _addable_among(ps, cand)


@dataclass
class CompletionResult:
    added: list[tuple[int, ...]]
    complete: bool
    final: ProjPointSet


def complete_arc(ps: ProjPointSet, max_add: int, budget: Budget | None = None,
                 candidates=None, on_first=None) -> CompletionResult:
    """Greedy completion by addable points, smallest encoding first.

    Adding a point only shrinks the addable set, so every round after the
    first tests only the points the round before found addable, less the one
    added.  With ``candidates`` given, the first round tests only them, which
    stays exact when they cover every addable point; without, it filters all
    of P^(k-1).  Each round charges as its set's search of that kind would.
    ``on_first`` is called with the addable points of ``ps`` itself before
    any point is added, so a caller keeps them even when a later round
    exceeds the budget.
    """
    if max_add < 0:
        raise ValueError("max_add must be nonnegative")
    budget = ensure_budget(budget)
    added: list[tuple[int, ...]] = []
    current = ps
    if candidates is None:
        addable = addable_points(current, budget)
    else:
        addable = addable_filter(current, candidates, budget)
    if on_first is not None:
        on_first(addable)
    while addable and len(added) < max_add:
        pick, rest = addable[0], addable[1:]
        added.append(pick)
        current = current.with_point(pick)
        if candidates is None:
            # charged as the whole-space round it replaces; the filter walks the
            # set only when rest holds a point
            current._charge_scan(budget)
            addable = _addable_among(current, rest)
        else:
            addable = addable_filter(current, rest, budget)
    return CompletionResult(added=added, complete=not addable, final=current)
