"""Lines of the projective plane versus a fixed elliptic cubic.

Two routes to the same classification:

* :func:`line_meet` factors the restriction of the curve equation to one
  line exactly (root finding by exhaustive evaluation) and reports rational
  intersection points with multiplicities; the tests use it as the reference.
* :class:`LineSystem` classifies every line of the plane at once from
  incidence counts plus direct tangent enumeration, which is what the
  whole-plane scans, point profiles and witness searches run on.

Both work on the squared-away model Y^2 = g(X) internally; the shift back to
the curve's own coordinates is an affine map of the plane, so incidence,
tangency and multiplicities transfer unchanged.

Line duals (a, b, c) encode a + b*X + c*Y = 0; vertical lines have c = 0 and
the line at infinity is (1, 0, 0).  A "trisecant" meets the curve in three
distinct rational points, a "tangent" has a contact of multiplicity at least
two, and a line with exactly two distinct simple rational points cannot occur
against Y^2 = g(X) once the infinite point is accounted for, so the chord
class stays empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curve import INFINITY, EllipticCurve
from .errors import DimensionMismatch, InvariantViolated, PointOnCurve
from .geometry import coords_to_enc, enc_to_coords, normalize_coords, normalize_points, normalize_rows
from .gf import _padd, _pdeg, _pderiv, _pdivmod, _pgcd, _pmul, _pscale, _psub, _ptrim

KIND_SPARSE = "sparse"
KIND_TANGENT = "tangent"
KIND_TRISECANT = "trisecant"
KIND_CHORD = "chord"

_KIND_BY_CODE = {0: KIND_SPARSE, 1: KIND_TANGENT, 2: KIND_TRISECANT, 3: KIND_CHORD}


@dataclass
class LineMeet:
    dual: tuple[int, int, int]
    kind: str
    points: tuple  # ((x, y) or INFINITY, multiplicity) pairs
    vertical: bool
    at_infinity: bool


@dataclass
class LineProfile:
    """Counts over the q+1 rational lines through a point, plus the
    closure-tangency data the classical tangent bounds are about.

    ``tangents`` counts rational lines with a rational double contact; these
    partition the pencil together with the other three counts.  A tangent
    line touching the cubic at a conjugate pair of points is not a rational
    line at all, so the bound of six tangents and the existence of a
    non-vertical one live in ``geometric_tangents`` and
    ``has_nonvertical_tangent``, computed from the slope discriminant without
    leaving F_q.  ``geometric_tangents`` is None in the degenerate case of an
    identically vanishing discriminant.
    """

    point: tuple[int, int, int]
    tangents: int
    trisecants: int
    chords: int
    sparse: int
    geometric_tangents: int | None
    has_nonvertical_tangent: bool

    @property
    def total(self) -> int:
        return self.tangents + self.trisecants + self.chords + self.sparse

    def to_json_dict(self) -> dict:
        return {
            "point": list(self.point),
            "tangents": self.tangents,
            "trisecants": self.trisecants,
            "chords": self.chords,
            "sparse": self.sparse,
            "geometricTangents": self.geometric_tangents,
            "hasNonVerticalTangent": self.has_nonvertical_tangent,
        }


def _plane_point(field, point) -> tuple[int, int, int]:
    """Normalized point or line dual of the plane; a width other than 3 raises
    DimensionMismatch."""
    return tuple(normalize_points(field, 3, [point])[0].tolist())


def _short_dual(curve: EllipticCurve, dual) -> tuple[int, int, int]:
    """Map a line dual from curve coordinates to the squared-away plane."""
    f = curve.field
    a, b, c = (int(v) for v in dual)
    h1 = curve._short["h1"]
    h0 = curve._short["h0"]
    return (f.sub(a, f.mul(c, h0)), f.sub(b, f.mul(c, h1)), c)


def _cubic_roots_with_multiplicity(field, coeffs):
    """Rational roots of a monic cubic, coefficients (c0, c1, c2) low first."""
    c0, c1, c2 = coeffs
    roots = []
    poly = [c0, c1, c2, 1]
    for x in range(field.q):
        x2 = field.mul(x, x)
        val = field.add(
            field.add(field.mul(x, x2), field.mul(c2, x2)),
            field.add(field.mul(c1, x), c0),
        )
        if val == 0:
            roots.append(x)
    out = []
    for root in roots:
        mult = 0
        work = poly
        while _pdeg(work) > 0:
            quot, rem = _pdivmod(field, work, [field.neg(root), 1])
            if _pdeg(rem) >= 0:
                break
            mult += 1
            work = quot
        out.append((root, mult))
    return out


def line_meet(curve: EllipticCurve, dual) -> LineMeet:
    """Exact rational intersection of one line with the curve."""
    field = curve.field
    dual_n = _plane_point(field, dual)
    a, b, c = _short_dual(curve, dual_n)
    A, B, C = curve.short_form()

    def back(x, z):
        return (x, curve.y_unshift(x, z))

    if b == 0 and c == 0:
        return LineMeet(dual_n, KIND_TANGENT, ((INFINITY, 3),), False, True)
    if c == 0:
        x0 = field.neg(field.div(a, b))
        gx = curve.g_of_x(x0)
        z = field.sqrt(gx)
        if z is None:
            points = ((INFINITY, 1),)
            kind = KIND_SPARSE
        elif z == 0:
            points = ((back(x0, 0), 2), (INFINITY, 1))
            kind = KIND_TANGENT
        else:
            points = tuple(sorted(((back(x0, z), 1), (back(x0, field.neg(z)), 1)))) + ((INFINITY, 1),)
            kind = KIND_TRISECANT
        return LineMeet(dual_n, kind, points, True, False)

    m = field.neg(field.div(b, c))
    t = field.neg(field.div(a, c))
    # (mX + t)^2 = g(X): monic cubic X^3 + (A - m^2) X^2 + (B - 2mt) X + (C - t^2)
    c2 = field.sub(A, field.mul(m, m))
    c1 = field.sub(B, field.mul(2 % field.p, field.mul(m, t)))
    c0 = field.sub(C, field.mul(t, t))
    roots = _cubic_roots_with_multiplicity(field, (c0, c1, c2))
    pts = tuple(
        (back(x, field.add(field.mul(m, x), t)), mult) for x, mult in sorted(roots)
    )
    simple = [p for p, mult in pts if mult == 1]
    if any(mult >= 2 for _, mult in pts):
        kind = KIND_TANGENT
    elif len(simple) == 3:
        kind = KIND_TRISECANT
    elif len(simple) == 2:
        kind = KIND_CHORD  # unreachable for Y^2 = g(X); kept for honesty
    else:
        kind = KIND_SPARSE
    return LineMeet(dual_n, kind, pts, False, False)


def point_on_curve(curve: EllipticCurve, point) -> bool:
    p1, p2, p3 = _plane_point(curve.field, point)
    if p1 == 0:
        return (p1, p2, p3) == (0, 0, 1)
    return curve.is_on_curve(p2, p3)


# ---- closure tangency via the slope discriminant ---------------------------


def _distinct_root_count(field, poly) -> int:
    """Number of distinct roots of poly over the algebraic closure.

    Irreducible polynomials over a finite field are separable, so the count
    is the degree of the radical; factors whose multiplicity is divisible by
    the characteristic hide inside gcd(f, f') and are recovered by the
    standard substitution X^p -> X.
    """
    d = _pdeg(poly)
    if d <= 0:
        return 0
    deriv = _pderiv(field, poly)
    if _pdeg(deriv) < 0:
        return _distinct_root_count(field, [poly[i] for i in range(0, d + 1, field.p)])
    g = _pgcd(field, poly, deriv)
    if _pdeg(g) == 0:
        return d
    w, rem = _pdivmod(field, poly, g)
    if _pdeg(rem) >= 0:
        raise InvariantViolated("gcd(f, f') does not divide f")
    y = g
    while True:
        h = _pgcd(field, y, w)
        if _pdeg(h) <= 0:
            break
        y = _pdivmod(field, y, h)[0]
    dy = _pdeg(y)
    if dy % field.p:
        raise InvariantViolated(f"repeated part of degree {dy} is not a p-th power")
    z = [y[i] for i in range(0, dy + 1, field.p)]
    return _pdeg(w) + _distinct_root_count(field, z)


def _cubic_discriminant_poly(field, a, b, c):
    """Discriminant of X^3 + a X^2 + b X + c where a, b, c are polynomials.

    18abc - 4a^3c + a^2b^2 - 4b^3 - 27c^2, valid in every odd characteristic.
    """
    t1 = _pscale(field, _pmul(field, _pmul(field, a, b), c), 18 % field.p)
    t2 = _pscale(field, _pmul(field, _pmul(field, _pmul(field, a, a), a), c), 4 % field.p)
    t3 = _pmul(field, _pmul(field, a, a), _pmul(field, b, b))
    t4 = _pscale(field, _pmul(field, _pmul(field, b, b), b), 4 % field.p)
    t5 = _pscale(field, _pmul(field, c, c), 27 % field.p)
    return _psub(field, _psub(field, _padd(field, _psub(field, t1, t2), t3), t4), t5)


def _closure_tangents(curve: EllipticCurve, x, z) -> tuple[int | None, int]:
    """Tangents over the closure through a point of the squared-away plane.

    (x, z) is an affine point; x = None stands for the infinite point of
    slope z.  Returns (nonvertical, extra): the distinct roots of the slope
    discriminant (None when it vanishes identically) and the tangents the
    discriminant cannot see, namely the vertical through x when g(x) = 0, or
    the infinite line, which passes through every infinite point.
    """
    field = curve.field
    A, B, C = curve.short_form()
    two = 2 % field.p
    if x is not None:
        # slope m is the parameter, intercept t(m) = z - m x
        t_poly = [z, field.neg(x)]
        a = [A, 0, field.neg(1)]
        b = _psub(field, [B], _pscale(field, _pmul(field, [0, 1], t_poly), two))
        c = _psub(field, [C], _pmul(field, t_poly, t_poly))
        extra = 1 if curve.g_of_x(x) == 0 else 0
    else:
        # fixed slope, intercept t is the parameter
        a = [field.sub(A, field.mul(z, z))]
        b = _ptrim([B, field.neg(field.mul(two, z))])
        c = _psub(field, [C], [0, 0, 1])
        extra = 1
    disc = _cubic_discriminant_poly(field, a, b, c)
    if _pdeg(disc) < 0:
        return None, extra
    return _distinct_root_count(field, disc), extra


def geometric_tangents(curve: EllipticCurve, point) -> tuple[int | None, bool]:
    """Tangent lines of the cubic through a point, counted over the closure.

    Returns (count, has_nonvertical); count is None when the slope
    discriminant vanishes identically (then every line of the pencil is
    tangent, which would break the classical bound and is reported as such).
    Tangency contact may happen at conjugate points, so this can exceed the
    number of rational lines with a rational double contact.
    """
    field = curve.field
    p1, p2, p3 = _plane_point(field, point)
    if point_on_curve(curve, (p1, p2, p3)):
        raise PointOnCurve(f"({p1},{p2},{p3}) lies on the curve")
    if p1 == 1:
        nonvertical, extra = _closure_tangents(curve, p2, curve.y_shift(p2, p3))
    elif p2 == 1:
        nonvertical, extra = _closure_tangents(curve, None, field.add(p3, curve._short["h1"]))
    else:
        raise PointOnCurve("the curve's infinite point is not external")
    if nonvertical is None:
        return None, True
    return nonvertical + extra, nonvertical > 0


def line_profile(curve: EllipticCurve, point) -> LineProfile:
    """Classification counts of all q+1 lines through an external point, read
    off the point's pencil in :class:`LineSystem`."""
    p = _plane_point(curve.field, point)
    if point_on_curve(curve, p):
        raise PointOnCurve(f"{p} lies on the curve")
    system = LineSystem(curve)
    sparse, tangents, trisecants, chords = np.bincount(
        system.kind[system.pencils([p])[0]], minlength=len(_KIND_BY_CODE)).tolist()
    geo, has_nv = geometric_tangents(curve, p)
    if geo is not None and tangents > geo:
        raise InvariantViolated("rational tangent count exceeds the closure count")
    return LineProfile(
        point=p,
        tangents=tangents,
        trisecants=trisecants,
        chords=chords,
        sparse=sparse,
        geometric_tangents=geo,
        has_nonvertical_tangent=has_nv,
    )


class LineSystem:
    """Classification of every line of the plane against one curve.

    Lines are indexed in the squared-away model: id = m*q + t for Y = mX + t,
    then q*q + x0 for the verticals, then q*q + q for the line at infinity.
    Point ids follow the same layout (x*q + y, then infinite points by slope,
    then the curve's infinite point last).
    """

    def __init__(self, curve: EllipticCurve):
        self.curve = curve
        field = curve.field
        q = field.q
        self.q = q
        self.n_lines = q * q + q + 1
        A, B, C = curve.short_form()
        pts = curve.affine_points
        xs = np.array([p[0] for p in pts], dtype=np.int64)
        ys_orig = np.array([p[1] for p in pts], dtype=np.int64)
        h1 = curve._short["h1"]
        h0 = curve._short["h0"]
        zs = field.add_np(ys_orig, field.add_np(field.mul_np(np.int64(h1), xs), np.int64(h0)))
        self._affine_ids = xs * q + zs
        self._xs, self._zs = xs, zs

        counts = np.zeros(self.n_lines, dtype=np.int64)
        counts[: q * q] = np.bincount(self._chord_ids(), minlength=q * q)
        fiber = np.zeros(q, dtype=np.int64)
        np.add.at(fiber, xs, 1)
        counts[q * q: q * q + q] = fiber + 1  # infinite point joins each vertical
        counts[q * q + q] = 1
        self.counts = counts

        tangent = np.zeros(self.n_lines, dtype=bool)
        # tangent at (x, z), z != 0: slope g'(x) / (2z); at z == 0: the vertical
        gp = field.add_np(
            field.mul_np(np.int64(3 % field.p), field.mul_np(xs, xs)),
            field.add_np(field.mul_np(np.int64(2 % field.p), field.mul_np(np.int64(A), xs)), np.int64(B)),
        )
        nz = zs != 0
        if nz.any():
            twoz = field.mul_np(np.int64(2 % field.p), zs[nz])
            slope = field.mul_np(gp[nz], field.inv_np(twoz))
            t_at = field.sub_np(zs[nz], field.mul_np(slope, xs[nz]))
            tangent[slope * q + t_at] = True
        if (~nz).any():
            tangent[q * q + xs[~nz]] = True
        tangent[q * q + q] = True  # inflection contact at the infinite point
        self.tangent = tangent

        kind = np.zeros(self.n_lines, dtype=np.int8)
        kind[tangent] = 1
        kind[(counts == 3) & ~tangent] = 2
        two = counts == 2
        if not tangent[two].all():
            raise InvariantViolated("a two-point line escaped the tangent set")
        if tangent[counts == 3].any():
            raise InvariantViolated("a three-point line claims tangency")
        self.kind = kind
        self.point_index = {p: i for i, p in enumerate(curve.points)}
        self._tri_points_cache: dict[int, tuple] = {}

    def _chord_ids(self) -> np.ndarray:
        """Flat (q, n - 1) ids of the non-vertical line of each slope through
        each affine point, slope-major."""
        field, q = self.curve.field, self.q
        ms = np.arange(q, dtype=np.int64)
        tt = field.sub_np(self._zs[None, :], field.mul_np(ms[:, None], self._xs[None, :]))
        return (ms[:, None] * q + tt).ravel()

    @cached_property
    def dual_enc(self) -> np.ndarray:
        """Normalized dual encoding, in curve coordinates, of every line,
        built on first read: Z = mX + t is a + bX + cY = 0 with
        (a, b, c) = (h0 - t, h1 - m, 1)."""
        field, q = self.curve.field, self.q
        h1, h0 = self.curve._short["h1"], self.curve._short["h0"]
        duals = np.zeros((self.n_lines, 3), dtype=np.int64)
        ms_all, ts_all = np.divmod(np.arange(q * q, dtype=np.int64), q)
        duals[: q * q, 0] = field.sub_np(np.int64(h0), ts_all)
        duals[: q * q, 1] = field.sub_np(np.int64(h1), ms_all)
        duals[: q * q, 2] = 1
        duals[q * q: q * q + q, 0] = field.neg_np(np.arange(q, dtype=np.int64))
        duals[q * q: q * q + q, 1] = 1
        duals[q * q + q, 0] = 1
        return coords_to_enc(normalize_rows(field, duals), q)

    @cached_property
    def tri(self) -> np.ndarray:
        """The three points of each trisecant as indices into curve.points,
        ascending, so the infinite point (index n - 1) comes last; -1 rows
        for every other line.  Built on first read; a stable sort by line id
        keeps each non-vertical line's points in point order."""
        q, kind, xs = self.q, self.kind, self._xs
        ids = self._chord_ids()
        tri = np.full((self.n_lines, 3), -1, dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        line_sorted = ids[order]
        point_sorted = order % len(xs)
        tri_ids = np.flatnonzero(kind[: q * q] == 2)
        first = np.searchsorted(line_sorted, tri_ids)
        tri[tri_ids] = point_sorted[first[:, None] + np.arange(3)]
        tri_verts = np.flatnonzero(kind[q * q: q * q + q] == 2)
        first = np.searchsorted(xs, tri_verts)
        tri[q * q + tri_verts, 0] = first
        tri[q * q + tri_verts, 1] = first + 1
        tri[q * q + tri_verts, 2] = len(xs)
        return tri

    # ---- id and coordinate conversions -----------------------------------

    def short_dual_to_id(self, dual_short) -> int:
        field = self.curve.field
        a, b, c = dual_short
        q = self.q
        if b == 0 and c == 0:
            return q * q + q
        if c == 0:
            return q * q + field.neg(field.div(a, b))
        m = field.neg(field.div(b, c))
        t = field.neg(field.div(a, c))
        return m * q + t

    def dual_to_id(self, dual_orig) -> int:
        return self.short_dual_to_id(_short_dual(self.curve, _plane_point(self.curve.field, dual_orig)))

    def id_to_dual(self, line_id: int) -> tuple[int, int, int]:
        return tuple(enc_to_coords(self.dual_enc[line_id], self.q, 3).tolist())

    def triple_points(self, line_id: int) -> tuple:
        """The three rational points of a trisecant line, curve coordinates,
        in curve.points order.

        Cached per line id, so the cache holds at most q^2 + q + 1 entries of
        three points each; an entry is published with one setdefault."""
        cached = self._tri_points_cache.get(line_id)
        if cached is not None:
            return cached
        if self.kind[line_id] != 2:
            raise ValueError("not a trisecant line")
        points = self.curve.points
        pts = tuple(points[i] for i in self.tri[line_id])
        return self._tri_points_cache.setdefault(line_id, pts)

    # ---- pencils ----------------------------------------------------------

    def pencils(self, planar) -> np.ndarray:
        """Line ids through each of a batch of normalized plane points in
        curve coordinates, shape (B, q + 1).

        Through an affine point: the q non-vertical lines by slope, then the
        vertical.  Through the infinite point of a slope: the q lines of that
        slope, then the line at infinity.  Through (0, 0, 1): the q verticals,
        then the line at infinity.  Rows of another width raise
        DimensionMismatch.
        """
        field = self.curve.field
        q = self.q
        h1, h0 = np.int64(self.curve._short["h1"]), np.int64(self.curve._short["h0"])
        planar = np.asarray(planar, dtype=np.int64)
        if planar.ndim != 2 or planar.shape[1] != 3:
            raise DimensionMismatch(f"plane points of shape {planar.shape} need 3 coordinates each")
        out = np.empty((len(planar), q + 1), dtype=np.int64)
        steps = np.arange(q, dtype=np.int64)
        affine = planar[:, 0] == 1
        infinite = ~affine & (planar[:, 1] == 1)
        top = ~affine & ~infinite
        if affine.any():
            x = planar[affine, 1]
            z = field.add_np(planar[affine, 2], field.add_np(field.mul_np(h1, x), h0))
            out[affine, :q] = steps * q + field.sub_np(z[:, None], field.mul_np(steps, x[:, None]))
            out[affine, q] = q * q + x
        if infinite.any():
            m_short = field.add_np(planar[infinite, 2], h1)
            out[infinite, :q] = m_short[:, None] * q + steps
            out[infinite, q] = q * q + q
        out[top, :q] = q * q + steps
        out[top, q] = q * q + q
        return out

    def admissible(self, require_affine: bool = False, avoid=()) -> np.ndarray:
        """Mask over line ids: trisecants, without the infinite point when
        ``require_affine``, and meeting none of the ``avoid`` point indices.

        The lines through the infinite point are the verticals and the line
        at infinity, ids q^2 and up.
        """
        mask = self.kind == 2
        if require_affine:
            mask[self.q * self.q:] = False
        if len(avoid):
            mask &= ~np.isin(self.tri, np.asarray(avoid, dtype=np.int64)).any(axis=1)
        return mask

    def first_trisecants(self, pencils: np.ndarray, admissible: np.ndarray) -> np.ndarray:
        """Per pencil row, the admissible line of least dual encoding, or -1."""
        enc = np.where(admissible[pencils], self.dual_enc[pencils], np.iinfo(np.int64).max)
        best = pencils[np.arange(len(pencils)), enc.argmin(axis=1)]
        return np.where(admissible[best], best, -1)

    def trisecants_through(self, point, require_affine: bool = False,
                           avoid_points=()) -> list[tuple[tuple, tuple]]:
        """Trisecant lines through a point, ordered by normalized dual encoding.

        Returns (dual, triple) pairs in curve coordinates.  ``require_affine``
        drops lines whose triple includes the infinite point; ``avoid_points``
        drops lines meeting any of the given curve points.
        """
        keys = (p if p is INFINITY else tuple(p) for p in avoid_points)
        avoid = [self.point_index[p] for p in keys if p in self.point_index]
        pencil = self.pencils([normalize_coords(self.curve.field, point)])[0]
        hits = pencil[self.admissible(require_affine, avoid)[pencil]]
        hits = hits[np.argsort(self.dual_enc[hits])]
        return [(self.id_to_dual(i), self.triple_points(int(i))) for i in hits]

    # ---- whole-plane statistics -------------------------------------------

    def _point_accumulate(self, line_mask: np.ndarray) -> np.ndarray:
        """Per-point counts of marked lines through each plane point.

        Marked non-vertical lines go q at a time, so each temporary holds q^2
        entries, no more than the line table itself."""
        q = self.q
        field = self.curve.field
        out = np.zeros(q * q + q + 1, dtype=np.int64)
        marked = np.flatnonzero(line_mask)
        nonvert = marked[marked < q * q]
        xs = np.arange(q, dtype=np.int64)
        for lo in range(0, len(nonvert), q):
            ms, ts = np.divmod(nonvert[lo: lo + q, None], q)
            ys = field.add_np(field.mul_np(ms, xs), ts)
            out[: q * q] += np.bincount((xs * q + ys).ravel(), minlength=q * q)
        out[q * q: q * q + q] += np.bincount(nonvert // q, minlength=q)
        verts = marked[(marked >= q * q) & (marked < q * q + q)] - q * q
        out[: q * q].reshape(q, q)[verts] += 1  # the vertical x = x0 holds every (x0, y)
        out[q * q + q] += len(verts)
        if line_mask[q * q + q]:
            out[q * q:] += 1
        return out

    def external_mask(self) -> np.ndarray:
        q = self.q
        mask = np.ones(q * q + q + 1, dtype=bool)
        mask[self._affine_ids] = False
        mask[q * q + q] = False
        return mask

    def point_id_to_proj(self, point_id: int) -> tuple[int, int, int]:
        q = self.q
        curve = self.curve
        if point_id < q * q:
            x, z = divmod(point_id, q)
            return (1, x, curve.y_unshift(x, z))
        if point_id < q * q + q:
            m_short = point_id - q * q
            return (0, 1, curve.field.sub(m_short, curve._short["h1"]))
        return (0, 0, 1)


@dataclass
class TrisecantScan:
    min_count: int
    argmin: tuple[int, int, int]
    histogram: dict

    def to_json_dict(self) -> dict:
        return {
            "min": self.min_count,
            "argmin": list(self.argmin),
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }


def min_trisecants(curve: EllipticCurve) -> TrisecantScan:
    """Minimum trisecant count over all rational points off the curve."""
    system = LineSystem(curve)
    counts = system._point_accumulate(system.kind == 2)
    mask = system.external_mask()
    external = counts[mask]
    min_count = int(external.min())
    order = np.flatnonzero(mask)
    argmin_id = int(order[int(np.argmin(external))])
    hist_vals, hist_counts = np.unique(external, return_counts=True)
    return TrisecantScan(
        min_count=min_count,
        argmin=system.point_id_to_proj(argmin_id),
        histogram={int(v): int(c) for v, c in zip(hist_vals, hist_counts)},
    )


def zero_j_hypotheses_params(p: int, r: int, q: int, j_is_zero: bool, n_is_even: bool) -> bool:
    """Hypothesis gate for the zero-j-invariant trisecant bound."""
    return (
        p > 3
        and q > 9887
        and j_is_zero
        and n_is_even
        and (r % 2 == 0 or p % 3 == 1)
    )


def zero_j_hypotheses(curve: EllipticCurve) -> bool:
    f = curve.field
    return zero_j_hypotheses_params(f.p, f.r, f.q, curve.j == 0, curve.n % 2 == 0)
