"""Frame normalization, witness hyperplanes, and the extendability verdicts.

For embedding dimensions 4, 5 and 6 the completeness question reduces to
plane geometry: a hyperplane section of the embedded curve pulls back to a
conic that factors into the coordinate line involved and an ordinary line,
so a trisecant through a suitable projection of the query point lifts to a
full hyperplane through it.  The dispatch below keys on the coordinate
pattern of the query point; points matching no case are exactly the
candidates that may extend the arc, and those are tested exactly against
the enumerated full hyperplanes.

Everything runs on a frame-normalized model of the curve: an invertible
substitution X -> u^2 X + r, Y -> u^3 Y + s u^2 X + t chosen so that X = 0
meets the curve in two affine points away from the origin while Y = 0 and
X = Y are three-point lines.  The substitution induces an invertible linear
change of the embedded coordinates, so extendability verdicts transfer back
to the original curve unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .curve import INFINITY, EllipticCurve
from .errors import (
    Budget,
    BudgetExceeded,
    FrameViolation,
    HypothesisNotMet,
    InvariantViolated,
    NoFrameFound,
    NoWitnessFound,
    ensure_budget,
)
from .geometry import (
    EllipticArc,
    addable_points,
    arc_make,
    complete_arc,
    coords_to_enc,
    enc_to_coords,
    normalize_points,
    normalize_rows,
)
from .gf import dot_zero_mask
from .secants import LineSystem, zero_j_hypotheses

VERDICT_CONSISTENT = "CONSISTENT"
VERDICT_VIOLATION = "VIOLATION"
VERDICT_BUDGET_PARTIAL = "BUDGET_PARTIAL"

DEFAULT_SAMPLE_K5 = 10_000
DEFAULT_SAMPLE_K6 = 100_000


@dataclass(frozen=True)
class Frame:
    u: int
    r: int
    s: int
    t: int

    def to_json_dict(self) -> dict:
        return {"u": self.u, "r": self.r, "s": self.s, "t": self.t}


def transform_curve(curve: EllipticCurve, u: int, r: int, s: int, t: int) -> EllipticCurve:
    """Curve in the new frame X -> u^2 X + r, Y -> u^3 Y + s u^2 X + t."""
    f = curve.field
    if u == 0:
        raise ValueError("frame scale u must be nonzero")
    w1, w3, w2, w4, w6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a5
    iu = f.inv(u)
    iu2 = f.mul(iu, iu)
    iu3 = f.mul(iu2, iu)
    iu4 = f.mul(iu2, iu2)
    iu6 = f.mul(iu3, iu3)
    two = 2 % f.p
    three = 3 % f.p
    n1 = f.mul(iu, f.add(w1, f.mul(two, s)))
    n2 = f.mul(iu2, f.sub(f.add(w2, f.mul(three, r)), f.add(f.mul(s, w1), f.mul(s, s))))
    n3 = f.mul(iu3, f.add(w3, f.add(f.mul(r, w1), f.mul(two, t))))
    n4_core = f.add(
        f.add(w4, f.mul(three, f.mul(r, r))),
        f.mul(two, f.mul(w2, r)),
    )
    n4_sub = f.add(
        f.add(f.mul(w3, s), f.mul(w1, t)),
        f.add(f.mul(w1, f.mul(r, s)), f.mul(two, f.mul(s, t))),
    )
    n4 = f.mul(iu4, f.sub(n4_core, n4_sub))
    n6_core = f.add(
        f.add(w6, f.mul(r, f.mul(r, r))),
        f.add(f.mul(w2, f.mul(r, r)), f.mul(w4, r)),
    )
    n6_sub = f.add(f.mul(t, t), f.add(f.mul(w1, f.mul(r, t)), f.mul(w3, t)))
    n6 = f.mul(iu6, f.sub(n6_core, n6_sub))
    out = EllipticCurve(f, (n1, n3, n2, n4, n6))
    if out.n != curve.n or out.j != curve.j:
        raise InvariantViolated("frame change altered the point count or the j-invariant")
    return out


def _coordinate_sections(curve: EllipticCurve):
    """Affine points on X = 0, Y = 0 and X = Y, each in curve point order."""
    pts = curve.affine_points
    return (tuple(p for p in pts if p[0] == 0), tuple(p for p in pts if p[1] == 0),
            tuple(p for p in pts if p[0] == p[1]))


def frame_conditions(curve: EllipticCurve) -> tuple[bool, dict]:
    """The three bullet conditions of the normalized frame, read off
    :func:`_coordinate_sections`.  X = 0 also meets the infinite point, so
    two affine points make it a trisecant; Y = 0 and X = Y need three."""
    x0, y0, xy = _coordinate_sections(curve)
    detail = {
        "xZeroTwoAffineOffOrigin": len(x0) == 2 and (0, 0) not in x0,
        "yZeroThreeAffine": len(y0) == 3,
        "diagonalThreeAffine": len(xy) == 3,
    }
    return all(detail.values()), detail


def choose_frame(curve: EllipticCurve, force: bool = False) -> tuple[EllipticCurve, Frame]:
    """Deterministic frame search.

    Picks the first base point (r, t) in encoding order that is off the
    curve, sits over a two-point vertical fiber, and carries two non-vertical
    trisecants; their slopes become the shear and scale of the substitution.
    """
    f = curve.field
    if not force and (f.q < 121 or curve.j == 0):
        raise HypothesisNotMet(
            f"frame search expects q >= 121 and nonzero j (q={f.q}, j={curve.j}); use force to override"
        )
    ok, _ = frame_conditions(curve)
    if ok:
        return curve, Frame(1, 0, 0, 0)
    system = LineSystem(curve)
    on_curve = set(curve.affine_points)
    for r in range(f.q):
        fiber = curve.g_of_x(r)
        if fiber == 0 or not f.is_square(fiber):
            continue
        for t in range(f.q):
            if (r, t) in on_curve:
                continue
            slopes = []
            for dual, triple in system.trisecants_through((1, r, t), require_affine=True):
                # dual (a, b, c) with c != 0 for a non-vertical line
                if dual[2] != 0:
                    slopes.append(f.neg(f.div(dual[1], dual[2])))
                if len(slopes) == 2:
                    break
            if len(slopes) < 2:
                continue
            s_par = slopes[0]
            u_par = f.sub(slopes[1], slopes[0])
            framed = transform_curve(curve, u_par, r, s_par, t)
            ok, detail = frame_conditions(framed)
            if ok:
                return framed, Frame(u_par, r, s_par, t)
    raise NoFrameFound(f"no normalizing frame found for {curve!r}")


# ---- witness machinery ------------------------------------------------------

WITNESS_CHUNK = 512  # query points per witnesses() call when sampling


@dataclass
class WitnessReport:
    q_point: tuple
    case_tag: str
    hyperplane: tuple
    secant_points: tuple

    def to_json_dict(self) -> dict:
        return {
            "point": list(self.q_point),
            "case": self.case_tag,
            "hyperplane": list(self.hyperplane),
            "secantPoints": [list(p) for p in self.secant_points],
        }


class WitnessBatch:
    """Witnesses for a batch of query points, row-aligned with ``points``.

    A row without a witness keeps an empty case tag, a zero hyperplane and
    -1 secant ids, and carries the reason no witness exists.
    """

    def __init__(self, arc: EllipticArc, points: np.ndarray):
        b, k = points.shape
        self.arc = arc
        self.points = points                                # (B, k) normalized
        self.case = np.full(b, "", dtype=object)            # case tag per row
        self.reason = np.full(b, "", dtype=object)          # failure reason per row
        self.hyperplanes = np.zeros((b, k), dtype=np.int64)
        self.secant_ids = np.full((b, k), -1, dtype=np.int64)  # indices into arc.points

    @property
    def found(self) -> np.ndarray:
        return self.case != ""

    @property
    def failures(self) -> list[NoWitnessFound]:
        """The rows without a witness, in row order."""
        return [
            NoWitnessFound(tuple(int(v) for v in self.points[i]), self.reason[i])
            for i in np.flatnonzero(~self.found)
        ]

    def report(self, i: int) -> WitnessReport:
        if not self.case[i]:
            raise ValueError(f"row {i} has no witness")
        return WitnessReport(
            tuple(int(v) for v in self.points[i]),
            self.case[i],
            tuple(int(v) for v in self.hyperplanes[i]),
            tuple(self.arc.points[j] for j in self.secant_ids[i]),
        )


class WitnessContext:
    """Per-arc data for witness construction: line classes, the three
    coordinate sections of the frame-normalized curve, and the trisecant
    masks each case of the analysis searches."""

    def __init__(self, arc: EllipticArc):
        if arc.k not in (4, 5, 6):
            raise ValueError("witness recipes exist for k in {4, 5, 6}")
        self.arc = arc
        self.curve = arc.curve
        self.field = arc.field
        self.system = LineSystem(self.curve)
        self.x0_set, self.y0_set, self.xy_set = _coordinate_sections(self.curve)
        if arc.k in (5, 6):
            ok, detail = frame_conditions(self.curve)
            if not ok:
                raise FrameViolation(f"frame conditions fail: {detail}")
        index = self.system.point_index
        self._o = index[INFINITY]
        self._x0, self._y0, self._xy = (
            np.array([index[p] for p in pts], dtype=np.int64)
            for pts in (self.x0_set, self.y0_set, self.xy_set)
        )
        self._x0_ys = np.array([y for _, y in self.x0_set], dtype=np.int64)
        system = self.system
        not_x0_line = np.ones(system.n_lines, dtype=bool)
        not_x0_line[system.dual_to_id((0, 1, 0))] = False
        self._lines = {
            "affine": system.admissible(require_affine=True),
            "off_x0": system.admissible(avoid=self._x0) & not_x0_line,
            "off_y0": system.admissible(avoid=self._y0),
            "affine_off_x0": system.admissible(require_affine=True, avoid=self._x0) & not_x0_line,
            "off_xy": system.admissible(avoid=self._xy),
        }

    def witness(self, point) -> WitnessReport:
        batch = self.witnesses([point])
        if not batch.found[0]:
            raise batch.failures[0]
        return batch.report(0)

    def witnesses(self, points) -> WitnessBatch:
        """Witness hyperplanes for a batch of query points off the arc.

        Every found witness is checked before it is returned: one zero-test
        of the batch's hyperplanes against the arc must give sections of k
        points, the k listed points distinct and among them, and the query
        point on the hyperplane; any breach raises InvariantViolated.  The
        work arrays are a few (B, q + 1) pencils of int64, so callers bound
        memory through the batch size B (``WITNESS_CHUNK`` when sampling).
        """
        field, k = self.field, self.arc.k
        pts = normalize_points(field, k, points)
        on_arc = np.isin(coords_to_enc(pts, field.q), self.arc.encs)
        if on_arc.any():
            raise ValueError(f"{tuple(int(v) for v in pts[on_arc][0])} is an arc point")
        batch = WitnessBatch(self.arc, pts)
        (self._cases_k4, self._cases_k5, self._cases_k6)[k - 4](batch)
        found = batch.found
        if (found == (batch.reason != "")).any():
            raise InvariantViolated("a query point is neither witnessed nor rejected")
        if found.any():
            batch.hyperplanes[found] = normalize_rows(field, batch.hyperplanes[found])
            self._check(pts[found], batch.hyperplanes[found], batch.secant_ids[found])
        return batch

    # -- batch helpers ------------------------------------------------------

    def _fixed(self, batch, rows, tag, hyperplane, base):
        batch.case[rows] = tag
        batch.hyperplanes[rows] = hyperplane
        batch.secant_ids[rows] = base

    def _planar(self, batch, rows, planar, lines, reason, base, tags):
        """First admissible trisecant, by dual encoding, through each row's
        planar point; records misses and returns the rows with a line and
        its duals (a, b, c), shape (R, 3)."""
        system = self.system
        best = system.first_trisecants(system.pencils(normalize_rows(self.field, planar)),
                                       self._lines[lines])
        hit = best >= 0
        batch.reason[rows[~hit]] = reason
        rows, best = rows[hit], best[hit]
        batch.case[rows] = tags[hit] if np.ndim(tags) else tags
        batch.secant_ids[rows, : len(base)] = base
        batch.secant_ids[rows, len(base):] = system.tri[best]
        return rows, enc_to_coords(system.dual_enc[best], self.field.q, 3)

    def _check(self, points, hyper, secant):
        field, k = self.field, self.arc.k
        if secant.shape[1] != k or (secant < 0).any() or (secant >= self.arc.n).any():
            raise InvariantViolated(f"a witness does not list {k} arc points")
        ordered = np.sort(secant, axis=1)
        if (ordered[:, 1:] == ordered[:, :-1]).any():
            raise InvariantViolated("a witness lists a point twice")
        meets = dot_zero_mask(field, hyper, self.arc.w_matrix)
        if (meets.sum(axis=1) != k).any():
            raise InvariantViolated("witness hyperplane has the wrong section size")
        if not np.take_along_axis(meets, secant, axis=1).all():
            raise InvariantViolated("listed point is off the witness hyperplane")
        acc = np.zeros(len(points), dtype=np.int64)
        for i in range(k):
            acc = field.add_np(acc, field.mul_np(hyper[:, i], points[:, i]))
        if acc.any():
            raise InvariantViolated("witness hyperplane misses the query point")

    # -- case analysis per embedding dimension --------------------------------

    def _cases_k4(self, batch):
        pts = batch.points
        top = (pts[:, 0] == 0) & (pts[:, 1] == 0)
        # planar shadow is the infinite curve point: the candidate line
        batch.reason[top] = "point projects onto the curve's infinite point"
        rows = np.flatnonzero(~top)
        rows, duals = self._planar(batch, rows, pts[rows, :3], "affine",
                                   "no affine trisecant through the planar shadow",
                                   [self._o], "k4-planar")
        batch.hyperplanes[rows, :3] = duals

    def _cases_k5(self, batch):
        field = self.field
        pts = batch.points
        last_zero = pts[:, 4] == 0
        self._fixed(batch, last_zero, "k5-last-zero", (0, 0, 0, 0, 1),
                    np.concatenate([self._x0, self._y0]))
        ratio = np.flatnonzero(~last_zero & (pts[:, 1] != 0) & (pts[:, 3] == 0))
        rho = field.mul_np(pts[ratio, 4], field.inv_np(pts[ratio, 1]))
        cand = ratio[np.isin(rho, self._x0_ys)]
        batch.reason[cand] = "candidate: admissible ratio onto the curve"
        rest = ~last_zero
        rest[cand] = False
        rows = np.flatnonzero(rest)
        rows, duals = self._planar(batch, rows, pts[rows][:, [1, 3, 4]], "off_x0",
                                   "no trisecant off X=0 through the projection",
                                   self._x0, "k5-pencil")
        batch.case[rows[duals[:, 2] == 0]] = "k5-vertical"
        batch.hyperplanes[np.ix_(rows, [1, 3, 4])] = duals

    def _cases_k6(self, batch):
        field = self.field
        pts = batch.points
        last_zero = pts[:, 4] == 0
        self._fixed(batch, last_zero, "k6-case1", (0, 0, 0, 0, 1, 0),
                    np.concatenate([self._x0, self._y0, [self._o]]))
        rows = np.flatnonzero(~last_zero)
        inv5 = field.inv_np(pts[rows, 4])
        c2, c3, c4, c6 = (field.mul_np(inv5, pts[rows, i]) for i in (1, 2, 3, 5))
        one = np.ones(len(rows), dtype=np.int64)
        hyper = batch.hyperplanes

        sel = c6 != 0
        got, duals = self._planar(
            batch, rows[sel], np.stack([c3[sel], one[sel], c6[sel]], axis=1), "off_y0",
            "no trisecant off Y=0 through the projection", self._y0,
            np.where(c3[sel] == 0, "k6-case4", "k6-case5"))
        hyper[np.ix_(got, [2, 4, 5])] = duals

        sel = (c6 == 0) & (c4 != 0)
        got, duals = self._planar(
            batch, rows[sel], np.stack([c2[sel], c4[sel], one[sel]], axis=1), "affine_off_x0",
            "no affine trisecant off X=0 through the projection",
            np.concatenate([self._x0, [self._o]]),
            np.where(c2[sel] == 0, "k6-case6", "k6-case7"))
        hyper[np.ix_(got, [1, 3, 4])] = duals

        sel = (c6 == 0) & (c4 == 0)
        got, duals = self._planar(
            batch, rows[sel],
            np.stack([field.sub_np(c3[sel], c2[sel]), one[sel], field.neg_np(one[sel])], axis=1),
            "off_xy", "no trisecant off X=Y through the projection", self._xy,
            np.where(c2[sel] == c3[sel], "k6-case3", "k6-case2"))
        a, b, c = duals.T
        hyper[got, 1], hyper[got, 2], hyper[got, 3] = a, field.neg_np(a), b
        hyper[got, 4], hyper[got, 5] = field.sub_np(c, b), field.neg_np(c)


def k5_candidates(curve: EllipticCurve) -> tuple[list[tuple], tuple]:
    """Points the dimension-5 case analysis cannot rule out.

    Shapes (Q1, Q2, Q3, 0, rho*Q2) with Q2 != 0 and (0, rho) on the curve;
    returns (candidates in canonical order, admissible ratios).  The rows are
    built normalized, and distinct ratios give distinct rows.
    """
    field = curve.field
    q = field.q
    ratios = tuple(y for _, y in _coordinate_sections(curve)[0])
    # per ratio, the q^2 triples (Q1, Q2, Q3): Q1 = 0 with Q2 = 1, then Q1 = 1
    idx = np.arange(q * q, dtype=np.int64)
    q1 = (idx >= q).astype(np.int64)
    q2 = np.where(q1 == 1, idx // q, 1)
    rho_q2 = field.mul_np(np.array(ratios, dtype=np.int64)[:, None], q2[None, :])
    rows = np.stack(np.broadcast_arrays(q1, q2, idx % q, 0 * q1, rho_q2), axis=-1).reshape(-1, 5)
    return list(map(tuple, rows[np.argsort(coords_to_enc(rows, q))].tolist())), ratios


# ---- theorem verification ---------------------------------------------------


@dataclass
class VerdictReport:
    theorem: str
    k: int
    q: int
    curve: tuple
    verdict: str
    addable: list = dataclass_field(default_factory=list)
    completion_added: list = dataclass_field(default_factory=list)
    complete: bool | None = None
    sampled: int = 0
    seed: int | None = None
    witness_failures: list = dataclass_field(default_factory=list)
    frame: dict | None = None
    notes: list = dataclass_field(default_factory=list)
    out_of_hypothesis: bool = False
    budget_spent: int = 0

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "k": self.k,
            "q": self.q,
            "curve": list(self.curve),
            "verdict": self.verdict,
            "addable": [list(p) for p in self.addable],
            "completionAdded": [list(p) for p in self.completion_added],
            "complete": self.complete,
            "sampled": self.sampled,
            "seed": self.seed,
            "witnessFailures": [list(p) for p in self.witness_failures],
            "frame": self.frame,
            "notes": list(self.notes),
            "outOfHypothesis": self.out_of_hypothesis,
            "budgetSpent": self.budget_spent,
        }


def _sample_proj_points(field, k, count, rng, exclude_encs) -> np.ndarray:
    """Uniform normalized representatives via rejection, excluding an array
    of encodings; returns (count, k) int64.

    Draws batches of max(64, count - have) rows and keeps the admissible rows
    in draw order, so a seed fixes the sequence of points.
    """
    out = []
    have = 0
    while have < count:
        batch = rng.integers(0, field.q, size=(max(64, count - have), k))
        batch = normalize_rows(field, batch[batch.any(axis=1)])
        batch = batch[~np.isin(coords_to_enc(batch, field.q), exclude_encs)][: count - have]
        out.append(batch)
        have += len(batch)
    return np.concatenate(out) if out else np.empty((0, k), dtype=np.int64)


def _sample_witnesses(ctx, seed, sample, exclude, budget, report):
    """Witness search at ``sample`` uniform points off ``exclude``, streamed
    through the engine ``WITNESS_CHUNK`` points at a time; misses are
    collected in the report in sample order."""
    field = ctx.field
    rng = np.random.default_rng(seed)
    budget.charge("witness_sample", sample * (field.q + ctx.arc.n))
    points = _sample_proj_points(field, ctx.arc.k, sample, rng, exclude)
    for start in range(0, len(points), WITNESS_CHUNK):
        batch = ctx.witnesses(points[start: start + WITNESS_CHUNK])
        report.witness_failures.extend(exc.point for exc in batch.failures)
    report.sampled = sample


def verify_main_theorem(curve: EllipticCurve, k: int, budget: Budget | None = None,
                        seed: int = 0, sample: int | None = None,
                        force: bool = False, workers: int = 1) -> VerdictReport:
    """Check the non-extendability conclusions for one curve and dimension.

    k=3 and k=4 run full addable scans; k=5 tests the candidate family
    exactly and samples witness hyperplanes for non-candidates; k=6 samples
    witness hyperplanes across the ambient space, at ``sample`` points (None:
    the default, 0: none, negative: ValueError).  ``workers`` is ignored.
    """
    if k not in (3, 4, 5, 6):
        raise ValueError("the verified claims concern k in {3, 4, 5, 6}")
    if sample is None:
        sample = DEFAULT_SAMPLE_K5 if k == 5 else DEFAULT_SAMPLE_K6
    elif sample < 0:
        raise ValueError(f"sample must be nonnegative, not {sample}")
    budget = ensure_budget(budget)
    field = curve.field
    report = VerdictReport(
        theorem="main", k=k, q=field.q, curve=curve.coeffs, verdict=VERDICT_CONSISTENT,
        seed=seed,
    )
    hypothesis_ok = field.q >= 121 and field.q % 2 == 1 and curve.j != 0
    if not hypothesis_ok:
        if not force:
            raise HypothesisNotMet(
                f"q={field.q}, j={curve.j}: needs odd q >= 121 and nonzero j"
            )
        report.out_of_hypothesis = True
        report.notes.append("OUT_OF_HYPOTHESIS")
    try:
        if k == 3:
            _verify_k3(curve, budget, report)
        elif k == 4:
            _verify_k4(curve, budget, report)
        elif k == 5:
            _verify_k5(curve, budget, report, seed, sample, force)
        else:
            _verify_k6(curve, budget, report, seed, sample, force)
    except BudgetExceeded as exc:
        report.verdict = VERDICT_BUDGET_PARTIAL
        report.notes.append(f"budget: {exc}")
    report.budget_spent = budget.spent
    return report


def _verify_k3(curve, budget, report):
    addable = addable_points(arc_make(curve, 3), budget)
    report.addable = addable
    report.complete = not addable
    if addable:
        report.verdict = VERDICT_VIOLATION
        report.notes.append(f"{len(addable)} addable points found, expected none")


def _verify_k4(curve, budget, report):
    def first_round(addable):
        report.addable = addable
        off_line = [p for p in addable if not (p[0] == 0 and p[1] == 0)]
        if off_line:
            report.verdict = VERDICT_VIOLATION
            report.notes.append(f"addable point off the fundamental line: {off_line[0]}")

    result = complete_arc(arc_make(curve, 4), 3, budget, on_first=first_round)
    added, complete = result.added, result.complete
    report.completion_added = added
    report.complete = complete
    if len(added) > 1 or not complete:
        report.verdict = VERDICT_VIOLATION
        report.notes.append(
            f"completion added {len(added)} points (complete={complete}), expected at most 1"
        )


def _framed_arc(curve, k, budget, report, force):
    """Arc of the frame-normalized curve, or (None, None) after recording a
    full addable scan of the original curve when no frame exists."""
    try:
        framed, frame = choose_frame(curve, force=force)
    except NoFrameFound:
        report.notes.append("no frame found; falling back to a full addable scan")
        addable = addable_points(arc_make(curve, k), budget)
        report.addable = addable
        report.complete = not addable
        if addable:
            report.verdict = VERDICT_VIOLATION
        return None, None
    report.frame = {**frame.to_json_dict(), "coeffs": list(framed.coeffs)}
    return arc_make(framed, k), framed


def _verify_k5(curve, budget, report, seed, sample, force):
    arc, framed = _framed_arc(curve, 5, budget, report, force)
    if arc is None:
        return
    ctx = WitnessContext(arc)
    cands, ratios = k5_candidates(framed)
    report.notes.append(f"candidates={len(cands)} ratios={list(ratios)}")
    field = framed.field

    def first_round(addable):
        # exact addability over the candidate family
        report.addable = addable
        for pt in addable:
            ok = (
                pt[3] == 0
                and pt[1] != 0
                and pt[4] != 0
                and framed.is_on_curve(0, field.div(pt[4], pt[1]))
            )
            if not ok:
                report.verdict = VERDICT_VIOLATION
                report.notes.append(f"addable point violates the candidate conditions: {pt}")

    result = complete_arc(arc, 3, budget, candidates=cands, on_first=first_round)
    added, complete = result.added, result.complete
    report.completion_added = added
    report.complete = complete
    if len(added) > 2 or not complete:
        report.verdict = VERDICT_VIOLATION
        report.notes.append(
            f"completion added {len(added)} points (complete={complete}), expected at most 2"
        )
    # sampled witnesses for non-candidates
    exclude = np.union1d(arc.encs, coords_to_enc(np.array(cands, dtype=np.int64).reshape(-1, 5),
                                                 field.q))
    _sample_witnesses(ctx, seed, sample, exclude, budget, report)
    if report.witness_failures:
        report.verdict = VERDICT_VIOLATION
        report.notes.append(f"{len(report.witness_failures)} sampled non-candidates lack witnesses")
    # the optional whole-space check, only when the budget allows its charge
    try:
        full = addable_points(arc, budget)
        if sorted(full) != sorted(report.addable):
            report.verdict = VERDICT_VIOLATION
            report.notes.append("full scan disagrees with the candidate-restricted scan")
        report.notes.append("full ambient scan ran")
    except BudgetExceeded:
        report.notes.append("optional full ambient scan skipped (budget)")


def _verify_k6(curve, budget, report, seed, sample, force):
    arc, _ = _framed_arc(curve, 6, budget, report, force)
    if arc is None:
        return
    _sample_witnesses(WitnessContext(arc), seed, sample, arc.encs, budget, report)
    report.notes.append("sampled witness mode; the full ambient space is out of desk scale")
    if report.witness_failures:
        report.verdict = VERDICT_VIOLATION
        report.notes.append(f"{len(report.witness_failures)} sampled points lack witnesses")


def verify_zero_j_theorem(curve: EllipticCurve, k: int, budget: Budget | None = None,
                          seed: int = 0, sample: int | None = None,
                          force: bool = False) -> VerdictReport:
    """Same program under the zero-j hypothesis gate.

    The gate needs q > 9887, so at scan scales it never opens; a forced run
    executes the same checks and tags the report.
    """
    if not zero_j_hypotheses(curve) and not force:
        raise HypothesisNotMet(
            "zero-j gate: needs p > 3, q > 9887, j = 0, even point count, "
            "and an even extension degree or p = 1 mod 3"
        )
    report = verify_main_theorem(curve, k, budget, seed=seed, sample=sample, force=True)
    report.theorem = "j0"
    if not zero_j_hypotheses(curve):
        report.out_of_hypothesis = True
        if "OUT_OF_HYPOTHESIS" not in report.notes:
            report.notes.append("OUT_OF_HYPOTHESIS")
    return report
