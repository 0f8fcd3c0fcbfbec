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
    incidence,
    normalize_coords,
    phi_k,
    proj_space_size,
)
from .secants import KIND_TRISECANT, LineSystem, line_meet, zero_j_hypotheses

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

    @property
    def is_identity(self) -> bool:
        return (self.u, self.r, self.s, self.t) == (1, 0, 0, 0)

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


def map_point_to_frame(curve: EllipticCurve, frame: Frame, point):
    """Image of a curve point under the frame substitution."""
    if point is INFINITY:
        return INFINITY
    f = curve.field
    x, y = point
    iu2 = f.inv(f.mul(frame.u, frame.u))
    iu3 = f.mul(iu2, f.inv(frame.u))
    nx = f.mul(f.sub(x, frame.r), iu2)
    ny = f.mul(f.sub(f.sub(y, f.mul(frame.s, f.sub(x, frame.r))), frame.t), iu3)
    return (nx, ny)


def _coordinate_sections(curve: EllipticCurve):
    """Affine intersections with X = 0, Y = 0 and X = Y, as point sets."""
    x0 = line_meet(curve, (0, 1, 0))
    y0 = line_meet(curve, (0, 0, 1))
    xy = line_meet(curve, (0, 1, curve.field.neg(1)))
    def affine(meet):
        return tuple(p for p, _ in meet.points if p is not INFINITY)
    return affine(x0), affine(y0), affine(xy), (x0, y0, xy)


def frame_conditions(curve: EllipticCurve) -> tuple[bool, dict]:
    """The three bullet conditions of the normalized frame."""
    x0, y0, xy, meets = _coordinate_sections(curve)
    mx0, my0, mxy = meets
    ok_x0 = (
        len(x0) == 2
        and all(p != (0, 0) for p in x0)
        and all(mult == 1 for _, mult in mx0.points)
    )
    ok_y0 = my0.kind == KIND_TRISECANT and len(y0) == 3
    ok_xy = mxy.kind == KIND_TRISECANT and len(xy) == 3
    detail = {
        "xZeroTwoAffineOffOrigin": ok_x0,
        "yZeroThreeAffine": ok_y0,
        "diagonalThreeAffine": ok_xy,
    }
    return ok_x0 and ok_y0 and ok_xy, detail


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


class WitnessContext:
    """Per-arc data for witness construction: line classes and the three
    coordinate sections of the frame-normalized curve."""

    def __init__(self, arc: EllipticArc, system: LineSystem | None = None):
        if arc.k not in (4, 5, 6):
            raise ValueError("witness recipes exist for k in {4, 5, 6}")
        self.arc = arc
        self.curve = arc.curve
        self.field = arc.field
        self.system = system or LineSystem(self.curve)
        self.x0_set, self.y0_set, self.xy_set, _ = _coordinate_sections(self.curve)
        self._arc_enc = set(int(e) for e in arc.encs)
        if arc.k in (5, 6):
            ok, detail = frame_conditions(self.curve)
            if not ok:
                raise FrameViolation(f"frame conditions fail: {detail}")

    def is_arc_point(self, coords) -> bool:
        enc = int(coords_to_enc(np.asarray([coords]), self.field.q)[0])
        return enc in self._arc_enc

    def witness(self, point) -> WitnessReport:
        k = self.arc.k
        q_n = normalize_coords(self.field, point)
        if self.is_arc_point(q_n):
            raise ValueError(f"{q_n} is an arc point")
        if k == 4:
            return self._witness_k4(q_n)
        if k == 5:
            return self._witness_k5(q_n)
        return self._witness_k6(q_n)

    # -- helpers ------------------------------------------------------------

    def _first_trisecant(self, planar_point, avoid, require_affine, forbid_x0_line=False):
        for dual, triple in self.system.trisecants_through(
            planar_point, require_affine=require_affine, avoid_points=avoid
        ):
            if forbid_x0_line and dual == (0, 1, 0):
                continue
            return dual, triple
        return None

    def _finish(self, q_n, tag, hyperplane, base_points, triple) -> WitnessReport:
        field = self.field
        k = self.arc.k
        h = normalize_coords(field, hyperplane)
        images = [phi_k(field, p, k) for p in base_points]
        images += [phi_k(field, p, k) for p in triple]
        seen = []
        for img in images:
            if img not in seen:
                seen.append(img)
        report = WitnessReport(q_n, tag, h, tuple(seen))
        self._verify(report)
        return report

    def _verify(self, report: WitnessReport) -> None:
        field = self.field
        k = self.arc.k
        if not incidence(field, report.hyperplane, report.q_point):
            raise InvariantViolated("witness hyperplane misses the query point")
        if len(report.secant_points) != k:
            raise InvariantViolated(
                f"witness lists {len(report.secant_points)} points, expected {k}"
            )
        for pt in report.secant_points:
            if not self.is_arc_point(pt):
                raise InvariantViolated("witness point is not on the arc")
            if not incidence(field, report.hyperplane, pt):
                raise InvariantViolated("listed point is off the witness hyperplane")
        if self.arc.secant_count(report.hyperplane) != k:
            raise InvariantViolated("witness hyperplane has the wrong section size")

    # -- dispatch per embedding dimension ------------------------------------

    def _witness_k4(self, q_n) -> WitnessReport:
        field = self.field
        q1, q2, q3, _ = q_n
        if (q1, q2) == (0, 0):
            # planar shadow is the infinite curve point: the candidate line
            raise NoWitnessFound(q_n, "point projects onto the curve's infinite point")
        planar = normalize_coords(field, (q1, q2, q3))
        hit = self._first_trisecant(planar, avoid=(), require_affine=True)
        if hit is None:
            raise NoWitnessFound(q_n, "no affine trisecant through the planar shadow")
        (a, b, c), triple = hit
        return self._finish(q_n, "k4-planar", (a, b, c, 0), [INFINITY], triple)

    def _witness_k5(self, q_n) -> WitnessReport:
        field = self.field
        q1, q2, q3, q4, q5 = q_n
        if q5 == 0:
            return self._finish(q_n, "k5-last-zero", (0, 0, 0, 0, 1), list(self.x0_set) + list(self.y0_set), [])
        if q2 != 0 and q4 == 0:
            rho = field.div(q5, q2)
            if self.curve.is_on_curve(0, rho):
                raise NoWitnessFound(q_n, "candidate: admissible ratio onto the curve")
        planar = normalize_coords(field, (q2, q4, q5))
        hit = self._first_trisecant(
            planar, avoid=self.x0_set, require_affine=False, forbid_x0_line=True
        )
        if hit is None:
            raise NoWitnessFound(q_n, "no trisecant off X=0 through the projection")
        (a, b, c), triple = hit
        tag = "k5-vertical" if c == 0 else "k5-pencil"
        return self._finish(q_n, tag, (0, a, 0, b, c), list(self.x0_set), triple)

    def _witness_k6(self, q_n) -> WitnessReport:
        field = self.field
        q1, q2, q3, q4, q5, q6 = q_n
        if q5 == 0:
            return self._finish(
                q_n, "k6-case1", (0, 0, 0, 0, 1, 0),
                list(self.x0_set) + list(self.y0_set) + [INFINITY], [],
            )
        inv5 = field.inv(q5)
        c2, c3, c4, c6 = (field.mul(inv5, v) for v in (q2, q3, q4, q6))
        if c6 != 0:
            planar = normalize_coords(field, (c3, 1, c6))
            hit = self._first_trisecant(planar, avoid=self.y0_set, require_affine=False)
            if hit is None:
                raise NoWitnessFound(q_n, "no trisecant off Y=0 through the projection")
            (a, b, c), triple = hit
            tag = "k6-case4" if c3 == 0 else "k6-case5"
            return self._finish(q_n, tag, (0, 0, a, 0, b, c), list(self.y0_set), triple)
        if c4 != 0:
            planar = normalize_coords(field, (c2, c4, 1))
            hit = self._first_trisecant(
                planar, avoid=self.x0_set, require_affine=True, forbid_x0_line=True
            )
            if hit is None:
                raise NoWitnessFound(q_n, "no affine trisecant off X=0 through the projection")
            (a, b, c), triple = hit
            tag = "k6-case6" if c2 == 0 else "k6-case7"
            return self._finish(
                q_n, tag, (0, a, 0, b, c, 0), list(self.x0_set) + [INFINITY], triple
            )
        planar = normalize_coords(field, (field.sub(c3, c2), 1, field.neg(1)))
        hit = self._first_trisecant(planar, avoid=self.xy_set, require_affine=False)
        if hit is None:
            raise NoWitnessFound(q_n, "no trisecant off X=Y through the projection")
        (a, b, c), triple = hit
        hyper = (0, a, field.neg(a), b, field.sub(c, b), field.neg(c))
        tag = "k6-case3" if c2 == c3 else "k6-case2"
        return self._finish(q_n, tag, hyper, list(self.xy_set), triple)


def k5_candidates(curve: EllipticCurve, arc: EllipticArc) -> tuple[list[tuple], tuple]:
    """Points the dimension-5 case analysis cannot rule out.

    Shapes (Q1, Q2, Q3, 0, rho*Q2) with Q2 != 0 and (0, rho) on the curve;
    returns (candidates in canonical order, admissible ratios).
    """
    field = curve.field
    x0_affine = [p for p, _ in line_meet(curve, (0, 1, 0)).points if p is not INFINITY]
    ratios = tuple(sorted(y for _, y in x0_affine))
    out = []
    for rho in ratios:
        for q3 in range(field.q):
            out.append((0, 1, q3, 0, rho))
        for q2 in range(1, field.q):
            for q3 in range(field.q):
                out.append((1, q2, q3, 0, field.mul(rho, q2)))
    # lexicographic order of normalized tuples is the canonical point order
    return sorted({normalize_coords(field, c) for c in out}), ratios


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


def _sample_proj_points(field, k, count, rng, exclude_encs):
    """Uniform normalized representatives via rejection, excluding a set."""
    out = []
    exclude = set(int(e) for e in exclude_encs)
    while len(out) < count:
        batch = rng.integers(0, field.q, size=(max(64, count - len(out)), k))
        for row in batch:
            if not row.any():
                continue
            coords = normalize_coords(field, [int(v) for v in row])
            enc = int(coords_to_enc(np.array([coords]), field.q)[0])
            if enc in exclude:
                continue
            out.append(coords)
            if len(out) == count:
                break
    return out


def _sample_witnesses(ctx, seed, sample, exclude, budget, report):
    """Witness search at ``sample`` uniform points off ``exclude``; misses
    are collected in the report."""
    field = ctx.field
    rng = np.random.default_rng(seed)
    budget.charge("witness_sample", sample * (field.q + ctx.arc.n))
    for pt in _sample_proj_points(field, ctx.arc.k, sample, rng, exclude):
        try:
            ctx.witness(pt)
        except NoWitnessFound:
            report.witness_failures.append(pt)
    report.sampled = sample


def verify_main_theorem(curve: EllipticCurve, k: int, budget: Budget | None = None,
                        seed: int = 0, sample: int | None = None,
                        force: bool = False, workers: int = 1) -> VerdictReport:
    """Check the non-extendability conclusions for one curve and dimension.

    k=3 and k=4 run full addable scans; k=5 tests the candidate family
    exactly and samples witness hyperplanes for non-candidates; k=6 samples
    witness hyperplanes across the ambient space.
    """
    if k not in (3, 4, 5, 6):
        raise ValueError("the verified claims concern k in {3, 4, 5, 6}")
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
            _verify_k3(curve, budget, report, workers)
        elif k == 4:
            _verify_k4(curve, budget, report, workers)
        elif k == 5:
            _verify_k5(curve, budget, report, seed, sample or DEFAULT_SAMPLE_K5, force, workers)
        else:
            _verify_k6(curve, budget, report, seed, sample or DEFAULT_SAMPLE_K6, force, workers)
    except BudgetExceeded as exc:
        report.verdict = VERDICT_BUDGET_PARTIAL
        report.notes.append(f"budget: {exc}")
    report.budget_spent = budget.spent
    return report


def _verify_k3(curve, budget, report, workers=1):
    arc = arc_make(curve, 3, budget)
    addable = addable_points(arc, budget, workers=workers)
    report.addable = addable
    report.complete = not addable
    if addable:
        report.verdict = VERDICT_VIOLATION
        report.notes.append(f"{len(addable)} addable points found, expected none")


def _verify_k4(curve, budget, report, workers=1):
    def first_round(addable):
        report.addable = addable
        off_line = [p for p in addable if not (p[0] == 0 and p[1] == 0)]
        if off_line:
            report.verdict = VERDICT_VIOLATION
            report.notes.append(f"addable point off the fundamental line: {off_line[0]}")

    result = complete_arc(arc_make(curve, 4, budget), 3, budget, workers=workers,
                          on_first=first_round)
    added, complete = result.added, result.complete
    report.completion_added = added
    report.complete = complete
    if len(added) > 1 or not complete:
        report.verdict = VERDICT_VIOLATION
        report.notes.append(
            f"completion added {len(added)} points (complete={complete}), expected at most 1"
        )


def _framed_arc(curve, k, budget, report, force, workers):
    """Arc of the frame-normalized curve, or (None, None) after recording a
    full addable scan of the original curve when no frame exists."""
    try:
        framed, frame = choose_frame(curve, force=force)
    except NoFrameFound:
        report.notes.append("no frame found; falling back to a full addable scan")
        addable = addable_points(arc_make(curve, k, budget), budget, workers=workers)
        report.addable = addable
        report.complete = not addable
        if addable:
            report.verdict = VERDICT_VIOLATION
        return None, None
    report.frame = {**frame.to_json_dict(), "coeffs": list(framed.coeffs)}
    return arc_make(framed, k, budget), framed


def _verify_k5(curve, budget, report, seed, sample, force, workers):
    arc, framed = _framed_arc(curve, 5, budget, report, force, workers)
    if arc is None:
        return
    ctx = WitnessContext(arc)
    cands, ratios = k5_candidates(framed, arc)
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
    exclude = set(int(e) for e in arc.encs)
    exclude.update(
        int(e) for e in coords_to_enc(np.array(cands, dtype=np.int64), field.q)
    )
    _sample_witnesses(ctx, seed, sample, exclude, budget, report)
    if report.witness_failures:
        report.verdict = VERDICT_VIOLATION
        report.notes.append(f"{len(report.witness_failures)} sampled non-candidates lack witnesses")
    # the optional whole-space scan, only when the budget allows it
    try:
        budget.check("optional_full_scan", proj_space_size(field.q, 5) * arc.n)
        full = addable_points(arc, budget, workers=workers)
        if sorted(full) != sorted(report.addable):
            report.verdict = VERDICT_VIOLATION
            report.notes.append("full scan disagrees with the candidate-restricted scan")
        report.notes.append("full ambient scan ran")
    except BudgetExceeded:
        report.notes.append("optional full ambient scan skipped (budget)")


def _verify_k6(curve, budget, report, seed, sample, force, workers):
    arc, _ = _framed_arc(curve, 6, budget, report, force, workers)
    if arc is None:
        return
    _sample_witnesses(WitnessContext(arc), seed, sample, arc.encs, budget, report)
    report.notes.append("sampled witness mode; the full ambient space is out of desk scale")
    if report.witness_failures:
        report.verdict = VERDICT_VIOLATION
        report.notes.append(f"{len(report.witness_failures)} sampled points lack witnesses")


def verify_zero_j_theorem(curve: EllipticCurve, k: int, budget: Budget | None = None,
                          seed: int = 0, sample: int | None = None,
                          force: bool = False, workers: int = 1) -> VerdictReport:
    """Same program under the zero-j hypothesis gate.

    The gate needs q > 9887, so at scan scales it never opens; a forced run
    executes the same checks and tags the report.
    """
    if not zero_j_hypotheses(curve) and not force:
        raise HypothesisNotMet(
            "zero-j gate: needs p > 3, q > 9887, j = 0, even point count, "
            "and an even extension degree or p = 1 mod 3"
        )
    report = verify_main_theorem(curve, k, budget, seed=seed, sample=sample, force=True,
                                 workers=workers)
    report.theorem = "j0"
    if not zero_j_hypotheses(curve):
        report.out_of_hypothesis = True
        if "OUT_OF_HYPOTHESIS" not in report.notes:
            report.notes.append("OUT_OF_HYPOTHESIS")
    return report
