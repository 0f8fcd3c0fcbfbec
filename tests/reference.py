"""Independent references that the tests compare the library against.

Nothing in the package calls these; each is a plainer or slower route to a
result the library computes another way:

* :func:`incidence` is a scalar dot product of a hyperplane and a point;
* :func:`lines_through` builds a pencil of plane lines from two spanning duals;
* :func:`map_point_to_frame` moves one curve point through a frame substitution;
* :func:`max_extension_chain` is the exact geometric counterpart of
  h-extendability, a search over chains of added points;
* :func:`codeword_weights_by_zero_test` tests every message of P^(m-1)
  against every column, where the library counts last-coordinate roots;
* :func:`h_extendable_brute_force` tries every h-tuple of added columns;
* :func:`tangent_statistics` counts tangents through every external point of
  the plane: rational ones on each point's pencil, closure ones from the
  slope discriminant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ellnmds.curve import INFINITY, EllipticCurve
from ellnmds.errors import (
    ArcPropertyViolated,
    Budget,
    BudgetExceeded,
    InvariantViolated,
    ensure_budget,
)
from ellnmds.extendability import Frame
from ellnmds.geometry import (
    ProjPointSet,
    coords_to_enc,
    enc_to_coords,
    normalize_rows,
    proj_reps,
    proj_reps_cached,
    proj_space_size,
    scan_chunk_rows,
)
from ellnmds.gf import (Field, dot_zero_mask, dot_zero_mask_digits, linear_w_matrix, rank_gf,
                        rows_digits)
from ellnmds.secants import LineSystem, _closure_tangents, _plane_point


def incidence(field: Field, hyperplane, point) -> bool:
    acc = 0
    for h, x in zip(hyperplane, point):
        acc = field.add(acc, field.mul(int(h), int(x)))
    return acc == 0


def lines_through(field, point):
    """All q+1 normalized line duals through a projective plane point."""
    p = _plane_point(field, point)
    # cross products with the unit vectors span the orthogonal plane
    candidates = [
        (0, field.neg(p[2]), p[1]),
        (p[2], 0, field.neg(p[0])),
        (field.neg(p[1]), p[0], 0),
    ]
    basis = []
    for cand in candidates:
        if any(cand) and rank_gf(field, basis + [list(cand)]) == len(basis) + 1:
            basis.append(list(cand))
        if len(basis) == 2:
            break
    mix = np.array([(0, 1)] + [(1, b) for b in range(field.q)], dtype=np.int64)
    u, v = np.array(basis, dtype=np.int64)
    combos = field.add_np(field.mul_np(mix[:, :1], u), field.mul_np(mix[:, 1:], v))
    duals = normalize_rows(field, combos)
    encs = coords_to_enc(duals, field.q)
    distinct = len(set(encs.tolist()))
    if distinct != field.q + 1:
        raise InvariantViolated(f"pencil of {distinct} lines, expected {field.q + 1}")
    return list(map(tuple, duals[np.argsort(encs)].tolist()))


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


def max_extension_chain(ps: ProjPointSet, limit: int, budget: Budget | None = None) -> int:
    """Longest chain of point additions preserving the section bound.

    Exact geometric counterpart of h-extendability: a chain step may add any
    point of the ambient space, repeats included, provided no hyperplane then
    collects more than k points counted with multiplicity.  Greedy completion
    can stop early (different choices complete at different sizes), so this
    maximum, not the greedy count, is what matches the code-level oracle.
    Only feasible for small ambient spaces.
    """
    budget = ensure_budget(budget)
    field, k = ps.field, ps.k
    cached = proj_reps_cached(field, k)
    if cached is None:
        raise BudgetExceeded("max_extension_chain", proj_space_size(field.q, k), 0)
    reps, reps_digits = cached
    space = len(reps)
    budget.charge("extension_chain", space * (ps.n + limit) * (limit + 1) * 8)
    base_cols = ps.coords
    w_reps = linear_w_matrix(field, reps)
    memo: dict[tuple, int] = {}

    def explore(extra: tuple, depth: int) -> int:
        if depth == limit:
            return 0
        key = tuple(sorted(extra))
        hit = memo.get(key)
        if hit is not None:
            return hit
        cols = base_cols
        if extra:
            cols = np.vstack([base_cols, enc_to_coords(np.array(key), field.q, k)])
        w = linear_w_matrix(field, cols)
        counts = dot_zero_mask_digits(field, reps_digits, w).sum(axis=1)
        if counts.max(initial=0) > k:
            raise ArcPropertyViolated("multiset section bound exceeded inside a chain")
        fulls = reps[counts == k]
        if len(fulls):
            blocked = dot_zero_mask(field, fulls, w_reps).any(axis=0)
            addable = reps[~blocked]
        else:
            addable = reps
        best = 0
        for row in addable:
            enc = int(coords_to_enc(row[None, :], field.q)[0])
            best = max(best, 1 + explore(extra + (enc,), depth + 1))
            if best == limit - depth:
                break
        memo[key] = best
        return best

    return explore((), 0)


def codeword_weights_by_zero_test(code) -> np.ndarray:
    """Hamming weights of one codeword per projective class of messages, in
    canonical order: one zero test of every message of P^(m-1) against every
    column, over generated chunks (the projective-space cache is not read)."""
    field = code.field
    w = linear_w_matrix(field, code.matrix.T)
    return np.concatenate([
        code.n - dot_zero_mask_digits(field, rows_digits(field, reps), w).sum(axis=1)
        for reps in proj_reps(field, len(code.rows), scan_chunk_rows(field, code.n))
    ])


def h_extendable_brute_force(code, h: int) -> bool:
    """Whether an [n+h, k, d+h] extension exists, by trying every h-tuple of
    added columns up to scalar; only feasible for tiny q^k.

    The weights and d come from :func:`codeword_weights_by_zero_test`.
    """
    field = code.field
    reps = np.vstack(list(proj_reps(field, len(code.rows))))
    weights = codeword_weights_by_zero_test(code)
    d = int(weights[weights > 0].min())
    nonzero = ~dot_zero_mask(field, reps, linear_w_matrix(field, reps))  # x.c != 0
    n_cols = nonzero.shape[1]
    for tup in itertools.product(range(n_cols), repeat=h):
        acc = weights.astype(np.int64).copy()
        for c in tup:
            acc += nonzero[:, c]
        if int(acc[weights > 0].min()) == d + h:
            return True
    return False


@dataclass
class TangentStats:
    max_rational_tangents: int
    max_geometric_tangents: int
    degenerate_points: int
    all_affine_have_nonvertical: bool
    first_missing: tuple | None


def tangent_statistics(curve: EllipticCurve) -> TangentStats:
    """Closure tangent counts over every external point of the plane.

    Feeds the classical checks: at most six tangent lines through any
    external point, and a non-vertical one through every affine external
    point.  The rational counts sum each point's pencil in the line table.
    """
    system = LineSystem(curve)
    q = curve.field.q
    ext = np.flatnonzero(system.external_mask())
    points = [system.point_id_to_proj(int(pid)) for pid in ext]
    max_rat = int(system.tangent[system.pencils(points)].sum(axis=1).max())
    max_geo = 0
    degenerate = 0
    all_nv = True
    first_missing = None
    for pid, point in zip(ext.tolist(), points):
        affine = pid < q * q
        if affine:
            nonvertical, extra = _closure_tangents(curve, *divmod(pid, q))
        else:
            nonvertical, extra = _closure_tangents(curve, None, pid - q * q)
        if nonvertical is None:
            degenerate += 1
            continue
        max_geo = max(max_geo, nonvertical + extra)
        if affine and nonvertical == 0:
            all_nv = False
            if first_missing is None:
                first_missing = point
    return TangentStats(
        max_rational_tangents=max_rat,
        max_geometric_tangents=max_geo,
        degenerate_points=degenerate,
        all_affine_have_nonvertical=all_nv,
        first_missing=first_missing,
    )
