"""Spans around calls into the library's layers, recorded from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
module namespace that bound it at import (``geometry.dot_zero_mask`` and
``code.linear_w_matrix`` as well as the ``gf`` originals), and each traced
method on its class.  A wrapper records a span ``[name, start, end, parent,
counts]``; spans stay in memory until the run writes them out.

Per-element scalar ``Field`` ops (``mul``, ``add``, ``neg``, ``inv``) are not
wrapped: their cost shows as their callers' self time.

Worker threads (the ``workers`` scans in ``geometry``) have their own span
stack; a span opened on one has as parent the innermost span open on the
main thread, the call that submitted the work.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

from ellnmds import cli, code, curve, errors, extendability, geometry, gf, secants  # noqa: F401
import ellnmds

MODULES = (ellnmds, gf, curve, geometry, code, secants, extendability, errors, cli)


# ---- counts recorded at the layer boundary ---------------------------------------


def _dzm_counts(args, kwargs, result, before):
    """Computed kernel numbers of one dot_zero_mask_digits call."""
    fld, digits, w = args[:3]
    m, kr = digits.shape
    nr = w.shape[1]
    n = nr // fld.r
    bound = (fld.p - 1) ** 2 * kr
    isz = 2 if bound < (1 << 15) else 4 if bound < (1 << 31) else 8
    in_bytes = m * kr * (w.itemsize if digits.dtype == w.dtype else digits.itemsize + 2 * w.itemsize)
    return {
        "dots": m * n,
        "ops_computed": 2 * m * kr * nr,
        # array sizes times dtypes: operands read; float product written and
        # read back; integer copy written, reduced in place and read by the
        # zero test; mask written
        "bytes_computed": (in_bytes + w.nbytes + 2 * m * nr * w.itemsize + 4 * m * nr * isz
                           + m * n),
    }


def _elements(args, kwargs, result, before):
    return {"elements": int(np.size(result))}


def _reps_before(args, kwargs):
    return len(geometry._REPS_CACHE)


def _reps_counts(args, kwargs, result, before):
    miss = len(geometry._REPS_CACHE) - before
    out = {"misses": miss}
    if miss and result is not None:
        out["bytes"] = int(result[0].nbytes + result[1].nbytes)
    return out


def _scan_counts(args, kwargs, result, before):
    return {"incidences": int(result[0].sum()) * args[0].n}


def _filter_counts(args, kwargs, result, before):
    return {"candidates_in": len(args[1]), "candidates_out": len(result)}


def _subset_counts(args, kwargs, result, before):
    ps = args[0]
    return {"subsets": math.comb(ps.n, ps.k - 1), "fulls": len(result)}


def _tri_before(args, kwargs):
    return len(args[0]._tri_points_cache)


def _tri_counts(args, kwargs, result, before):
    return {"hits": int(len(args[0]._tri_points_cache) == before)}


# (owner, attribute, span name, before-hook, counts-hook).  Some of these are
# not reported as metrics of their own; they are wrapped so that their time
# counts toward their own layer rather than toward their caller's self time.
TRACED = [
    (gf, "dot_zero_mask_digits", "gf.dot_zero_mask_digits", None, _dzm_counts),
    (gf, "dot_zero_mask", "gf.dot_zero_mask", None, None),
    (gf, "linear_w_matrix", "gf.linear_w_matrix", None, None),
    (gf, "rows_digits", "gf.rows_digits", None, None),
    (gf.Field, "mul_np", "gf.Field.mul_np", None, _elements),
    (gf.Field, "add_np", "gf.Field.add_np", None, _elements),
    (gf.Field, "sub_np", "gf.Field.sub_np", None, _elements),
    (gf.Field, "neg_np", "gf.Field.neg_np", None, _elements),
    (gf.Field, "inv_np", "gf.Field.inv_np", None, _elements),
    (curve, "curve_scan", "curve.curve_scan", None, None),
    (curve.EllipticCurve, "points", "curve.EllipticCurve.points", None, None),
    (curve.EllipticCurve, "__init__", "curve.EllipticCurve.__init__", None, None),
    (geometry, "proj_reps_cached", "geometry.proj_reps_cached", _reps_before, _reps_counts),
    (geometry, "arc_make", "geometry.arc_make", None, None),
    (geometry, "secant_scan", "geometry.secant_scan", None, _scan_counts),
    (geometry, "addable_points", "geometry.addable_points", None, None),
    (geometry, "filter_by_fulls", "geometry.filter_by_fulls", None, _filter_counts),
    (geometry, "full_hyperplanes_via_subsets", "geometry.full_hyperplanes_via_subsets",
     None, _subset_counts),
    (geometry, "addable_filter", "geometry.addable_filter", None, None),
    (code, "generator_matrix", "code.generator_matrix", None, None),
    (code, "min_distance", "code.min_distance", None, None),
    (code, "classify", "code.classify", None, None),
    (code, "rank_gf", "code.rank_gf", None, None),
    (code, "weight_distribution", "code.weight_distribution", None, None),
    (code, "macwilliams_transform", "code.macwilliams_transform", None, None),
    (secants.LineSystem, "__init__", "secants.LineSystem.__init__", None, None),
    (secants.LineSystem, "trisecants_through", "secants.LineSystem.trisecants_through",
     None, None),
    (secants.LineSystem, "triple_points", "secants.LineSystem.triple_points",
     _tri_before, _tri_counts),
    (secants, "line_meet", "secants.line_meet", None, None),
    (extendability, "verify_main_theorem", "extendability.verify_main_theorem", None, None),
    (extendability, "choose_frame", "extendability.choose_frame", None, None),
    (extendability, "k5_candidates", "extendability.k5_candidates", None, None),
    (extendability.WitnessContext, "__init__", "extendability.WitnessContext.__init__",
     None, None),
    (extendability.WitnessContext, "witness", "extendability.WitnessContext.witness",
     None, None),
]


def wrapper_cost_s(rounds: int = 20000) -> float:
    """Cost of one span, timed on a no-op; the estimate excludes counts hooks."""
    def noop():
        return None

    wrapped = Tracer().wrap("probe", noop)
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(rounds):
            noop()
        t1 = perf_counter()
        for _ in range(rounds):
            wrapped()
        t2 = perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / rounds)
    return max(best, 0.0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.calls: list[str] = []   # one entry per call of a traced generator function
        self._main = threading.get_ident()
        self._main_stack: list[list] = []
        self._local = threading.local()
        self._undo: list[tuple] = []

    # ---- span recording -------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and stack is not self._main_stack:
            try:
                parent = self._main_stack[-1]
            except IndexError:  # the main thread closed its last span meanwhile
                parent = None
        rec = [name, 0.0, 0.0, parent, None]
        self.spans.append(rec)
        stack.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack().pop()

    def wrap(self, name, fn, before=None, counts=None):
        if inspect.isgeneratorfunction(fn):
            # a span per resumption; the call itself is counted separately
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls.append(name)
                it = fn(*args, **kwargs)
                while True:
                    rec = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(rec)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counts:
                rec[4] = counts(args, kwargs, result, state)
            return result
        return wrapper

    def install(self) -> None:
        for owner, attr, name, before, counts in TRACED:
            if inspect.isclass(owner):
                original = owner.__dict__[attr]
                if isinstance(original, property):
                    new = property(self.wrap(name, original.fget, before, counts))
                else:
                    new = self.wrap(name, original, before, counts)
                self._undo.append((owner, attr, original))
                setattr(owner, attr, new)
                continue
            original = getattr(owner, attr)
            new = self.wrap(name, original, before, counts)
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ---- analysis -------------------------------------------------------------

    def attribute(self, t0: float, t1: float) -> tuple[list[float], float]:
        """Exclusive wall time per span over [t0, t1], and the time outside every span.

        A sweep over span boundaries gives each instant to the innermost open
        spans (those with no open child), split evenly when worker threads
        keep several open at once, so the self times plus the remainder add up
        to t1 - t0 exactly.
        """
        spans = self.spans
        index = {id(rec): i for i, rec in enumerate(spans)}
        parent = [index.get(id(rec[3]), -1) if rec[3] is not None else -1 for rec in spans]
        events = []
        for i, rec in enumerate(spans):
            events.append((rec[1], 1, i))
            events.append((rec[2], 0, i))
        events.sort()
        own = [0.0] * len(spans)
        open_children = [0] * len(spans)
        active = [False] * len(spans)
        leaves: set[int] = set()
        outside = 0.0
        prev = t0
        for t, starting, i in events:
            dt = t - prev
            if dt > 0:
                if leaves:
                    share = dt / len(leaves)
                    for j in leaves:
                        own[j] += share
                else:
                    outside += dt
                prev = t
            p = parent[i]
            if starting:
                active[i] = True
                leaves.add(i)
                if p >= 0 and active[p]:
                    open_children[p] += 1
                    leaves.discard(p)
            else:
                active[i] = False
                leaves.discard(i)
                if p >= 0 and active[p]:
                    open_children[p] -= 1
                    if open_children[p] == 0:
                        leaves.add(p)
        outside += max(0.0, t1 - prev)
        return own, outside

    def summary(self, t0: float, t1: float) -> dict:
        """Per-function totals: calls, busy_s, self_s and the counts recorded."""
        own, outside = self.attribute(t0, t1)
        out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for name in self.calls:
            out[name]["calls"] += 1
        generators = set(self.calls)
        for rec, self_s in zip(self.spans, own):
            row = out[rec[0]]
            if rec[0] not in generators:
                row["calls"] += 1
            row["busy_s"] += rec[2] - rec[1]
            row["self_s"] += self_s
            if rec[4]:
                for key, value in rec[4].items():
                    row[key] += value
                if rec[0] == "geometry.proj_reps_cached" and rec[4].get("misses"):
                    row["fill_s"] += rec[2] - rec[1]
        return {"functions": {k: dict(v) for k, v in out.items()}, "outside_s": outside,
                "wall_s": t1 - t0, "spans": len(self.spans)}

    def write(self, path, t0: float) -> None:
        """All spans as JSON lines: id, name, start and end (s after t0), parent id."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with gzip.open(path, "wt") as fh:
            for i, rec in enumerate(self.spans):
                parent = index.get(id(rec[3]), -1) if rec[3] is not None else -1
                fh.write(json.dumps([i, rec[0], round(rec[1] - t0, 9), round(rec[2] - t0, 9),
                                     parent]) + "\n")
