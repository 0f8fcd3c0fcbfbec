"""Command-line front end.

Machine-readable JSON goes to stdout, a short human summary to stderr.
Exit codes: 0 success or CONSISTENT verdict, 2 falsified claim (VIOLATION),
3 budget exhaustion (refused scan or BUDGET_PARTIAL verdict), 1 usage or
data errors.  Identical invocations, including the seed, produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys

from . import __version__
from .code import (
    classify,
    generator_matrix,
    h_extendability_oracle,
    min_distance,
    parse_matrix_text,
)
from .curve import curve_make, curve_scan, nq1
from .errors import Budget, BudgetExceeded, EllnmdsError, DEFAULT_BUDGET_LIMIT
from .extendability import verify_main_theorem, verify_zero_j_theorem
from .geometry import addable_points, arc_make, complete_arc
from .gf import field_of_order
from .secants import line_profile, min_trisecants

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2
EXIT_BUDGET = 3


def _parse_curve(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 5:
        raise ValueError("curve literal must be a1,a2,a3,a4,a5")
    return tuple(int(p) for p in parts)


def _budget_limit(text: str) -> int:
    """A nonnegative integer-valued literal, ``100000000000``, ``1e11`` or ``0e5000``,
    below 10^4300 (the 4300 digits that ``int`` reads from a string)."""
    try:
        value = decimal.Decimal(text.strip())
    except decimal.InvalidOperation:
        value = None
    if (value is None or not value.is_finite() or value < 0
            or not (value.is_zero() or value.adjusted() < 4300)
            or value != value.to_integral_value()):
        raise argparse.ArgumentTypeError(f"budget {text!r} is not a nonnegative integer")
    return int(value)


def _config_echo(args, command: str) -> dict:
    keys = ("q", "r", "curve", "k", "h", "budget", "seed", "sample", "force")
    cfg = {"command": command}
    for key in keys:
        cfg[key] = getattr(args, key, None)
    return cfg


def _emit(args, payload: dict, budget: Budget | None, human_lines) -> None:
    doc = {
        "tool": {"name": "ellnmds", "version": __version__},
        "config": _config_echo(args, args.command),
    }
    doc.update(payload)
    doc["budgetSpent"] = budget.spent if budget is not None else 0
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    print(text)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(text + "\n")
    for line in human_lines:
        print(line, file=sys.stderr)


def _field_and_curve(args):
    field = field_of_order(args.q)
    if args.r is not None and field.r != args.r:
        raise ValueError(f"q={args.q} implies extension degree {field.r}, not {args.r}")
    curve = curve_make(field, _parse_curve(args.curve))
    return field, curve


def _budget(args) -> Budget:
    return Budget(args.budget)


def cmd_nq1(args) -> int:
    value = nq1(args.q)
    _emit(args, {"q": args.q, "nq1": value}, None, [f"nq1({args.q}) = {value}"])
    return EXIT_OK


def cmd_curve_scan(args) -> int:
    field = field_of_order(args.q)

    def keep(summary):
        if args.j_zero and summary.j != 0:
            return False
        if args.j_nonzero and summary.j == 0:
            return False
        if args.n_points is not None and summary.n != args.n_points:
            return False
        return True

    if args.max < 0:
        raise ValueError("--max must be nonnegative (0: no limit)")
    curves = []
    for curve in curve_scan(field, summary_filter=keep):
        curves.append({"coeffs": list(curve.coeffs), "n": curve.n, "j": curve.j})
        if args.max and len(curves) >= args.max:
            break
    payload = {
        "field": field.descriptor(),
        "q": field.q,
        "count": len(curves),
        "curves": curves,
        "maxN": max((c["n"] for c in curves), default=0),
    }
    _emit(args, payload, None, [f"{len(curves)} curves, max point count {payload['maxN']}"])
    return EXIT_OK


def cmd_build(args) -> int:
    field, curve = _field_and_curve(args)
    code = generator_matrix(curve, args.k)
    payload = {
        "field": field.descriptor(),
        "curve": curve.to_json_dict(include_points=False),
        "k": args.k,
        "generator": [list(r) for r in code.rows],
    }
    _emit(args, payload, None, [f"[{code.n},{code.k}] generator built"])
    return EXIT_OK


def cmd_classify(args) -> int:
    budget = _budget(args)
    if args.matrix:
        with open(args.matrix) as fh:
            code = parse_matrix_text(fh.read())
        field = code.field
        curve_doc = None
    else:
        field, curve = _field_and_curve(args)
        code = generator_matrix(curve, args.k)
        curve_doc = curve.to_json_dict(include_points=False)
    result = classify(code, budget)
    payload = {"field": field.descriptor(), "curve": curve_doc}
    payload.update(result.to_json_dict())
    _emit(args, payload, budget, [f"[{result.n},{result.k},{result.d}] label={result.label}"])
    return EXIT_OK


def cmd_trisecants(args) -> int:
    field, curve = _field_and_curve(args)
    budget = _budget(args)
    if args.point:
        point = tuple(int(v) for v in args.point.split(","))
        profile = line_profile(curve, point)
        payload = {
            "field": field.descriptor(),
            "curve": curve.to_json_dict(include_points=False),
        }
        payload.update(profile.to_json_dict())
        payload["sumsToQPlus1"] = profile.total == field.q + 1
        _emit(args, payload, budget,
              [f"point {profile.point}: {profile.trisecants} trisecants, "
               f"{profile.tangents} rational tangents"])
        return EXIT_OK
    scan = min_trisecants(curve)
    payload = {
        "field": field.descriptor(),
        "curve": curve.to_json_dict(include_points=False),
    }
    payload.update(scan.to_json_dict())
    _emit(args, payload, budget, [f"min trisecants {scan.min_count} at {scan.argmin}"])
    return EXIT_OK


def cmd_arc(args) -> int:
    field, curve = _field_and_curve(args)
    budget = _budget(args)
    arc = arc_make(curve, args.k)
    profile = {str(s): int(c) for s, c in enumerate(arc.secant_profile(budget))}
    addable = []
    result = complete_arc(arc, max_add=args.max_add if args.complete else 0, budget=budget,
                          on_first=addable.extend)
    payload = {
        "field": field.descriptor(),
        "curve": curve.to_json_dict(include_points=False),
        "k": args.k,
        "n": arc.n,
        "secantProfile": profile,
        "addable": [list(p) for p in addable],
        "complete": not addable,
    }
    if args.complete:
        payload["completionAdded"] = [list(p) for p in result.added]
        payload["completeAfter"] = result.complete
    _emit(args, payload, budget,
          [f"arc n={arc.n} k={args.k}: {len(addable)} addable, complete={not addable}"])
    return EXIT_OK


def cmd_verify(args) -> int:
    field, curve = _field_and_curve(args)
    budget = _budget(args)
    verifier = verify_zero_j_theorem if args.theorem == "j0" else verify_main_theorem
    report = verifier(curve, args.k, budget, seed=args.seed, sample=args.sample,
                      force=args.force)
    payload = {"field": field.descriptor()}
    payload.update(report.to_json_dict())
    _emit(args, payload, budget,
          [f"theorem={report.theorem} k={report.k}: {report.verdict}"])
    if report.verdict == "VIOLATION":
        return EXIT_VIOLATION
    if report.verdict == "BUDGET_PARTIAL":
        return EXIT_BUDGET
    return EXIT_OK


def cmd_oracle(args) -> int:
    field, curve = _field_and_curve(args)
    budget = _budget(args)
    code = generator_matrix(curve, args.k)
    extendable = h_extendability_oracle(code, args.h, budget)
    payload = {
        "field": field.descriptor(),
        "curve": curve.to_json_dict(include_points=False),
        "k": args.k,
        "h": args.h,
        "d": min_distance(code, budget),
        "extendable": extendable,
    }
    if args.h == 1:
        addable = addable_points(code.arc, budget)
        payload["arcDecision"] = bool(addable)
        payload["pathsAgree"] = payload["arcDecision"] == extendable
    _emit(args, payload, budget, [f"h={args.h} extendable: {extendable}"])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellnmds",
        description="near-MDS codes from elliptic curves: construction, "
                    "classification, extendability",
    )
    parser.add_argument("--json-out", metavar="PATH", default=None,
                        help="also write the JSON report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, curve=True, k=False, budget=True):
        p.add_argument("--q", type=int, required=True, help="field order")
        p.add_argument("--r", type=int, default=None,
                       help="expected extension degree (consistency check)")
        if curve:
            p.add_argument("--curve", required=True, metavar="a1,a2,a3,a4,a5",
                           help="coefficient encodings of the curve equation")
        if k:
            p.add_argument("--k", type=int, required=True, help="embedding dimension")
        if budget:
            p.add_argument("--budget", type=_budget_limit, default=DEFAULT_BUDGET_LIMIT,
                           help="element-multiplication cap for scans")

    p = sub.add_parser("nq1", help="largest elliptic point count over F_q")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(fn=cmd_nq1)

    p = sub.add_parser("curve-scan", help="enumerate nonsingular curves")
    common(p, curve=False, budget=False)
    p.add_argument("--j-zero", action="store_true")
    p.add_argument("--j-nonzero", action="store_true")
    p.add_argument("--n-points", type=int, default=None)
    p.add_argument("--max", type=int, default=0, help="stop after this many")
    p.set_defaults(fn=cmd_curve_scan)

    p = sub.add_parser("build", help="generator matrix of the embedded curve")
    common(p, k=True)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("classify", help="[n,k,d], dual distance and label")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--curve", default=None, metavar="a1,a2,a3,a4,a5")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--matrix", default=None, metavar="PATH",
                   help="generator matrix file: 'q k n' then k rows")
    p.add_argument("--budget", type=_budget_limit, default=DEFAULT_BUDGET_LIMIT)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("trisecants", help="trisecant scan or one point profile")
    common(p)
    p.add_argument("--point", default=None, metavar="p1,p2,p3")
    p.set_defaults(fn=cmd_trisecants)

    p = sub.add_parser("arc", help="embedded point set report")
    common(p, k=True)
    p.add_argument("--complete", action="store_true", help="run greedy completion")
    p.add_argument("--max-add", type=int, default=4)
    p.set_defaults(fn=cmd_arc)

    p = sub.add_parser("verify", help="extendability verdict for one curve")
    common(p, k=True)
    p.add_argument("--theorem", choices=("main", "j0"), default="main")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--force", action="store_true",
                   help="run outside the stated hypotheses")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("oracle", help="h-extendability by chain search over added columns")
    common(p, k=True)
    p.add_argument("--h", type=int, required=True)
    p.set_defaults(fn=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    if args.command == "classify" and not args.matrix:
        if args.q is None or args.curve is None or args.k is None:
            print("classify: need --q, --curve and --k, or --matrix", file=sys.stderr)
            return EXIT_ERROR
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (EllnmdsError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
