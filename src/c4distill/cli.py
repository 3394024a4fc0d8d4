"""Command-line interface emitting every figure's and table's underlying data.

Exit codes: 0 success, 1 usage error, 2 reproduction mismatch (a derived
quantity disagrees with its published value), 3 internal error.  Output goes
to stdout unless ``-o`` names a file; relative output paths are resolved
against ``$C4DISTILL_OUTDIR`` when that is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import suppress
from functools import cache
from math import exp, log, log1p, ulp
from typing import Optional, Sequence

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sci(x: float) -> str:
    return f"{x:.5e}"


def _check_grid(lo: float, hi: float, points: int):
    """Every curve grid is one of probabilities below 1/2 (which also
    refuses inf and nan bounds)."""
    if not 0 < lo < hi < 0.5:
        raise UsageError("grid needs 0 < min < max < 1/2")
    if points < 2:
        raise UsageError("grid needs at least 2 points")


def _check_step(span: float, points: int, resolution: float):
    """Refuse a grid whose step span / (points - 1) is below the float
    resolution at one of its ends, where its points would repeat.  Checked
    before the grid is built, as an int against a float, which cannot
    overflow."""
    if points - 1 > span / resolution:
        raise UsageError(f"{points} grid points are finer than the floats between the grid's ends")


def _geom_grid(lo: float, hi: float, points: int) -> list[float]:
    """Spaced evenly in log space, where max/min cannot overflow."""
    _check_grid(lo, hi, points)
    span = log(hi) - log(lo)
    # log(lo) has the larger magnitude, and each end its own relative spacing.
    _check_step(span, points, max(ulp(log(lo)), log1p(ulp(lo) / lo), log1p(ulp(hi) / hi)))
    step = span / (points - 1)
    return [exp(log(lo) + step * i) for i in range(points)]


def _lin_grid(lo: float, hi: float, points: int) -> list[float]:
    _check_grid(lo, hi, points)
    _check_step(hi - lo, points, ulp(hi))
    step = (hi - lo) / (points - 1)
    return [lo + step * i for i in range(points)]


def _or(value, default):
    """An option's value, or ``default`` when the option was not given."""
    return default if value is None else value


def _output_path(out: Optional[str]) -> Optional[str]:
    """The file ``-o`` names, resolved against ``$C4DISTILL_OUTDIR``.  Its
    directory is checked before the command runs, so a path that cannot be
    written fails at once rather than after the work."""
    if out is None:
        return None
    path = os.path.join(os.environ.get("C4DISTILL_OUTDIR", ""), out)
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise UsageError(f"cannot write {path}: no directory {parent}")
    if not os.access(parent, os.W_OK):
        raise UsageError(f"cannot write {path}: directory {parent} is not writable")
    return path


def _emit(text: str, path: Optional[str]):
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}")


def _load_models(config: Optional[str]):
    from .routines import builtin_models, load_routines_config

    models = builtin_models()
    if config:
        try:
            models.update(load_routines_config(config))
        except (OSError, ValueError) as exc:
            raise UsageError(f"--routines {config}: {exc}")
    return models


def classification_report() -> dict:
    """JSON-ready summary: coefficient lists plus pattern tallies."""
    from .enumeration import derive_polynomials, exact_verdicts

    ps = derive_polynomials()
    by_class: dict[str, int] = {}
    for v in exact_verdicts():
        cls = v.error_class()
        by_class[cls] = by_class.get(cls, 0) + 1
    rejected = by_class.pop("rejected", 0)
    clean = by_class.pop("clean", 0)
    return {
        "a": ps.acceptance.as_integers(),
        "u": ps.marginal.as_integers(),
        "u2": ps.either.as_integers(),
        "both": ps.both.as_integers(),
        "patterns": {
            "rejected": rejected,
            "clean": clean,
            "error": by_class,
            "fractional_accept": ps.pattern_counts["fractional_accept"],
            "half_fidelity": ps.pattern_counts["half_fidelity"],
        },
        "accept_weight_by_pattern_weight": [str(q) for q in ps.accept_by_weight],
    }


def cmd_polynomials(args) -> int:
    from .enumeration import CoefficientMismatch

    try:
        report = classification_report()
    except CoefficientMismatch as exc:
        sys.stderr.write(f"coefficient mismatch:\n{exc}\n")
        return EXIT_MISMATCH
    _emit(json.dumps(report, indent=2, sort_keys=True), args.output)
    return EXIT_OK


def cmd_threshold(args) -> int:
    from .planner import threshold

    models = _load_models(args.routines)
    if args.routine not in models:
        raise UsageError(f"unknown routine {args.routine!r}")
    value = threshold(models[args.routine])
    payload = {"routine": args.routine, "threshold": value}
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    return EXIT_OK


def cmd_curve(args) -> int:
    from .planner import (
        TABLE_SEQUENCES,
        PlannerGoal,
        curve_crossings,
        error_curves,
        step_cost_curve,
    )

    models = _load_models(args.routines)
    lines = []
    if args.figure == "both-thresh":
        grid = _lin_grid(_or(args.pmin, 1e-3), _or(args.pmax, 0.2), _or(args.points, 80))
        rows = error_curves(["A", "B"], grid)
        lines.append("p,no_distillation,A,B")
        for p, ea, eb in rows:
            lines.append(f"{_sci(p)},{_sci(p)},{_sci(ea)},{_sci(eb)}")
    elif args.figure == "regionplot":
        grid = _geom_grid(_or(args.pmin, 1e-4), _or(args.pmax, 0.12), _or(args.points, 60))
        seqs = list(TABLE_SEQUENCES)
        rows = error_curves(seqs, grid)
        lines.append("p," + ",".join(seqs))
        for row in rows:
            lines.append(",".join(_sci(v) for v in row))
        if args.boundaries:
            lines.append("")
            lines.append("lower_sequence,upper_sequence,p_crossing")
            for a, b, p in curve_crossings(seqs, grid):
                lines.append(f"{a},{b},{_sci(p)}")
    else:  # distplot; argparse refuses any other figure
        grid = _geom_grid(_or(args.eg_min, 1e-30), _or(args.eg_max, 1e-3), _or(args.points, 55))
        try:
            PlannerGoal(p0=args.p0, e_g=grid[-1], max_rounds=args.max_rounds).validate()
        except ValueError as exc:
            raise UsageError(str(exc))
        rows = step_cost_curve(args.p0, grid, models, max_rounds=args.max_rounds)
        lines.append("e_g,best_cost,best_sequence,b_only_cost,b_only_sequence")
        for eg, cost, name, bcost, bname in rows:
            lines.append(f"{_sci(eg)},{cost:.4f},{name},{bcost:.4f},{bname}")
    _emit("\n".join(lines), args.output)
    return EXIT_OK


def cmd_table1(args) -> int:
    from .planner import table_rows, threshold
    from .routines import model_fifteen_to_one

    # Improvement factors compare against 15-to-1-only sequences, which
    # diverge from the 15-to-1 threshold up.
    limit = threshold(model_fifteen_to_one())
    if not 0 < args.p0 < limit:
        raise UsageError(f"--p0 must lie in (0, {limit}), below the 15-to-1 threshold")
    rows = table_rows(p0=args.p0)
    lines = ["sequence,cost,output_error,improvement,cost_full,error_full"]
    for r in rows:
        lines.append(
            f"{r.sequence},{r.cost:.1f},{r.error:.0e},{r.improvement:.1f},"
            f"{r.cost:.4f},{_sci(r.error)}"
        )
    _emit("\n".join(lines), args.output)
    return EXIT_OK


def cmd_plan(args) -> int:
    from .planner import PlannerGoal, best_sequence, improvement_factor

    models = _load_models(args.routines)
    goal = PlannerGoal(
        p0=args.p0, e_g=args.eg, R=args.R, max_rounds=args.max_rounds
    )
    try:
        goal.validate()
    except ValueError as exc:
        raise UsageError(str(exc))
    result = best_sequence(goal, models)
    if result.plan is None:
        payload = {
            "feasible": False,
            "goal_error": goal.goal_error(),
            "best_error_achieved": (
                result.closest.final_error if result.closest else None
            ),
        }
    else:
        payload = {"feasible": True, "goal_error": goal.goal_error()}
        payload.update(result.plan.as_dict())
        payload["improvement_factor"] = improvement_factor(result.plan)
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    return EXIT_OK


def _count(text: str) -> int:
    """A whole number, which may also be written as a float literal such as 1e9."""
    with suppress(ValueError):
        return int(text)
    with suppress(ValueError):
        if float(text).is_integer():
            return int(float(text))
    raise argparse.ArgumentTypeError(f"{text!r} is not a finite whole number")


def _check_seed(seed: int):
    if not 0 <= seed < 1 << 64:
        raise UsageError("--seed must lie in [0, 2**64)")


def cmd_simulate(args) -> int:
    from .montecarlo import sample_routine

    _check_seed(args.seed)
    if args.trials < 1:
        raise UsageError("--trials must be positive")
    if args.trials >= 1 << 63:  # numpy counts in int64
        raise UsageError("--trials must be below 2**63")
    if not 0 <= args.p < 0.5:
        raise UsageError("--p must be in [0, 0.5)")
    stats = sample_routine(args.p, args.trials, args.seed)
    _emit(json.dumps(stats.report(), indent=2, sort_keys=True), args.output)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    from .montecarlo import pipeline_report, run_blocked_pipeline

    if not args.seq or not set(args.seq) <= {"A", "B"}:
        raise UsageError("--seq must name builtin routines, e.g. 'BA'")
    _check_seed(args.seed)
    if args.k0 < 1:
        raise UsageError("--k0 must be positive")
    if args.k0 >= 1 << 63:  # numpy counts in int64
        raise UsageError("--k0 must be below 2**63")
    if not 0 <= args.p0 < 0.5:
        raise UsageError("--p0 must be in [0, 0.5)")
    result = run_blocked_pipeline(
        args.k0, args.seq, args.p0, args.seed, grouping=args.grouping
    )
    _emit(json.dumps(pipeline_report(result), indent=2, sort_keys=True), args.output)
    return EXIT_OK


def cmd_verify_identities(args) -> int:
    from .identities import IDENTITIES, verify_all

    results = verify_all()
    lines = []
    ok_all = True
    for name, (ok, dist) in results.items():
        group = IDENTITIES[name][0]
        ok_all &= ok
        detail = f" ({dist:.2e})" if args.verbose else ""
        lines.append(f"{'PASS' if ok else 'FAIL'} [{group}] {name}{detail}")
    _emit("\n".join(lines), args.output)
    return EXIT_OK if ok_all else EXIT_MISMATCH


def cmd_dump_circuit(args) -> int:
    if args.gadget_level:
        from .identities import build_gadget_distillation as build
    else:
        from .circuits import build_distillation_circuit as build
    circuit, _ = build()
    _emit(circuit.serialize(), args.output)
    return EXIT_OK


@cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing makes a fresh
    namespace on every call and changes nothing in the parser."""
    parser = _Parser(prog="c4distill", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("-o", "--output", help="write to file instead of stdout")
        return p

    add("polynomials", cmd_polynomials, "exact acceptance/error coefficients")

    p = add("threshold", cmd_threshold, "fixed point of the output error")
    p.add_argument("--routine", required=True)

    p = add("curve", cmd_curve, "CSV data behind the published figures")
    p.add_argument(
        "--figure", required=True, choices=["both-thresh", "regionplot", "distplot"]
    )
    p.add_argument("--pmin", type=float)
    p.add_argument("--pmax", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--eg-min", dest="eg_min", type=float)
    p.add_argument("--eg-max", dest="eg_max", type=float)
    p.add_argument("--p0", type=float, default=0.01)
    p.add_argument("--max-rounds", type=int, default=6)
    p.add_argument("--boundaries", action="store_true")

    p = add("table1", cmd_table1, "sequence cost/error/improvement table")
    p.add_argument("--p0", type=float, default=0.01)

    p = add("plan", cmd_plan, "cheapest sequence reaching a goal error")
    p.add_argument("--p0", type=float, required=True)
    goal = p.add_mutually_exclusive_group()
    goal.add_argument("--eg", type=float)
    goal.add_argument("--R", type=float)
    p.add_argument("--max-rounds", type=int, default=6)

    p = add("simulate", cmd_simulate, "Monte Carlo run of the 10-to-2 routine")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--trials", type=_count, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("pipeline", cmd_pipeline, "blocked multi-round pipeline")
    p.add_argument("--k0", type=_count, required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--p0", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grouping", choices=["blocked", "instance"], default="blocked")

    p = add("verify-identities", cmd_verify_identities, "check circuit identities")
    p.add_argument("--verbose", action="store_true")

    p = add("dump-circuit", cmd_dump_circuit, "text form of the routine circuit")
    p.add_argument("--gadget-level", action="store_true")

    for name in ("threshold", "curve", "plan"):
        sub.choices[name].add_argument(
            "--routines", help="config file with extra routine definitions"
        )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.output = _output_path(args.output)
        return args.fn(args)
    except BrokenPipeError:
        return EXIT_OK
    except Exception as exc:
        from .routines import VanishingDenominator  # loaded by any code that raises it

        if isinstance(exc, (UsageError, VanishingDenominator)):
            sys.stderr.write(f"usage error: {exc}\n")
            return EXIT_USAGE
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
