"""One benchmark process: set up c4distill, then run one in-process workload.

Run by ``run.py`` with ``PYTHONPATH=src``; prints one JSON document.  The
raw per-operation records go back to ``run.py``, which checks them.

    python perfbench/worker.py --setup-only [--probe sample|pipeline --seed 1] [--spans FILE]
    python perfbench/worker.py --workload plan-sweep --seed 1 --seconds 15

A workload function draws one cycle's inputs from the seeded generator and
returns that cycle's operations, each a callable returning its record.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
from time import perf_counter

import refwork
import workloads as W
from refwork import timed, timed_steps


def _record(kind: str, stages: list[list[tuple]], **fields) -> dict:
    """An operation's record from the (seconds, reference seconds) of each
    step of each of its stages: per stage, wall seconds and reference units."""
    seconds = [sum(t for t, _ in steps) for steps in stages]
    return {"kind": kind, "t": sum(seconds), "stages": seconds,
            "units": [sum(t / ref for t, ref in steps) for steps in stages],
            "refs": [ref for steps in stages for _, ref in steps], **fields}


def _goal(p0: float, e_g: float, max_rounds: int, models) -> dict:
    from c4distill.planner import PlannerGoal, best_sequence

    result, t, ref = timed(best_sequence, PlannerGoal(p0=p0, e_g=e_g, max_rounds=max_rounds), models)
    plan = result.plan.as_dict() if result.plan else {"feasible": False}
    return _record("goal", [[(t, ref)]], p0=p0, e_g=e_g, max_rounds=max_rounds, plan=plan)


def _export(argv: list[str]) -> str:
    from c4distill.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"c4distill {' '.join(argv)} exited {code}")
    return buf.getvalue()


def _figures() -> dict:
    outputs, timings = [], []
    for _, argv in W.FIGURES:
        out, t, ref = timed(_export, argv)
        outputs.append(out)
        timings.append([(t, ref)])
    return _record("figures", timings, outputs=outputs)


def _sample(p: float, seed: int) -> dict:
    from c4distill.montecarlo import sample_routine

    report, t, ref = timed(lambda: sample_routine(p, W.MC_TRIALS, seed).report())
    rec = _record("sample", [[(t, ref)]], p=p, seed=seed,
                  max_sigmas=max(abs(c["deviation_sigmas"]) for c in report["three_sigma"].values()))
    rec["pass"] = report["pass"]
    return rec


def _pipeline(sequence: str, p0: float, seed: int) -> dict:
    from c4distill.montecarlo import pipeline_report, run_blocked_pipeline

    report, t, ref = timed(lambda: pipeline_report(
        run_blocked_pipeline(W.PIPELINE_K0, sequence, p0, seed, grouping="instance")))
    return _record("pipeline", [[(t, ref)]], sequence=sequence, p0=p0, seed=seed, report=report)


def _engine_steps(engine_class, chunks: list[list[int]], out: dict, convert) -> list:
    """Steps that build a fresh engine, then each classify one chunk into out."""
    engine = []
    return [lambda: engine.append(engine_class())] + [
        lambda c=c: out.update((bits, convert(engine[0].classify(bits))) for bits in c)
        for c in chunks]


def _gate(order: list[int]) -> dict:
    from c4distill.enumeration import DenseClassifier, FrameClassifier, derive_polynomials
    from c4distill.identities import verify_all

    chunks = [order[i:i + W.GATE_CHUNK] for i in range(0, len(order), W.GATE_CHUNK)]
    exact, dense = {}, {}

    def check():
        agree = 0
        worst = 0.0
        for bits in order:
            d = dense[bits]
            diff = max(abs(a - b) for a, b in zip(exact[bits], (d.accept, d.err1, d.err2, d.both, d.either)))
            worst = max(worst, diff)
            agree += diff < W.AGREEMENT_TOL
        identities = {name: ok for name, (ok, _) in verify_all().items()}
        return agree, worst, identities, derive_polynomials(validate=False)

    _, frame_t = timed_steps(_engine_steps(FrameClassifier, chunks, exact, lambda v: v.as_floats()))
    _, dense_t = timed_steps(_engine_steps(DenseClassifier, chunks, dense, lambda v: v))
    [(agree, worst, identities, ps)], check_t = timed_steps([check])
    return _record("gate", [frame_t, dense_t, check_t],
                   agree=agree, max_diff=worst, identities=identities,
                   coefficients={"a": ps.acceptance.as_integers(), "u": ps.marginal.as_integers(),
                                 "u2": ps.either.as_integers()})


def plan_sweep(rng: random.Random, models) -> list:
    rounds = list(W.PLAN_MAX_ROUNDS)
    rng.shuffle(rounds)
    goals = [(rng.choice(W.PLAN_P0), 10 ** rng.uniform(*W.PLAN_LOG10_EG), r) for r in rounds]
    return [lambda g=g: _goal(*g, models) for g in goals] + [_figures]


def mc_sample(rng: random.Random, models) -> list:
    p, seed = rng.uniform(*W.MC_P), rng.getrandbits(63)
    runs = [(s, rng.uniform(*W.PIPELINE_P0), rng.getrandbits(63)) for s in W.PIPELINE_SEQUENCES]
    return [lambda: _sample(p, seed)] + [lambda r=r: _pipeline(*r) for r in runs]


def two_engine(rng: random.Random, models) -> list:
    order = list(range(W.N_PATTERNS))
    rng.shuffle(order)
    return [lambda: _gate(order)]


WORKLOADS = {"plan-sweep": plan_sweep, "mc-sample": mc_sample, "two-engine": two_engine}


def _run(op, cycle: int, tracer) -> dict:
    """Run one operation; an exception becomes a failed record."""
    if tracer:
        tracer.request += 1
    try:
        return dict(op(), cycle=cycle)
    except Exception as exc:  # a failed operation is counted, not fatal
        return {"kind": "error", "cycle": cycle, "error": f"{type(exc).__name__}: {exc}"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--probe", choices=["sample", "pipeline"],
                    help="with --setup-only: then run one mc-sample operation")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--cycles", type=int, default=0, help="fixed cycle count instead of --seconds")
    ap.add_argument("--spans", help="trace, and append spans to this file")
    args = ap.parse_args(argv)

    tracer = None
    ref_before = refwork.steady_reference_seconds()  # the interpreter reference
    t0 = perf_counter()
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from c4distill.montecarlo import verdict_table
    from c4distill.routines import builtin_models

    models = builtin_models()
    verdict_table()
    setup_s = perf_counter() - t0
    out = {"setup_s": setup_s,
           "setup_ref_s": (ref_before + refwork.steady_reference_seconds()) / 2}

    if args.probe:
        rng = random.Random(f"probe-{args.probe}:{args.seed}")
        ops = mc_sample(rng, models)
        out["records"] = [_run(ops[0] if args.probe == "sample" else ops[1], -1, tracer)]
    elif not args.setup_only:
        refwork.select(W.REFERENCE[args.workload])
        make_cycle = WORKLOADS[args.workload]
        rng = random.Random(f"{args.workload}:{args.seed}")
        records = []
        cycle = 0
        start = perf_counter()
        while (cycle < args.cycles) if args.cycles else (perf_counter() - start < args.seconds):
            records += [_run(op, cycle, tracer) for op in make_cycle(rng, models)]
            cycle += 1
        out.update(cycles=cycle, elapsed_s=perf_counter() - start, records=records)
    if tracer:
        out["trace"] = tracer.summary()
        tracer.dump(args.spans, "setup" if args.setup_only else args.workload)
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
