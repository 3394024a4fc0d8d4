"""Benchmark of c4distill: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload plan-sweep --seed 1 --seconds 15 --trace 0

Run from anywhere; the repository root is the parent of this directory.  The
package is used from ``src`` (``PYTHONPATH=src``), never installed, and every
child process gets numpy/BLAS threads capped at the number of usable CPUs.
Each workload is a closed loop with one client (see ``workloads.py``).

With ``--trace 0`` the run measures end-to-end metrics for ``--seconds``;
with ``--trace 1`` it runs a fixed number of cycles twice, untraced and
then with the wrappers from ``tracing.py`` installed, and reports per-layer
metrics plus the tracing overhead.  Every operation's output is checked;
failures are counted, not fatal.  A report goes to stdout, and the last
line is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The full result, with provenance, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference as ref
import refwork
import tracing
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
OUT = HERE / "out"

MC_SIGMAS = 5.0
NPROC = len(os.sched_getaffinity(0))


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package, a worker crashed, ...)."""


class Child:
    """A child process run to completion: stdout, stderr, exit code, wall
    seconds and peak RSS (``ru_maxrss`` from ``wait4``)."""

    def __init__(self, argv: list[str]):
        err_path = OUT / "stderr.txt"
        with open(err_path, "w+") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=err, text=True,
            )
            self.stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            self.seconds = perf_counter() - start
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            err.seek(0)
            self.stderr = err.read()
        self.rss_mb = usage.ru_maxrss / 1024.0

    def json(self, what: str) -> dict:
        if self.code != 0:
            raise BenchError(f"{what} exited {self.code}:\n{self.stderr}")
        return json.loads(self.stdout)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("C4DISTILL_OUTDIR", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(NPROC)
    return env


def _golden(name: str) -> str:
    return (GOLDEN_DIR / W.GOLDEN[name][0]).read_text()


def _median(values):
    return statistics.median(values) if values else float("nan")


def _interquartile_mean(values):
    """Mean of the middle half of the values: nearly as steady as the mean,
    as robust to a few slow outliers as the median."""
    values = sorted(values)
    quarter = len(values) // 4
    return statistics.mean(values[quarter:len(values) - quarter]) if values else float("nan")


def _best_of_stages(records: list[dict]) -> float:
    """Sum over stages of each stage's fastest time across the records."""
    return sum(min(stage) for stage in zip(*(r["stages"] for r in records)))


def _cycle_units(records: list[dict], stage: int | None = None) -> list[float]:
    """Each cycle's cost in reference units: the sum over its records of
    their stages' units (or of one stage's)."""
    cycles: dict[int, float] = {}
    for r in records:
        units = r["units"] if stage is None else [r["units"][stage]]
        cycles[r["cycle"]] = cycles.get(r["cycle"], 0.0) + sum(units)
    return list(cycles.values())


def _tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile that has at
    least ten samples beyond it; value is nan with fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return float("nan"), float("nan"), n
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


# --------------------------------------------------------------------------
# Processes


def setup_probes(workload: str, seed: int, spans: Path | None) -> dict:
    """Fresh processes that only set up; for mc-sample each then runs one
    operation, so its peak RSS is that of a single call."""
    if workload == "cold-cli":
        probes = [[]] * 3
    elif workload == "mc-sample":
        probes = [["--probe", kind, "--seed", str(seed)] for kind in ("sample", "pipeline")]
    else:
        probes = [[]] * 2
    out = {"setup": [], "setup_ref": [], "summaries": [], "records": [], "rss_mb": []}
    for extra in probes:
        argv = [sys.executable, str(HERE / "worker.py"), "--setup-only", *extra]
        if spans:
            argv += ["--spans", str(spans)]
        child = Child(argv)
        doc = child.json("setup probe")
        out["setup"].append(doc["setup_s"])
        out["setup_ref"].append(doc["setup_ref_s"])
        out["records"] += doc.get("records", [])
        out["rss_mb"].append(child.rss_mb)
        if spans:
            out["summaries"].append(doc["trace"])
    return out


def cli_cycle(rng: random.Random) -> list[tuple[str, list[str], dict]]:
    """One cycle of cold-cli requests: (kind, argv, what to check)."""
    requests = []
    kinds = list(W.CLI_COMMANDS)
    rng.shuffle(kinds)
    for kind in kinds:
        if kind == "threshold":
            golden = f"threshold-{rng.choice('AB')}"
            requests.append((kind, W.GOLDEN[golden][1], {"golden": golden}))
        elif kind == "table1":
            p0 = rng.choice(W.CLI_TABLE1_P0)
            check = {"table1": p0}
            if p0 == 0.01:
                check["golden"] = "table1-0.01"
            requests.append((kind, ["table1", "--p0", repr(p0)], check))
        elif kind == "plan":
            p0 = rng.uniform(*W.CLI_PLAN_P0)
            e_g = 10 ** rng.uniform(*W.CLI_PLAN_LOG10_EG)
            requests.append((kind, ["plan", "--p0", repr(p0), "--eg", repr(e_g)],
                             {"plan": [p0, e_g, 6]}))
        else:
            golden = "both-thresh" if kind == "curve" else kind
            requests.append((kind, W.GOLDEN[golden][1], {"golden": golden}))
    for _ in range(W.CLI_FLOOR_PER_CYCLE):
        requests.insert(rng.randrange(len(requests) + 1),
                        ("dump-circuit", W.GOLDEN["dump-circuit"][1], {"golden": "dump-circuit"}))
    return requests


def run_cold_cli(seed: int, seconds: float, cycles: int, spans: Path | None) -> dict:
    rng = random.Random(f"cold-cli:{seed}")
    refwork.select(W.REFERENCE["cold-cli"])
    records, summaries = [], []
    summary_file = OUT / "cli-summary.json"
    cycle = 0
    start = perf_counter()
    while (cycle < cycles) if cycles else (perf_counter() - start < seconds):
        for kind, argv, check in cli_cycle(rng):
            if spans:
                full = [sys.executable, str(HERE / "traced_cli.py"), str(spans),
                        str(summary_file), str(len(records)), "--", *argv]
            else:
                full = [sys.executable, "-m", "c4distill.cli", *argv]
            child, _, ref = refwork.timed(Child, full)
            records.append({"kind": kind, "cycle": cycle, "t": child.seconds,
                            "stages": [child.seconds], "units": [child.seconds / ref],
                            "refs": [ref], "argv": argv,
                            "check": check,
                            "code": child.code, "stdout": child.stdout,
                            "stderr": child.stderr, "rss_mb": child.rss_mb})
            if spans and child.code == 0:
                summaries.append(json.loads(summary_file.read_text()))
        cycle += 1
    return {"records": records, "cycles": cycle, "elapsed_s": perf_counter() - start,
            "rss_mb": max(r["rss_mb"] for r in records), "summaries": summaries}


def run_worker(workload: str, seed: int, seconds: float, cycles: int, spans: Path | None) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--cycles", str(cycles)]
    if spans:
        argv += ["--spans", str(spans)]
    child = Child(argv)
    doc = child.json(f"{workload} worker")
    doc["rss_mb"] = child.rss_mb
    doc["summaries"] = [doc.pop("trace")] if spans else []
    return doc


def run_pass(workload: str, seed: int, seconds: float, cycles: int, spans: Path | None) -> dict:
    probes = setup_probes(workload, seed, spans)
    if workload == "cold-cli":
        result = run_cold_cli(seed, seconds, cycles, spans)
        result["setup"], result["setup_ref"] = probes["setup"], probes["setup_ref"]
    else:
        result = run_worker(workload, seed, seconds, cycles, spans)
        result["setup"] = probes["setup"] + [result["setup_s"]]
        result["setup_ref"] = probes["setup_ref"] + [result["setup_ref_s"]]
        if workload == "mc-sample":
            result["worker_rss_mb"] = result["rss_mb"]
            result["rss_mb"] = max(probes["rss_mb"])
    result["records"] = probes["records"] + result["records"]
    result["summaries"] += probes["summaries"]
    result["problems"] = [check(workload, r) for r in result["records"]]
    return result


# --------------------------------------------------------------------------
# Output checks; each returns a list of problems, empty when correct.


def check(workload: str, rec: dict) -> list[str]:
    kind = rec["kind"]
    if workload == "cold-cli":
        if rec["code"] != 0:
            return [f"exit {rec['code']}: {rec['stderr'].strip()}"]
        c = rec["check"]
        problems = []
        if "golden" in c and rec["stdout"] != _golden(c["golden"]):
            problems.append(f"differs from {W.GOLDEN[c['golden']][0]}")
        try:
            if "table1" in c:
                problems += ref.check_table1(rec["stdout"], c["table1"])
            if "plan" in c:
                problems += ref.check_plan_payload(json.loads(rec["stdout"]), *c["plan"])
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return problems
    if kind == "error":
        return [rec["error"]]
    if kind == "goal":
        return ref.check_plan_payload(rec["plan"], rec["p0"], rec["e_g"], rec["max_rounds"])
    if kind == "figures":
        return [f"differs from {name}" for (name, _), out in zip(W.FIGURES, rec["outputs"])
                if out != (GOLDEN_DIR / name).read_text()]
    if kind == "sample":
        if rec["max_sigmas"] > MC_SIGMAS:
            return [f"estimate {rec['max_sigmas']:.2f} sigma from exact at p={rec['p']}"]
        return []
    if kind == "pipeline":
        return check_pipeline(rec)
    if kind == "gate":
        problems = []
        if rec["agree"] != W.N_PATTERNS:
            problems.append(f"engines agree on {rec['agree']} of {W.N_PATTERNS} patterns"
                            f" (largest difference {rec['max_diff']:.3g})")
        problems += [f"identity {k} fails" for k, ok in rec["identities"].items() if not ok]
        for key, want in (("a", ref.PUBLISHED_ACCEPTANCE), ("u", ref.PUBLISHED_MARGINAL),
                          ("u2", ref.PUBLISHED_EITHER)):
            if rec["coefficients"][key] != list(want):
                problems.append(f"{key} coefficients {rec['coefficients'][key]} != published")
        return problems
    return [f"unknown record kind {kind!r}"]


def check_pipeline(rec: dict) -> list[str]:
    rep = rec["report"]
    problems = []
    cost, err = ref.recurse(rec["sequence"], rec["p0"])
    if not ref.close(rep["planner_final_cost"], cost) or not ref.close(rep["planner_final_error"], err):
        problems.append("planner cost/error differ from the reference recursion")
    if rep["halted"] or len(rep["rounds"]) != len(rec["sequence"]) + 1:
        problems.append("pipeline halted early")
    if rep["rounds"][0]["states"] != W.PIPELINE_K0:
        problems.append("round 0 lost states")
    # Round-0 inputs and round-1 outputs are independent draws at the
    # nominal rate; later rounds see the instance grouping's correlations.
    for rnd in rep["rounds"][:2]:
        n, q = rnd["states"], rnd["nominal_p"]
        sigma = (q * (1 - q) / n) ** 0.5
        if abs(rnd["observed_error_rate"] - q) > MC_SIGMAS * sigma:
            problems.append(f"round {rnd['round']} error rate {rnd['observed_error_rate']} vs {q}")
    return problems


# --------------------------------------------------------------------------
# Metrics


def end_to_end(workload: str, result: dict) -> tuple[dict, list[tuple]]:
    """(metrics named in BENCHMARK.json, report lines (name, value, unit, note)).

    The gated costs are in reference units (``refwork.py``): each cycle's
    primary (secondary) operations cost the sum of their stages' seconds
    divided by the reference work timed around each step, and the metric is
    the interquartile mean over the run's cycles.  Raw times -- fastest, median, tail --
    are reported alongside; an operation made of stages is there estimated
    as the sum of each stage's fastest repetition.
    """
    failed = sum(1 for p in result["problems"] if p)
    attempted = len(result["records"])
    # Only operations of the timed loop that passed their checks are timed.
    recs = [r for r, p in zip(result["records"], result["problems"]) if r["cycle"] >= 0 and not p]
    kinds = {"cold-cli": (set(W.CLI_COMMANDS), {"dump-circuit"}),
             "plan-sweep": ({"goal"}, {"figures"}),
             "mc-sample": ({"sample"}, {"pipeline"}),
             "two-engine": ({"gate"}, {"gate"})}[workload]
    primary, secondary = ([r for r in recs if r["kind"] in k] for k in kinds)
    if not primary or not secondary:
        shown = "\n".join(p for probs in result["problems"] for p in probs[:1])
        raise BenchError(f"no successful {workload} operations to time; failures:\n{shown}")
    p_t = [r["t"] for r in primary]
    s_t = [r["t"] for r in secondary]
    p_best, s_best = min(p_t), min(s_t)
    p_units = _cycle_units(primary)
    s_units = _cycle_units(secondary, 1 if workload == "two-engine" else None)
    setup_s = _median([t / ref * refwork.INTERPRETER_NOMINAL_S
                       for t, ref in zip(result["setup"], result["setup_ref"])])
    lines = [("setup_s", setup_s, "s",
              f"median of {len(result['setup'])} fresh processes, at the reference's nominal speed"),
             ("setup_wall_s", _median(result["setup"]), "s", "median wall time of the same"),
             ("ref_ms", _median([ref for r in recs for ref in r["refs"]]) * 1e3, "ms",
              "median reference work, the host's speed"),
             ("peak_rss_mb", result["rss_mb"], "MB", {
                 "cold-cli": "max ru_maxrss over request processes",
                 "mc-sample": "max ru_maxrss of one-call processes (sample, pipeline)",
             }.get(workload, "ru_maxrss of the worker")),
             ("failed_fraction", failed / attempted, "", f"{failed} of {attempted} operations")]
    if workload == "cold-cli":
        every = [r["t"] for r in recs]
        tail, pct, n = _tail(every)
        lines += [("cli_p50_s", _median(every), "s", f"{n} requests"),
                  ("cli_tail_s", tail, "s", f"p{pct:.1f} of {n} requests"),
                  ("cli.floor_s", _median(s_t), "s", "median dump-circuit request")]
        for kind in W.CLI_COMMANDS:
            lines.append((f"cli.{kind}_s", _median([r["t"] for r in recs if r["kind"] == kind]),
                          "s", "median request"))
    elif workload == "plan-sweep":
        s_best = _best_of_stages(secondary)
        tail, pct, n = _tail(p_t)
        lines += [("plan_p50_ms", _median(p_t) * 1e3, "ms", f"{n} best_sequence goals"),
                  ("plan_tail_ms", tail * 1e3, "ms", f"p{pct:.1f} of {n} goals"),
                  ("curve_s", _median(s_t), "s", f"median of {len(s_t)} exports")]
    elif workload == "mc-sample":
        flags = sum(1 for r in result["records"] if r["kind"] == "sample" and not r["pass"])
        lines += [("mc_trials_per_s", W.MC_TRIALS * len(p_t) / sum(p_t), "1/s",
                   f"{len(p_t)} calls of {W.MC_TRIALS} trials, sample_routine + report"),
                  ("pipeline_states_per_s", W.PIPELINE_K0 * len(s_t) / sum(s_t), "1/s",
                   f"{len(s_t)} pipelines at k0={W.PIPELINE_K0}, run + report"),
                  ("worker_rss_mb", result["worker_rss_mb"], "MB", "ru_maxrss of the worker"),
                  ("mc_3sigma_flags", flags, "count", "sample calls whose own 3-sigma flag tripped")]
    else:
        p_best = _best_of_stages(primary)
        s_t = [r["stages"][1] for r in secondary]
        s_best = min(s_t)
        lines += [("two_engine_s", _median(p_t), "s", f"median of {len(p_t)} gates"),
                  ("dense_patterns_per_s", W.N_PATTERNS * len(s_t) / sum(s_t), "1/s",
                   "DenseClassifier build + classify")]
    lines += [("primary_min_ms", p_best * 1e3, "ms", "fastest primary operation"),
              ("secondary_min_ms", s_best * 1e3, "ms", "fastest secondary operation")]
    metrics = {"setup_s": setup_s, "primary_rel": _interquartile_mean(p_units),
               "secondary_rel": _interquartile_mean(s_units), "peak_rss_mb": result["rss_mb"]}
    return metrics, lines


def per_layer(summary: dict, records: list[dict]) -> dict:
    spans, counts, peaks = summary["spans"], summary["counts"], summary["peaks"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def bytes_per_item(key):
        return max((peak / size for peak, size in peaks.get(key, [])), default=0.0)

    queries = calls("planner.best_sequence")
    searched = spans.get("planner.evaluate_sequence", {}).get("parents", {}).get("planner.best_sequence", 0)
    return {
        "enumeration.frame_classify_s": total("enumeration.frame_classify"),
        "enumeration.frame_classify_calls": calls("enumeration.frame_classify"),
        "enumeration.derive_polynomials_s": total("enumeration.derive_polynomials"),
        "enumeration.dense_classify_s": total("enumeration.dense_classify"),
        "enumeration.dense_classify_calls": calls("enumeration.dense_classify"),
        "enumeration.engine_agreement": sum(r.get("agree", 0) for r in records),
        "exactalg.exact_mul_calls": counts.get("exactalg.exact_mul_calls", 0),
        "exactalg.poly_eval_calls": counts.get("exactalg.poly_eval_calls", 0),
        "pauli.conjugate_through_s": total("pauli.conjugate_through"),
        "pauli.conjugate_through_calls": calls("pauli.conjugate_through"),
        "circuits.insert_pattern_s": total("circuits.insert_pattern"),
        "circuits.reference_outcomes_s": total("circuits.reference_outcomes"),
        "statevec.run_s": total("statevec.run"),
        "statevec.run_calls": calls("statevec.run"),
        "statevec.branches_kept": counts.get("statevec.branches_kept", 0),
        "statevec.channel_distance_s": total("statevec.channel_distance"),
        "statevec.channel_distance_calls": calls("statevec.channel_distance"),
        "identities.verify_all_s": total("identities.verify_all"),
        "identities.checked": counts.get("identities.checked", 0),
        "routines.builtin_models_s": total("routines.builtin_models"),
        "routines.model_eval_s": total("routines.model_eval"),
        "routines.model_eval_calls": calls("routines.model_eval"),
        "planner.best_sequence_s": total("planner.best_sequence"),
        "planner.best_sequence_calls": queries,
        "planner.evaluate_sequence_s": total("planner.evaluate_sequence"),
        "planner.evaluate_sequence_calls": calls("planner.evaluate_sequence"),
        "planner.sequences_per_query": searched / queries if queries else 0.0,
        "planner.threshold_s": total("planner.threshold"),
        "planner.threshold_calls": calls("planner.threshold"),
        "planner.step_cost_curve_s": total("planner.step_cost_curve"),
        "planner.curve_crossings_s": total("planner.curve_crossings"),
        "montecarlo.verdict_table_s": total("montecarlo.verdict_table"),
        "montecarlo.sample_routine_s": total("montecarlo.sample_routine"),
        "montecarlo.report_s": total("montecarlo.report"),
        "montecarlo.trials": counts.get("montecarlo.trials", 0),
        "montecarlo.sample_peak_bytes_per_trial": bytes_per_item("sample"),
        "montecarlo.pipeline_s": total("montecarlo.run_blocked_pipeline") + total("montecarlo.pipeline_report"),
        "montecarlo.pipeline_states": counts.get("montecarlo.pipeline_states", 0),
        "montecarlo.pipeline_peak_bytes_per_state": bytes_per_item("pipeline"),
        "cli.main_s": total("cli.main"),
        "cli.main_calls": calls("cli.main"),
    }


# --------------------------------------------------------------------------
# Provenance and output


def provenance() -> dict:
    files = sorted((SRC / "c4distill").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines,
            "python": platform.python_version(), "numpy": version("numpy"),
            "mpmath": version("mpmath"), "nproc": NPROC, "machine": platform.machine()}


def declared_metrics(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.TRACED_CYCLES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "c4distill" / "__init__.py").is_file() or not GOLDEN_DIR.is_dir():
        raise BenchError(f"no c4distill sources or golden files under {ROOT}")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance()}

    if args.trace:
        spans = OUT / f"{stem}.spans.jsonl"
        spans.unlink(missing_ok=True)
        cycles = W.TRACED_CYCLES[args.workload]
        plain = run_pass(args.workload, args.seed, 0, cycles, None)
        traced = run_pass(args.workload, args.seed, 0, cycles, spans)
        passes = [plain, traced]
        plain_m, plain_lines = end_to_end(args.workload, plain)
        traced_m, _ = end_to_end(args.workload, traced)
        summary = tracing.merge(traced["summaries"])
        layers = per_layer(summary, traced["records"])
        layers.update({name: v for name, v, _, _ in plain_lines if name.startswith("cli.")})
        overhead = {k: traced_m[k] - plain_m[k] for k in plain_m}
        declared = declared_metrics("per_layer")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in declared.items()}
        result.update(cycles=cycles, per_layer=layers, untraced=plain_m, traced=traced_m,
                      overhead=overhead, spans_file=spans.name,
                      self_s={k: v["self_s"] for k, v in summary["spans"].items()})
        print(f"{args.workload} traced run, seed {args.seed}, {cycles} cycle(s) per pass")
        for name, value in sorted(layers.items()):
            print(f"  {name:44s} {value:.6g}")
        print("  self time by span (s):")
        for name, entry in sorted(summary["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {name:42s} {entry['self_s']:10.4f}  calls {entry['calls']}")
        print("  tracing overhead (traced - untraced):")
        for k, v in overhead.items():
            print(f"    {k:42s} {v:+.6g}  ({100 * v / plain_m[k]:+.1f}%)")
    else:
        run = run_pass(args.workload, args.seed, args.seconds, 0, None)
        passes = [run]
        gate, lines = end_to_end(args.workload, run)
        declared = declared_metrics("end_to_end")
        metrics = {k: {"value": gate[k], "unit": u} for k, u in declared.items()}
        result.update(cycles=run["cycles"], metrics=gate,
                      samples=[[r["kind"], r["cycle"], r.get("t")] for r in run["records"]],
                      report={name: {"value": v, "unit": u, "note": note} for name, v, u, note in lines})
        p = result["provenance"]
        print(f"{args.workload}, seed {args.seed}, {run['cycles']} cycles in {run['elapsed_s']:.1f} s "
              f"(commit {p['commit']}, Python {p['python']}, numpy {p['numpy']}, "
              f"mpmath {p['mpmath']}, nproc {p['nproc']}, src lines {p['src_lines']})")
        for name, value, unit, note in lines + [(k, v, declared[k], "") for k, v in gate.items()]:
            print(f"  {name:24s} {value:14.6g} {unit:6s} {note}")

    problems = [p for run in passes for probs in run["problems"] for p in probs]
    attempted = sum(len(run["records"]) for run in passes)
    failed = sum(1 for run in passes for probs in run["problems"] if probs)
    for p in problems[:20]:
        print(f"  FAILED: {p}")
    result.update(attempted=attempted, failed=failed, problems=problems)
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        sys.exit(2)
