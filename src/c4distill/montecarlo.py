"""Seeded Monte Carlo validation and the blocked multi-round pipeline.

Sampling for the 10-to-2 routine draws the 10-bit error pattern of each
instance and looks the verdict up in the exact classification table (joint
output distribution included), so the simulation is faithful to the circuit
while running millions of instances per second.  The 15-to-1 routine is
simulated at the model level: accept/error Bernoulli draws at the block's
nominal error probability.

Randomness is counter-based (Philox) keyed by (seed, round, purpose), so
tallies are reproducible and independent of the chunk size.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cache

import numpy as np

from .enumeration import exact_verdicts
from .planner import DistillationPlan, evaluate_sequence, parse_sequence

_PURPOSE = {"inputs": 0, "patterns": 1, "accept": 2, "joint": 3, "model_err": 4}
# Trials (or instances, or input states) per draw of a stream.
SAMPLE_CHUNK = 1 << 16
# Half-width of the within-block correlation interval, in standard errors.
CORRELATION_Z = 3.0


def _stream(seed: int, round_index: int, purpose: str) -> np.random.Generator:
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    key = np.array([seed, (round_index << 8) | _PURPOSE[purpose]], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _pack(groups: np.ndarray) -> np.ndarray:
    """The 10-bit pattern of each row of a (k, 10) bool array, column j as
    bit j."""
    return np.packbits(groups, axis=1, bitorder="little").view("<u2")[:, 0]


@dataclass(frozen=True)
class VerdictTable:
    """Float view of the exact per-pattern verdicts, for vectorized draws."""

    accept: np.ndarray  # (1024,)
    joint_cum: np.ndarray  # (1024, 4) cumulative over (clean, err2, err1, both)


@cache
def verdict_table() -> VerdictTable:
    verdicts = exact_verdicts()
    accept = np.zeros(len(verdicts))
    joint = np.zeros((len(verdicts), 4))
    for bits, v in enumerate(verdicts):
        acc, err1, err2, both, _ = v.as_floats()
        accept[bits] = acc
        if acc > 0:
            clean = acc - err1 - err2 + both
            joint[bits] = [
                clean / acc,
                (err2 - both) / acc,
                (err1 - both) / acc,
                both / acc,
            ]
    return VerdictTable(accept=accept, joint_cum=np.cumsum(joint, axis=1))


@dataclass(frozen=True)
class SampleStats:
    p: float
    trials: int
    seed: int
    accepts: int
    errors_out1: int
    errors_out2: int
    errors_both: int

    def report(self) -> dict:
        from .enumeration import derive_polynomials

        ps = derive_polynomials()
        a = float(ps.acceptance(self.p))
        u = float(ps.marginal(self.p))
        u2 = float(ps.either(self.p))
        e_cond = u / a
        both_cond = (2 * u - u2) / a
        out = {
            "p": self.p,
            "trials": self.trials,
            "seed": self.seed,
            "accepts": self.accepts,
            "errors_out1": self.errors_out1,
            "errors_out2": self.errors_out2,
            "errors_both": self.errors_both,
            "estimates": {
                "acceptance": self.accepts / self.trials,
                "error_out1": self.errors_out1 / max(self.accepts, 1),
                "error_out2": self.errors_out2 / max(self.accepts, 1),
                "error_both": self.errors_both / max(self.accepts, 1),
            },
            "exact": {
                "acceptance": a,
                "error_out": e_cond,
                "error_both": both_cond,
            },
        }
        checks = {}
        checks["acceptance"] = _within_3sigma(self.accepts, self.trials, a)
        checks["error_out1"] = _within_3sigma(self.errors_out1, self.accepts, e_cond)
        checks["error_out2"] = _within_3sigma(self.errors_out2, self.accepts, e_cond)
        checks["error_both"] = _within_3sigma(self.errors_both, self.accepts, both_cond)
        out["three_sigma"] = checks
        out["pass"] = all(c["ok"] for c in checks.values())
        return out


def _within_3sigma(count: int, n: int, p_true: float) -> dict:
    sigma = math.sqrt(max(p_true * (1 - p_true) * n, 1e-300))
    dev = count - p_true * n
    return {
        "count": count,
        "n": n,
        "expected": p_true * n,
        "sigma": sigma,
        "deviation_sigmas": dev / sigma if sigma else 0.0,
        "ok": bool(abs(dev) <= 3 * sigma),
    }


def sample_routine(p: float, trials: int, seed: int) -> SampleStats:
    """Draw i.i.d. 10-bit patterns at error rate p and tally the verdicts.

    Trials are drawn ``SAMPLE_CHUNK`` at a time; each stream continues where
    the previous chunk stopped, so the tallies do not depend on the chunk
    size and memory does not grow with ``trials``."""
    table = verdict_table()
    rng_bits = _stream(seed, 0, "patterns")
    rng_acc = _stream(seed, 0, "accept")
    rng_joint = _stream(seed, 0, "joint")
    accepts = errors_out1 = errors_out2 = errors_both = 0
    for start in range(0, trials, SAMPLE_CHUNK):
        bits = rng_bits.random((min(SAMPLE_CHUNK, trials - start), 10)) < p
        accepted, err1, err2 = _run_instances(table, _pack(bits), rng_acc, rng_joint)
        accepts += int(accepted.sum())
        errors_out1 += int(err1.sum())
        errors_out2 += int(err2.sum())
        errors_both += int((err1 & err2).sum())
    return SampleStats(
        p=p,
        trials=trials,
        seed=seed,
        accepts=accepts,
        errors_out1=errors_out1,
        errors_out2=errors_out2,
        errors_both=errors_both,
    )


def _run_instances(
    table: VerdictTable,
    patterns: np.ndarray,
    rng_acc: np.random.Generator,
    rng_joint: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accept each 10-to-2 instance with its pattern's probability and draw
    the accepted instances' joint output category: (accepted mask, output-1
    errors, output-2 errors), the last two over the accepted instances.
    Each stream gives one draw per instance."""
    accepted = rng_acc.random(len(patterns)) < table.accept[patterns]
    cum = table.joint_cum[patterns[accepted]]
    cat = (rng_joint.random(len(patterns))[accepted][:, None] > cum[:, :3]).sum(axis=1)
    return accepted, (cat == 2) | (cat == 3), (cat == 1) | (cat == 3)


@dataclass
class RoundTally:
    """Counts over one round's output states (round 0: the inputs), each an
    error bit; ``pairs``, ``sx``, ``sy`` and ``sxy`` count the disjoint
    adjacent pairs (x, y) within blocks, for ``independence_check``."""

    round_index: int
    nominal_p: float
    blocks: int
    states: int = 0
    errors: int = 0
    pairs: int = 0
    sx: int = 0
    sy: int = 0
    sxy: int = 0

    def count(self, states: np.ndarray) -> None:
        """Add a run of states that starts at an even position of its block."""
        k = len(states) // 2
        x, y = states[: 2 * k : 2], states[1 : 2 * k : 2]
        self.states += len(states)
        self.errors += int(np.count_nonzero(states))
        self.pairs += k
        self.sx += int(np.count_nonzero(x))
        self.sy += int(np.count_nonzero(y))
        self.sxy += int(np.count_nonzero(x & y))

    def error_rate(self) -> float:
        return self.errors / self.states if self.states else float("nan")


@dataclass(frozen=True)
class PipelineResult:
    k0: int
    p0: float
    seed: int
    sequence: tuple[str, ...]
    grouping: str
    tallies: tuple[RoundTally, ...]  # rounds 0 (the inputs) to the last one run
    halted: bool
    plan: DistillationPlan  # the planner's rounds, whose p_out are the nominal rates


def _runs(pieces: Iterable[np.ndarray], size: int) -> Iterator[np.ndarray]:
    """A block's states, given as ``pieces`` in order, rejoined into runs whose
    lengths are multiples of ``size``, then the shorter rest (maybe empty)."""
    held, count = [], 0
    for piece in pieces:
        held.append(piece)
        count += len(piece)
        if count >= size:
            joined, cut = np.concatenate(held), count - count % size
            held, count = [joined[cut:]], count - cut
            yield joined[:cut]
    yield np.concatenate(held) if held else np.empty(0, dtype=bool)


def run_blocked_pipeline(
    k0: int, seq: str, p0: float, seed: int, grouping: str = "blocked"
) -> PipelineResult:
    """Multi-round distillation with the independence-preserving regrouping.

    Each round partitions every block into groups of m states (discarding
    the remainder), runs one routine instance per group, and forms n new
    blocks per input block from the j-th outputs of the successful
    instances; no instance ever consumes two outputs of an earlier one.
    ``grouping="instance"`` deliberately violates this by keeping both
    outputs of each 10-to-2 instance adjacent in a single block, which
    reintroduces the pairwise output correlation.

    Only counts are kept, in one ``RoundTally`` per round.  The inputs are
    drawn ``SAMPLE_CHUNK`` states at a time straight into round 1, and each
    later block, a list of pieces, lives until the next round has taken it
    in even runs of whole groups; the streams' draw order, and so the
    output, does not depend on the chunk size.  Beyond a per-chunk working
    set of a few MB, memory holds the first round's outputs: 0.05-0.2 B per
    input state at p0 = 0.02.
    """
    if grouping not in ("blocked", "instance"):
        raise ValueError("grouping must be 'blocked' or 'instance'")
    model_seq = parse_sequence(seq)
    plan = evaluate_sequence(model_seq, p0)
    table = verdict_table()
    rng_init = _stream(seed, 0, "inputs")
    inputs = (rng_init.random(min(SAMPLE_CHUNK, k0 - s)) < p0 for s in range(0, k0, SAMPLE_CHUNK))
    blocks: list = [inputs]  # round 0's one block, drawn as round 1 takes it
    tallies = [RoundTally(0, p0, blocks=1)]
    halted = False
    for l, (model, nominal) in enumerate(zip(model_seq, plan.rounds), start=1):
        rng_acc = _stream(seed, l, "accept")
        rng_joint = _stream(seed, l, "joint")
        rng_err = _stream(seed, l, "model_err")
        ten_to_two = model.name == "A" and model.m == 10
        width = 1 if ten_to_two and grouping == "instance" else model.n
        consumed, new_blocks = tallies[-1], []
        while blocks:
            outs: list[list[np.ndarray]] = [[] for _ in range(width)]
            groups = 0
            for run in _runs(blocks.pop(0), math.lcm(2, model.m) * SAMPLE_CHUNK):
                consumed.count(run)
                nb = len(run) // model.m
                groups += nb
                if ten_to_two:
                    grouped = run[: nb * model.m].reshape(nb, model.m)
                    for start in range(0, nb, SAMPLE_CHUNK):
                        patterns = _pack(grouped[start : start + SAMPLE_CHUNK])
                        _, err1, err2 = _run_instances(table, patterns, rng_acc, rng_joint)
                        pieces = (err1, err2) if grouping == "blocked" else (np.stack((err1, err2), 1).ravel(),)
                        for out, piece in zip(outs, pieces):
                            out.append(piece)
                else:
                    accepted = rng_acc.random(nb) < nominal.acceptance
                    for out in outs:
                        out.append((rng_err.random(nb) < nominal.p_out)[accepted])
            if groups:
                new_blocks += outs
        blocks = new_blocks
        tallies.append(RoundTally(l, nominal.p_out, blocks=len(blocks)))
        if not any(len(piece) for block in blocks for piece in block):
            halted = True
            break
    for block in blocks:
        for run in _runs(block, 2):
            tallies[-1].count(run)
    return PipelineResult(
        k0=k0,
        p0=p0,
        seed=seed,
        sequence=tuple(m.name for m in model_seq),
        grouping=grouping,
        tallies=tuple(tallies),
        halted=halted,
        plan=plan,
    )


@dataclass(frozen=True)
class CorrelationReport:
    pairs: int
    correlation: float
    ci_low: float
    ci_high: float
    degenerate: bool  # no variance in the data (e.g. error-free blocks)

    def contains_zero(self) -> bool:
        return self.degenerate or self.ci_low <= 0.0 <= self.ci_high


def independence_check(tally: RoundTally) -> CorrelationReport:
    """Pairwise error correlation of adjacent states within blocks.

    Disjoint adjacent pairs are independent draws of the joint distribution
    of two block neighbours, so a plain Pearson correlation with a Fisher-z
    interval applies.  A blocked pipeline should give an interval containing
    zero; keeping instance outputs adjacent should not.

    For 0/1 data x*x = x, so Pearson's r needs only four counts: the pairs
    n, Sx = #(x = 1), Sy = #(y = 1) and Sxy = #(x = y = 1), with

        r = (n Sxy - Sx Sy) / sqrt((n Sx - Sx Sx) (n Sy - Sy Sy)).

    The counts are exact integers and r is rounded once: the integer square
    root keeps 64 fractional bits and the integer division rounds correctly.
    The data are degenerate when either variance is 0.
    """
    n, sx, sy, sxy = tally.pairs, tally.sx, tally.sy, tally.sxy
    var = (n * sx - sx * sx) * (n * sy - sy * sy)
    if n < 8 or var == 0:
        return CorrelationReport(n, 0.0, 0.0, 0.0, True)
    r = ((n * sxy - sx * sy) << 64) / math.isqrt(var << 128)
    zr = math.atanh(max(min(r, 1 - 1e-12), -1 + 1e-12))
    half = CORRELATION_Z / math.sqrt(n - 3)
    return CorrelationReport(
        pairs=n,
        correlation=r,
        ci_low=math.tanh(zr - half),
        ci_high=math.tanh(zr + half),
        degenerate=False,
    )


def pipeline_report(result: PipelineResult) -> dict:
    """JSON-ready summary of a blocked-pipeline run."""
    plan = result.plan
    rounds = []
    for tally in result.tallies:
        corr = independence_check(tally)
        rounds.append(
            {
                "round": tally.round_index,
                "nominal_p": tally.nominal_p,
                "blocks": tally.blocks,
                "states": tally.states,
                "mean_block_size": tally.states / tally.blocks if tally.blocks else 0.0,
                "observed_error_rate": tally.error_rate(),
                "within_block_correlation": {
                    "pairs": corr.pairs,
                    "value": corr.correlation,
                    "ci": [corr.ci_low, corr.ci_high],
                    "contains_zero": corr.contains_zero(),
                },
            }
        )
    return {
        "k0": result.k0,
        "p0": result.p0,
        "seed": result.seed,
        "sequence": "".join(result.sequence),
        "grouping": result.grouping,
        "halted": result.halted,
        "planner_final_error": plan.final_error,
        "planner_final_cost": plan.final_cost,
        "rounds": rounds,
    }
