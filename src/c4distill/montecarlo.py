"""Seeded Monte Carlo validation and the blocked multi-round pipeline.

Sampling for the 10-to-2 routine draws the 10-bit error pattern of each
instance and looks the verdict up in the exact classification table (joint
output distribution included), so the simulation is faithful to the circuit
while running millions of instances per second.  The 15-to-1 routine is
simulated at the model level: accept/error Bernoulli draws at the block's
nominal error probability.

Randomness is counter-based (Philox) keyed by (seed, round, purpose), so
tallies are reproducible and independent of how work would be sharded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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

    @classmethod
    def build(cls) -> "VerdictTable":
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
        return cls(accept=accept, joint_cum=np.cumsum(joint, axis=1))


_TABLE: Optional[VerdictTable] = None


def verdict_table() -> VerdictTable:
    global _TABLE
    if _TABLE is None:
        _TABLE = VerdictTable.build()
    return _TABLE


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
class BlockEnsemble:
    """Blocks of output states after a round; a state is just its error bit."""

    round_index: int
    nominal_p: float
    blocks: list[np.ndarray]

    def total_states(self) -> int:
        return int(sum(len(b) for b in self.blocks))

    def error_rate(self) -> float:
        total = self.total_states()
        if total == 0:
            return float("nan")
        return float(sum(int(b.sum()) for b in self.blocks)) / total


@dataclass(frozen=True)
class PipelineResult:
    k0: int
    p0: float
    seed: int
    sequence: tuple[str, ...]
    grouping: str
    ensembles: tuple[BlockEnsemble, ...]
    halted: bool
    plan: DistillationPlan  # the planner's rounds, whose p_out are the nominal rates

    @property
    def final(self) -> BlockEnsemble:
        return self.ensembles[-1]


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

    The inputs are drawn, and 10-to-2 rounds run, ``SAMPLE_CHUNK`` states
    or instances at a time, so beyond the blocks themselves (1 B/state)
    memory is a fixed per-chunk working set, and the output does not depend
    on the chunk size.
    """
    if grouping not in ("blocked", "instance"):
        raise ValueError("grouping must be 'blocked' or 'instance'")
    model_seq = parse_sequence(seq)
    plan = evaluate_sequence(model_seq, p0)
    table = verdict_table()
    rng_init = _stream(seed, 0, "inputs")
    inputs = np.empty(k0, dtype=bool)
    for start in range(0, k0, SAMPLE_CHUNK):
        chunk = inputs[start : start + SAMPLE_CHUNK]
        np.less(rng_init.random(len(chunk)), p0, out=chunk)
    current = BlockEnsemble(0, p0, [inputs])
    ensembles = [current]
    halted = False
    for l, (model, nominal) in enumerate(zip(model_seq, plan.rounds), start=1):
        new_blocks: list[np.ndarray] = []
        rng_acc = _stream(seed, l, "accept")
        rng_joint = _stream(seed, l, "joint")
        rng_err = _stream(seed, l, "model_err")
        for block in current.blocks:
            nb = len(block) // model.m
            if nb == 0:
                continue
            groups = block[: nb * model.m].reshape(nb, model.m)
            if model.name == "A" and model.m == 10:
                outs1, outs2 = [], []
                for start in range(0, nb, SAMPLE_CHUNK):
                    patterns = _pack(groups[start : start + SAMPLE_CHUNK])
                    _, err1, err2 = _run_instances(table, patterns, rng_acc, rng_joint)
                    outs1.append(err1)
                    outs2.append(err2)
                err1, err2 = np.concatenate(outs1), np.concatenate(outs2)
                if grouping == "blocked":
                    new_blocks.append(err1)
                    new_blocks.append(err2)
                else:
                    merged = np.empty(2 * len(err1), dtype=bool)
                    merged[0::2] = err1
                    merged[1::2] = err2
                    new_blocks.append(merged)
            else:
                accepted = rng_acc.random(nb) < nominal.acceptance
                outs = [rng_err.random(nb) < nominal.p_out for _ in range(model.n)]
                for j in range(model.n):
                    new_blocks.append(outs[j][accepted])
        current = BlockEnsemble(l, nominal.p_out, new_blocks)
        ensembles.append(current)
        if current.total_states() == 0:
            halted = True
            break
    return PipelineResult(
        k0=k0,
        p0=p0,
        seed=seed,
        sequence=tuple(m.name for m in model_seq),
        grouping=grouping,
        ensembles=tuple(ensembles),
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


def independence_check(ensemble: BlockEnsemble) -> CorrelationReport:
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
    n = sx = sy = sxy = 0
    for block in ensemble.blocks:
        k = len(block) // 2
        x, y = block[: 2 * k : 2], block[1 : 2 * k : 2]
        n += k
        sx += int(np.count_nonzero(x))
        sy += int(np.count_nonzero(y))
        sxy += int(np.count_nonzero(x & y))
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
    for ens in result.ensembles:
        corr = independence_check(ens)
        rounds.append(
            {
                "round": ens.round_index,
                "nominal_p": ens.nominal_p,
                "blocks": len(ens.blocks),
                "states": ens.total_states(),
                "mean_block_size": (
                    ens.total_states() / len(ens.blocks) if ens.blocks else 0.0
                ),
                "observed_error_rate": ens.error_rate(),
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
