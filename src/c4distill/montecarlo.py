"""Seeded Monte Carlo validation and the blocked multi-round pipeline.

Every stream of Bernoulli flags is drawn sparsely (``_Errors``): its error
positions are running sums of geometric gaps, so work and memory scale with
the errors, not the flags.  A 10-to-2 instance's pattern is the OR of
``1 << (pos % 10)`` over its locations' error positions, and an instance
with a nonzero pattern draws one uniform against its pattern's exact
cumulative law of (reject, clean, output-2 error, output-1 error, both);
pattern 0 is always accepted clean.  This kernel serves ``sample_routine``
and the pipeline's 10-to-2 rounds.  The 15-to-1 routine is simulated at the
model level: sparse rejections and errors at the block's nominal rates.

Randomness is counter-based (Philox) keyed by (seed, round, purpose), and
each stream is consumed strictly in order, so tallies are reproducible and
independent of the chunk size.
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

import numpy as np

from .enumeration import exact_verdicts
from .planner import DistillationPlan, evaluate_sequence, parse_sequence

_PURPOSE = {"inputs": 0, "patterns": 1, "category": 2, "rejects": 3, "errors": 4}
# Trials (or instances, or input states) per step of a stream.
SAMPLE_CHUNK = 1 << 16
# Half-width of the within-block correlation interval, in standard errors.
CORRELATION_Z = 3.0


def _stream(seed: int, round_index: int, purpose: str) -> np.random.Generator:
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    key = np.array([seed, (round_index << 8) | _PURPOSE[purpose]], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_inputs(p: float, count: int, p_name: str, count_name: str) -> None:
    if not 0 <= p <= 1:  # also refuses nan
        raise ValueError(f"{p_name} must lie in [0, 1], got {p}")
    if count < 1:
        raise ValueError(f"{count_name} must be at least 1, got {count}")


class _Errors:
    """A stream of Bernoulli(p) flags, read front to back as error positions.

    Successive errors lie geometric gaps apart, and numpy's geometric counts
    from 1, so the first error is at its gap - 1.  The gaps are drawn in
    batches and consumed strictly in order: the gap that reaches past the
    flags taken is restated from the next flag and carried, never dropped or
    redrawn, so the positions do not depend on how the flags are taken.
    ``Generator.geometric`` consumes a varying number of raw words, so the
    stream is never advanced or split; a rate of 0 draws nothing."""

    def __init__(self, rng: np.random.Generator, p: float):
        self.rng, self.p = rng, min(p, 1.0)
        self.gaps = np.empty(0, dtype=np.int64)  # the first counts from the flag before the next

    def take(self, n: int) -> np.ndarray:
        """The positions, counted from 0, of the errors among the next n flags."""
        if self.p <= 0:
            return np.empty(0, dtype=np.int64)
        parts, last = [], -1  # last: the position of the last error placed
        while True:
            expected = (n - 1 - last) * self.p
            short = int(expected + 4 * math.sqrt(expected)) + 16 - len(self.gaps)
            if short > 0:
                self.gaps = np.concatenate((self.gaps, self.rng.geometric(self.p, short)))
            # A gap clipped to n + 1 still reaches past the n flags, and the
            # sum stays far from overflow.
            pos = np.minimum(self.gaps, n + 1)
            np.cumsum(pos, out=pos)
            pos += last
            placed = int(pos.searchsorted(n))
            parts.append(pos[:placed])
            if placed < len(pos):
                last = int(pos[placed - 1]) if placed else last
                self.gaps = self.gaps[placed:]
                self.gaps[0] -= n - 1 - last
                return np.concatenate(parts) if len(parts) > 1 else parts[0]
            last, self.gaps = int(pos[-1]), self.gaps[:0]


class VerdictTable(NamedTuple):
    """Float view of the exact per-pattern verdicts, for one draw per instance."""

    # (4, 1024): each pattern's law of (reject, clean, output-2 error only,
    # output-1 error only), cumulative; an error on both outputs takes the
    # rest up to 1.
    cumulative: np.ndarray

    def categories(self, patterns: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Each instance's category from its pattern and its uniform u: the
        number of the pattern's cumulative thresholds at or below u, so 0 is
        a rejection, 1 a clean acceptance, 2 an output-2 error only, 3 an
        output-1 error only and 4 an error on both outputs."""
        cat = np.greater_equal(u, self.cumulative[0].take(patterns)).view(np.uint8)
        for row in self.cumulative[1:]:
            cat += u >= row.take(patterns)
        return cat


@cache
def verdict_table() -> VerdictTable:
    laws = []
    for v in exact_verdicts():
        acc, err1, err2, both, _ = v.as_floats()
        laws.append((1 - acc, acc - err1 - err2 + both, err2 - both, err1 - both))
    # Every weight is a multiple of 1/4, so these float sums are exact.
    return VerdictTable(cumulative=np.ascontiguousarray(np.cumsum(laws, axis=1).T))


def _patterns(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(instances, patterns) of the instances with an error, in order, from
    the sorted error positions of their locations, ten per instance:
    location j of instance i is at 10 i + j and sets bit j."""
    instances = positions // 10
    first = np.empty(len(instances), dtype=bool)
    first[:1] = True
    np.not_equal(instances[1:], instances[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return instances[starts], np.bitwise_or.reduceat(1 << (positions - 10 * instances), starts)


class SampleStats(NamedTuple):
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

    Trials are taken ``SAMPLE_CHUNK`` at a time; each stream continues where
    the previous chunk stopped, so the tallies do not depend on the chunk
    size, and memory grows with neither ``trials`` nor the errors drawn."""
    _check_inputs(p, trials, "p", "trials")
    table = verdict_table()
    locations = _Errors(_stream(seed, 0, "patterns"), p)
    rng = _stream(seed, 0, "category")
    counts = np.zeros(5, dtype=np.int64)  # per category, over instances with an error
    for start in range(0, trials, SAMPLE_CHUNK):
        _, patterns = _patterns(locations.take(10 * min(SAMPLE_CHUNK, trials - start)))
        counts += np.bincount(table.categories(patterns, rng.random(len(patterns))), minlength=5)
    rejected, _, err2, err1, both = map(int, counts)
    return SampleStats(p, trials, seed, trials - rejected, err1 + both, err2 + both, both)


class RoundTally:
    """Counts over one round's output states (round 0: the inputs), each an
    error bit; ``pairs``, ``sx``, ``sy`` and ``sxy`` count the disjoint
    adjacent pairs (x, y) of states 2j and 2j + 1 within blocks, for
    ``independence_check``.  Tallies compare equal when every count does."""

    __slots__ = ("round_index", "nominal_p", "blocks", "states", "errors", "pairs", "sx", "sy", "sxy")

    def __init__(self, round_index: int, nominal_p: float):
        self.round_index, self.nominal_p = round_index, nominal_p
        self.blocks = self.states = self.errors = self.pairs = self.sx = self.sy = self.sxy = 0

    def __eq__(self, other) -> bool:
        if other.__class__ is not RoundTally:
            return NotImplemented
        return [getattr(self, k) for k in RoundTally.__slots__] == [getattr(other, k) for k in RoundTally.__slots__]

    def count(self, positions: np.ndarray, previous: int = -1) -> None:
        """Add the errors at ``positions`` of one block, sorted and past the
        block's error at ``previous`` (-1: none)."""
        n_odd = int(np.count_nonzero(positions & 1))
        self.errors += len(positions)
        self.sx += len(positions) - n_odd
        self.sy += n_odd
        pair = np.concatenate(([previous >> 1], positions >> 1))  # repeats where both states err
        self.sxy += int(np.count_nonzero(pair[1:] == pair[:-1]))

    def close(self, length: int, last: int) -> None:
        """Add a block of ``length`` states whose last error is at ``last``;
        the last state of an odd block is in no pair."""
        self.blocks += 1
        self.states += length
        self.pairs += length // 2
        if length % 2 and last == length - 1:
            self.sx -= 1

    def error_rate(self) -> float:
        return self.errors / self.states if self.states else float("nan")


class PipelineResult(NamedTuple):
    k0: int
    p0: float
    seed: int
    sequence: tuple[str, ...]
    grouping: str
    tallies: tuple[RoundTally, ...]  # rounds 0 (the inputs) to the last one run
    halted: bool
    plan: DistillationPlan  # the planner's rounds, whose p_out are the nominal rates


class _Block:
    """One block of a round's output states: its length and sorted error
    positions.  Pieces are appended as the round produces them and counted
    into the round's tally at once.  Unless the round is the last, the
    positions are kept, and once closed the next round reads the block front
    to back with ``take``."""

    def __init__(self, tally: RoundTally, keep: bool):
        self.tally, self.length, self.last = tally, 0, -1
        self.pieces: list[np.ndarray] | None = [] if keep else None
        self.read = 0

    def append(self, length: int, positions: np.ndarray) -> None:
        positions = positions + self.length
        self.tally.count(positions, self.last)
        if len(positions):
            self.last = int(positions[-1])
        if self.pieces is not None:
            self.pieces.append(positions)
        self.length += length

    def close(self) -> None:
        self.tally.close(self.length, self.last)
        if self.pieces is not None:  # a block has at least one piece
            self.positions, self.pieces = np.concatenate(self.pieces), None

    def take(self, n: int) -> np.ndarray:
        """The positions, counted from 0, of the errors among the next n states."""
        lo, hi = self.positions.searchsorted((self.read, self.read + n))
        positions = self.positions[lo:hi] - self.read
        self.read += n
        return positions


class _Inputs:
    """Round 0: the k0 input states, drawn as round 1 takes them and counted
    into the round's tally."""

    def __init__(self, k0: int, p0: float, seed: int, tally: RoundTally):
        self.length = k0
        self.errors = _Errors(_stream(seed, 0, "inputs"), p0)
        self.block = _Block(tally, keep=False)

    def take(self, n: int) -> np.ndarray:
        positions = self.errors.take(n)
        self.block.append(n, positions)
        if self.block.length == self.length:
            self.block.close()
        return positions


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

    A block is its length and sorted error positions; each state is counted
    into its round's ``RoundTally`` as it is produced.  Rounds run
    ``SAMPLE_CHUNK`` instances at a time, and accepted instance i becomes
    output i minus the instances rejected before it.  The inputs are drawn
    straight into round 1, a later block lives until the next round has read
    it, and the last round's outputs are not kept; the output does not
    depend on the chunk size.  Beside a per-chunk working set, memory holds
    the error positions of one round's outputs (at p0 = 0.02 under 0.01 B
    per input state; a one-round pipeline keeps none).
    """
    if grouping not in ("blocked", "instance"):
        raise ValueError("grouping must be 'blocked' or 'instance'")
    _check_inputs(p0, k0, "p0", "k0")
    model_seq = parse_sequence(seq)
    plan = evaluate_sequence(model_seq, p0)
    table = verdict_table()
    tallies = [RoundTally(0, p0)]
    blocks: list = [_Inputs(k0, p0, seed, tallies[0])]
    for l, (model, nominal) in enumerate(zip(model_seq, plan.rounds), start=1):
        rng_cat = _stream(seed, l, "category")
        rejects = _Errors(_stream(seed, l, "rejects"), 1 - nominal.acceptance)
        errors = _Errors(_stream(seed, l, "errors"), nominal.p_out)
        ten_to_two = model.name == "A" and model.m == 10
        width = 1 if ten_to_two and grouping == "instance" else model.n
        keep = l < len(model_seq)
        tally = RoundTally(l, nominal.p_out)
        new_blocks = []
        while blocks:
            block = blocks.pop(0)
            nb = block.length // model.m
            outs = [_Block(tally, keep) for _ in range(width if nb else 0)]
            for start in range(0, nb, SAMPLE_CHUNK):
                k = min(SAMPLE_CHUNK, nb - start)
                positions = block.take(model.m * k)
                if ten_to_two:
                    instances, patterns = _patterns(positions)
                    cat = table.categories(patterns, rng_cat.random(len(patterns)))
                    rejected, erring = instances[cat == 0], cat >= 2
                    index = instances[erring] - rejected.searchsorted(instances[erring])
                    cat = cat[erring]
                    err1, err2, length = index[cat >= 3], index[cat % 2 == 0], k - len(rejected)
                    if grouping == "blocked":
                        pieces = [(length, err1), (length, err2)]
                    else:
                        pieces = [(2 * length, np.sort(np.concatenate((2 * err1, 2 * err2 + 1))))]
                else:
                    length = k - len(rejects.take(k))
                    pieces = [(length, errors.take(length)) for _ in outs]
                for out, piece in zip(outs, pieces):
                    out.append(*piece)
            if block.length > nb * model.m:
                block.take(block.length - nb * model.m)  # round 0 counts every input
            for out in outs:
                out.close()
            new_blocks += outs
        blocks = new_blocks if keep else []
        tallies.append(tally)
        if not tally.states:
            break
    halted = not tallies[-1].states
    return PipelineResult(k0, p0, seed, tuple(m.name for m in model_seq), grouping, tuple(tallies), halted, plan)


class CorrelationReport(NamedTuple):
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
