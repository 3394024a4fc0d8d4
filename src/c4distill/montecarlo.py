"""Seeded Monte Carlo validation and the blocked multi-round pipeline.

Every verdict of the 10-to-2 routine is read from the exact per-pattern
law of (reject, clean, output-2 error, output-1 error, both), whose
weights are multiples of 1/4, so it is one cell of a (pattern, quarter)
table (``VerdictTable``).  ``sample_routine`` observes only the five
category counts, so it draws them as one multinomial from that table under
the float pattern law, at a cost that does not depend on the trials.

A pipeline's inputs are i.i.d., so round 1 and every 15-to-1 round are
drawn at the model level: one binomial rejected count per block, then
sparse output errors (``_Errors``: running sums of geometric gaps, so work
scales with the errors), and round 0 as counts split by round 1's
categories.  A 10-to-2 round from round 2 on reads blocks that earlier
instances grouped, so it draws every state with the whole Bernoulli-location
kernel: sparse errors, each instance's pattern as the OR of
``1 << (pos % 10)`` over its error positions (``_patterns``), and one raw
Philox word per instance with a nonzero pattern, whose quarter picks the
cell.

A round advances in steps sized by its expected errors (``_step``), so a
step holds about ``SAMPLE_CHUNK / 4`` errors when they are sparse and
``SAMPLE_CHUNK`` instances when they are dense.  Randomness is
counter-based (Philox) keyed by (seed, round, purpose), and each stream is
consumed strictly in order on the calling thread, so outputs are
reproducible and independent of the step size.  A stream's key is handed to
Philox as the state of a seed sequence (``_key_sequence``), so opening one
reads no OS entropy, and a round opens only the streams it reads.

What is fixed for the process is built on first use: the table's cells
counted per (pattern weight, category), which ``VerdictTable.law`` weighs,
and the report's polynomials as float coefficients.  ``sample_routine``
then takes about 17 us and with its report about 25 us (shared 2-CPU host,
Python 3.11, numpy 2.4.6).
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

import numpy as np

from .enumeration import exact_verdicts

_PURPOSE = {"inputs": 0, "counts": 1, "category": 2, "rejects": 3, "errors": 4}
# Routine instances per step of a pipeline round whose errors are dense.
SAMPLE_CHUNK = 1 << 15
# Half-width of the within-block correlation interval, in standard errors.
CORRELATION_Z = 3.0


@cache
def _key_sequence() -> type:
    """The seed sequence whose state is the Philox key it is given.  Philox
    built with ``key=`` still makes a ``SeedSequence`` from OS entropy,
    then discards it; built from this, it reads none.  The class is made on
    the first stream, so that importing this module imports no numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class KeySequence(ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key  # Philox asks for its key: two uint64 words

    return KeySequence


def _stream(seed: int, round_index: int, purpose: str) -> np.random.Generator:
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    key = np.array([seed, (round_index << 8) | _PURPOSE[purpose]], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_key_sequence()(key)))


def _step(e: float) -> int:
    """Instances per step of a pipeline round with e expected errors per
    instance: SAMPLE_CHUNK / min(1, 4e), so that a sparse step holds about
    SAMPLE_CHUNK / 4 errors.  Steps are at most 2^48 instances, where
    ``_Errors.take``'s sums of about 2^13 gaps clipped to the step fit in
    int64; a round without errors takes each block in one step."""
    if not e > 0:  # also nan
        return 1 << 63
    return int(min(SAMPLE_CHUNK / min(1.0, 4 * e), 2.0**48))  # inf for a subnormal e


def _check_inputs(p: float, count: int, p_name: str, count_name: str) -> None:
    if not 0 <= p <= 1:  # also refuses nan
        raise ValueError(f"{p_name} must lie in [0, 1], got {p}")
    if count < 1:
        raise ValueError(f"{count_name} must be at least 1, got {count}")
    if count >= 1 << 63:  # numpy counts in int64
        raise ValueError(f"{count_name} must be below 2**63, got {count}")


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
        self.scale = -math.log1p(-self.p) if 0 < self.p < 1 / 3 else None

    def _geometric(self, size: int) -> np.ndarray:
        """``rng.geometric(p, size)`` from the same raw words: below 1/3 numpy
        takes ceil(E / -log1p(-p)) capped at INT64_MAX, E exponential."""
        if self.scale is None:
            return self.rng.geometric(self.p, size)
        z = self.rng.standard_exponential(size)
        with np.errstate(over="ignore", invalid="ignore"):  # a subnormal p overflows
            gaps = np.ceil(np.divide(z, self.scale, out=z), out=z).astype(np.int64)
        gaps[z >= 2.0**63] = np.iinfo(np.int64).max
        return gaps

    def take(self, n: int) -> np.ndarray:
        """The positions, counted from 0, of the errors among the next n flags."""
        if self.p <= 0:
            return np.empty(0, dtype=np.int64)
        parts, last = [], -1  # last: the position of the last error placed
        while True:
            expected = (n - 1 - last) * self.p
            short = int(expected + 4 * math.sqrt(expected)) + 16 - len(self.gaps)
            if short > 0:
                self.gaps = np.concatenate((self.gaps, self._geometric(short)))
            # A gap clipped to n + 1 still reaches past the n flags, and the
            # sum stays in int64 for the steps that ``_step`` sizes.
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
    """The exact per-pattern verdicts as categories, for one raw Philox word
    per instance.

    An instance's category is the number of its pattern's cumulative
    thresholds, of the law of (reject, clean, output-2 error only, output-1
    error only), at or below its uniform u: 0 is a rejection, 1 a clean
    acceptance, 2 an output-2 error only, 3 an output-1 error only and 4 an
    error on both outputs.  ``Generator.random`` makes u = (w >> 11) 2^-53
    from a raw word w, and every threshold t is a multiple of 1/4, so
    u >= t exactly when (w >> 62) >= 4 t: the quarter w >> 62 decides."""

    # (4096,) uint8: cell pattern << 2 | q holds the category of an instance
    # with that pattern whose uniform lies in [q/4, (q+1)/4).
    cells: np.ndarray

    def categories(self, patterns: np.ndarray, words: np.ndarray) -> np.ndarray:
        """Each instance's category, from its pattern and its raw word."""
        return self.cells.take(patterns << 2 | (words >> 62).view(np.int64))

    def law(self, p: float) -> np.ndarray:
        """The five categories' probabilities at error rate p.  Cell
        pattern << 2 | q has p^w (1 - p)^(10 - w) / 4, w the pattern's
        weight, so the cells are counted per weight and category, once per
        table (``_weight_counts``), and each category sums 11 terms, not
        thousands of rounded ones."""
        k = np.arange(11)
        return p**k * (1 - p) ** (10 - k) / 4 @ _weight_counts(self.cells.tobytes())


@cache
def _weight_counts(cells: bytes) -> np.ndarray:
    """(11, 5) counts of a table's cells per pattern weight and category."""
    categories = np.frombuffer(cells, dtype=np.uint8)
    w = np.bitwise_count(np.arange(len(categories)) >> 2)
    return np.bincount(5 * w + categories, minlength=55).reshape(11, 5)


@cache
def verdict_table() -> VerdictTable:
    """The cell table of the exact verdicts' float weights; refuses a law
    off the 1/4 grid, whose draw a quarter would not decide."""
    acc, err1, err2, both, _ = 4 * np.array([v.as_floats() for v in exact_verdicts()]).T
    # In quarters, where every weight and sum on the grid is a small integer.
    thresholds = np.cumsum((4 - acc, acc - err1 - err2 + both, err2 - both, err1 - both), axis=0).T
    off = np.flatnonzero((thresholds != np.rint(thresholds)).any(axis=1))
    if len(off):
        raise ValueError(f"the verdict of pattern {off[0]} is not on the 1/4 grid")
    cells = (thresholds[:, None, :] <= np.arange(4)[:, None]).sum(axis=2, dtype=np.uint8)
    return VerdictTable(cells=cells.ravel())


def _patterns(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(instances, patterns) of the instances with an error, in order, from
    the sorted error positions of their locations, ten per instance:
    location j of instance i is at 10 i + j and sets bit j."""
    instances = positions // 10
    sums = np.cumsum(1 << (positions - 10 * instances))  # distinct bits: sums differ by the OR
    last = np.empty(len(instances), dtype=bool)
    last[-1:] = True
    np.not_equal(instances[1:], instances[:-1], out=last[:-1])
    ends = np.flatnonzero(last)
    patterns = sums[ends]
    patterns[1:] -= sums[ends[:-1]]
    return instances[ends], patterns


class SampleStats(NamedTuple):
    p: float
    trials: int
    seed: int
    accepts: int
    errors_out1: int
    errors_out2: int
    errors_both: int

    def report(self) -> dict:
        a, u, u2 = (_horner(coefficients, self.p) for coefficients in _report_polynomials())
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


@cache
def _report_polynomials() -> tuple[tuple[float, ...], ...]:
    """The acceptance, marginal and either polynomials of one validated
    derivation, as float coefficients from the highest degree down: each is
    the term ``ExactPolynomial.__call__`` adds at a float p, so ``_horner``
    returns its floats."""
    from .enumeration import derive_polynomials

    ps = derive_polynomials()
    return tuple(
        tuple(float(c.numerator) / c.denominator for c in reversed(poly.coefficients))
        for poly in (ps.acceptance, ps.marginal, ps.either)
    )


def _horner(coefficients: tuple[float, ...], p: float) -> float:
    """The steps of ``ExactPolynomial.__call__``, highest degree first."""
    acc = 0.0
    for c in coefficients:
        acc = acc * p + c
    return acc


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
    """Tally the verdicts of ``trials`` i.i.d. 10-bit patterns at error rate p.

    Only the five category counts are observed, so they are drawn as one
    multinomial of the verdict table's law.  numpy draws it as conditional
    binomials and gives the last category what the others leave.  Clean
    goes last: at low p its conditional rate lies within a few 2^-53 of 1,
    and that rounding would shift the rare categories' counts by about
    trials * 2^-53.  numpy counts in int64, which bounds ``trials``."""
    _check_inputs(p, trials, "p", "trials")
    law = verdict_table().law(p)[[0, 2, 3, 4, 1]]
    rejected, err2, err1, both, _ = map(int, _stream(seed, 0, "counts").multinomial(trials, law))
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
        pair = positions >> 1  # repeats where both states err
        self.sxy += int(np.count_nonzero(pair[1:] == pair[:-1])) + int(len(pair) > 0 and pair[0] == previous >> 1)

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
    plan: DistillationPlan  # planner.DistillationPlan: its rounds' p_out are the nominal rates


class _Block:
    """One block of a round's output states: its length and sorted error
    positions.  Pieces are appended as the round produces them and counted
    into the round's tally at once.  When the next round is a 10-to-2 round,
    the positions are kept, and once closed it reads the block front to back
    with ``take``; a 15-to-1 round reads only the length."""

    def __init__(self, tally: RoundTally, keep: bool):
        self.tally, self.length, self.last, self.read = tally, 0, -1, 0
        self.pieces: list[np.ndarray] | None = [] if keep else None

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


@cache
def _input_classes() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(classes, cells, clean): classes of round 0's (errors, sx, sy, sxy),
    where a group of draw row r is in class c with probability cells[r, c]
    p^errors (1 - p)^clean[r, c].  Rows 0-4: the 10-to-2 instances of each
    category (cell pattern << 2 | q adds 1/4; pairs are bits 2j, 2j + 1);
    row 5: a pair outside them; row 6: an odd last input, in no pair."""
    bits = np.arange(1024)
    x, y = bits & 0x155, bits >> 1 & 0x155
    sx, sy, sxy = (np.bitwise_count(v).astype(np.int64) for v in (x, y, x & y))
    features = np.vstack((np.stack((sx + sy, sx, sy, sxy), axis=1), [1, 0, 0, 0]))
    classes, index = np.unique(features, axis=0, return_inverse=True)
    cells = np.zeros((7, len(classes)))
    np.add.at(cells, (verdict_table().cells, np.repeat(index[:1024], 4)), 0.25)
    cells[5, index[:4]] = cells[6, index[[0, 1024]]] = 1
    return classes, cells, np.maximum(np.array([[10]] * 5 + [[2], [1]]) - classes[:, 0], 0)


def _input_law(p: float) -> tuple[np.ndarray, np.ndarray]:
    """(classes, pvals) of each draw row at error rate p: its classes in
    increasing order of probability, so that the largest is last, and their
    probabilities given the row (0 in a row of probability 0)."""
    classes, cells, clean = _input_classes()
    weights = cells * p ** classes[:, 0] * (1 - p) ** clean
    order, total = weights.argsort(axis=1, kind="stable"), weights.sum(axis=1, keepdims=True)
    pvals = np.take_along_axis(weights, order, axis=1)
    return classes[order], np.divide(pvals, total, out=np.zeros_like(pvals), where=total > 0)


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

    A block is its length and sorted error positions, counted into its
    round's ``RoundTally`` one step at a time.  A step is
    ``SAMPLE_CHUNK / min(1, 4e)`` instances, where e is the expected errors
    per instance: the drawn rate in a model-level round, m times the
    previous round's nominal p_out in a per-state one.  Round 1 and
    every 15-to-1 round draw one binomial rejected count per block and
    sparse errors over the accepted outputs: at p_out, or in a 10-to-2 round
    1 at P(any error | accepted), with one category per erring instance.
    Round 0 is then one multinomial, each row's largest class last (numpy
    gives the last the remainder).  From round 2 on, accepted 10-to-2
    instance i becomes output i minus the instances rejected before it.  A
    block lives until the next round has read it, and its positions are
    kept only for a 10-to-2 round, so memory holds one round's error
    positions (under 0.01 B per input state at p0 = 0.02) beside a
    per-step working set of about ``SAMPLE_CHUNK / 4`` expected errors.
    The output does not depend on the step size.
    """
    if grouping not in ("blocked", "instance"):
        raise ValueError("grouping must be 'blocked' or 'instance'")
    _check_inputs(p0, k0, "p0", "k0")
    if not seq:
        raise ValueError("seq must name at least one round")
    from .planner import evaluate_sequence, parse_sequence  # set-up never compiles the planner

    model_seq = parse_sequence(seq)
    plan = evaluate_sequence(model_seq, p0)
    table = verdict_table()
    tallies = [RoundTally(0, p0)]
    blocks: list = [(k0, None)]  # (length, _Block): round 0 has no positions
    for l, (model, nominal) in enumerate(zip(model_seq, plan.rounds), start=1):
        ten_to_two, per_state = model.name == "A", model.name == "A" and l > 1
        category = _stream(seed, l, "category") if ten_to_two else None
        reject, error_rate = 1 - nominal.acceptance, nominal.p_out
        if ten_to_two and l == 1:  # cumulative (output 2 only, output 1 only, both)
            law = table.law(p0)
            thresholds = np.cumsum(law[2:])
            reject, error_rate = law[0], thresholds[-1] / (law[1] + thresholds[-1])
        if per_state:  # reads only its categories
            rejects = errors = None
        else:
            rejects, errors = _stream(seed, l, "rejects"), _Errors(_stream(seed, l, "errors"), error_rate)
        width = 1 if ten_to_two and grouping == "instance" else model.n
        keep = l < len(model_seq) and model_seq[l].name == "A"  # only a 10-to-2 round reads positions
        step = _step(model.m * plan.rounds[l - 2].p_out if per_state else error_rate)
        tally = RoundTally(l, nominal.p_out)
        new_blocks = []
        while blocks:
            length, block = blocks.pop(0)
            nb = length // model.m
            outs = [_Block(tally, keep) for _ in range(width if nb else 0)]
            accepted = nb - int(rejects.binomial(nb, min(max(reject, 0.0), 1.0))) if nb and not per_state else 0
            instances = np.zeros(5, dtype=np.int64)  # of each category, in round 1
            for start in range(0, nb, step):
                k = min(step, nb - start)
                if per_state:
                    found, patterns = _patterns(block.take(model.m * k))
                    cat = table.categories(patterns, category.bit_generator.random_raw(len(patterns)))
                    rejected, erring = np.cumsum(cat == 0), np.flatnonzero(cat >= 2)  # rejected: at or before
                    index, cat, n = found[erring] - rejected[erring], cat[erring], k - int(rejected[-1:].sum())
                else:
                    n = min(k, accepted)
                    accepted -= n
                    index = errors.take(n)
                    if ten_to_two:
                        u = category.random(len(index)) * thresholds[-1]
                        cat = 2 + (u >= thresholds[0]) + (u >= thresholds[1])
                        instances += np.bincount(cat, minlength=5)
                        instances[:2] += k - n, n - len(index)
                if not ten_to_two:
                    pieces = [(n, index)]
                elif grouping == "blocked":
                    pieces = [(n, index[cat >= 3]), (n, index[(cat & 1) == 0])]
                else:
                    pieces = [(2 * n, np.sort(np.concatenate((2 * index[cat >= 3], 2 * index[(cat & 1) == 0] + 1))))]
                for out, piece in zip(outs, pieces):
                    out.append(*piece)
            if block is None:  # round 0: round 1's instances, then the pairs and odd input outside them
                classes, pvals = _input_law(p0)
                rest = length - nb * model.m if ten_to_two else length
                drawn = _stream(seed, 0, "inputs").multinomial([*instances, rest // 2, rest % 2], pvals)
                t = tallies[0]
                t.errors, t.sx, t.sy, t.sxy = (drawn[..., None] * classes).sum(axis=(0, 1)).tolist()
                t.blocks, t.states, t.pairs = 1, length, length // 2
            for out in outs:
                out.close()
            new_blocks += [(out.length, out) for out in outs]
        blocks = new_blocks
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

    The counts are exact Python ints and r is rounded once: the integer square
    root keeps 64 fractional bits and the integer division rounds correctly.
    The data are degenerate when either variance is 0.
    """
    n, sx, sy, sxy = int(tally.pairs), int(tally.sx), int(tally.sy), int(tally.sxy)
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
