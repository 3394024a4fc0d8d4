"""Seeded Monte Carlo runs against the exact predictions."""

import hashlib
import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from c4distill import montecarlo
from c4distill.enumeration import ExactVerdict, exact_verdicts
from c4distill.exactalg import horner
from c4distill.montecarlo import (
    RoundTally,
    SampleStats,
    independence_check,
    pipeline_report,
    run_blocked_pipeline,
    sample_routine,
    verdict_table,
)
from c4distill.planner import evaluate_sequence, parse_sequence


def test_no_errors_at_p_zero():
    stats = sample_routine(0.0, 5000, seed=1)
    assert stats.accepts == stats.trials == 5000
    assert stats.errors_out1 == stats.errors_out2 == stats.errors_both == 0


def test_reproducible_and_seed_sensitive():
    a = sample_routine(0.05, 200_000, seed=41)
    b = sample_routine(0.05, 200_000, seed=41)
    c = sample_routine(0.05, 200_000, seed=42)
    assert a == b
    assert a != c


def test_tallies_bounded():
    stats = sample_routine(0.08, 50_000, seed=5)
    assert max(stats.errors_out1, stats.errors_out2) <= stats.accepts <= stats.trials
    assert stats.errors_both <= min(stats.errors_out1, stats.errors_out2)


# sample_routine(p, trials, seed=2024) as (p, trials, accepts, errors_out1,
# errors_out2, errors_both), recorded with the one multinomial draw of the
# five category counts.
_PINNED_TALLIES = [
    (0, 1, 1, 0, 0, 0),
    (0, 65536, 65536, 0, 0, 0),
    (0, 65537, 65537, 0, 0, 0),
    (0, 200003, 200003, 0, 0, 0),
    (0.005, 1, 1, 0, 0, 0),
    (0.005, 65536, 62383, 19, 17, 10),
    (0.005, 65537, 62384, 19, 17, 10),
    (0.005, 200003, 190342, 52, 49, 28),
    (0.05, 1, 1, 0, 0, 0),
    (0.05, 65536, 40920, 1083, 1107, 615),
    (0.05, 65537, 40921, 1083, 1107, 615),
    (0.05, 200003, 124789, 3219, 3202, 1714),
    (0.1, 1, 0, 0, 0, 0),
    (0.1, 65536, 27653, 3050, 3035, 1602),
    (0.1, 65537, 27653, 3050, 3035, 1602),
    (0.1, 200003, 84481, 9394, 9374, 5010),
    (0.49, 1, 0, 0, 0, 0),
    (0.49, 65536, 16323, 8066, 8054, 3962),
    (0.49, 65537, 16323, 8066, 8054, 3962),
    (0.49, 200003, 49894, 24776, 24760, 12267),
]


def test_sample_tallies_are_pinned():
    for p, trials, *counts in _PINNED_TALLIES:
        s = sample_routine(p, trials, seed=2024)
        assert [s.accepts, s.errors_out1, s.errors_out2, s.errors_both] == counts, (p, trials)


# sha256 of the sorted-key JSON of seeded reports, beyond the one pipeline
# golden: a change to a stream's key, its consumption order or the
# report's float arithmetic moves them.
_PIPELINE_DIGEST = "bf3143dc0ed2e3f5bfa558f818edf7de51e17f639fe03f86bdbe90bd65f8820b"
_SAMPLE_DIGEST = "6be1ef934f870c9c74b293ab625283abc5f5693de50e55f37f45cc2b0826c07e"


def test_seeded_reports_are_pinned():
    digest = hashlib.sha256()
    cases = itertools.product(("AA", "BA", "A", "AB", "B", "AAA"), ("blocked", "instance"),
                              (0, 0.005, 0.05, 0.3), (1, 25, 30007), (5, 2**64 - 1))
    for seq, grouping, p0, k0, seed in cases:
        report = pipeline_report(run_blocked_pipeline(k0, seq, p0, seed, grouping))
        digest.update(json.dumps(report, sort_keys=True).encode())
    assert digest.hexdigest() == _PIPELINE_DIGEST
    digest = hashlib.sha256()
    for p in (0, 0.005, 0.05, 0.3, 1):
        digest.update(json.dumps(sample_routine(p, 10**6, 3).report(), sort_keys=True).encode())
    assert digest.hexdigest() == _SAMPLE_DIGEST


def test_bad_rates_and_counts_are_refused():
    for p in (math.nan, math.inf, -math.inf, -0.01, 1.01):
        with pytest.raises(ValueError, match="must lie in"):
            sample_routine(p, 1000, seed=1)
        with pytest.raises(ValueError, match="must lie in"):
            run_blocked_pipeline(1000, "A", p, seed=1)
    for count in (0, -5):
        with pytest.raises(ValueError, match="at least 1"):
            sample_routine(0.05, count, seed=1)
        with pytest.raises(ValueError, match="at least 1"):
            run_blocked_pipeline(count, "A", 0.05, seed=1)
    # The ends of [0, 1] are rates.
    assert sample_routine(1.0, 10, seed=1).trials == 10
    # numpy counts the trials and states in int64.
    for count in (1 << 63, 10**30):
        with pytest.raises(ValueError, match="below 2\\*\\*63"):
            sample_routine(0.05, count, seed=1)
        with pytest.raises(ValueError, match="below 2\\*\\*63"):
            run_blocked_pipeline(count, "A", 0.05, seed=1)
    assert sample_routine(0.05, (1 << 63) - 1, seed=1).trials == (1 << 63) - 1
    assert run_blocked_pipeline(1, "A", 0.0, seed=1).halted
    # A pipeline without rounds would report round 0 as empty and halted.
    with pytest.raises(ValueError, match="at least one round"):
        run_blocked_pipeline(1000, "", 0.05, seed=1)


def test_degenerate_rates_give_fixed_counts():
    # Generator.geometric(0) raises, so no stream may draw at a rate of 0:
    # p = 0, a 15-to-1 round that always accepts, and p_out = 0.  Every count
    # here is deterministic.
    assert sample_routine(0.0, 70_001, seed=1) == SampleStats(0.0, 70_001, 1, 70_001, 0, 0, 0)
    # Ten errors make pattern 1023, always accepted with both outputs wrong.
    assert sample_routine(1.0, 70_001, seed=1) == SampleStats(1.0, 70_001, 1, 70_001, 70_001, 70_001, 70_001)
    states = {"A": [3000, 600], "B": [3000, 200], "AB": [3000, 600, 40], "BA": [3000, 200, 40]}
    for seq, counts in states.items():
        for p0 in (0.0, 1.0):
            for grouping in ("blocked", "instance"):
                res = run_blocked_pipeline(3000, seq, p0, seed=1, grouping=grouping)
                assert [t.states for t in res.tallies] == counts, (seq, p0, grouping)
                assert [t.errors for t in res.tallies] == [round(p0 * n) for n in counts], (seq, p0, grouping)
                assert not res.halted


def test_streams_are_philox_keyed_by_seed_round_and_purpose():
    def state(generator):
        return json.dumps(generator.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)

    for seed in (0, 1, 2**64 - 1):
        for r, purpose in itertools.product((0, 1, 7), montecarlo._PURPOSE):
            ours = montecarlo._stream(seed, r, purpose)
            # A list key passes through float64, which cannot hold 2**64 - 1.
            key = np.array([seed, r << 8 | montecarlo._PURPOSE[purpose]], dtype=np.uint64)
            assert state(ours) == state(np.random.Generator(np.random.Philox(key=key))), (seed, r, purpose)
            # The key is the seed sequence's state: no SeedSequence reads OS entropy.
            assert not isinstance(ours.bit_generator.seed_seq, np.random.SeedSequence)


def test_rounds_open_only_the_streams_they_read(monkeypatch):
    opened = []
    stream = montecarlo._stream

    def recorded(seed, round_index, purpose):
        opened.append((round_index, purpose))
        return stream(seed, round_index, purpose)

    monkeypatch.setattr(montecarlo, "_stream", recorded)
    sample_routine(0.05, 1000, seed=3)
    assert opened == [(0, "counts")]
    for seq, grouping in itertools.product(("AA", "BA", "A", "AB", "B"), ("blocked", "instance")):
        opened.clear()
        assert not run_blocked_pipeline(30_007, seq, 0.05, seed=3, grouping=grouping).halted
        reads = [(0, "inputs")]  # round 0's counts, drawn once round 1's categories are
        for l, name in enumerate(seq, start=1):
            # Round 1 and every 15-to-1 round are drawn at the model level.
            purposes = ("category",) * (name == "A") + ("rejects", "errors") * (name == "B" or l == 1)
            reads += [(l, purpose) for purpose in purposes]
        assert sorted(opened) == sorted(reads), (seq, grouping)


def test_seeds_outside_64_bits_are_refused():
    # Masking would alias them onto the streams of another seed.
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError):
            sample_routine(0.05, 10, seed=seed)
        with pytest.raises(ValueError):
            run_blocked_pipeline(100, "A", 0.05, seed=seed)
    assert sample_routine(0.05, 10, seed=(1 << 64) - 1).trials == 10


def _reference_positions(rng, p: float, n: int) -> np.ndarray:
    """The error positions among n Bernoulli(p) flags, from one whole array
    of geometric gaps summed in Python integers: the first error is at its
    gap - 1."""
    if p <= 0:
        return np.empty(0, dtype=np.int64)
    ends = itertools.accumulate(rng.geometric(min(p, 1.0), n + 1).tolist())
    return np.array(list(itertools.takewhile(lambda end: end <= n, ends)), dtype=np.int64) - 1


def _reference_flags(rng, p: float, n: int) -> np.ndarray:
    flags = np.zeros(n, dtype=bool)
    flags[_reference_positions(rng, p, n)] = True
    return flags


@settings(max_examples=60)
@given(
    st.sampled_from([0.0, 1e-30, 0.003, 0.05, 0.3, math.nextafter(1 / 3, 0), 1 / 3, 0.5, 0.9, 1.0]),
    st.lists(st.integers(0, 700), min_size=1, max_size=12),
    st.integers(0, 3),
)
@example(0.05, [0, 1, 0, 699], 0)
@example(1.0, [3, 0, 5], 1)
def test_error_positions_do_not_depend_on_takes(p, takes, seed):
    # Gaps carry across takes, but the positions equal the whole-array
    # reference's.  Seeded batches hardly ever run out within a take; the
    # replayed gaps below make them.
    errors = montecarlo._Errors(montecarlo._stream(seed, 0, "inputs"), p)
    starts = np.cumsum([0] + takes)
    got = np.concatenate([errors.take(n) + start for n, start in zip(takes, starts)])
    expected = _reference_positions(montecarlo._stream(seed, 0, "inputs"), p, int(starts[-1]))
    assert got.tolist() == expected.tolist()


class _ReplayGaps:
    """A stand-in generator whose ``standard_exponential`` serves, in order
    and in whatever batch sizes are asked for, the exponentials that a rate
    p below 1/3 maps to fixed gaps g: E = (g - 1/2) (-log1p(-p))."""

    def __init__(self, gaps: np.ndarray, p: float):
        self.exponentials, self.served = (gaps - 0.5) * -math.log1p(-p), 0

    def standard_exponential(self, size: int) -> np.ndarray:
        out = self.exponentials[self.served : self.served + size]
        assert len(out) == size, "ran out of replayed gaps"
        self.served += size
        return out.copy()


def test_error_batches_that_run_out_are_refilled():
    # At p = 0.001 a batch for 10,000 flags holds 38 gaps, sized for about
    # 10 errors; gaps far shorter than 1/p use each batch up before the
    # flags, and the next batch carries on from the last error placed.
    ones = np.ones(20_000, dtype=np.int64)
    assert montecarlo._Errors(_ReplayGaps(ones, 0.001), 0.001).take(10_000).tolist() == list(range(10_000))
    errors = montecarlo._Errors(_ReplayGaps(ones, 0.001), 0.001)
    got = np.concatenate((errors.take(3_000), 3_000 + errors.take(7_000)))
    assert got.tolist() == list(range(10_000))
    gaps = np.random.default_rng(5).geometric(0.3, 5_000)
    want = np.cumsum(gaps) - 1
    got = montecarlo._Errors(_ReplayGaps(gaps, 0.001), 0.001).take(10_000)
    assert got.tolist() == want[want < 10_000].tolist()


def test_gaps_are_numpys_geometric_element_for_element():
    # Below 1/3 the gaps come from exponentials, as numpy's own inversion
    # branch takes them; a numpy that draws its geometric gaps otherwise
    # fails here, not only in the seeded tallies and goldens.  The two
    # streams must also stop on the same raw word.
    rates = [5e-324, 1e-320, 1e-30, 0.005, 0.3, math.nextafter(1 / 3, 0), 1 / 3, 0.5, 1.0]
    for p in rates:
        ours, numpys = (montecarlo._stream(3, 0, "inputs") for _ in range(2))
        got = montecarlo._Errors(ours, p)._geometric(20_000)
        assert got.dtype == np.int64, p
        assert got.tolist() == numpys.geometric(p, 20_000).tolist(), p
        assert ours.bit_generator.random_raw() == numpys.bit_generator.random_raw(), p
    # At a subnormal rate every gap is numpy's cap.
    assert (montecarlo._Errors(montecarlo._stream(3, 0, "inputs"), 5e-324)._geometric(10) == 2**63 - 1).all()


def test_sampled_pattern_law_is_the_product_bernoulli_law():
    # Bound set before the run: chi-square with 1023 degrees of freedom
    # exceeds 1318 with probability 1e-9.  At p = 0.3 (geometric by
    # inversion) and 0.45 (by search) every pattern expects 5 or more of the
    # 10**6 instances.
    weights = np.array([bin(bits).count("1") for bits in range(1024)])
    for p, seed in ((0.3, 1), (0.45, 2)):
        errors = montecarlo._Errors(montecarlo._stream(seed, 0, "inputs"), p)
        counts = np.zeros(1024, dtype=np.int64)
        for _ in range(10):
            _, patterns = montecarlo._patterns(errors.take(10**6))
            counts += np.bincount(patterns, minlength=1024)
        counts[0] = 10**6 - counts.sum()
        expected = 10**6 * p**weights * (1 - p) ** (10 - weights)
        assert expected.min() >= 5
        assert ((counts - expected) ** 2 / expected).sum() <= 1318, p


def test_each_flag_has_the_error_rate():
    # Over 4000 streams, the rate at each of the first 120 flags, taken as
    # 40, 1 and 79 flags, lies within 5 sigma of p.  Flag 0 is where an
    # off-by-one in the first gap shows, flags 40 and 41 where a restated
    # carried gap does.
    p, streams = 0.4, 4000
    hits = np.zeros(120, dtype=np.int64)
    for seed in range(streams):
        errors = montecarlo._Errors(montecarlo._stream(seed, 0, "inputs"), p)
        hits[errors.take(40)] += 1
        hits[40 + errors.take(1)] += 1
        hits[41 + errors.take(79)] += 1
    sigma = math.sqrt(p * (1 - p) * streams)
    assert np.abs(hits - p * streams).max() <= 5 * sigma


@cache
def _reference_table() -> np.ndarray:
    """(1024, 4): each pattern's exact law of (reject, clean, output-2 error
    only, output-1 error only), cumulative, in Fractions."""
    rows = []
    for v in exact_verdicts():
        law = (1 - v.accept, v.accept - v.err1 - v.err2 + v.both, v.err2 - v.both, v.err1 - v.both)
        rows.append(list(itertools.accumulate(law)))
    return np.array(rows, dtype=object)


def _pattern_classes() -> dict[str, list[int]]:
    classes: dict[str, list[int]] = {
        "always rejected": [], "always clean": [], "accepted with an error": [], "others": []}
    for bits, v in enumerate(exact_verdicts()):
        if v.accept == 0:
            classes["always rejected"].append(bits)
        elif v.accept == 1:
            clean = v.err1 == v.err2 == 0
            classes["always clean" if clean else "accepted with an error"].append(bits)
        else:
            classes["others"].append(bits)
    return classes


def test_category_law_is_exact():
    # The category step, driven by the raw words of N stratified uniforms
    # (j + 1/2) / N per pattern, puts N times each category's exact
    # probability into it, to within one.  Of the 128 always-accepted
    # patterns only 32 are clean, so an instance must draw unless its
    # pattern is 0.
    classes = _pattern_classes()
    assert {name: len(bits) for name, bits in classes.items()} == {
        "always rejected": 640, "always clean": 32, "accepted with an error": 96, "others": 256}
    n = 4096
    u = (2 * np.arange(n, dtype=np.uint64) + 1) << np.uint64(64 - 13)  # (j + 1/2) / n * 2**64
    table = verdict_table()
    exact = _reference_table()
    for bits in range(1024):
        cat = table.categories(np.full(n, bits), u)
        counts = np.bincount(cat, minlength=5)
        cumulative = np.cumsum(counts)[:4]
        assert all(abs(c - n * f) <= 1 for c, f in zip(cumulative, exact[bits])), bits
    for bits in classes["always rejected"]:
        assert not table.categories(np.full(n, bits), u).any()
    for bits in classes["always clean"]:
        assert (table.categories(np.full(n, bits), u) == 1).all()
    for bits in classes["accepted with an error"]:
        assert (table.categories(np.full(n, bits), u) >= 2).all()


@pytest.fixture
def counted_blocks(monkeypatch):
    """Calls return the (round, length, error positions) of each block the
    pipelines since the last call have produced, in order, and forget
    them; with ``pieces=True`` each entry also lists the lengths of the
    pieces the block was appended in.  Round 0 is drawn as counts and has
    no blocks."""
    log: list[tuple[int, list]] = []

    class RecordingBlock(montecarlo._Block):  # one per block, counted into its round
        def __init__(self, tally, keep):
            super().__init__(tally, keep)
            self.log: list = []
            log.append((tally.round_index, self.log))

        def append(self, length, positions):
            self.log.append((length, (positions + self.length).tolist()))
            super().append(length, positions)

    monkeypatch.setattr(montecarlo, "_Block", RecordingBlock)

    def blocks(pieces: bool = False) -> list[tuple]:
        out = []
        for r, logged in log:
            lengths = [n for n, _ in logged]
            block = (r, sum(lengths), [i for _, pos in logged for i in pos])
            out.append(block + (lengths,) if pieces else block)
        log.clear()
        return out

    return blocks


@pytest.mark.parametrize("grouping", ["blocked", "instance"])
def test_pipeline_does_not_depend_on_chunking(monkeypatch, counted_blocks, grouping):
    def run(seq):
        res = run_blocked_pipeline(30_007, seq, 0.05, seed=29, grouping=grouping)
        blocks = counted_blocks(pieces=True)
        # Each state of round 1 on is counted once, into its own round's tally.
        for tally in res.tallies[1:]:
            mine = [(n, pos) for r, n, pos, _ in blocks if r == tally.round_index]
            assert (len(mine), sum(n for n, _ in mine), sum(len(pos) for _, pos in mine)) == (
                tally.blocks, tally.states, tally.errors)
        # Round 0's counts are compared whole, pair counts included.
        steps = [(r, len(lengths)) for r, *_, lengths in blocks]
        return (res.tallies, pipeline_report(res), [b[:3] for b in blocks]), steps

    sequences = ("AA", "BA", "A", "B")
    whole = {}
    for seq in sequences:  # one step per block
        whole[seq], pieces = run(seq)
        assert all(n == 1 for _, n in pieces), seq
    # Round 1 has a non-degenerate correlation, so the reports compare it too.
    assert all(whole[seq][1]["rounds"][1]["within_block_correlation"]["value"] for seq in sequences)
    for chunk in (1, 7, 777, 1000):  # only 1000 divides an instance count
        monkeypatch.setattr(montecarlo, "_step", lambda e: chunk)
        for seq in sequences:
            out, pieces = run(seq)
            assert out == whole[seq], (seq, chunk)
            # Blocks took more than one step: in round 1 at every size, and in
            # every round at sizes 1 and 7.
            assert all(n > 1 for r, n in pieces if r == 1 or chunk < 10), (seq, chunk)


def _reference_instances(groups: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """The accepted 10-to-2 instances' (output-1, output-2) errors from a
    (k, 10) bool array: patterns by np.packbits, and one uniform, in order,
    for each instance with a nonzero pattern, compared with its pattern's
    whole cumulative row."""
    patterns = np.packbits(groups, axis=1, bitorder="little").view("<u2")[:, 0]
    drawn = np.flatnonzero(patterns)
    cat = np.ones(len(patterns), dtype=int)  # pattern 0 is accepted clean
    cumulative = _reference_table()[patterns[drawn]].astype(float)
    cat[drawn] = (rng.random(len(drawn))[:, None] >= cumulative).sum(axis=1)
    cat = cat[cat > 0]
    return cat >= 3, (cat == 2) | (cat == 4)


def _round_one_categories(block_length, p0, seed) -> tuple[int, np.ndarray]:
    """(rejected instances, categories of the accepted ones) of a 10-to-2
    round 1, drawn whole: one binomial count of rejections, Bernoulli flags
    at P(any error | accepted) over the accepted instances, and one uniform
    per erring instance against the cumulative (output 2 only, output 1
    only, both) law."""
    nb = block_length // 10
    reject, clean, *erring = verdict_table().law(p0).tolist()
    rejected = int(montecarlo._stream(seed, 1, "rejects").binomial(nb, reject)) if nb else 0
    t2, t3, t4 = itertools.accumulate(erring)
    flags = _reference_flags(montecarlo._stream(seed, 1, "errors"), t4 / (clean + t4), nb - rejected)
    u = montecarlo._stream(seed, 1, "category").random(int(flags.sum())) * t4
    cat = np.ones(nb - rejected, dtype=int)
    cat[flags] = 2 + (u >= t2) + (u >= t3)
    return rejected, cat


def _round_zero_counts(k0, instances, rest, p0, seed) -> tuple[int, ...]:
    """(blocks, states, errors, pairs, sx, sy, sxy) of round 0 from one
    multinomial on its stream: one row per category of round 1's
    ``instances`` over the classes of ``_input_classes``, then rest // 2
    pairs and rest % 2 odd inputs, each row normalized and in increasing
    order, so that numpy's remainder goes to its largest class."""
    classes, cells, clean = montecarlo._input_classes()
    law = cells * p0 ** classes[:, 0] * (1 - p0) ** clean
    orders = [sorted(range(len(classes)), key=weights.__getitem__) for weights in law]
    pvals = [weights[order] / (weights.sum() or 1) for weights, order in zip(law, orders)]
    drawn = montecarlo._stream(seed, 0, "inputs").multinomial([*instances, rest // 2, rest % 2], pvals)
    counts = [0, 0, 0, 0]
    for order, row in zip(orders, drawn.tolist()):
        for c, n in zip(order, row):
            counts = [total + n * int(f) for total, f in zip(counts, classes[c])]
    errors, sx, sy, sxy = counts
    return 1, k0, errors, k0 // 2, sx, sy, sxy


def _whole_block_pipeline(k0, seq, p0, seed, grouping) -> tuple[tuple[int, ...], list[list[np.ndarray]]]:
    """Round 0's tally, and every later round's blocks as bool arrays, each
    drawn and kept whole: the pipeline's streams and regrouping, written
    without chunks, tallies or the sampling kernel.  Round 1 is drawn at the
    model level.  A 15-to-1 round draws one binomial count of rejected
    instances for each block of at least one instance, in block order, then
    its errors over all its accepted outputs."""
    models = parse_sequence(seq)
    rounds = [[np.zeros(k0, dtype=bool)]]  # round 0's length alone is read
    for l, (model, nominal) in enumerate(zip(models, evaluate_sequence(models, p0).rounds), 1):
        nbs = [len(block) // model.m for block in rounds[-1]]
        blocks = []
        if model.name == "A" and l == 1:
            rejected, cat = _round_one_categories(k0, p0, seed)
            instances = [rejected, *np.bincount(cat, minlength=5)[1:]]
            tally0 = _round_zero_counts(k0, instances, k0 % 10, p0, seed)
            err1, err2 = cat >= 3, cat % 2 == 0
            if nbs[0]:
                blocks += [err1, err2] if grouping == "blocked" else [np.stack((err1, err2), 1).ravel()]
        elif model.name == "A":
            rng = montecarlo._stream(seed, l, "category")
            for block, nb in zip(rounds[-1], nbs):
                if nb:
                    err1, err2 = _reference_instances(block[: nb * 10].reshape(nb, 10), rng)
                    blocks += [err1, err2] if grouping == "blocked" else [np.stack((err1, err2), 1).ravel()]
        else:
            if l == 1:
                tally0 = _round_zero_counts(k0, [0] * 5, k0, p0, seed)
            rng, q = montecarlo._stream(seed, l, "rejects"), min(max(1 - nominal.acceptance, 0.0), 1.0)
            kept = [nb - int(rng.binomial(nb, q)) if nb else 0 for nb in nbs]
            errors = _reference_flags(montecarlo._stream(seed, l, "errors"), nominal.p_out, sum(kept))
            blocks += [e for nb, e in zip(nbs, np.split(errors, np.cumsum(kept)[:-1])) if nb]
        rounds.append(blocks)
        if not sum(map(len, blocks)):
            break
    return tally0, rounds[1:]


def _reference_law(p: float) -> list[Fraction]:
    """The five categories' exact probabilities at the float p, folded from
    the Fraction verdicts, summed per pattern weight."""
    by_weight = [[Fraction(0)] * 5 for _ in range(11)]
    for bits, v in enumerate(exact_verdicts()):
        row = by_weight[bits.bit_count()]
        for c, f in enumerate((1 - v.accept, v.accept - v.err1 - v.err2 + v.both, v.err2 - v.both, v.err1 - v.both, v.both)):
            row[c] += f
    p = Fraction(p)
    return [sum(p**w * (1 - p) ** (10 - w) * row[c] for w, row in enumerate(by_weight)) for c in range(5)]


def test_sampling_matches_reference_instances():
    # sample_routine's tallies, redrawn from its stream by one multinomial
    # of the reference law, clean last, after the float law is checked
    # against it.
    for p, trials, seed in ((0.08, 30_011, 37), (0.005, 10**6, 3), (0.3, 7, 5), (1e-7, (1 << 63) - 1, 11)):
        law = _reference_law(p)
        assert verdict_table().law(p).tolist() == pytest.approx([float(f) for f in law], rel=1e-14, abs=1e-300)
        rng = montecarlo._stream(seed, 0, "counts")
        rejected, err2, err1, both, _ = rng.multinomial(trials, [float(law[c]) for c in (0, 2, 3, 4, 1)]).tolist()
        s = sample_routine(p, trials, seed)
        assert (s.accepts, s.errors_out1, s.errors_out2, s.errors_both) == (
            trials - rejected, err1 + both, err2 + both, both), p


def test_category_law_is_the_derived_polynomials(polyset):
    # The float law folded from the verdict table gives a, u and u2: an
    # accepted output 1 errs under categories 3 and 4, output 2 under 2 and
    # 4, either under 2 to 4.
    for p in (0.0, 1e-9, 0.001, 0.005, 0.05, 0.1, 0.3, 0.49, 1.0):
        reject, clean, err2, err1, both = verdict_table().law(p).tolist()
        a, u, u2 = (float(f(p)) for f in (polyset.acceptance, polyset.marginal, polyset.either))
        got = (1 - reject, clean + err2 + err1 + both, err1 + both, err2 + both, err2 + err1 + both)
        assert max(abs(g - w) for g, w in zip(got, (a, a, u, u, u2))) <= 1e-14, p


def _pair_counts(bits: int) -> list[int]:
    """(errors, sx, sy, sxy) of a pattern whose pairs are bits 2j and 2j + 1."""
    x, y = bits & 0x155, bits >> 1 & 0x155
    return [bits.bit_count(), x.bit_count(), y.bit_count(), (x & y).bit_count()]


def test_input_classes_are_the_exact_law():
    # The class table read as Fractions (its cells are quarters): each
    # category's classes sum to its exact law, and their pair counts to the
    # sums over its patterns, so an instance has E[sx] = E[sy] = 5p and
    # E[sxy] = 5p^2; a pair outside any instance has E[sxy] = p^2, and an odd
    # input errs in no pair.  The float draw rows lie within 1e-14 of these,
    # each in increasing order.
    classes, cells, clean = montecarlo._input_classes()
    by_weight = [[[Fraction(0)] * 4 for _ in range(5)] for _ in range(11)]
    for bits, v in enumerate(exact_verdicts()):
        law = (1 - v.accept, v.accept - v.err1 - v.err2 + v.both, v.err2 - v.both, v.err1 - v.both, v.both)
        for c, f in enumerate(law):
            row = by_weight[bits.bit_count()][c]
            row[:] = [total + f * n for total, n in zip(row, _pair_counts(bits))]
    for p in (0.0, 1e-9, 0.005, 0.05, 0.3, 0.49, 1.0):
        q = Fraction(p)
        exact = [[Fraction(n) * q ** int(e) * (1 - q) ** int(k) for n, e, k in zip(cells[r], classes[:, 0], clean[r])]
                 for r in range(7)]
        sums = [[sum(w * int(f[i]) for w, f in zip(row, classes)) for i in range(4)] for row in exact]
        assert [sum(row) for row in exact[:5]] == _reference_law(p), p
        assert sums[:5] == [[sum(q**w * (1 - q) ** (10 - w) * by_weight[w][c][i] for w in range(11)) for i in range(4)]
                            for c in range(5)], p
        assert [sum(s[i] for s in sums[:5]) for i in range(4)] == [10 * q, 5 * q, 5 * q, 5 * q**2], p
        assert [sum(exact[5]), *sums[5]] == [1, 2 * q, q, q, q**2], p
        assert [sum(exact[6]), *sums[6]] == [1, q, 0, 0, 0], p
        assert [float(sum(row)) for row in exact[:5]] == pytest.approx(verdict_table().law(p).tolist(), rel=1e-14)
        ordered, pvals = montecarlo._input_law(p)
        for row, got, kinds in zip(exact, pvals, ordered):
            total = sum(row) or 1
            want = {tuple(f): float(w / total) for f, w in zip(classes.tolist(), row)}
            assert got.tolist() == pytest.approx([want[tuple(f)] for f in kinds.tolist()], rel=1e-14, abs=1e-300), p
            assert (np.diff(got) >= 0).all(), p


def _sum_moments(groups) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of a sum of independent groups, each given as
    (count, probabilities of its outcomes, their feature rows)."""
    mean, cov = 0.0, 0.0
    for count, prob, features in groups:
        m = prob @ features
        mean, cov = mean + count * m, cov + count * ((features - m).T * prob) @ (features - m)
    return mean, cov


def test_first_rounds_have_the_exact_moments():
    # Over 300 seeds, round 0's tally (errors, sx, sy, sxy) and round 1's
    # (states, errors, pairs, sx, sy, sxy) have their exact means to within
    # 4 sigma, and Cov(round-0 errors, round-1 states) its exact value: the
    # inputs of rejected instances err more.  Instance grouping makes round
    # 1's pairs the accepted instances' two outputs.  The exact values sum
    # the cell table's law over the instances, the pairs and the odd input
    # outside them.  k0 = 3007 leaves 7 inputs outside the instances and
    # k0 = 7 all of them; a 15-to-1 round 1 reads no input.
    p0, seeds = 0.05, 300
    bits = np.arange(4096) >> 2
    cat = verdict_table().cells
    err1, err2, both = cat >= 3, (cat == 2) | (cat == 4), cat == 4
    zeros = [0] * 6
    instance = (np.stack([_pair_counts(int(b)) for b in bits], axis=0),
                np.stack((2 * (cat > 0), 1 * err1 + err2, cat > 0, err1, err2, both), axis=1))
    pair = [_pair_counts(b) + zeros for b in range(4)]
    odd = [[b, 0, 0, 0] + zeros for b in range(2)]
    weight = np.bitwise_count(bits)
    groups = [(p0**weight * (1 - p0) ** (10 - weight) / 4, np.hstack(instance)),
              (np.array([(1 - p0) ** 2, p0 * (1 - p0), p0 * (1 - p0), p0**2]), np.array(pair)),
              (np.array([1 - p0, p0]), np.array(odd))]
    for seq, k0 in (("A", 3000), ("A", 3007), ("A", 7), ("B", 3001)):
        nb, rest = (k0 // 10, k0 % 10) if seq == "A" else (0, k0)
        mean, cov = _sum_moments([(n, *g) for n, g in zip((nb, rest // 2, rest % 2), groups)])
        runs = [run_blocked_pipeline(k0, seq, p0, seed=s, grouping="instance").tallies for s in range(seeds)]
        data = np.array([[r[0].errors, r[0].sx, r[0].sy, r[0].sxy, r[1].states, r[1].errors, r[1].pairs,
                          r[1].sx, r[1].sy, r[1].sxy] for r in runs], dtype=float)
        checked = 10 if seq == "A" else 4
        sigma = np.sqrt(np.diag(cov)[:checked] / seeds)
        assert (np.abs(data.mean(axis=0)[:checked] - mean[:checked]) <= 4 * sigma).all(), (seq, k0)
        if seq == "A" and nb:
            x, y = data[:, 0] - data[:, 0].mean(), data[:, 4] - data[:, 4].mean()
            spread = np.std(x * y, ddof=1) / math.sqrt(seeds)
            assert abs((x * y).sum() / (seeds - 1) - cov[0, 4]) <= 4 * spread, (seq, k0)
            assert cov[0, 4] < 0
    # At p0 = 0 and 1 every count is fixed.
    for p0 in (0.0, 1.0):
        for seq, k0 in itertools.product("AB", (7, 3000, 3007)):
            t = run_blocked_pipeline(k0, seq, p0, seed=1).tallies[0]
            assert (t.blocks, t.states, t.pairs) == (1, k0, k0 // 2), (seq, k0, p0)
            assert [t.errors, t.sx, t.sy, t.sxy] == [int(p0) * n for n in (k0, k0 // 2, k0 // 2, k0 // 2)], (seq, k0, p0)


_flag_rows = st.integers(0, 40).flatmap(
    lambda k: st.lists(st.booleans(), min_size=10 * k, max_size=10 * k).map(
        lambda flat: np.array(flat, dtype=bool).reshape(k, 10)))


@given(_flag_rows)
@example(np.zeros((0, 10), dtype=bool))
@example(np.ones((3, 10), dtype=bool))
@example(np.eye(10, dtype=bool))
def test_position_packing_equals_packbits(groups):
    instances, patterns = montecarlo._patterns(np.flatnonzero(groups))
    packed = np.packbits(groups, axis=1, bitorder="little").view("<u2")[:, 0]
    assert instances.tolist() == np.flatnonzero(packed).tolist()
    assert patterns.tolist() == packed[instances].tolist()


@pytest.mark.parametrize("grouping", ["blocked", "instance"])
def test_pipeline_matches_whole_block_reference(counted_blocks, grouping):
    for seq in ("AA", "BA", "AB", "AAA", "B"):
        for k0 in (25, 2003, 30_007):
            res = run_blocked_pipeline(k0, seq, 0.05, seed=31, grouping=grouping)
            tally0, rounds = _whole_block_pipeline(k0, seq, 0.05, 31, grouping)
            t = res.tallies[0]
            assert (t.blocks, t.states, t.errors, t.pairs, t.sx, t.sy, t.sxy) == tally0, (seq, k0)
            expected = [(r, len(b), np.flatnonzero(b).tolist()) for r, blocks in enumerate(rounds, 1) for b in blocks]
            assert counted_blocks() == expected, (seq, k0)
            assert [t.blocks for t in res.tallies[1:]] == [len(blocks) for blocks in rounds], (seq, k0)
            assert res.halted == (sum(map(len, rounds[-1])) == 0), (seq, k0)


def _pipeline_peak_bytes(k0: int, seq: str, grouping: str) -> int:
    run_blocked_pipeline(1000, seq, 0.02, seed=1)  # tables and plans are built outside
    tracemalloc.start()
    try:
        pipeline_report(run_blocked_pipeline(k0, seq, 0.02, seed=5, grouping=grouping))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pipeline_steps_are_sized_by_expected_errors(counted_blocks):
    chunk = montecarlo.SAMPLE_CHUNK
    assert [montecarlo._step(e) for e in (0.25, 1.0, 7.0)] == [chunk] * 3
    assert montecarlo._step(2**-10) == chunk << 8  # 2^13 expected errors
    assert montecarlo._step(1e-300) == 1 << 48  # within int64 for _Errors.take
    assert montecarlo._step(0.0) == montecarlo._step(math.nan) >= 1 << 63  # one step per block
    # Sparse errors: a step holds about SAMPLE_CHUNK / 4 expected errors, so
    # no block of these pipelines needs a second one.
    for seq in ("AA", "BA", "A"):
        for grouping in ("blocked", "instance"):
            run_blocked_pipeline(4 * 10**6, seq, 0.02, seed=3, grouping=grouping)
            blocks = counted_blocks(pieces=True)
            assert blocks and all(len(lengths) == 1 for *_, lengths in blocks), (seq, grouping)
    # Dense errors: steps of SAMPLE_CHUNK instances, as with a fixed step.
    for seq in ("AA", "BA", "A"):
        run_blocked_pipeline(4 * 10**6, seq, 0.3, seed=3)
        blocks = counted_blocks(pieces=True)
        steps = -(-(4 * 10**6 // parse_sequence(seq)[0].m) // chunk)
        assert all(len(lengths) == steps for r, *_, lengths in blocks if r == 1), seq
        assert max(n for *_, lengths in blocks for n in lengths) <= chunk, seq
    # Round 2 reads m inputs at round 1's nominal rate per instance.
    run_blocked_pipeline(4 * 10**7, "AA", 0.02, seed=3)
    blocks = counted_blocks(pieces=True)
    step = montecarlo._step(10 * evaluate_sequence(parse_sequence("AA"), 0.02).rounds[0].p_out)
    pieces = [len(lengths) for r, *_, lengths in blocks if r == 2]
    assert pieces == [-(-(n // 10) // step) for r, n, *_ in blocks if r == 1 for _ in range(2)]
    assert max(pieces) > 1


@pytest.mark.parametrize("grouping", ["blocked", "instance"])
def test_pipeline_memory_is_about_a_byte_per_state(grouping):
    # Only counts and the error positions of outputs that a 10-to-2 round
    # reads next (under 0.01 B/state at p0 = 0.02) are kept, beside a
    # per-step working set of about SAMPLE_CHUNK / 4 expected errors; other
    # rounds' outputs are counted as they are produced.
    peaks = {}
    for seq in ("AA", "BA", "A", "AB", "AAB"):
        small = _pipeline_peak_bytes(4 * 10**6, seq, grouping)
        peaks[seq] = large = _pipeline_peak_bytes(4 * 10**7, seq, grouping)
        assert small <= 2 * 4 * 10**6, seq
        assert (large - small) / (36 * 10**6) <= 0.03, seq
    # A 15-to-1 round reads no positions, so none are kept for it.
    assert (peaks["AB"] - peaks["A"]) / (4 * 10**7) <= 0.001


def _tally_reference(block: np.ndarray) -> tuple[int, ...]:
    """(states, errors, pairs, sx, sy, sxy) of one bool block."""
    k = len(block) // 2
    x, y = block[: 2 * k : 2], block[1 : 2 * k : 2]
    return len(block), int(block.sum()), k, int(x.sum()), int(y.sum()), int((x & y).sum())


@given(st.lists(st.booleans(), max_size=60), st.lists(st.integers(0, 61), max_size=6))
@example([True] * 7, [1, 2, 3, 5])  # odd pieces in a row
@example([], [0, 0])
def test_block_counts_its_pieces_like_the_whole_block(states, cuts):
    block = np.array(states, dtype=bool)
    tally = RoundTally(1, 0.1)
    counted = montecarlo._Block(tally, keep=True)
    pieces = np.split(block, sorted(cuts))
    for piece in pieces:
        counted.append(len(piece), np.flatnonzero(piece))
    counted.close()
    assert (tally.blocks, tally.states, tally.errors, tally.pairs, tally.sx, tally.sy, tally.sxy) == (
        1, *_tally_reference(block))
    # Python ints, not NumPy scalars, whose products could overflow.
    assert all(type(getattr(tally, name)) is int for name in RoundTally.__slots__[2:])
    # The next round reads the kept block back in other cuts.
    pieces = np.split(block, sorted(cut // 2 for cut in cuts))
    assert [counted.take(len(piece)).tolist() for piece in pieces] == [np.flatnonzero(p).tolist() for p in pieces]


def _corrcoef_reference(blocks: list[np.ndarray]) -> tuple[int, float, bool]:
    """(pairs, float Pearson r of adjacent pairs, degenerate) by np.corrcoef."""
    x = np.concatenate([b[: len(b) // 2 * 2 : 2] for b in blocks] or [[]]).astype(float)
    y = np.concatenate([b[1 : len(b) // 2 * 2 : 2] for b in blocks] or [[]]).astype(float)
    if len(x) < 8 or x.std() == 0 or y.std() == 0:
        return len(x), 0.0, True
    return len(x), float(np.corrcoef(x, y)[0, 1]), False


_uniform_block = st.tuples(st.integers(0, 61), st.booleans()).map(lambda kb: [kb[1]] * kb[0])
_bool_blocks = st.lists(st.lists(st.booleans(), max_size=61) | _uniform_block, max_size=4)


@settings(max_examples=200)
@given(_bool_blocks)
@example([[False] * 40])
@example([[True] * 41, [True] * 9])
@example([[True, False] * 10])  # x all ones, y all zeros
@example([[True, True, False, False] * 5 + [True]])  # perfectly correlated
def test_count_correlation_matches_corrcoef(raw_blocks):
    blocks = [np.array(b, dtype=bool) for b in raw_blocks]
    tally = RoundTally(0, 0.1)
    for block in blocks:
        positions = np.flatnonzero(block)
        cut = len(positions) // 3  # each block counted as two runs of errors
        tally.count(positions[:cut])
        tally.count(positions[cut:], positions[cut - 1] if cut else -1)
        tally.close(len(block), positions[-1] if len(positions) else -1)
    report = independence_check(tally)
    pairs, r, degenerate = _corrcoef_reference(blocks)
    assert (report.pairs, report.degenerate) == (pairs, degenerate)
    # Near r = 0 the reference's own rounding is absolute, not relative.
    assert report.correlation == pytest.approx(r, rel=1e-12, abs=1e-15)
    if not degenerate:
        zr = math.atanh(max(min(r, 1 - 1e-12), -1 + 1e-12))
        half = montecarlo.CORRELATION_Z / math.sqrt(pairs - 3)
        lo, hi = math.tanh(zr - half), math.tanh(zr + half)
        assert [report.ci_low, report.ci_high] == pytest.approx([lo, hi], rel=1e-12, abs=1e-15)
        assert report.contains_zero() == (lo <= 0.0 <= hi)
    else:
        assert report.contains_zero()


def test_numpy_integer_counts_give_the_same_correlation():
    # Counts whose products pass 2**63: as np.int64 they would overflow
    # before the shift, so independence_check reads them as Python ints.
    python, numpys = RoundTally(1, 0.1), RoundTally(1, 0.1)
    for name, value in {"pairs": 3 * 10**9, "sx": 10**9, "sy": 9 * 10**8, "sxy": 4 * 10**8}.items():
        setattr(python, name, value)
        setattr(numpys, name, np.int64(value))
    report = independence_check(python)
    assert not report.degenerate and 0 < report.correlation < 1
    assert independence_check(numpys) == report


def _sample_peak_bytes(trials: int) -> int:
    sample_routine(0.05, 10, seed=1)  # the verdict table is built outside
    tracemalloc.start()
    try:
        sample_routine(0.05, trials, seed=3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_memory_does_not_grow_with_trials():
    # The draw holds the law of the verdict table's 4096 cells, whatever
    # the number of trials.
    for trials in (10**5, 10**18):
        assert _sample_peak_bytes(trials) <= 256 * 1024, trials


@given(st.floats(0, 1))
@example(0)
@example(1)
@example(5e-324)
def test_report_polynomials_are_the_derived_ones(polyset, p):
    # The float coefficients, evaluated by the same Horner steps, give the
    # floats that the exact polynomials give.
    exact = (polyset.acceptance, polyset.marginal, polyset.either)
    for coefficients, poly in zip(montecarlo._report_polynomials(), exact):
        assert horner(coefficients, p) == float(poly(p)), (poly, p)


def test_three_sigma_agreement_at_five_percent(polyset):
    stats = sample_routine(0.05, 10**6, seed=7)
    report = stats.report()
    assert report["pass"], report["three_sigma"]
    # Cross-check one number explicitly: acceptance within 3 sigma.
    a = float(polyset.acceptance(0.05))
    sigma = math.sqrt(a * (1 - a) / stats.trials)
    assert abs(stats.accepts / stats.trials - a) <= 3 * sigma


def test_verdict_table_consistency():
    # Every cell pattern << 2 | q holds the category the exact Fraction law
    # gives at u = q/4: every threshold is a multiple of 1/4, so no
    # category changes inside [q/4, (q+1)/4).
    table = verdict_table()
    assert table.cells.shape == (4096,) and table.cells.dtype == np.uint8
    expected = [sum(t <= Fraction(q, 4) for t in row) for row in _reference_table() for q in range(4)]
    assert table.cells.tolist() == expected
    # Pattern 0 is always accepted clean, whatever its draw.
    assert table.cells[:4].tolist() == [1, 1, 1, 1]


def test_raw_words_give_the_uniforms_quarter():
    # Generator.random makes u = (w >> 11) 2**-53 from the raw word w, so
    # floor(4 u) is w >> 62, and random_raw consumes the words random does.
    # Each stream switches between the two calls, so a call that took other
    # words, or kept some back, would shift every later comparison.
    first, second = (montecarlo._stream(9, 1, "category") for _ in range(2))
    for i, n in enumerate((1, 3, 0, 1000, 7, 4, 5000, 2)):
        raw, uniform = (first, second) if i % 2 else (second, first)
        quarters = raw.bit_generator.random_raw(n) >> np.uint64(62)
        assert quarters.tolist() == np.floor(4 * uniform.random(n)).astype(int).tolist(), n


def test_verdicts_off_the_quarter_grid_are_refused(monkeypatch):
    # An acceptance of 1/3, and errors of 1/8 under an acceptance of 1/2,
    # whose cumulative law reaches 7/8.
    for bad in (ExactVerdict(Fraction(1, 3), *[Fraction(0)] * 4),
                ExactVerdict(Fraction(1, 2), *[Fraction(1, 8)] * 3, Fraction(1, 8))):
        verdicts = list(exact_verdicts())
        verdicts[37] = bad
        monkeypatch.setattr(montecarlo, "exact_verdicts", lambda: verdicts)
        with pytest.raises(ValueError, match="pattern 37 is not on the 1/4 grid"):
            montecarlo.verdict_table.__wrapped__()


def test_fifteen_to_one_accepted_count_is_binomial():
    # Over 2,000 seeds, a one-block B round's accepted count has the mean
    # and variance of Binomial(nb, a), each to within 5 sigma.  The standard
    # error of the sample variance uses the binomial's fourth central moment.
    nb, p0, seeds = 60, 0.03, 2000
    a = evaluate_sequence(parse_sequence("B"), p0).rounds[0].acceptance
    counts = np.array([run_blocked_pipeline(15 * nb, "B", p0, seed=s).tallies[1].states for s in range(seeds)])
    var = nb * a * (1 - a)
    mu4 = var * (1 + 3 * (nb - 2) * a * (1 - a))
    assert abs(counts.mean() - nb * a) <= 5 * math.sqrt(var / seeds)
    assert abs(counts.var(ddof=1) - var) <= 5 * math.sqrt((mu4 - var**2 * (seeds - 3) / (seeds - 1)) / seeds)


def test_pipeline_noise_free(counted_blocks):
    res = run_blocked_pipeline(10_000, "A", 0.0, seed=2)
    final = res.tallies[-1]
    assert final.blocks == 2
    assert [(n, pos) for r, n, pos in counted_blocks() if r == 1] == [(1000, []), (1000, [])]
    assert final.error_rate() == 0.0
    report = independence_check(final)
    assert report.degenerate and report.correlation == 0.0


def test_pipeline_block_sizes_meet_corollary_bound(polyset):
    k0 = 10**6
    res = run_blocked_pipeline(k0, "A", 0.01, seed=3)
    instances = k0 // 10
    a = float(polyset.acceptance(0.01))
    mean_size = res.tallies[-1].states / res.tallies[-1].blocks
    sigma = math.sqrt(instances * a * (1 - a))
    assert abs(mean_size - a * instances) <= 3 * sigma
    # The guaranteed lower bound a(p) (K/m - 1) constrains the expectation;
    # the realization must sit within 3 sigma of it or above.
    assert mean_size >= a * (k0 / 10 - 1) - 3 * sigma
    # Expected total output count across the n = 2 blocks.
    total = res.tallies[-1].states
    assert total >= a * 2 * (k0 / 10 - 1) - 3 * 2 * sigma


def test_pipeline_error_rates_converge():
    # Measurable sequences at p0 = 0.05, checked at 3 sigma.
    cases = [("A", 10**6, 8), ("AA", 10**6, 9), ("B", 10**6, 10), ("BA", 4 * 10**6, 11)]
    for seq, k0, seed in cases:
        res = run_blocked_pipeline(k0, seq, 0.05, seed=seed)
        final = res.tallies[-1]
        n = final.states
        p_pred = final.nominal_p
        sigma = math.sqrt(p_pred * (1 - p_pred) / n)
        assert abs(final.error_rate() - p_pred) <= 3 * sigma, (seq, final.error_rate(), p_pred)


def test_pipeline_nominal_rates_are_the_planners():
    # Each round's nominal rate is the planner's output error for that round,
    # the very float, and the report's final values are the plan's.
    for seq in ("AA", "BA", "A", "B"):
        res = run_blocked_pipeline(30_000, seq, 0.05, seed=19)
        plan = evaluate_sequence(parse_sequence(seq), 0.05)
        assert not res.halted, seq
        assert [t.nominal_p for t in res.tallies] == [0.05] + [r.p_out for r in plan.rounds]
        report = pipeline_report(res)
        assert (report["planner_final_error"], report["planner_final_cost"]) == (
            plan.final_error,
            plan.final_cost,
        )


def test_blocked_outputs_uncorrelated_but_instance_grouping_is_not(polyset):
    res = run_blocked_pipeline(10**6, "A", 0.05, seed=12)
    blocked = independence_check(res.tallies[-1])
    assert blocked.contains_zero()

    res_bad = run_blocked_pipeline(10**6, "A", 0.05, seed=12, grouping="instance")
    bad = independence_check(res_bad.tallies[-1])
    assert not bad.contains_zero()
    assert bad.ci_low > 0
    # The expected pair correlation from the exact polynomials.
    a = float(polyset.acceptance(0.05))
    u = float(polyset.marginal(0.05))
    u2 = float(polyset.either(0.05))
    e_cond = u / a
    both_cond = (2 * u - u2) / a
    rho = (both_cond - e_cond**2) / (e_cond * (1 - e_cond))
    assert bad.correlation == pytest.approx(rho, abs=0.05)


def test_golden_case_correlations():
    # tests/golden/pipeline.json's run, and the same run grouped by instance.
    blocked, instance = (
        independence_check(run_blocked_pipeline(2000, "A", 0.05, seed=3, grouping=g).tallies[1])
        for g in ("blocked", "instance"))
    assert blocked.contains_zero() and not instance.contains_zero()


def test_pipeline_halts_when_exhausted():
    res = run_blocked_pipeline(25, "AA", 0.05, seed=13)
    # 25 states give 2 instances, whose outputs cannot fill a second round.
    assert res.halted
    assert res.tallies[-1].states == 0
    # Blocks too short for one instance yield no blocks at all.
    assert res.tallies[-1].blocks == 0


def test_pipeline_report_shape():
    res = run_blocked_pipeline(50_000, "AA", 0.05, seed=17)
    report = pipeline_report(res)
    assert report["sequence"] == "AA"
    assert len(report["rounds"]) == 3
    assert report["rounds"][0]["states"] == 50_000
    for entry in report["rounds"]:
        assert 0 <= entry["nominal_p"] < 0.5
