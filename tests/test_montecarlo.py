"""Seeded Monte Carlo runs against the exact predictions."""

import math
import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from c4distill import montecarlo
from c4distill.enumeration import exact_verdicts
from c4distill.montecarlo import (
    RoundTally,
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
# errors_out2, errors_both), recorded with the packbits-and-cumulative-row
# sampler that preceded the word-packing kernel.  The trial counts straddle
# the chunk size at recording time, 2**16.
_PINNED_TALLIES = [
    (0, 1, 1, 0, 0, 0),
    (0, 65536, 65536, 0, 0, 0),
    (0, 65537, 65537, 0, 0, 0),
    (0, 200003, 200003, 0, 0, 0),
    (0.005, 1, 1, 0, 0, 0),
    (0.005, 65536, 62209, 16, 16, 10),
    (0.005, 65537, 62210, 16, 16, 10),
    (0.005, 200003, 190229, 43, 42, 27),
    (0.05, 1, 1, 0, 0, 0),
    (0.05, 65536, 41064, 1048, 1074, 590),
    (0.05, 65537, 41065, 1048, 1074, 590),
    (0.05, 200003, 124858, 3300, 3261, 1844),
    (0.1, 1, 0, 0, 0, 0),
    (0.1, 65536, 27912, 3127, 3279, 1761),
    (0.1, 65537, 27912, 3127, 3279, 1761),
    (0.1, 200003, 84835, 9605, 9688, 5324),
    (0.49, 1, 0, 0, 0, 0),
    (0.49, 65536, 16316, 8057, 8158, 4083),
    (0.49, 65537, 16317, 8058, 8159, 4084),
    (0.49, 200003, 50285, 25240, 25183, 12641),
]


def test_sample_tallies_are_pinned():
    for p, trials, *counts in _PINNED_TALLIES:
        s = sample_routine(p, trials, seed=2024)
        assert [s.accepts, s.errors_out1, s.errors_out2, s.errors_both] == counts, (p, trials)


def test_sample_tallies_do_not_depend_on_chunking(monkeypatch):
    # Recorded like _PINNED_TALLIES, at seed 23.
    pinned = {0.05: (10_007, 6255, 159, 180, 95), 0.2: (3001, 810, 307, 295, 150)}
    for chunk in (montecarlo.SAMPLE_CHUNK, 1, 7, 1000):  # none divides the trial counts
        monkeypatch.setattr(montecarlo, "SAMPLE_CHUNK", chunk)
        for p, (trials, *counts) in pinned.items():
            s = sample_routine(p, trials, seed=23)
            assert [s.accepts, s.errors_out1, s.errors_out2, s.errors_both] == counts, (chunk, p)


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
    assert run_blocked_pipeline(1, "A", 0.0, seed=1).halted


def test_seeds_outside_64_bits_are_refused():
    # Masking would alias them onto the streams of another seed.
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError):
            sample_routine(0.05, 10, seed=seed)
        with pytest.raises(ValueError):
            run_blocked_pipeline(100, "A", 0.05, seed=seed)
    assert sample_routine(0.05, 10, seed=(1 << 64) - 1).trials == 10


@pytest.fixture
def counted_blocks(monkeypatch):
    """Calls return the (round, state bits) of each block the pipelines
    since the last call have produced, in order, and forget them."""
    log: list[tuple[int, list[bytes]]] = []

    class RecordingBlock(montecarlo._Block):  # one per block, counted into its round
        def __init__(self, tally, keep):
            super().__init__(tally, keep)
            self.bits: list[bytes] = []
            log.append((tally.round_index, self.bits))

        def append(self, piece):
            self.bits.append(piece.tobytes())  # a copy: buffers may be reused
            super().append(piece)

    monkeypatch.setattr(montecarlo, "_Block", RecordingBlock)

    def blocks() -> list[tuple[int, bytes]]:
        out = [(round_index, b"".join(bits)) for round_index, bits in log]
        log.clear()
        return out

    return blocks


@pytest.mark.parametrize("grouping", ["blocked", "instance"])
def test_pipeline_does_not_depend_on_chunking(monkeypatch, counted_blocks, grouping):
    def run(seq):
        res = run_blocked_pipeline(30_007, seq, 0.05, seed=29, grouping=grouping)
        blocks = counted_blocks()
        # Each state is counted once, into its own round's tally.
        for tally in res.tallies:
            mine = [bits for r, bits in blocks if r == tally.round_index]
            assert (len(mine), sum(map(len, mine))) == (tally.blocks, tally.states)
        return pipeline_report(res), blocks

    sequences = ("AA", "BA", "A", "B")
    whole = {seq: run(seq) for seq in sequences}  # one chunk per draw
    # Round 1 has a non-degenerate correlation, so the reports compare it too.
    assert all(whole[seq][0]["rounds"][1]["within_block_correlation"]["value"] for seq in sequences)
    for chunk in (1, 7, 777):  # none divides the state or instance counts
        monkeypatch.setattr(montecarlo, "SAMPLE_CHUNK", chunk)
        for seq in sequences:
            assert run(seq) == whole[seq], (seq, chunk)


@cache
def _reference_table() -> tuple[np.ndarray, np.ndarray]:
    """(accept, joint_cum) from the exact verdicts: each pattern's acceptance
    and its (1024, 4) conditional joint output distribution, cumulative over
    (clean, err2, err1, both)."""
    accept, joint = np.zeros(1024), np.zeros((1024, 4))
    for bits, v in enumerate(exact_verdicts()):
        acc, err1, err2, both, _ = v.as_floats()
        accept[bits] = acc
        if acc > 0:
            joint[bits] = [(acc - err1 - err2 + both) / acc, (err2 - both) / acc, (err1 - both) / acc, both / acc]
    return accept, np.cumsum(joint, axis=1)


def _reference_pack(groups: np.ndarray) -> np.ndarray:
    """The 10-bit pattern of each row of a (k, 10) bool array, column j as
    bit j, by np.packbits."""
    return np.packbits(groups, axis=1, bitorder="little").view("<u2")[:, 0]


def _reference_instances(groups, acc, joint) -> tuple[np.ndarray, np.ndarray]:
    """The accepted 10-to-2 instances' (output-1, output-2) errors, each
    instance's joint category found by comparing its draw with its
    pattern's whole cumulative row."""
    accept, joint_cum = _reference_table()
    patterns = _reference_pack(groups)
    accepted = acc.random(len(patterns)) < accept[patterns]
    cum = joint_cum[patterns[accepted]]
    cat = (joint.random(len(patterns))[accepted][:, None] > cum[:, :3]).sum(axis=1)
    return (cat == 2) | (cat == 3), (cat == 1) | (cat == 3)


def _whole_block_pipeline(k0, seq, p0, seed, grouping) -> list[list[np.ndarray]]:
    """Every round's blocks, each drawn and kept whole: the pipeline's
    streams and regrouping, written without pieces, tallies or the
    sampling kernel."""
    models = parse_sequence(seq)
    rounds = [[montecarlo._stream(seed, 0, "inputs").random(k0) < p0]]
    for l, (model, nominal) in enumerate(zip(models, evaluate_sequence(models, p0).rounds), 1):
        acc, joint, err = (montecarlo._stream(seed, l, p) for p in ("accept", "joint", "model_err"))
        blocks = []
        for block in rounds[-1]:
            nb = len(block) // model.m
            if nb == 0:
                continue
            if model.name == "A":
                err1, err2 = _reference_instances(block[: nb * 10].reshape(nb, 10), acc, joint)
                blocks += [err1, err2] if grouping == "blocked" else [np.stack((err1, err2), 1).ravel()]
            else:
                accepted = acc.random(nb) < nominal.acceptance
                blocks.append((err.random(nb) < nominal.p_out)[accepted])
        rounds.append(blocks)
        if not sum(map(len, blocks)):
            break
    return rounds


def test_sampling_matches_reference_instances():
    # sample_routine's tallies, recomputed from the streams by the reference.
    trials, p, seed = 30_011, 0.08, 37
    groups = montecarlo._stream(seed, 0, "patterns").random((trials, 10)) < p
    acc, joint = (montecarlo._stream(seed, 0, purpose) for purpose in ("accept", "joint"))
    err1, err2 = _reference_instances(groups, acc, joint)
    s = sample_routine(p, trials, seed)
    assert (s.accepts, s.errors_out1, s.errors_out2, s.errors_both) == (
        len(err1), err1.sum(), err2.sum(), (err1 & err2).sum())


_flag_rows = st.integers(0, 40).flatmap(
    lambda k: st.lists(st.booleans(), min_size=10 * k, max_size=10 * k).map(
        lambda flat: np.array(flat, dtype=bool).reshape(k, 10)))


@given(st.lists(_flag_rows, min_size=1, max_size=3), st.integers(0, 9))
@example([np.zeros((0, 10), dtype=bool)], 0)
@example([np.ones((1, 10), dtype=bool)], 0)
@example([np.ones((40, 10), dtype=bool), np.eye(10, dtype=bool)], 3)
def test_word_packing_equals_packbits(batches, offset):
    # One kernel packs several batches in turn, as a pipeline round does,
    # and each batch is also read as the pipeline's reshaped view of a
    # block that starts ``offset`` states into a run.
    kernel = montecarlo._TenToTwo(40)
    for groups in batches:
        k = len(groups)
        run = np.concatenate((np.zeros(offset, dtype=bool), groups.ravel()))
        for view in (groups, run[offset:].reshape(k, 10)):
            kernel.flags[:k] = view
            assert np.array_equal(kernel.patterns(k), _reference_pack(view))


@pytest.mark.parametrize("grouping", ["blocked", "instance"])
def test_pipeline_matches_whole_block_reference(counted_blocks, grouping):
    for seq in ("AA", "BA", "AB", "AAA", "B"):
        for k0 in (25, 2003, 30_007):
            res = run_blocked_pipeline(k0, seq, 0.05, seed=31, grouping=grouping)
            rounds = _whole_block_pipeline(k0, seq, 0.05, 31, grouping)
            expected = [(r, b.tobytes()) for r, blocks in enumerate(rounds) for b in blocks]
            assert counted_blocks() == expected, (seq, k0)
            assert [t.blocks for t in res.tallies] == [len(blocks) for blocks in rounds], (seq, k0)
            assert res.halted == (sum(map(len, rounds[-1])) == 0), (seq, k0)


def _pipeline_peak_bytes(k0: int, seq: str, grouping: str) -> int:
    run_blocked_pipeline(1000, seq, 0.02, seed=1)  # tables and plans are built outside
    tracemalloc.start()
    try:
        pipeline_report(run_blocked_pipeline(k0, seq, 0.02, seed=5, grouping=grouping))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("grouping", ["blocked", "instance"])
def test_pipeline_memory_is_about_a_byte_per_state(monkeypatch, grouping):
    # Only counts and the first round's outputs (0.05-0.2 B/state at
    # p0 = 0.02) are kept, beside a fixed per-chunk working set; the last
    # round's outputs are counted as they are produced, so a one-round
    # pipeline keeps no states at all.
    for seq in ("AA", "BA", "A"):
        assert _pipeline_peak_bytes(4 * 10**6, seq, grouping) <= 2 * 4 * 10**6, seq
    # With smaller chunks both runs take many pieces, even in a 15-to-1
    # round, and the working set cancels in the growth.
    monkeypatch.setattr(montecarlo, "SAMPLE_CHUNK", 1 << 13)
    for seq, bound in (("AA", 0.25), ("BA", 0.25), ("A", 0.05)):
        small = _pipeline_peak_bytes(10**6, seq, grouping)
        large = _pipeline_peak_bytes(4 * 10**6, seq, grouping)
        assert (large - small) / (3 * 10**6) <= bound, seq


@given(st.lists(st.booleans(), max_size=60), st.lists(st.integers(0, 61), max_size=6))
@example([True] * 7, [1, 2, 3, 5])  # odd pieces in a row
@example([], [0, 0])
def test_block_counts_its_pieces_like_the_whole_block(states, cuts):
    block = np.array(states, dtype=bool)
    whole = RoundTally(1, 0.1, blocks=1)
    whole.count(block)
    tally = RoundTally(1, 0.1, blocks=1)
    counted = montecarlo._Block(tally, keep=True)
    pieces = np.split(block, sorted(cuts))
    for piece in pieces:
        counted.append(piece)
    counted.close()
    assert tally == whole
    assert counted.pieces == pieces  # the very arrays, kept in order


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
    tally = RoundTally(0, 0.1, blocks=len(blocks))
    for block in blocks:
        cut = len(block) // 4 * 2  # each block counted as two runs, the first even
        tally.count(block[:cut])
        tally.count(block[cut:])
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


def _sample_peak_bytes(trials: int) -> int:
    sample_routine(0.05, 10, seed=1)  # the verdict table is built outside
    tracemalloc.start()
    try:
        sample_routine(0.05, trials, seed=3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_memory_does_not_grow_with_trials(monkeypatch):
    for chunk in (montecarlo.SAMPLE_CHUNK, 1 << 14):
        monkeypatch.setattr(montecarlo, "SAMPLE_CHUNK", chunk)
        small, large = _sample_peak_bytes(10**5), _sample_peak_bytes(10**6)
        assert large / 10**6 <= small / 10**5, chunk
    # Once both runs take several chunks, the peak itself stays put.
    assert large <= 1.5 * small


def test_three_sigma_agreement_at_five_percent(polyset):
    stats = sample_routine(0.05, 10**6, seed=7)
    report = stats.report()
    assert report["pass"], report["three_sigma"]
    # Cross-check one number explicitly: acceptance within 3 sigma.
    a = float(polyset.acceptance(0.05))
    sigma = math.sqrt(a * (1 - a) / stats.trials)
    assert abs(stats.accepts / stats.trials - a) <= 3 * sigma


def test_verdict_table_consistency():
    table = verdict_table()
    accept, joint_cum = _reference_table()
    assert np.array_equal(table.accept, accept)
    # The thresholds are the first three columns of the cumulative rows.
    assert table.thresholds.shape == (3, 1024) and table.thresholds.flags.c_contiguous
    assert np.array_equal(table.thresholds, joint_cum[:, :3].T)
    # Row sums of the conditional joint reach 1 wherever acceptance > 0.
    for bits in (0, 3, 1023, 0b1100):
        if accept[bits] > 0:
            assert joint_cum[bits, 3] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(table.thresholds, axis=0) >= 0)


def test_pipeline_noise_free(counted_blocks):
    res = run_blocked_pipeline(10_000, "A", 0.0, seed=2)
    final = res.tallies[-1]
    assert final.blocks == 2
    assert [len(bits) for r, bits in counted_blocks() if r == 1] == [1000, 1000]
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
    res = run_blocked_pipeline(10**6, "A", 0.05, seed=11)
    blocked = independence_check(res.tallies[-1])
    assert blocked.contains_zero()

    res_bad = run_blocked_pipeline(10**6, "A", 0.05, seed=11, grouping="instance")
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
