"""Seeded Monte Carlo runs against the exact predictions."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from c4distill import montecarlo
from c4distill.montecarlo import (
    BlockEnsemble,
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


def test_sample_tallies_do_not_depend_on_chunking(monkeypatch):
    whole = sample_routine(0.05, 10_007, seed=23)  # one chunk
    assert whole.errors_both > 0
    for chunk in (1, 7, 1000):  # none divides the trial count
        monkeypatch.setattr(montecarlo, "SAMPLE_CHUNK", chunk)
        assert sample_routine(0.05, 10_007, seed=23) == whole, chunk


def test_seeds_outside_64_bits_are_refused():
    # Masking would alias them onto the streams of another seed.
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError):
            sample_routine(0.05, 10, seed=seed)
        with pytest.raises(ValueError):
            run_blocked_pipeline(100, "A", 0.05, seed=seed)
    assert sample_routine(0.05, 10, seed=(1 << 64) - 1).trials == 10


@pytest.mark.parametrize("grouping", ["blocked", "instance"])
def test_pipeline_does_not_depend_on_chunking(monkeypatch, grouping):
    def run(seq):
        res = run_blocked_pipeline(30_007, seq, 0.05, seed=29, grouping=grouping)
        return pipeline_report(res), [b.tobytes() for e in res.ensembles for b in e.blocks]

    sequences = ("AA", "BA", "A", "B")
    whole = {seq: run(seq) for seq in sequences}  # one chunk per draw
    # Round 1 has a non-degenerate correlation, so the reports compare it too.
    assert all(whole[seq][0]["rounds"][1]["within_block_correlation"]["value"] for seq in sequences)
    for chunk in (1, 7, 777):  # none divides the state or instance counts
        monkeypatch.setattr(montecarlo, "SAMPLE_CHUNK", chunk)
        for seq in sequences:
            assert run(seq) == whole[seq], (seq, chunk)


def _pipeline_peak_bytes(k0: int, seq: str, grouping: str) -> int:
    run_blocked_pipeline(1000, seq, 0.02, seed=1)  # tables and plans are built outside
    tracemalloc.start()
    try:
        pipeline_report(run_blocked_pipeline(k0, seq, 0.02, seed=5, grouping=grouping))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("grouping", ["blocked", "instance"])
def test_pipeline_memory_is_about_a_byte_per_state(grouping):
    for seq in ("AA", "BA"):
        # The inputs alone take 1 B/state; the rest is a per-chunk working set.
        assert _pipeline_peak_bytes(4 * 10**6, seq, grouping) <= 3 * 4 * 10**6, seq
        small = _pipeline_peak_bytes(10**5, seq, grouping)
        large = _pipeline_peak_bytes(10**6, seq, grouping)
        assert large / 10**6 <= small / 10**5, seq


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
    report = independence_check(BlockEnsemble(0, 0.1, blocks))
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


def test_verdict_table_consistency(polyset):
    table = verdict_table()
    # Row sums of the conditional joint reach 1 wherever acceptance > 0.
    for bits in (0, 3, 1023, 0b1100):
        if table.accept[bits] > 0:
            assert table.joint_cum[bits, 3] == pytest.approx(1.0, abs=1e-12)


def test_pipeline_noise_free():
    res = run_blocked_pipeline(10_000, "A", 0.0, seed=2)
    final = res.final
    assert len(final.blocks) == 2
    assert all(len(b) == 1000 for b in final.blocks)
    assert final.error_rate() == 0.0
    report = independence_check(final)
    assert report.degenerate and report.correlation == 0.0


def test_pipeline_block_sizes_meet_corollary_bound(polyset):
    k0 = 10**6
    res = run_blocked_pipeline(k0, "A", 0.01, seed=3)
    instances = k0 // 10
    a = float(polyset.acceptance(0.01))
    mean_size = res.final.total_states() / len(res.final.blocks)
    sigma = math.sqrt(instances * a * (1 - a))
    assert abs(mean_size - a * instances) <= 3 * sigma
    # The guaranteed lower bound a(p) (K/m - 1) constrains the expectation;
    # the realization must sit within 3 sigma of it or above.
    assert mean_size >= a * (k0 / 10 - 1) - 3 * sigma
    # Expected total output count across the n = 2 blocks.
    total = res.final.total_states()
    assert total >= a * 2 * (k0 / 10 - 1) - 3 * 2 * sigma


def test_pipeline_error_rates_converge():
    # Measurable sequences at p0 = 0.05, checked at 3 sigma.
    cases = [("A", 10**6, 8), ("AA", 10**6, 9), ("B", 10**6, 10), ("BA", 4 * 10**6, 11)]
    for seq, k0, seed in cases:
        res = run_blocked_pipeline(k0, seq, 0.05, seed=seed)
        final = res.final
        n = final.total_states()
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
        assert [e.nominal_p for e in res.ensembles] == [0.05] + [r.p_out for r in plan.rounds]
        report = pipeline_report(res)
        assert (report["planner_final_error"], report["planner_final_cost"]) == (
            plan.final_error,
            plan.final_cost,
        )


def test_blocked_outputs_uncorrelated_but_instance_grouping_is_not(polyset):
    res = run_blocked_pipeline(10**6, "A", 0.05, seed=11)
    blocked = independence_check(res.final)
    assert blocked.contains_zero()

    res_bad = run_blocked_pipeline(10**6, "A", 0.05, seed=11, grouping="instance")
    bad = independence_check(res_bad.final)
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
    assert res.final.total_states() == 0


def test_pipeline_report_shape():
    res = run_blocked_pipeline(50_000, "AA", 0.05, seed=17)
    report = pipeline_report(res)
    assert report["sequence"] == "AA"
    assert len(report["rounds"]) == 3
    assert report["rounds"][0]["states"] == 50_000
    for entry in report["rounds"]:
        assert 0 <= entry["nominal_p"] < 0.5
