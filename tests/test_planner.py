"""Sequence planner: recursion, thresholds, search, exponents, exports.

The multi-round oracle here is fully independent of the planner's float
recursion: it iterates the published coefficient lists with Fraction
arithmetic, which is exact at every depth.  The search's oracle is the
exhaustive loop that evaluates every sequence with ``evaluate_sequence``;
the float recursion, and the plans the search picks with it, are measured
against the same recursion and search at 60 digits in ``decimal``.
"""

import contextlib
import decimal
import io
import itertools
import json
import math
from fractions import Fraction

import pytest
from exact_reference import poly_power, poly_product, poly_scaled, poly_sum, sturm_signs_below_half
from hypothesis import given, settings
from hypothesis import strategies as st

import c4distill.planner as planner
from c4distill.exactalg import ExactPolynomial
from c4distill.planner import (
    TABLE_SEQUENCES,
    PlannerGoal,
    SearchResult,
    asymptotic_exponent,
    best_sequence,
    curve_crossings,
    error_curves,
    evaluate_sequence,
    improvement_factor,
    iterate_closed_form,
    parse_sequence,
    shortest_b_only,
    step_cost_curve,
    table_rows,
    threshold,
)
from c4distill.routines import RoutineModel, VanishingDenominator

# Published comparison-table anchors at p0 = 0.01: cost (one decimal) for
# all ten sequences, error (one significant figure) where printed, and the
# improvement factors quoted for AA, BA and B.
PUBLISHED_COSTS = {
    "A": 5.5,
    "B": 17.4,
    "AA": 27.9,
    "BA": 87.2,
    "AAA": 139.3,
    "BB": 261.7,
    "BAA": 436.2,
    "AAAA": 696.6,
    "BBA": 1308.7,
    "BAAA": 2180.8,
}
PUBLISHED_ERRORS = {
    "A": 9e-4,
    "B": 4e-5,
    "AA": 7e-6,
    "BA": 1e-8,
    "BBA": 2e-23,
    "BAAA": 1e-29,
}
PUBLISHED_IMPROVEMENTS = {"AA": 9.4, "BA": 3.0, "B": 1.0}


def one_sig_match(value: float, printed: float) -> bool:
    """Agreement with a one-significant-figure printed value: within one
    unit of the printed digit (the published table mixes rounding modes)."""
    exponent = math.floor(math.log10(printed))
    return abs(value - printed) < 10.0**exponent


def _fraction_oracle():
    """Exact Fraction evaluators built straight from the published
    coefficient lists (independent of the enumeration and the planner)."""
    a_pub = ExactPolynomial.make([1, -10, 58, -192, 400, -544, 480, -256, 64])
    u_pub = ExactPolynomial.make([0, 0, 9, -56, 160, -256, 240, -128, 32])
    x = [1, -2]
    b_acc_num = ExactPolynomial.make(poly_sum([1], poly_scaled(poly_power(x, 8), 15)))
    b_err_num = ExactPolynomial.make(
        poly_sum([1], *(poly_scaled(poly_power(x, k), s) for s, k in ((-15, 7), (15, 8), (-1, 15))))
    )

    def step(name: str, p: Fraction) -> tuple[Fraction, Fraction, Fraction]:
        """(acceptance, next error, cost factor) for one round."""
        if name == "A":
            acc = a_pub(p)
            return acc, u_pub(p) / acc, Fraction(10, 2) / acc
        acc = b_acc_num(p) / 16
        return acc, b_err_num(p) / (2 * b_acc_num(p)), 15 / acc

    def run(seq: str, p0: Fraction) -> tuple[Fraction, Fraction]:
        p, cost = p0, Fraction(1)
        for ch in seq:
            _, p_next, factor = step(ch, p)
            cost *= factor
            p = p_next
        return p, cost

    return run


def test_planner_matches_fraction_oracle():
    oracle = _fraction_oracle()
    for seq in TABLE_SEQUENCES:
        want_err, want_cost = oracle(seq, Fraction(1, 100))
        plan = evaluate_sequence(parse_sequence(seq), 0.01)
        assert plan.final_cost == pytest.approx(float(want_cost), rel=1e-9), seq
        assert plan.final_error == pytest.approx(float(want_err), rel=1e-6), seq


def test_table_against_published_values():
    rows = {r.sequence: r for r in table_rows(p0=0.01)}
    for seq, cost in PUBLISHED_COSTS.items():
        assert abs(rows[seq].cost - cost) <= 0.1, seq
    for seq, err in PUBLISHED_ERRORS.items():
        assert one_sig_match(rows[seq].error, err), (seq, rows[seq].error)
    for seq, factor in PUBLISHED_IMPROVEMENTS.items():
        assert abs(rows[seq].improvement - factor) <= 0.1, seq


def test_empty_sequence():
    plan = evaluate_sequence([], 0.01)
    assert plan.final_error == 0.01
    assert plan.final_cost == 1.0
    assert plan.rounds == ()


def test_sequence_examples():
    aa = evaluate_sequence(parse_sequence("AA"), 0.01)
    assert abs(aa.final_cost - 27.9) <= 0.1
    assert one_sig_match(aa.final_error, 7e-6)
    ba = evaluate_sequence(parse_sequence("BA"), 0.01)
    assert abs(ba.final_cost - 87.2) <= 0.1
    assert one_sig_match(ba.final_error, 1e-8)


def test_composition_law():
    for left, right in (("A", "A"), ("B", "AA"), ("BA", "AA")):
        whole = evaluate_sequence(parse_sequence(left + right), 0.01)
        first = evaluate_sequence(parse_sequence(left), 0.01)
        second = evaluate_sequence(parse_sequence(right), first.final_error)
        assert whole.final_error == pytest.approx(second.final_error, rel=1e-12)
        assert whole.final_cost == pytest.approx(
            first.final_cost * second.final_cost, rel=1e-12
        )


def test_thresholds(models):
    assert threshold(models["A"]) == pytest.approx(0.089, abs=1e-3)
    assert threshold(models["B"]) == pytest.approx(0.141, abs=1e-3)


def _halving_model(name: str) -> RoutineModel:
    """e(p) = p/2: improves everywhere, at linear order."""
    return RoutineModel(
        name=name,
        m=2,
        n=1,
        acceptance_poly=ExactPolynomial.make([1]),
        undetected_poly=ExactPolynomial.make([0, Fraction(1, 2)]),
    )


def test_threshold_none_for_always_improving():
    assert threshold(_halving_model("H2")) is None


def test_never_improving_routine_always_diverges(models):
    # e(p) = p / (1 - 2p) > p on the whole bracket: no round of it may count,
    # or errors above 1/2 would drive its acceptance, and costs, negative.
    worse = RoutineModel(
        name="W",
        m=2,
        n=1,
        acceptance_poly=ExactPolynomial.make([1, -2]),
        undetected_poly=ExactPolynomial.make([0, 1]),
    )
    assert threshold(worse) == 0.0
    assert evaluate_sequence([worse], 1e-3).diverged
    res = best_sequence(PlannerGoal(p0=0.3, e_g=1e-3), {**models, "W": worse})
    assert res == SearchResult(plan=None, closest=None)
    res = best_sequence(PlannerGoal(p0=0.01, e_g=1e-5), {**models, "W": worse})
    assert res.plan.name == "AA"


def test_threshold_cache_separates_error_functions(monkeypatch):
    def model(undetected):
        return RoutineModel(
            name="C", m=5, n=1,
            acceptance_poly=ExactPolynomial.make([1, -5, 10]),
            undetected_poly=ExactPolynomial.make(undetected),
        )

    first, second = model([0, 0, 10]), model([0, 0, 5])
    # e(p) = 10p^2 / (1 - 5p + 10p^2) and 5p^2 / (1 - 5p + 10p^2).
    want_first, want_second = (15 - 185**0.5) / 20, (5 - 15**0.5) / 10
    assert threshold(first) == pytest.approx(want_first, abs=1e-5)
    assert threshold(second) == pytest.approx(want_second, abs=1e-5)
    again = model([0, 0, 10])
    assert threshold(again) == threshold(first)

    def unhashable(self):
        raise AssertionError("threshold lookup hashed a Fraction")

    # A cached lookup hashes none of the model's coefficients.
    monkeypatch.setattr(Fraction, "__hash__", unhashable)
    assert threshold(first) == pytest.approx(want_first, abs=1e-5)
    assert threshold(second) == pytest.approx(want_second, abs=1e-5)


def test_float_rounds_built_once_per_model(models, monkeypatch):
    """A figure export with its crossings plus a 6-round search build each
    model's round, and bisect for its threshold, once."""
    from c4distill.cli import main

    built = []
    build = planner._FloatRound.__init__

    def counting(self, model):
        built.append(model.name)
        build(self, model)

    planner._float_round.cache_clear()
    monkeypatch.setattr(planner._FloatRound, "__init__", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["curve", "--figure", "regionplot", "--boundaries"]) == 0
    assert best_sequence(PlannerGoal(p0=0.01, e_g=1e-20, max_rounds=6), models).plan
    assert sorted(built) == ["A", "B"]


def test_error_improves_below_threshold(models):
    p = 1e-3
    while p < 0.089:
        assert float(models["A"].output_error(p)) < p
        p += 1e-3


def test_divergence_flagged(models):
    plan = evaluate_sequence([models["A"]], 0.12)
    assert plan.diverged


def test_best_sequence_goals():
    res = best_sequence(PlannerGoal(p0=0.01, e_g=1e-3))
    assert res.plan.name == "A"
    assert abs(res.plan.final_cost - 5.5) <= 0.1

    res = best_sequence(PlannerGoal(p0=0.01, e_g=1e-5))
    assert res.plan.name == "AA"
    assert abs(res.plan.final_cost - 27.9) <= 0.1
    bb = evaluate_sequence(parse_sequence("BB"), 0.01)
    assert bb.final_error <= 1e-5 and bb.final_cost > res.plan.final_cost

    # Just above the three-round mixed sequence's own error, that sequence
    # wins; at e_g = 1e-23 it is infeasible (its error is 2.4e-23) and the
    # search returns the true optimum instead.
    res = best_sequence(PlannerGoal(p0=0.01, e_g=2.5e-23))
    assert res.plan.name == "BBA"
    res = best_sequence(PlannerGoal(p0=0.01, e_g=1e-23))
    assert res.plan.name == "AAAB"
    assert res.plan.final_error <= 1e-23


def test_best_sequence_unreachable():
    res = best_sequence(PlannerGoal(p0=0.01, e_g=1e-40, max_rounds=2))
    assert res.plan is None
    assert res.closest is not None
    assert res.closest.final_error > 1e-40


def test_goal_validation():
    with pytest.raises(ValueError):
        PlannerGoal(p0=0.01, e_g=0.02).validate()
    with pytest.raises(ValueError):
        PlannerGoal(p0=0.01, e_g=1e-5, max_rounds=0).validate()
    goal = PlannerGoal(p0=0.01, R=1e10)
    assert goal.goal_error() == pytest.approx(1e-11)


def test_b_rounds_first_in_table_set():
    # Regression check on the published sequence set: every mixed sequence
    # there places its 15-to-1 rounds before any 10-to-2 round.
    for seq in TABLE_SEQUENCES:
        if "A" in seq and "B" in seq:
            assert "AB" not in seq, seq


def test_improvement_factors():
    for seq, factor in PUBLISHED_IMPROVEMENTS.items():
        plan = evaluate_sequence(parse_sequence(seq), 0.01)
        assert improvement_factor(plan) == pytest.approx(factor, abs=0.1), seq
    assert shortest_b_only(1e-5, 0.01).name == "BB"
    # Above B's threshold no B-only sequence reaches anything.
    assert improvement_factor(evaluate_sequence(parse_sequence("A"), 0.2)) is None
    # The table reads every row's reference from one B-only walk.
    for p0 in (1e-9, 0.01, 0.1, 0.14):
        want = [improvement_factor(evaluate_sequence(parse_sequence(seq), p0)) for seq in TABLE_SEQUENCES]
        assert [row.improvement for row in table_rows(p0)] == want, p0


def test_shortest_b_only_none_cases(models):
    # From B's threshold up every round of B diverges.
    limit = threshold(models["B"])
    for p0 in (limit, 0.2):
        assert shortest_b_only(1e-3, p0) is None, p0
    # Just below it the error leaves the threshold too slowly for 16 rounds
    # to reach 1e-10, although they stay below the threshold throughout.
    p0 = limit * (1 - 1e-7)
    sixteen = evaluate_sequence([models["B"]] * planner.B_ONLY_MAX_ROUNDS, p0)
    assert not sixteen.diverged and sixteen.final_error > 1e-10
    assert shortest_b_only(1e-10, p0) is None


@pytest.fixture
def steps(models, monkeypatch) -> list:
    """Names of the routines stepped from here on.  The builtins' thresholds
    are bisected first, so those steps are not counted."""
    for model in models.values():
        threshold(model)
    names = []
    step = planner._FloatRound.step

    def counting(self, x, s, cost):
        names.append(self.name)
        return step(self, x, s, cost)

    monkeypatch.setattr(planner._FloatRound, "step", counting)
    return names


@pytest.mark.parametrize("target, length", [(1e-3, 1), (1e-30, 3), (1e-90, 4), (1e-200, 5)])
def test_shortest_b_only_steps_at_most_twice_its_length(steps, target, length):
    """The walk steps once per round up to the answer, and the answer's plan
    once more: 2L steps, not one evaluation per candidate length."""
    plan = shortest_b_only(target, 0.01)
    assert plan.name == "B" * length
    assert plan.final_error <= target
    assert len(steps) <= 2 * length


def _explicit_plan_dict(plan) -> dict:
    """A plan's JSON form, field by field."""
    return {
        "sequence": plan.name,
        "p0": plan.p0,
        "final_error": plan.final_error,
        "final_cost": plan.final_cost,
        "diverged": plan.diverged,
        "rounds": [
            {
                "routine": r.routine,
                "p_in": r.p_in,
                "p_out": r.p_out,
                "acceptance": r.acceptance,
                "cost": r.cost,
            }
            for r in plan.rounds
        ],
    }


@pytest.mark.parametrize("sequence, p0", [("", 0.01), ("A", 0.1), ("BBBBBB", 0.01)])
def test_plan_json_lists_every_field(sequence, p0):
    """``as_dict`` serializes as the explicit field listing does, for an
    empty plan, a diverged one (above A's threshold) and one whose error
    underflows to 0."""
    plan = evaluate_sequence(parse_sequence(sequence), p0)
    want = _explicit_plan_dict(plan)
    got = plan.as_dict()
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert json.loads(json.dumps(got)) == want


def _pin_model(acceptance, undetected) -> RoutineModel:
    return RoutineModel(
        name="C", m=5, n=1,
        acceptance_poly=ExactPolynomial.make(acceptance),
        undetected_poly=ExactPolynomial.make(undetected),
    )


# Thresholds bit for bit (float.hex), as the bisection computed them before
# thresholds and curve crossings shared one bisection loop.
PINNED_SYNTHETIC_THRESHOLDS = [
    ([1, -5, 10], [0, 0, 10], "0x1.1e6b215a74c08p-4"),
    ([1, -5, 10], [0, 0, 5], "0x1.cda0336c72192p-4"),
    ([1, -2], [0, 0, 10], "0x1.555552f52b90ap-4"),
    ([1], [0, 0, 0, 35], "0x1.5a2cdb785b5b8p-3"),
    ([1], [0, 0, 1], None),  # improves on the whole bracket
    ([1, -2], [0, 1], "0x0.0p+0"),  # improves nowhere on it
]


def test_thresholds_pinned_bit_for_bit(models):
    assert threshold(models["A"]).hex() == "0x1.6d3bccb13dfb0p-4"
    assert threshold(models["B"]).hex() == "0x1.21c06a42e557ep-3"
    for acceptance, undetected, want in PINNED_SYNTHETIC_THRESHOLDS:
        got = threshold(_pin_model(acceptance, undetected))
        assert (None if got is None else got.hex()) == want, (acceptance, undetected)


def test_asymptotic_exponents(models):
    xi_a = asymptotic_exponent(models["A"])
    xi_b = asymptotic_exponent(models["B"])
    assert round(xi_a, 2) == 0.43
    assert xi_a == pytest.approx(math.log(2) / math.log(5), abs=1e-12)
    assert round(xi_b, 1) == 0.4
    assert xi_b == pytest.approx(math.log(3) / math.log(15), abs=1e-12)


def test_degenerate_exponent():
    assert asymptotic_exponent(_halving_model("L")) is None


def test_small_p_iterate(models):
    # Closed form (1/9)(9p)^(2^l) against the direct recursion at p = 1e-3.
    # The plain ratio stays within 1% through l = 2 and reaches 1.5% at
    # l = 3 (each round contributes a relative (10 - 56/9)p correction that
    # doubles under squaring); on the error-exponent (log) scale the match
    # is better than 0.1% everywhere.
    for l in (1, 2, 3):
        direct = evaluate_sequence([models["A"]] * l, 1e-3).final_error
        closed = iterate_closed_form(models["A"], 1e-3, l)
        assert abs(math.log(direct) - math.log(closed)) <= 0.01 * abs(math.log(closed)), l
        if l <= 2:
            assert abs(direct / closed - 1) <= 0.01, l
    ratio3 = evaluate_sequence([models["A"]] * 3, 1e-3).final_error / iterate_closed_form(
        models["A"], 1e-3, 3
    )
    assert 1.010 < ratio3 < 1.020  # documented deviation of the closed form
    assert iterate_closed_form(models["A"], 0.2, 20) == math.inf  # 9 * 0.2 > 1


def test_error_curves_and_limits():
    grid = [1e-6, 0.01]
    rows = error_curves(list(TABLE_SEQUENCES), grid)
    # p -> 0: all curves vanish.
    assert all(v < 1e-9 for v in rows[0][1:])
    at_001 = dict(zip(TABLE_SEQUENCES, rows[1][1:]))
    oracle = _fraction_oracle()
    for seq in TABLE_SEQUENCES:
        want_err, _ = oracle(seq, Fraction(1, 100))
        assert at_001[seq] == pytest.approx(float(want_err), rel=1e-6)


def test_step_cost_headline():
    rows = step_cost_curve(0.01, [1e-5])
    (eg, best_cost, best_name, b_cost, b_name) = rows[0]
    assert best_name == "AA" and abs(best_cost - 27.9) <= 0.1
    assert b_name == "BB" and abs(b_cost - 261.7) <= 0.1
    assert b_cost / best_cost == pytest.approx(9.4, abs=0.1)


def test_curve_crossings_found():
    import numpy as np

    grid = list(np.geomspace(1e-4, 0.12, 40))
    crossings = curve_crossings(["B", "AA"], grid)
    assert len(crossings) == 1
    _, _, p_cross = crossings[0]
    a_err = evaluate_sequence(parse_sequence("AA"), p_cross).final_error
    b_err = evaluate_sequence(parse_sequence("B"), p_cross).final_error
    assert a_err == pytest.approx(b_err, rel=1e-6)
    # A round both names end with is stripped before bisecting, but still read.
    with pytest.raises(KeyError):
        curve_crossings(["AZ", "BZ"], grid)


def test_curve_crossings_skip_saturated_errors():
    """Deep sequences' float errors reach 1/2 past about p = 0.3, where the
    sign of their log-ratio is noise: no crossing is read there, while a
    crossing of unsaturated errors on the same grid stays."""
    from c4distill.cli import _geom_grid

    grid = _geom_grid(0.002, 0.45, 12)
    assert curve_crossings(["AAA", "BB"], grid) == []
    ((_, _, p),) = curve_crossings(["BB", "BAA"], grid)
    assert p == pytest.approx(0.0944, abs=1e-4)
    ((_, _, p),) = curve_crossings(["A", "B"], grid)
    assert p == pytest.approx(0.2370, abs=1e-4)
    assert evaluate_sequence(parse_sequence("A"), p).final_error == pytest.approx(0.4232, abs=1e-4)
    # A bracket with one saturated end is still bisected: on these grids
    # the last bracket runs from 0.213 and 0.185 to an end where A's and
    # B's errors are within 2**-40 of 1/2, and holds the same crossing.
    # Within about 1e-14 of it the gap's sign is rounding noise, so each
    # bracket stops at its own float there.
    for coarse in (_geom_grid(0.00132, 0.4975, 8), _geom_grid(2.69e-5, 0.4932, 11)):
        ((_, _, q),) = curve_crossings(["A", "B"], coarse)
        assert q == pytest.approx(p, abs=1e-13)


def _crossings_by_60_halvings(sequences, grid):
    """``curve_crossings`` as it was computed before its bisection learned
    to stop: 60 halvings of every bracket, however many change nothing."""

    def parts(seq, p):
        """(mantissa, exponent) of the whole sequence's error, every round stepped."""
        x, s = math.frexp(p)
        cost = 1.0
        for model in seq:
            x, s, cost, _ = planner._float_round(model).step(x, s, cost)
        return x, s

    def gap(seq_a, seq_b, p):
        (xa, sa), (xb, sb) = parts(seq_a, p), parts(seq_b, p)
        return math.log(xa / xb) + (sa - sb) * math.log(2)

    out = []
    for name_a, name_b in zip(sequences, sequences[1:]):
        pair = parse_sequence(name_a), parse_sequence(name_b)
        for lo, hi in zip(grid, grid[1:]):
            g_lo, g_hi = gap(*pair, lo), gap(*pair, hi)
            if g_lo * g_hi < 0:
                for _ in range(60):
                    mid = (lo + hi) / 2
                    g_mid = gap(*pair, mid)
                    if g_lo * g_mid <= 0:
                        hi = mid
                    else:
                        lo, g_lo = mid, g_mid
                out.append((name_a, name_b, ((lo + hi) / 2).hex()))
    return out


@pytest.mark.parametrize(
    "pmin, pmax, points", [(1e-4, 0.12, 60), (0.002, 0.08, 5)], ids=["default", "golden"]
)
def test_crossings_pinned_to_60_halvings(pmin, pmax, points):
    """Crossings of the default regionplot grid and of the golden's 5-point
    grid are bit for bit those of 60 halvings."""
    from c4distill.cli import _geom_grid

    grid = _geom_grid(pmin, pmax, points)
    got = [(a, b, p.hex()) for a, b, p in curve_crossings(TABLE_SEQUENCES, grid)]
    assert got == _crossings_by_60_halvings(TABLE_SEQUENCES, grid)
    assert got


def test_builtin_rounds_increase_and_stay_below_half(models):
    """``curve_crossings`` strips the last rounds two sequences share, which
    moves no crossing only if every builtin round's error u/a is strictly
    increasing on [0, 1/2) and stays below 1/2 there: u'a - ua' and a - 2u
    start positive, have no root in (0, 1/2) and end positive, by an exact
    Sturm count."""
    for name in ("A", "B"):
        a, u = models[name].acceptance_poly.coefficients, models[name].undetected_poly.coefficients
        da, du = ([k * c for k, c in enumerate(f)][1:] for f in (a, u))
        slope = poly_sum(poly_product(du, a), poly_scaled(poly_product(u, da), -1))
        assert sturm_signs_below_half(slope) == (1, 0, 1), name
        assert sturm_signs_below_half(poly_sum(a, poly_scaled(u, -2))) == (1, 0, 1), name


@pytest.mark.parametrize(
    "pmin, pmax, points", [(1e-40, 0.4999, 41), (1e-4, 0.12, 60), (0.2, 0.4999, 9)]
)
def test_error_curves_equal_evaluate_sequence(pmin, pmax, points, monkeypatch):
    """Stepping each shared prefix once changes no value: every curve point
    is bit for bit ``evaluate_sequence``'s final error, from one step per
    distinct prefix (10 for the standard set, not 25)."""
    from c4distill.cli import _geom_grid

    grid = _geom_grid(pmin, pmax, points)
    steps = []
    step = planner._FloatRound.step
    monkeypatch.setattr(planner._FloatRound, "step", lambda *args: steps.append(1) or step(*args))
    rows = error_curves(list(TABLE_SEQUENCES), grid)
    assert len(steps) == 10 * len(grid)
    monkeypatch.undo()
    for p, *errors in rows:
        want = [evaluate_sequence(parse_sequence(name), p).final_error for name in TABLE_SEQUENCES]
        assert [e.hex() for e in errors] == [w.hex() for w in want], p


def _step_cost_rows_per_point(p0, eg_grid, available, max_rounds):
    """``step_cost_curve`` as one search and one B-only reference per point."""
    rows = []
    for eg in eg_grid:
        res = best_sequence(PlannerGoal(p0=p0, e_g=eg, max_rounds=max_rounds), available)
        if res.plan is None:
            continue
        ref = shortest_b_only(eg, p0)
        rows.append((eg, res.plan.final_cost, res.plan.name,
                     ref.final_cost if ref else float("nan"), ref.name if ref else ""))
    return rows


def _nan_as_none(rows):
    """Rows with a missing B-only cost (nan) as None, so that == compares them."""
    return [row[:3] + (None if math.isnan(row[3]) else row[3],) + row[4:] for row in rows]


@settings(max_examples=40)
@given(
    p0=st.floats(min_value=-3, max_value=math.log10(0.3)).map(lambda e: 10.0**e),
    log_ratios=st.lists(st.floats(min_value=-80, max_value=-1e-3), min_size=1, max_size=6),
    max_rounds=st.integers(min_value=1, max_value=6),
    extra=st.sampled_from(["", "T", "H", "TH"]),
)
def test_step_cost_curve_matches_per_point_searches(models, p0, log_ratios, max_rounds, extra):
    """One walk for all of a curve's points gives each point the row a search
    of its own gives, for e_g grids in any order, with and without a round
    that keeps the cost (T) or halves the error (H)."""
    available = {**models, **{name: SYNTHETIC_MODELS[name] for name in extra}}
    grid = [p0 * 10.0**r for r in log_ratios]
    want = _step_cost_rows_per_point(p0, grid, available, max_rounds)
    assert _nan_as_none(step_cost_curve(p0, grid, available, max_rounds)) == _nan_as_none(want)


def _exhaustive(goal: PlannerGoal, models) -> SearchResult:
    """Every sequence up to max_rounds through ``evaluate_sequence``, in
    order of length and then of routine names."""
    goal.validate()
    eg = goal.goal_error()
    names = sorted(models)
    feasible = []
    closest = None
    for length in range(1, goal.max_rounds + 1):
        for combo in itertools.product(names, repeat=length):
            plan = evaluate_sequence([models[c] for c in combo], goal.p0)
            if plan.diverged:
                continue
            if closest is None or plan.final_error < closest.final_error:
                closest = plan
            if plan.final_error <= eg:
                feasible.append(plan)
    if not feasible:
        return SearchResult(plan=None, closest=closest)
    best = min(feasible, key=lambda pl: (pl.final_cost, len(pl.rounds), pl.name))
    return SearchResult(plan=best, closest=best)


@given(
    p0=st.floats(min_value=0.001, max_value=0.2, exclude_min=True, exclude_max=True),
    log_ratio=st.floats(min_value=-100, max_value=-1e-3),
    max_rounds=st.integers(min_value=1, max_value=6),
)
def test_search_matches_exhaustive(models, p0, log_ratio, max_rounds):
    goal = PlannerGoal(p0=p0, e_g=p0 * 10.0**log_ratio, max_rounds=max_rounds)
    assert best_sequence(goal, models) == _exhaustive(goal, models)


def _boundary_goals(models):
    """Goals on the search's decision boundaries."""
    goals = []
    # e_g equal to a sequence's own error (feasible), and one float below it.
    for p0 in (0.01, 0.05):
        for seq in ("A", "BB", "BBA", "AAB", "BBBB"):
            err = evaluate_sequence(parse_sequence(seq), p0).final_error
            for eg in (err, math.nextafter(err, 0)):
                goals.append(PlannerGoal(p0=p0, e_g=eg, max_rounds=4))
    # p0 on and around each threshold.
    for name in ("A", "B"):
        thr = threshold(models[name])
        for dp in (0.0, 1e-7, -1e-7, 1e-16, -1e-16):
            goals.append(PlannerGoal(p0=thr + dp, e_g=1e-9, max_rounds=4))
    # Subnormal goals; at p0 = 0.005, BABBAA's error is the least subnormal
    # float and BABABA's is 2e-323.
    for eg in (1e-310, 2e-323, 5e-324):
        goals.append(PlannerGoal(p0=0.005, e_g=eg, max_rounds=6))
    return goals


def test_search_matches_exhaustive_on_boundaries(models):
    for goal in _boundary_goals(models):
        assert best_sequence(goal, models) == _exhaustive(goal, models), goal


def test_search_on_subnormal_goal_error(models):
    babbaa = evaluate_sequence(parse_sequence("BABBAA"), 0.005)
    assert babbaa.final_error == 5e-324
    res = best_sequence(PlannerGoal(p0=0.005, e_g=5e-324, max_rounds=6), models)
    assert res.plan is not None and res.plan.final_error <= 5e-324


@given(
    p0=st.floats(min_value=0.001, max_value=0.2, exclude_min=True, exclude_max=True),
    log_low=st.floats(min_value=-100, max_value=-1e-3),
    log_high=st.floats(min_value=-100, max_value=-1e-3),
    max_rounds=st.integers(min_value=1, max_value=6),
)
def test_best_cost_non_increasing_in_goal_error(models, p0, log_low, log_high, max_rounds):
    lo, hi = sorted((p0 * 10.0**log_low, p0 * 10.0**log_high))
    strict = best_sequence(PlannerGoal(p0=p0, e_g=lo, max_rounds=max_rounds), models)
    loose = best_sequence(PlannerGoal(p0=p0, e_g=hi, max_rounds=max_rounds), models)
    if strict.plan is not None:
        assert loose.plan is not None
        assert loose.plan.final_cost <= strict.plan.final_cost


def test_search_evaluates_few_sequences_at_60_digits(models, monkeypatch):
    """The search re-evaluates only the sequence it reports, also for a goal
    on the least subnormal float, where deep sequences' errors round to it
    or to zero."""
    calls = []

    def counting(seq, p0):
        calls.append(len(seq))
        return evaluate_sequence(seq, p0)

    monkeypatch.setattr(planner, "evaluate_sequence", counting)
    for p0, eg, max_rounds in ((0.01, 1e-25, 12), (0.005, 5e-324, 10)):
        calls.clear()
        res = best_sequence(PlannerGoal(p0=p0, e_g=eg, max_rounds=max_rounds), models)
        assert res.plan is not None and res.plan.final_error <= eg
        assert len(calls) <= 3  # of 8190 and 2046 sequences


def _decimal_walk(models, p0: float, max_rounds: int) -> dict:
    """(error, cost, headroom) of every sequence up to max_rounds by the
    recursion at 60 significant digits, with an exponent range no sequence
    leaves.  The headroom is the least (threshold - p_in) / threshold over
    the sequence's rounds, negative once a round starts above its
    routine's threshold."""
    ctx = decimal.Context(prec=60, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)

    def coefficients(poly):
        return [ctx.divide(c.numerator, c.denominator) for c in reversed(poly.coefficients)]

    def horner(cs, p):
        acc = decimal.Decimal(0)
        for c in cs:
            acc = ctx.add(ctx.multiply(acc, p), c)
        return acc

    polys = {
        name: (
            model.m / decimal.Decimal(model.n),
            coefficients(model.acceptance_poly),
            coefficients(model.undetected_poly),
            threshold(model),
        )
        for name, model in models.items()
    }
    out = {}

    def visit(prefix, p, cost, headroom):
        for name, (ratio, an, un, thr) in polys.items():
            room = headroom if thr is None else min(headroom, 1 - float(p) / thr)
            acc = horner(an, p)
            err = ctx.divide(horner(un, p), acc)
            seq = prefix + (name,)
            out[seq] = (err, ctx.divide(ctx.multiply(cost, ratio), acc), room)
            if len(seq) < max_rounds:
                visit(seq, err, out[seq][1], room)

    visit((), decimal.Decimal(p0), decimal.Decimal(1), math.inf)
    return out


@pytest.mark.parametrize("p0", [0.005, 0.01, 0.05])
def test_float_walk_gap_far_inside_guard_band(models, p0):
    """Worst relative gap between the float walk and the 60-digit recursion
    over every sequence up to 12 rounds, bounded far inside float rounding
    that could change a plan.  Errors are compared as floats: on the
    subnormal grid a gap of one grid step is rounding, and errors below the
    grid must come out as 0 or one step."""
    rounds = [planner._float_round(models[n]) for n in sorted(models)]
    step = 5e-324
    reference = _decimal_walk(models, p0, 12)
    seen = 0
    worst = 0.0
    for seq, error, cost in planner._float_walk(rounds, p0, 12):
        want_error, want_cost, headroom = (float(v) for v in reference[seq])
        assert headroom > 1e-9, seq  # no round starts near a threshold
        worst = max(worst, abs(cost - want_cost) / want_cost)
        if want_error > 0:
            worst = max(worst, max(0.0, abs(error - want_error) - step) / want_error)
        else:
            assert error <= step, seq
        seen += 1
    assert seen == len(reference) == 2**13 - 2
    assert worst <= 1e-11, worst


def test_evaluate_sequence_reports_the_walks_values(models):
    """A plan's error and cost are the very floats the search compared."""
    rounds = [planner._float_round(models[n]) for n in sorted(models)]
    for p0, count in ((0.005, 2**9 - 2), (0.05, 2**9 - 2), (0.12, 2**8 - 1)):
        seen = 0
        for seq, error, cost in planner._float_walk(rounds, p0, 8):
            plan = evaluate_sequence([models[c] for c in seq], p0)
            assert not plan.diverged, seq
            assert (plan.final_error, plan.final_cost) == (error, cost), seq
            seen += 1
        assert seen == count, p0  # at 0.12, above A's threshold, B comes first


@given(
    p0=st.floats(min_value=0.001, max_value=0.2, exclude_min=True, exclude_max=True),
    log_ratio=st.floats(min_value=-100, max_value=-1e-3),
    max_rounds=st.integers(min_value=1, max_value=6),
)
def test_search_agrees_with_60_digit_search(models, p0, log_ratio, max_rounds):
    """Up to a relative 1e-11, the plan is what searching every sequence at
    60 digits would choose: its values are the 60-digit ones, it meets the
    goal, and no sequence clearly below every threshold that clearly meets
    the goal is cheaper.  It is infeasible only when no such sequence
    exists."""
    tol = 1e-11
    eg = p0 * 10.0**log_ratio
    res = best_sequence(PlannerGoal(p0=p0, e_g=eg, max_rounds=max_rounds), models)
    reference = _decimal_walk(models, p0, max_rounds)
    reachable = [
        cost for err, cost, room in reference.values() if room > tol and err <= eg * (1 - tol)
    ]
    if res.plan is None:
        assert not reachable
        return
    err, cost, room = reference[res.plan.sequence]
    assert room > -tol
    assert math.isclose(res.plan.final_error, err, rel_tol=tol, abs_tol=5e-324)
    assert math.isclose(res.plan.final_cost, cost, rel_tol=tol)
    assert err <= eg * (1 + tol)
    assert not reachable or float(cost) <= (1 + tol) * float(min(reachable))


# Beside the builtins: T keeps its prefix's cost (m = n = 1, acceptance 1,
# e(p) = p^2), H halves the error, and W improves nowhere, so every round of
# it diverges.
SYNTHETIC_MODELS = {
    "T": RoutineModel(
        name="T", m=1, n=1,
        acceptance_poly=ExactPolynomial.make([1]),
        undetected_poly=ExactPolynomial.make([0, 0, 1]),
    ),
    "H": _halving_model("H"),
    "W": RoutineModel(
        name="W", m=2, n=1,
        acceptance_poly=ExactPolynomial.make([1, -2]),
        undetected_poly=ExactPolynomial.make([0, 1]),
    ),
}


@settings(max_examples=50)
@given(
    p0=st.floats(min_value=-6, max_value=-0.5).map(lambda e: 10.0**e),
    case=st.one_of(
        st.tuples(st.just(""), st.integers(min_value=1, max_value=6)),
        st.tuples(st.sampled_from(["T", "H", "W", "TH", "THW"]), st.integers(1, 4)),
    ),
)
def test_float_walk_yields_in_rank_order(models, p0, case):
    """The walk yields what evaluating every sequence yields, leaving out
    the diverged ones, in the search's ranking: by cost, then fewer rounds,
    then name."""
    extra, max_rounds = case
    available = {**models, **{name: SYNTHETIC_MODELS[name] for name in extra}}
    names = sorted(available)
    want = []
    for length in range(1, max_rounds + 1):
        for combo in itertools.product(names, repeat=length):
            try:
                plan = evaluate_sequence([available[c] for c in combo], p0)
            except VanishingDenominator:  # W's acceptance at p = 1/2, past a diverged W
                continue
            if not plan.diverged:
                want.append((plan.sequence, plan.final_error, plan.final_cost))
    want.sort(key=lambda item: (item[2], len(item[0]), item[0]))
    rounds = [planner._float_round(available[name]) for name in names]
    assert list(planner._float_walk(rounds, p0, max_rounds)) == want


# Measured bounds.  A search over every prefix took 7,389 steps for the
# distplot, and 524,302 for this plan at 18 rounds; one ranked walk per
# point took 1,607 for the distplot.
@pytest.mark.parametrize(
    "argv, bound",
    [
        (["plan", "--p0", "0.001", "--eg", "1e-300", "--max-rounds", "40"], 152),
        (["curve", "--figure", "distplot"], 41),
    ],
)
def test_search_steps_bounded(steps, argv, bound):
    from c4distill.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert len(steps) <= bound


@pytest.mark.parametrize(
    "below, max_rounds, eg, feasible, bound",
    [(1e-12, 21, 1e-300, False, 162), (10**-7.2, 25, 5e-324, True, 833)],
)
def test_search_steps_near_b_threshold(models, steps, below, max_rounds, eg, feasible, bound):
    """The goals that took the most steps in a scan of p0 within 1e-12 to
    1e-6 (relative) of either threshold and at 41 points from 1e-3 to 0.14,
    with R from 1 to 40 and e_g of 1e-300 and 5e-324.  Just below B's
    threshold the error leaves it slowly, so a goal needs many rounds, and
    one that no sequence meets reads the whole walk."""
    p0 = threshold(models["B"]) * (1 - below)
    res = best_sequence(PlannerGoal(p0=p0, e_g=eg, max_rounds=max_rounds), models)
    assert (res.plan is not None) == feasible
    assert len(steps) <= bound
