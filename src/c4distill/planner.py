"""Multi-round distillation planning: cost/error recursion, thresholds,
optimal sequences, asymptotic exponents, and curve/table exports.

A sequence is evaluated by the recursion p_l = u_l(p_{l-1}) / a_l(p_{l-1})
and c_l = m_l / (n_l * a_l(p_{l-1})) * c_{l-1} with c_0 = 1, in float, one
``_FloatRound.step`` per round; each model's round is built once per
process, and its threshold bisects on the same step.  Output errors of deep
sequences fall far below float's range (1e-29 after four rounds), so a step
carries the error as a mantissa and a binary exponent: the undetected
weight's lowest power of p is applied to the exponent, the rest of each
polynomial is evaluated by Horner's rule, and the two are divided once (the
exact polynomial forms make this cancellation-free).  The error thus keeps
float's relative precision at any depth (within ~1e-13 of a 60-digit
recursion for the builtin routines); it is rounded to a float, possibly a
subnormal or zero, only where it is reported or compared.

The sequence search walks the tree of sequence prefixes, one step each,
cheapest first, skipping the subtree below a diverged prefix; a search stops
at its first hit, as does the 15-to-1-only reference of an improvement
factor in the same walk over one routine.  A cost curve, or the table, reads
one walk for all of its goals and stops once each has its hit.
``evaluate_sequence`` runs the same steps, so every value a plan reports is
the value the search compared.  Thresholds and curve crossings share one
bisection, which stops once halving no longer moves the midpoint.
"""

from __future__ import annotations

from functools import cache
from heapq import heappop, heappush
from math import ceil, frexp, inf, ldexp, log, log2
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .routines import RoutineModel, VanishingDenominator, builtin_models

THRESHOLD_TOL = 1e-6
THRESHOLD_BRACKET = (1e-6, 0.25)
# A goal given as a computation size R asks for e_g = 1/(R_MARGIN * R).
R_MARGIN = 10.0
# Longest 15-to-1-only sequence an improvement factor compares against.
B_ONLY_MAX_ROUNDS = 16

# The sequence set of the published comparison table, in cost order.
# Leftmost letter is the first round applied.
TABLE_SEQUENCES = ("A", "B", "AA", "BA", "AAA", "BB", "BAA", "AAAA", "BBA", "BAAA")


class RoundResult(NamedTuple):
    routine: str
    p_in: float
    p_out: float
    acceptance: float
    cost: float  # cumulative cost after this round


class DistillationPlan(NamedTuple):
    sequence: tuple[str, ...]
    p0: float
    rounds: tuple[RoundResult, ...]
    final_error: float
    final_cost: float
    diverged: bool

    @property
    def name(self) -> str:
        return "".join(self.sequence) or "(none)"

    def as_dict(self) -> dict:
        return {**self._asdict(), "sequence": self.name, "rounds": [r._asdict() for r in self.rounds]}


class PlannerGoal(NamedTuple):
    """Target for the sequence search.

    ``e_g`` may be given directly or derived from a computation size R as
    1/(10 R); the union-bound requirement is only "much less than 1/R", and
    ``R_MARGIN`` is that factor 10.
    """

    p0: float
    e_g: Optional[float] = None
    R: Optional[float] = None
    max_rounds: int = 6

    def goal_error(self) -> float:
        if self.e_g is not None:
            return self.e_g
        if self.R is not None:
            if not self.R > 0:
                raise ValueError(f"need R > 0, got R={self.R}")
            return 1.0 / (R_MARGIN * self.R)
        raise ValueError("goal needs e_g or R")

    def validate(self):
        eg = self.goal_error()
        if not 0 < eg < self.p0 < 0.5:
            raise ValueError(f"need 0 < e_g < p0 < 1/2, got e_g={eg}, p0={self.p0}")
        if self.max_rounds < 1:
            raise ValueError(f"need max_rounds >= 1, got {self.max_rounds}")


def parse_sequence(text: str) -> list[RoutineModel]:
    models = builtin_models()
    for ch in text:
        if ch not in models:
            raise KeyError(f"unknown routine {ch!r}")
    return [models[ch] for ch in text]


def evaluate_sequence(seq: Sequence[RoutineModel], p0: float) -> DistillationPlan:
    """Run the cost/error recursion for one round sequence."""
    rounds = []
    diverged = False
    x, s = frexp(p0)
    cost = 1.0
    for model in seq:
        rnd = _float_round(model)
        p = ldexp(x, s)
        if p >= rnd.limit:
            diverged = True
        x, s, cost, a = rnd.step(x, s, cost)
        rounds.append(RoundResult(model.name, p, ldexp(x, s), a, cost))
    return DistillationPlan(
        sequence=tuple(m.name for m in seq),
        p0=p0,
        rounds=tuple(rounds),
        final_error=ldexp(x, s),
        final_cost=cost,
        diverged=diverged,
    )


def threshold(model: RoutineModel) -> Optional[float]:
    """Smallest fixed point of e(p) = p in the bracket, by bisection.

    When e(p) - p has no sign change on the bracket, returns None for a
    routine that improves on all of it, and 0.0 for one that improves
    nowhere on it, so that every round of it counts as diverged.
    """
    limit = _float_round(model).limit
    return None if limit > THRESHOLD_BRACKET[1] else limit


@cache
def _float_round(model: RoutineModel) -> _FloatRound:
    """The model's round, built once per model per process."""
    return _FloatRound(model)


class _FloatRound:
    """One routine's round in float, on coefficient tuples converted once.

    The input error is x * 2**s with x in [0.5, 1).  The undetected weight's
    lowest-order terms p**v are applied to the mantissa and the exponent
    separately, so the output error keeps its relative precision however
    small it gets; the rest of each polynomial is evaluated at the float p
    (where p underflows, those terms are below float's relative precision).
    ``limit`` is the routine's threshold, or 1/2 when it has none: an input
    from there up diverges.
    """

    __slots__ = ("name", "limit", "ratio", "acc", "und", "order")

    def __init__(self, model: RoutineModel):
        def highest_first(coefficients) -> tuple[float, ...]:
            return tuple(float(c) for c in reversed(coefficients))

        self.name = model.name
        self.order, _ = model.undetected_poly.leading_term()
        self.ratio = model.m / model.n
        self.acc = highest_first(model.acceptance_poly.coefficients)
        self.und = highest_first(model.undetected_poly.coefficients[self.order :])
        self.limit = self._fixed_point()

    def step(self, x: float, s: int, cost: float) -> tuple[float, int, float, float]:
        """(mantissa, exponent, cost, acceptance) after this round."""
        p = ldexp(x, s)
        try:
            a = _horner(self.acc, p)
            q = _horner(self.und, p) / a
            cost_out = cost * self.ratio / a
        except ZeroDivisionError:
            raise VanishingDenominator(self.name, p) from None
        x_out, s_out = frexp(x**self.order * q)
        return x_out, s * self.order + s_out, cost_out, a

    def _fixed_point(self) -> float:
        def f(p: float) -> float:
            x, s, _, _ = self.step(*frexp(p), 1.0)
            return ldexp(x, s) - p

        lo, hi = THRESHOLD_BRACKET
        flo, fhi = f(lo), f(hi)
        if flo == 0:
            return lo
        if flo * fhi > 0:
            return 0.5 if flo < 0 else 0.0
        # Halve the bracket until it is at most THRESHOLD_TOL / 4 wide.
        return _bisect(f, lo, hi, flo, ceil(log2((hi - lo) / (THRESHOLD_TOL / 4))))


def _bisect(f, lo: float, hi: float, f_lo: float, steps: int) -> float:
    """Midpoint of [lo, hi] after ``steps`` halvings, each keeping a sign
    change of ``f`` inside; ``f_lo`` is f(lo).  It stops early once the
    midpoint is no longer strictly between the ends, since from there on no
    halving changes the midpoint."""
    for _ in range(steps):
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            break
        f_mid = f(mid)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return (lo + hi) / 2


def _horner(coefficients: tuple[float, ...], p: float) -> float:
    acc = 0.0
    for c in coefficients:
        acc = acc * p + c
    return acc


def _float_walk(
    rounds: Sequence[_FloatRound], p0: float, max_rounds: int
) -> Iterator[tuple[tuple[str, ...], float, float]]:
    """(sequence, error, cost) of every sequence up to ``max_rounds`` whose
    rounds all start below their threshold, by cost, then fewer rounds, then
    name, as the search ranks them; a diverged sequence's subtree is skipped.
    A popped prefix is yielded before it is extended, so a caller that stops
    at its hit extends nothing past it.  The order holds if no round lowers
    the cost (a(p) <= m/n, which ``load_routines_config`` checks): then a
    sequence sorts after its prefix, on a tie by its extra round.
    """
    heap = [(1.0, 0, (), *frexp(p0))]
    while heap:
        cost, depth, seq, x, s = heappop(heap)
        p = ldexp(x, s)
        if depth:
            yield seq, p, cost
        if depth < max_rounds:
            for rnd in rounds:
                if p < rnd.limit:
                    x1, s1, c1, _ = rnd.step(x, s, cost)
                    heappush(heap, (c1, depth + 1, seq + (rnd.name,), x1, s1))


class SearchResult(NamedTuple):
    plan: Optional[DistillationPlan]  # cheapest plan meeting the goal
    closest: Optional[DistillationPlan]  # best error achieved when none does


def best_sequence(
    goal: PlannerGoal, available: Optional[dict[str, RoutineModel]] = None
) -> SearchResult:
    """Cheapest sequence of up to ``max_rounds`` rounds that meets the goal,
    ties broken by fewer rounds and then by name: the float walk's first hit,
    the one sequence evaluated again, for its rounds.  When none meets the
    goal, ``closest`` is the one of least error, ties broken the same way.
    """
    goal.validate()
    models = available or builtin_models()
    eg = goal.goal_error()
    rounds = [_float_round(models[name]) for name in sorted(models)]
    closest = None  # (error, rounds, sequence)
    for seq, error, _ in _float_walk(rounds, goal.p0, goal.max_rounds):
        if error <= eg:
            best = evaluate_sequence([models[c] for c in seq], goal.p0)
            return SearchResult(plan=best, closest=best)
        if closest is None or (error, len(seq), seq) < closest:
            closest = (error, len(seq), seq)
    found = closest and evaluate_sequence([models[c] for c in closest[2]], goal.p0)
    return SearchResult(plan=None, closest=found)


def _first_hits(
    walk: Iterator[tuple[tuple[str, ...], float, float]], goals: Sequence[float]
) -> dict[float, tuple[str, float]]:
    """(name, cost) of the walk's first sequence at or below each goal error,
    for the goals some sequence meets; the walk stops once every goal has
    its hit."""
    pending = sorted(set(goals))
    hits = {}
    for seq, error, cost in walk:
        while pending and pending[-1] >= error:
            hits[pending.pop()] = "".join(seq), cost
        if not pending:
            break
    return hits


def _b_only_walk(p0: float) -> Iterator[tuple[tuple[str, ...], float, float]]:
    """The walk over 15-to-1-only sequences of up to ``B_ONLY_MAX_ROUNDS``."""
    return _float_walk([_float_round(builtin_models()["B"])], p0, B_ONLY_MAX_ROUNDS)


def shortest_b_only(target_error: float, p0: float) -> Optional[DistillationPlan]:
    """Shortest sequence of up to ``B_ONLY_MAX_ROUNDS`` rounds using only the
    15-to-1 routine with an equal or better final error."""
    hit = _first_hits(_b_only_walk(p0), [target_error]).get(target_error)
    return hit and evaluate_sequence(parse_sequence(hit[0]), p0)


def improvement_factor(plan: DistillationPlan) -> Optional[float]:
    """Cost of the shortest B-only sequence achieving the plan's error or
    better, relative to the plan's cost; None when no B-only sequence does
    (p0 at or above B's threshold, or more than 16 rounds needed)."""
    ref = shortest_b_only(plan.final_error, plan.p0)
    return None if ref is None else ref.final_cost / plan.final_cost


def asymptotic_exponent(model: RoutineModel) -> Optional[float]:
    """Exponent xi in the error-vs-resources law err ~ (const * p)^(k^xi).

    For a routine with small-p error kappa * p^d and per-round resource
    ratio m/n, xi = log(d) / log(m/n).  Returns None when d <= 1.
    """
    d, _ = model.leading_order()
    if d <= 1:
        return None
    return log(d) / log(model.m / model.n)


def iterate_closed_form(model: RoutineModel, p0: float, rounds: int) -> float:
    """Small-p closed form for the error after ``rounds`` rounds:
    kappa^(-1/(d-1)) * (kappa^(1/(d-1)) * p0)^(d^rounds)."""
    d, kappa = model.leading_order()
    if d <= 1:
        raise ValueError("needs an error of order p^2 or higher")
    scale = float(kappa) ** (1 / (d - 1))
    try:
        return (scale * p0) ** (d**rounds) / scale
    except OverflowError:  # scale * p0 > 1: the form grows past float's range
        return inf


class TableRow(NamedTuple):
    sequence: str
    cost: float
    error: float
    improvement: float


def table_rows(p0: float = 0.01) -> list[TableRow]:
    """Cost, output error and improvement factor for the standard sequence
    set at the given input error."""
    plans = [evaluate_sequence(parse_sequence(name), p0) for name in TABLE_SEQUENCES]
    refs = _first_hits(_b_only_walk(p0), [plan.final_error for plan in plans])
    rows = []
    for plan in plans:
        ref = refs.get(plan.final_error)
        improvement = None if ref is None else ref[1] / plan.final_cost
        rows.append(TableRow(plan.name, plan.final_cost, plan.final_error, improvement))
    return rows


def error_curves(sequences: Sequence[str], grid: Sequence[float]) -> list[list[float]]:
    """Rows (p, error per sequence) over the grid."""
    parts = _prefix_parts(sequences)
    return [[p, *(ldexp(x, s) for x, s in parts(p))] for p in grid]


def step_cost_curve(
    p0: float,
    eg_grid: Sequence[float],
    available: Optional[dict[str, RoutineModel]] = None,
    max_rounds: int = 6,
) -> list[tuple[float, float, str, float, str]]:
    """Rows (e_g, best cost, best sequence, B-only cost, B-only sequence)
    for the e_g points some sequence meets, in grid order: each point's
    answer is ``best_sequence``'s, read from one walk for all points, and
    its reference ``shortest_b_only``'s, from one B-only walk."""
    for eg in eg_grid:
        PlannerGoal(p0=p0, e_g=eg, max_rounds=max_rounds).validate()
    models = available or builtin_models()
    rounds = [_float_round(models[name]) for name in sorted(models)]
    best = _first_hits(_float_walk(rounds, p0, max_rounds), eg_grid)
    refs = _first_hits(_b_only_walk(p0), list(best))
    rows = []
    for eg in eg_grid:
        if eg in best:
            name, cost = best[eg]
            ref_name, ref_cost = refs.get(eg, ("", float("nan")))
            rows.append((eg, cost, name, ref_cost, ref_name))
    return rows


def _prefix_parts(names: Sequence[str]) -> Callable[[float], list[tuple[float, int]]]:
    """A function of p giving each name's output error as (mantissa,
    exponent), by ``evaluate_sequence``'s steps; each distinct prefix of the
    names is stepped once per p, from the prefix one round shorter."""
    steps = {}  # prefix -> (prefix one round shorter, its last round's step)
    for name in names:
        for k, model in enumerate(parse_sequence(name), 1):
            steps.setdefault(name[:k], (name[: k - 1], _float_round(model).step))

    def parts(p: float) -> list[tuple[float, int]]:
        done = {"": frexp(p)}
        for prefix, (shorter, step) in steps.items():
            done[prefix] = step(*done[shorter], 1.0)[:2]
        return [done[name] for name in names]

    return parts


def curve_crossings(
    sequences: Sequence[str], grid: Sequence[float]
) -> list[tuple[str, str, float]]:
    """Crossing points between consecutive sequence curves on the grid.

    Consecutive means adjacent in the given order (the standard set is cost
    ordered); the returned p values bound the preference regions.  A pair is
    bisected with its common last rounds stripped (one kept on each side),
    once per stripped pair: the builtin rounds are strictly increasing on
    [0, 1/2) and map it into itself, so those rounds move no crossing.  An
    error within 2^-40 of 1/2 has saturated, and there the sign of the
    log-ratio is float noise: a bracket is skipped when a stripped error
    has saturated at both of its ends, and a crossing is dropped when one
    has saturated at the crossing itself.
    """
    parse_sequence("".join(sequences))  # stripped rounds are checked too
    found = {}
    out = []
    for name_a, name_b in zip(sequences, sequences[1:]):
        a, b = name_a, name_b
        while len(a) > 1 and len(b) > 1 and a[-1] == b[-1]:
            a, b = a[:-1], b[:-1]
        if (a, b) not in found:
            parts = _prefix_parts([a, b])

            def gap(ends: list[tuple[float, int]]) -> float:
                # log(e_a / e_b) from mantissas and exponents: deep errors underflow as floats.
                (xa, sa), (xb, sb) = ends
                return log(xa / xb) + (sa - sb) * log(2)

            def saturated(ends: list[tuple[float, int]]) -> bool:
                return any(abs(ldexp(x, s) - 0.5) <= 2**-40 for x, s in ends)

            ends = [parts(p) for p in grid]
            gaps = [gap(e) for e in ends]
            sat = [saturated(e) for e in ends]
            brackets = zip(grid, grid[1:], gaps, gaps[1:], sat, sat[1:])
            roots = [_bisect(lambda p: gap(parts(p)), lo, hi, g_lo, 60)
                     for lo, hi, g_lo, g_hi, sat_lo, sat_hi in brackets
                     if g_lo * g_hi < 0 and not (sat_lo and sat_hi)]
            found[a, b] = [p for p in roots if not saturated(parts(p))]
        out += [(name_a, name_b, p) for p in found[a, b]]
    return out
