"""Independent reference for the benchmark's output checks.

The cost/error recursion of a distillation sequence is recomputed here from
the published coefficient lists, in Python ``decimal`` at 60 significant
digits, without importing ``c4distill``.  Routine A is the 10-to-2 routine
(acceptance and marginal-error polynomials in p); routine B is the 15-to-1
routine in its closed form with x = 1 - 2p, expanded into integer
coefficients so that evaluation near p = 0 cancels nothing.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from math import comb

DIGITS = 60
REL_TOL = 1e-9

PUBLISHED_ACCEPTANCE = (1, -10, 58, -192, 400, -544, 480, -256, 64)
PUBLISHED_MARGINAL = (0, 0, 9, -56, 160, -256, 240, -128, 32)
PUBLISHED_EITHER = (0, 0, 13, -80, 228, -368, 352, -192, 48)

# Sequences of the published comparison table, leftmost round first.
TABLE_SEQUENCES = ("A", "B", "AA", "BA", "AAA", "BB", "BAA", "AAAA", "BBA", "BAAA")

# Below both routines' thresholds (about 0.089 and 0.141) every round lowers
# the error, so no sequence diverges and the recursion needs no threshold.
MAX_P0 = 0.08


def _poly_add(*terms):
    out = [0] * max(len(t) for t in terms)
    for t in terms:
        for k, c in enumerate(t):
            out[k] += c
    return out


def _x_power(k, scale=1):
    """Coefficients (ascending in p) of scale * (1 - 2p)^k."""
    return [scale * comb(k, j) * (-2) ** j for j in range(k + 1)]


_B_ACC_NUM = _poly_add([1], _x_power(8, 15))  # 16 * acceptance
_B_ERR_NUM = _poly_add([1], _x_power(7, -15), _x_power(8, 15), _x_power(15, -1))

# name -> (m, n, acceptance numerator, acceptance denominator,
#          error numerator, error denominator)
MODELS = {
    "A": (10, 2, PUBLISHED_ACCEPTANCE, (1,), PUBLISHED_MARGINAL, PUBLISHED_ACCEPTANCE),
    "B": (15, 1, _B_ACC_NUM, (16,), _B_ERR_NUM, [2 * c for c in _B_ACC_NUM]),
}


def _horner(coeffs, p):
    acc = Decimal(0)
    for c in reversed(coeffs):
        acc = acc * p + c
    return acc


def _round(name, p):
    """(acceptance, output error) of one round at input error p."""
    _, _, an, ad, en, ed = MODELS[name]
    return _horner(an, p) / _horner(ad, p), _horner(en, p) / _horner(ed, p)


def _check_p0(p0: float):
    if not 0 < p0 < MAX_P0:
        raise ValueError(f"reference needs 0 < p0 < {MAX_P0}, got {p0}")


def recurse(sequence: str, p0: float) -> tuple[Decimal, Decimal]:
    """(final cost, final error) of a sequence started at error p0."""
    _check_p0(p0)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        p = Decimal(p0)
        cost = Decimal(1)
        for name in sequence:
            m, n = MODELS[name][:2]
            a, p = _round(name, p)
            cost = cost * m / (n * a)
        return cost, p


def all_sequences(p0: float, max_rounds: int) -> list[tuple[str, Decimal, Decimal]]:
    """(name, cost, error) of every sequence up to max_rounds, sharing the
    work of common prefixes."""
    _check_p0(p0)
    out = []
    with localcontext() as ctx:
        ctx.prec = DIGITS

        def walk(prefix, p, cost):
            for name in sorted(MODELS):
                m, n = MODELS[name][:2]
                a, q = _round(name, p)
                c = cost * m / (n * a)
                out.append((prefix + name, c, q))
                if len(prefix) + 1 < max_rounds:
                    walk(prefix + name, q, c)

        walk("", Decimal(p0), Decimal(1))
    return out


def best_plan(p0: float, e_g: float, max_rounds: int):
    """Cheapest (name, cost, error) meeting e_g, ties broken by fewer rounds
    then name; None when no sequence up to max_rounds reaches e_g."""
    goal = Decimal(e_g)
    feasible = [s for s in all_sequences(p0, max_rounds) if s[2] <= goal]
    if not feasible:
        return None
    return min(feasible, key=lambda s: (s[1], len(s[0]), s[0]))


def shortest_b_only(target: Decimal, p0: float, max_rounds: int = 16):
    for k in range(1, max_rounds + 1):
        cost, err = recurse("B" * k, p0)
        if err <= target:
            return "B" * k, cost, err
    return None


def improvement(cost: Decimal, error: Decimal, p0: float) -> Decimal:
    ref = shortest_b_only(error, p0)
    if ref is None:
        raise ValueError("no 15-to-1-only sequence reaches the error")
    return ref[1] / cost


def close(got: float, want, rel: float = REL_TOL) -> bool:
    want = float(want)
    return abs(got - want) <= rel * abs(want)


def printed_matches(text: str, value) -> bool:
    """Whether a number printed with limited digits is ``value`` correctly
    rounded, allowing half a unit in the last printed place."""
    mantissa, _, exponent = text.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    ulp = 10.0 ** (int(exponent or 0) - decimals)
    return abs(float(text) - float(value)) <= 0.5 * ulp * (1 + 1e-6)


def check_plan_payload(payload: dict, p0: float, e_g: float, max_rounds: int) -> list[str]:
    """Problems with a ``plan`` result (CLI JSON or ``as_dict`` form plus
    ``feasible``); empty when it is correct."""
    problems = []
    best = best_plan(p0, e_g, max_rounds)
    if not payload.get("feasible", True) or payload.get("sequence") is None:
        if best is not None:
            problems.append(f"reported infeasible, but {best[0]} reaches {e_g}")
        return problems
    name = payload["sequence"]
    cost, err = recurse(name, p0)
    if not close(payload["final_cost"], cost):
        problems.append(f"{name} cost {payload['final_cost']} != reference {float(cost)}")
    if not close(payload["final_error"], err):
        problems.append(f"{name} error {payload['final_error']} != reference {float(err)}")
    if float(err) > e_g * (1 + REL_TOL):
        problems.append(f"{name} error {float(err)} misses goal {e_g}")
    if best is None:
        problems.append("reference finds no sequence meeting the goal")
    elif float(cost) > float(best[1]) * (1 + REL_TOL):
        problems.append(f"{name} costs {float(cost)}, {best[0]} only {float(best[1])}")
    if "improvement_factor" in payload:
        want = improvement(cost, err, p0)
        if not close(payload["improvement_factor"], want):
            problems.append(f"improvement {payload['improvement_factor']} != {float(want)}")
    return problems


def check_table1(text: str, p0: float) -> list[str]:
    """Problems with ``table1`` CSV output at input error p0."""
    lines = text.rstrip("\n").split("\n")
    if lines[0] != "sequence,cost,output_error,improvement,cost_full,error_full":
        return [f"unexpected header {lines[0]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if tuple(r[0] for r in rows) != TABLE_SEQUENCES:
        return ["sequence column differs from the published table"]
    problems = []
    for name, c1, e0, imp, c4, e5 in rows:
        cost, err = recurse(name, p0)
        want = (cost, err, improvement(cost, err, p0), cost, err)
        for text_value, ref in zip((c1, e0, imp, c4, e5), want):
            if not printed_matches(text_value, ref):
                problems.append(f"{name}: printed {text_value}, reference {float(ref)}")
    return problems
