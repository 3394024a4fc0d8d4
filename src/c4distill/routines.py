"""Uniform models of distillation routines.

A routine is characterized by its input/output counts and two exact
polynomials in the input error probability p: the acceptance probability
a(p) and the undetected-error weight u(p) of one output, so that the output
error conditional on acceptance is u(p)/a(p).  Evaluation of the exact
polynomials works unchanged for float, Decimal and Fraction arguments; the
planner's float recursion (``planner._FloatRound``) takes their coefficients
separately, which keeps errors near 1e-30 fully accurate.

Model "A" is the 10-to-2 routine with the polynomials derived by the
exhaustive enumeration.  Model "B" is the 15-to-1 routine, taken in closed
form (with x = 1 - 2p): acceptance (1 + 15 x^8)/16 and undetected weight
(1 - 15 x^7 + 15 x^8 - x^15)/32, so its output error is
(1 - 15 x^7 + 15 x^8 - x^15) / (2 (1 + 15 x^8)).  Those expressions are
imported, not derived here, and are only trusted because the planner
reproduces all published multi-round costs and errors built on them (see
the test suite).  The undetected weight is expanded symbolically in p so
that evaluation near p = 0 involves no cancellation.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactalg import ExactPolynomial


class VanishingDenominator(ZeroDivisionError):
    """A routine's acceptance vanishes at p, so its output error is undefined."""

    def __init__(self, routine: str, p):
        super().__init__(f"routine {routine}: a denominator vanishes at p = {p}")


@dataclass(frozen=True, eq=False)
class RoutineModel:
    """An m-to-n distillation routine: exact acceptance a(p) and undetected
    weight u(p), with output error u(p)/a(p).

    Models compare and hash by identity, so a cache keyed on a model hashes
    none of its coefficients.
    """

    name: str
    m: int
    n: int
    acceptance_poly: ExactPolynomial
    undetected_poly: ExactPolynomial

    def acceptance(self, p):
        return self.acceptance_poly(p)

    def output_error(self, p):
        a = self.acceptance_poly(p)
        if a == 0:
            raise VanishingDenominator(self.name, p)
        return self.undetected_poly(p) / a

    def leading_order(self) -> tuple[int, Fraction]:
        """(degree d, coefficient kappa) of the small-p error kappa * p^d."""
        d, c = self.undetected_poly.leading_term()
        return d, c / self.acceptance_poly(Fraction(0))


@lru_cache(maxsize=1)
def model_ten_to_two() -> RoutineModel:
    """The 10-to-2 routine backed by the exact enumeration polynomials."""
    from .enumeration import derive_polynomials

    ps = derive_polynomials()
    return RoutineModel(
        name="A", m=10, n=2, acceptance_poly=ps.acceptance, undetected_poly=ps.marginal
    )


@lru_cache(maxsize=1)
def model_fifteen_to_one() -> RoutineModel:
    x = ExactPolynomial.make([1, -2])  # x = 1 - 2p
    one = ExactPolynomial.make([1])
    x8_15 = (x**8).scaled(15)
    return RoutineModel(
        name="B",
        m=15,
        n=1,
        acceptance_poly=(one + x8_15).scaled(Fraction(1, 16)),
        undetected_poly=(one - (x**7).scaled(15) + x8_15 - x**15).scaled(Fraction(1, 32)),
    )


def builtin_models() -> dict[str, RoutineModel]:
    return {"A": model_ten_to_two(), "B": model_fifteen_to_one()}


def load_routines_config(path: str) -> dict[str, RoutineModel]:
    """Read extra routines from a key/value config file.

    Each section defines one routine::

        [C]
        m = 7
        n = 1
        acceptance = 1 -21 189 ...   ; polynomial in p, ascending degree
        undetected = 0 0 0 35 ...    ; ditto; output error is undetected/acceptance

    Coefficients may be integers or fractions like ``3/16``.  A malformed
    file, a section missing a key, m or n below 1, a coefficient that is
    not a number or lies beyond float range, an acceptance that lies
    outside (0, 1] at p = 0 or has a root in (0, 1/2), a nonzero undetected
    weight that is negative or vanishes in (0, 1/2), or a section name that
    is not one character (a sequence names one routine per character)
    raises ValueError.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ValueError(f"malformed routines config: {exc}") from exc
    if not read:
        raise FileNotFoundError(f"cannot read {path}")
    models = {}
    for name in parser.sections():
        if len(name) != 1:
            raise ValueError(f"routine [{name}] needs a one-character name")
        sec = parser[name]
        missing = [key for key in ("m", "n", "acceptance", "undetected") if key not in sec]
        if missing:
            raise ValueError(f"routine [{name}] lacks {', '.join(missing)}")
        m, n = sec.getint("m"), sec.getint("n")
        if m < 1 or n < 1:
            raise ValueError(f"routine [{name}] needs m >= 1 and n >= 1, got m={m}, n={n}")
        acc = ExactPolynomial.make(_coeffs(sec["acceptance"]))
        if not 0 < acc(Fraction(0)) <= 1:
            raise ValueError(f"routine [{name}] needs 0 < acceptance <= 1 at p = 0")
        if _roots_below_half(acc):
            raise ValueError(f"routine [{name}] has an acceptance that vanishes in (0, 1/2)")
        und = ExactPolynomial.make(_coeffs(sec["undetected"]))
        # u / p^v for the lowest degree v of u, which does not vanish at 0.
        low = ExactPolynomial.make(und.coefficients[und.leading_term()[0] :])
        if low.coefficients and (low.coefficients[0] < 0 or _roots_below_half(low)):
            raise ValueError(f"routine [{name}] has an undetected weight not positive in (0, 1/2)")
        models[name] = RoutineModel(name=name, m=m, n=n, acceptance_poly=acc, undetected_poly=und)
    return models


def _coeffs(text: str) -> list[Fraction]:
    try:
        coeffs = [Fraction(tok) for tok in text.split()]
        for c in coeffs:
            float(c)  # the planner evaluates in float
    except ZeroDivisionError as exc:
        raise ValueError(f"coefficient with a zero denominator in {text!r}") from exc
    except OverflowError as exc:
        raise ValueError(f"coefficient beyond float range in {text!r}") from exc
    return coeffs


def _roots_below_half(poly: ExactPolynomial) -> int:
    """Distinct roots of ``poly`` in (0, 1/2), by Sturm's theorem, for a
    ``poly`` that does not vanish at 0.  The chain is divided by its last
    member, the gcd of ``poly`` and its derivative, so multiple roots count
    once and a root at 1/2 is simple."""
    derivative = ExactPolynomial.make([k * c for k, c in enumerate(poly.coefficients)][1:])
    chain = [poly, derivative]
    while chain[-1].coefficients:
        chain.append(_divmod(chain[-2], chain[-1])[1].scaled(-1))
    chain.pop()
    chain = [_divmod(f, chain[-1])[0] for f in chain]

    def sign_changes(p: Fraction) -> int:
        signs = [v > 0 for v in (f(p) for f in chain) if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    half = Fraction(1, 2)
    # Sturm counts the roots in (0, 1/2]; one at 1/2 itself is allowed.
    return sign_changes(Fraction(0)) - sign_changes(half) - (chain[0](half) == 0)


def _divmod(a: ExactPolynomial, b: ExactPolynomial) -> tuple[ExactPolynomial, ExactPolynomial]:
    """Quotient and remainder of exact polynomial division by a nonzero ``b``."""
    top = b.degree()
    quotient = [Fraction(0)] * max(a.degree() - top + 1, 0)
    rest = list(a.coefficients)
    for shift in reversed(range(len(quotient))):
        c = quotient[shift] = rest[shift + top] / b.coefficients[top]
        for k, bc in enumerate(b.coefficients):
            rest[shift + k] -= c * bc
    return ExactPolynomial.make(quotient), ExactPolynomial.make(rest)
