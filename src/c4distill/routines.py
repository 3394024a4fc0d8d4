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
the test suite).  Both are expanded in p once, with integer binomials
C(k, j) (-2)^j for the coefficients of x^k and one division by 16 or 32,
so that evaluation near p = 0 involves no cancellation.

Routines from a ``--routines`` file are read and checked by
``routines_config``, which only the CLI loads, and only for that option.
Its sign reads run on integer coefficient lists: ``ExactPolynomial`` only
evaluates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .exactalg import ExactPolynomial


class VanishingDenominator(ZeroDivisionError):
    """A routine's acceptance vanishes at p, so its output error is undefined."""

    def __init__(self, routine: str, p):
        super().__init__(f"routine {routine}: a denominator vanishes at p = {p}")


class RoutineModel:
    """An m-to-n distillation routine: exact acceptance a(p) and undetected
    weight u(p), with output error u(p)/a(p).  The planner needs a(p) <= m/n
    on [0, 1/2), so that no round lowers a plan's cost.

    Models are immutable and compare and hash by identity, so a cache keyed
    on a model hashes none of its coefficients.
    """

    __slots__ = ("name", "m", "n", "acceptance_poly", "undetected_poly")

    def __init__(
        self, name: str, m: int, n: int, acceptance_poly: ExactPolynomial, undetected_poly: ExactPolynomial
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "acceptance_poly", acceptance_poly)
        object.__setattr__(self, "undetected_poly", undetected_poly)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

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
    return RoutineModel(
        name="B",
        m=15,
        n=1,
        acceptance_poly=_in_p(((1, 0), (15, 8)), 16),
        undetected_poly=_in_p(((1, 0), (-15, 7), (15, 8), (-1, 15)), 32),
    )


def _in_p(terms: tuple[tuple[int, int], ...], den: int) -> ExactPolynomial:
    """The sum of s x^k over (s, k) in ``terms``, divided by ``den``, with
    x = 1 - 2p expanded in p on integers: x^k has coefficients C(k, j) (-2)^j."""
    top = max(k for _, k in terms)
    return ExactPolynomial.make(
        [Fraction(sum(s * comb(k, j) for s, k in terms) * (-2) ** j, den) for j in range(top + 1)]
    )


def builtin_models() -> dict[str, RoutineModel]:
    return {"A": model_ten_to_two(), "B": model_fifteen_to_one()}
