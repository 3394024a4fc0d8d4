"""Uniform models of distillation routines.

A routine is characterized by its input/output counts and two functions of
the input error probability p: the acceptance probability and the marginal
output error conditional on acceptance.  Both are stored as exact rational
functions, so evaluation works unchanged for float, Decimal and Fraction
arguments; the planner's float recursion takes the coefficients of
numerator and denominator separately, which keeps errors near 1e-30 fully
accurate.

Model "A" is the 10-to-2 routine with the polynomials derived by the
exhaustive enumeration.  Model "B" is the 15-to-1 routine, taken in closed
form (with x = 1 - 2p): acceptance (1 + 15 x^8)/16 and output error
(1 - 15 x^7 + 15 x^8 - x^15) / (2 (1 + 15 x^8)).  Those expressions are
imported, not derived here, and are only trusted because the planner
reproduces all published multi-round costs and errors built on them (see
the test suite).  The error numerator is expanded symbolically in p so that
evaluation near p = 0 involves no cancellation.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactalg import ExactPolynomial, RationalFunction


class VanishingDenominator(ZeroDivisionError):
    """A routine's acceptance or output error has a zero denominator at p."""

    def __init__(self, routine: str, p):
        super().__init__(f"routine {routine}: a denominator vanishes at p = {p}")


@dataclass(frozen=True)
class RoutineModel:
    """An m-to-n distillation routine with exact acceptance/error functions."""

    name: str
    m: int
    n: int
    acceptance_fn: RationalFunction
    error_fn: RationalFunction

    def acceptance(self, p):
        return self._evaluate(self.acceptance_fn, p)

    def output_error(self, p):
        return self._evaluate(self.error_fn, p)

    def _evaluate(self, fn: RationalFunction, p):
        try:
            return fn(p)
        except ZeroDivisionError:
            raise VanishingDenominator(self.name, p) from None

    def leading_order(self) -> tuple[int, Fraction]:
        """(degree d, coefficient kappa) of the small-p error kappa * p^d."""
        d, c = self.error_fn.num.leading_term()
        den0 = self.error_fn.den(Fraction(0))
        return d, c / den0


@lru_cache(maxsize=1)
def model_ten_to_two() -> RoutineModel:
    """The 10-to-2 routine backed by the exact enumeration polynomials."""
    from .enumeration import derive_polynomials

    ps = derive_polynomials()
    e, _ = ps.conditional_errors()
    return RoutineModel(
        name="A",
        m=10,
        n=2,
        acceptance_fn=RationalFunction(ps.acceptance, ExactPolynomial.make([1])),
        error_fn=e,
    )


@lru_cache(maxsize=1)
def model_fifteen_to_one() -> RoutineModel:
    x = ExactPolynomial.make([1, -2])  # x = 1 - 2p
    x8 = x**8
    acc_num = ExactPolynomial.make([1]) + x8.scaled(15)
    err_num = (
        ExactPolynomial.make([1])
        - (x**7).scaled(15)
        + x8.scaled(15)
        - x**15
    )
    return RoutineModel(
        name="B",
        m=15,
        n=1,
        acceptance_fn=RationalFunction(acc_num, ExactPolynomial.make([16])),
        error_fn=RationalFunction(err_num, acc_num.scaled(2)),
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
    not a number, or an acceptance that is not positive at p = 0 raises
    ValueError.
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
        sec = parser[name]
        missing = [key for key in ("m", "n", "acceptance", "undetected") if key not in sec]
        if missing:
            raise ValueError(f"routine [{name}] lacks {', '.join(missing)}")
        m, n = sec.getint("m"), sec.getint("n")
        if m < 1 or n < 1:
            raise ValueError(f"routine [{name}] needs m >= 1 and n >= 1, got m={m}, n={n}")
        acc = ExactPolynomial.make(_coeffs(sec["acceptance"]))
        if acc(Fraction(0)) <= 0:
            raise ValueError(f"routine [{name}] needs acceptance > 0 at p = 0")
        und = ExactPolynomial.make(_coeffs(sec["undetected"]))
        models[name] = RoutineModel(
            name=name,
            m=m,
            n=n,
            acceptance_fn=RationalFunction(acc, ExactPolynomial.make([1])),
            error_fn=RationalFunction(und, acc),
        )
    return models


def _coeffs(text: str) -> list[Fraction]:
    try:
        return [Fraction(tok) for tok in text.split()]
    except ZeroDivisionError as exc:
        raise ValueError(f"coefficient with a zero denominator in {text!r}") from exc
