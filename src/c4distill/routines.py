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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .exactalg import ExactPolynomial


class VanishingDenominator(ZeroDivisionError):
    """A routine's acceptance vanishes at p, so its output error is undefined."""

    def __init__(self, routine: str, p):
        super().__init__(f"routine {routine}: a denominator vanishes at p = {p}")


@dataclass(frozen=True, eq=False)
class RoutineModel:
    """An m-to-n distillation routine: exact acceptance a(p) and undetected
    weight u(p), with output error u(p)/a(p).  The planner needs a(p) <= m/n
    on [0, 1/2), so that no round lowers a plan's cost.

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


def load_routines_config(path: str) -> dict[str, RoutineModel]:
    """Read extra routines from a key/value config file.

    Each section defines one routine::

        [C]
        m = 7
        n = 1
        acceptance = 1 -7 21 ...     ; polynomial in p, ascending degree
        undetected = 0 0 0 35 ...    ; ditto; output error is undetected/acceptance

    Coefficients may be integers or fractions like ``3/16``.  A malformed
    file, a section missing a key, m or n below 1, an m/n or a coefficient
    that is not a number or lies beyond float range, an acceptance outside
    (0, 1] at p = 0, with a root in (0, 1/2) or above m/n in [0, 1/2), a
    nonzero undetected weight that is negative or vanishes in (0, 1/2), or
    that reaches the acceptance there without equalling it throughout (an
    output error of 1 or more), an output error equal to p at two points of
    (0, 1/2), or at one if it starts above p, or crossing p in [1/4, 1/2),
    a section name that is not one character (a sequence names one routine
    per character), or a builtin routine's name raises ValueError.
    """
    import configparser

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
        if name in ("A", "B"):
            raise ValueError(f"routine [{name}] would replace the builtin routine {name}")
        sec = parser[name]
        missing = [key for key in ("m", "n", "acceptance", "undetected") if key not in sec]
        if missing:
            raise ValueError(f"routine [{name}] lacks {', '.join(missing)}")
        m, n = sec.getint("m"), sec.getint("n")
        if m < 1 or n < 1:
            raise ValueError(f"routine [{name}] needs m >= 1 and n >= 1, got m={m}, n={n}")
        try:
            float(Fraction(m, n))  # the planner's cost factor
        except OverflowError:
            raise ValueError(f"routine [{name}] has an m/n beyond float range") from None
        acc = ExactPolynomial.make(_coeffs(sec["acceptance"]))
        if not 0 < acc(Fraction(0)) <= 1:
            raise ValueError(f"routine [{name}] needs 0 < acceptance <= 1 at p = 0")
        if _signs_below_half(acc)[1]:
            raise ValueError(f"routine [{name}] has an acceptance that vanishes in (0, 1/2)")
        if _negative_below_half(ExactPolynomial.make([Fraction(m, n)]) - acc):
            raise ValueError(f"routine [{name}] has an acceptance above m/n in [0, 1/2)")
        und = ExactPolynomial.make(_coeffs(sec["undetected"]))
        if _negative_below_half(und):
            raise ValueError(f"routine [{name}] has an undetected weight not positive in (0, 1/2)")
        # The planner's threshold bisects on one sign change of e(p) - p, from - to +.
        gap = und - acc * ExactPolynomial.make([0, 1])  # u - p a
        start, roots, end = _signs_below_half(gap)
        if roots > (start < 0):
            raise ValueError(f"routine [{name}] has an output error equal to p twice, or once from above, in (0, 1/2)")
        if _negative_below_half(acc - und):  # an output error of 1 or more
            raise ValueError(f"routine [{name}] has an undetected weight above the acceptance in (0, 1/2)")
        if end > 0 and gap(Fraction(1, 4)) <= 0:  # a crossing from 1/4 up escapes THRESHOLD_BRACKET
            raise ValueError(f"routine [{name}] has an output error that crosses p in [1/4, 1/2)")
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


def _negative_below_half(poly: ExactPolynomial) -> bool:
    """Whether a nonzero ``poly`` is negative or vanishes in (0, 1/2)."""
    start, roots, _ = _signs_below_half(poly)
    return start < 0 or roots > 0


def _signs_below_half(poly: ExactPolynomial) -> tuple[int, int, int]:
    """(sign just above 0, distinct roots in (0, 1/2), sign just below 1/2)
    of ``poly``, all 0 for the zero polynomial.  Its lowest power of p and
    every factor 1 - 2p are divided out, so that neither end is a root, and
    Sturm's theorem counts the roots between.  Each member of the chain after
    the first is scaled to coprime integers, so its size grows linearly with
    the degree, not quadratically (Collins's primitive remainder sequence)."""
    poly = ExactPolynomial.make(poly.coefficients[poly.leading_term()[0] :])
    if not poly.coefficients:
        return 0, 0, 0
    while not poly(Fraction(1, 2)):
        poly = _divmod(poly, ExactPolynomial.make([1, -2]))[0]
    chain = [poly, ExactPolynomial.make([k * c for k, c in enumerate(poly.coefficients)][1:])]
    while chain[-1].coefficients:  # times lcm(denominators) / gcd(numerators) > 0; ends on 0
        cs = chain[-1].coefficients
        chain[-1] = chain[-1].scaled(Fraction(lcm(*(c.denominator for c in cs)), gcd(*(c.numerator for c in cs))))
        chain.append(_divmod(chain[-2], chain[-1])[1].scaled(-1))

    def sign_changes(p: Fraction) -> int:
        signs = [v > 0 for v in (f(p) for f in chain) if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    start, end = (1 if v > 0 else -1 for v in (poly.coefficients[0], poly(Fraction(1, 2))))
    return start, sign_changes(Fraction(0)) - sign_changes(Fraction(1, 2)), end


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
