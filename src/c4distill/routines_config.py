"""The ``--routines`` loader: extra routine models read from a config file,
each checked by exact root counts of its polynomials on (0, 1/2).  Only the
CLI loads this module, and only when ``--routines`` is given.
"""

from __future__ import annotations

import configparser
from fractions import Fraction
from math import gcd, lcm

from .exactalg import ExactPolynomial
from .routines import RoutineModel


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
