"""The ``--routines`` loader: extra routine models read from a config file,
each checked by exact root counts of its polynomials on (0, 1/2).  Only the
CLI loads this module, and only when ``--routines`` is given.
"""

from __future__ import annotations

import configparser
from fractions import Fraction
from itertools import accumulate, zip_longest
from math import gcd, lcm
from typing import Sequence

from .exactalg import ExactPolynomial
from .planner import THRESHOLD_BRACKET
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
        a = acc.coefficients
        if _signs_below_half(a)[1]:
            raise ValueError(f"routine [{name}] has an acceptance that vanishes in (0, 1/2)")
        if _negative_below_half(_minus([Fraction(m, n)], a)):
            raise ValueError(f"routine [{name}] has an acceptance above m/n in [0, 1/2)")
        und = ExactPolynomial.make(_coeffs(sec["undetected"]))
        u = und.coefficients
        if _negative_below_half(u):
            raise ValueError(f"routine [{name}] has an undetected weight not positive in (0, 1/2)")
        # The planner's threshold bisects on one sign change of e(p) - p, from - to +.
        gap = _minus(u, [0, *a])  # u - p a
        start, roots, end = _signs_below_half(gap)
        if roots > (start < 0):
            raise ValueError(f"routine [{name}] has an output error equal to p twice, or once from above, in (0, 1/2)")
        if _negative_below_half(_minus(a, u)):  # an output error of 1 or more
            raise ValueError(f"routine [{name}] has an undetected weight above the acceptance in (0, 1/2)")
        # A crossing from THRESHOLD_BRACKET's top, 1/4, up escapes the bracket.
        if end > 0 and ExactPolynomial.make(gap)(Fraction(THRESHOLD_BRACKET[1])) <= 0:
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


def _minus(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """The coefficients of a - b."""
    return [x - y for x, y in zip_longest(a, b, fillvalue=0)]


def _negative_below_half(coeffs: Sequence[Fraction]) -> bool:
    """Whether a nonzero polynomial is negative or vanishes in (0, 1/2)."""
    start, roots, _ = _signs_below_half(coeffs)
    return start < 0 or roots > 0


def _signs_below_half(coeffs: Sequence[Fraction]) -> tuple[int, int, int]:
    """(sign just above 0, distinct roots in (0, 1/2), sign just below 1/2)
    of the polynomial with ascending rational ``coeffs``, all 0 for the zero
    polynomial.  Its denominators and content are cleared, its lowest power
    of p and every factor 1 - 2p are divided out, so that neither end is a
    root, and Sturm's theorem counts the roots between.  Each member of the
    chain after the first is the primitive part of a pseudo-remainder, so
    its size grows linearly with the degree, not quadratically (Collins's
    primitive remainder sequence)."""
    scale = lcm(*(c.denominator for c in coeffs))
    poly = _primitive([c.numerator * (scale // c.denominator) for c in coeffs])
    poly = poly[next((k for k, c in enumerate(poly) if c), len(poly)) :]
    if not poly:
        return 0, 0, 0
    # Partial sums of Horner's rule at 2 from the constant term up: the last
    # is 2^d poly(1/2), and when it is 0 the others are poly / (1 - 2p),
    # on integers by Gauss's lemma.
    while not (halves := list(accumulate(poly, lambda acc, c: 2 * acc + c)))[-1]:
        poly = halves[:-1]
    chain = [poly, _primitive([k * c for k, c in enumerate(poly)][1:])]
    while chain[-1]:
        chain.append(_primitive([-c for c in _remainder(chain[-2], chain[-1])]))
    at_zero = _variations(f[0] for f in chain[:-1])
    at_half = _variations(sum(c << k for k, c in enumerate(reversed(f))) for f in chain[:-1])
    return (1 if poly[0] > 0 else -1), at_zero - at_half, (1 if halves[-1] > 0 else -1)


def _primitive(poly: list[int]) -> list[int]:
    """``poly`` without zero top coefficients, divided by its content."""
    while poly and not poly[-1]:
        poly.pop()
    content = gcd(*poly)
    return [c // content for c in poly] if content > 1 else poly


def _remainder(a: list[int], b: list[int]) -> list[int]:
    """The remainder of ``a`` divided by a nonzero ``b``, times |lead(b)| for
    each step of the division: a positive multiple, so it has the signs of
    the remainder, and integer coefficients."""
    scale, rest = abs(b[-1]), list(a)
    for shift in reversed(range(len(a) - len(b) + 1)):
        q = rest.pop() if b[-1] > 0 else -rest.pop()
        rest = [scale * r for r in rest[:shift]] + [scale * r - q * c for r, c in zip(rest[shift:], b)]
    return rest


def _variations(values) -> int:
    """Sign changes along ``values``, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))
