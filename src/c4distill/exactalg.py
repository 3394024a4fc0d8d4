"""Exact scalar and polynomial arithmetic.

``Exact`` is an element of the ring Z[i, sqrt2], held as four Python ints.
Every amplitude of the routine's Kraus assembly is such an element once
the assembly's one power-of-sqrt2 scale is taken out (see
``enumeration``), so the exact core needs no rational arithmetic.
``ExactPolynomial`` holds univariate polynomials with rational coefficients;
the acceptance and undetected-error polynomials of every routine live here
so coefficient comparisons are exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

Rat = Union[int, Fraction]


class Exact:
    """(a + b*sqrt2) + i*(c + d*sqrt2) with integer a, b, c, d; immutable."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int = 0, b: int = 0, c: int = 0, d: int = 0):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, o) -> bool:
        if o.__class__ is not Exact:
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self) -> str:
        return f"Exact(a={self.a!r}, b={self.b!r}, c={self.c!r}, d={self.d!r})"

    def __mul__(self, o: "Exact") -> "Exact":
        # (x1 + i y1)(x2 + i y2) with x, y in Z[sqrt2].
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = o.a, o.b, o.c, o.d
        ra = a * e + 2 * b * f - c * g - 2 * d * h
        rb = a * f + b * e - c * h - d * g
        rc = a * g + 2 * b * h + c * e + 2 * d * f
        rd = a * h + b * g + c * f + d * e
        return Exact(ra, rb, rc, rd)

    def abs2(self) -> int:
        """Squared modulus, exactly; an AssertionError when it is irrational
        (a sqrt2 part survives), which no amplitude of the routine allows."""
        a, b, c, d = self.a, self.b, self.c, self.d
        if a * b + c * d:
            raise AssertionError(f"squared modulus of {self} is irrational")
        return a * a + 2 * b * b + c * c + 2 * d * d

    @staticmethod
    def i_power(k: int) -> "Exact":
        return _I_POWERS[k & 3]


E_ONE = Exact(1)
_I_POWERS = (E_ONE, Exact(c=1), Exact(-1), Exact(c=-1))


def _as_fraction_list(coeffs: Sequence[Rat]) -> tuple[Fraction, ...]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class ExactPolynomial:
    """Univariate polynomial, coefficients by ascending degree; immutable."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[Fraction, ...]):
        object.__setattr__(self, "coefficients", coefficients)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, o) -> bool:
        if o.__class__ is not ExactPolynomial:
            return NotImplemented
        return self.coefficients == o.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    @classmethod
    def make(cls, coeffs: Sequence[Rat]) -> "ExactPolynomial":
        return cls(_as_fraction_list(coeffs))

    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __add__(self, o: "ExactPolynomial") -> "ExactPolynomial":
        n = max(len(self.coefficients), len(o.coefficients))
        cs = [Fraction(0)] * n
        for i, c in enumerate(self.coefficients):
            cs[i] += c
        for i, c in enumerate(o.coefficients):
            cs[i] += c
        return ExactPolynomial(_as_fraction_list(cs))

    def __sub__(self, o: "ExactPolynomial") -> "ExactPolynomial":
        return self + o.scaled(-1)

    def scaled(self, s: Rat) -> "ExactPolynomial":
        return ExactPolynomial(_as_fraction_list([Fraction(s) * c for c in self.coefficients]))

    def __mul__(self, o: "ExactPolynomial") -> "ExactPolynomial":
        if not self.coefficients or not o.coefficients:
            return ExactPolynomial(())
        cs = [Fraction(0)] * (len(self.coefficients) + len(o.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(o.coefficients):
                cs[i + j] += a * b
        return ExactPolynomial(_as_fraction_list(cs))

    def __pow__(self, k: int) -> "ExactPolynomial":
        out = ExactPolynomial.make([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, p):
        """Evaluate by Horner's rule; exact for Fraction inputs, and works
        unchanged for float/Decimal arguments (coefficients enter as integer
        numerator over integer denominator, which every numeric type takes).
        """
        zero = 0 * p
        acc = zero
        for c in reversed(self.coefficients):
            term = (zero + c.numerator) / c.denominator if c.denominator != 1 else c.numerator
            acc = acc * p + term
        return acc

    def leading_term(self) -> tuple[int, Fraction]:
        for i, c in enumerate(self.coefficients):
            if c != 0:
                return i, c
        return 0, Fraction(0)

    def as_integers(self) -> list[int]:
        out = []
        for c in self.coefficients:
            if c.denominator != 1:
                raise ValueError(f"non-integer coefficient {c}")
            out.append(int(c))
        return out

