"""Exact scalar and polynomial arithmetic.

``Exact`` is an element of Q(i, sqrt2), enough to carry the amplitudes that
appear when Pauli operators and Hadamards act on the +-1 eigenstates of H.
``ExactPolynomial`` holds univariate polynomials with rational coefficients;
the acceptance and undetected-error polynomials of every routine live here
so coefficient comparisons are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Rat = Union[int, Fraction]


@dataclass(frozen=True)
class QSqrt2:
    """a + b*sqrt2 with rational parts; the value type of squared moduli."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    def __add__(self, o: "QSqrt2") -> "QSqrt2":
        return QSqrt2(self.a + o.a, self.b + o.b)

    def __sub__(self, o: "QSqrt2") -> "QSqrt2":
        return QSqrt2(self.a - o.a, self.b - o.b)

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"irrational value {self}")
        return self.a

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * 2 ** 0.5


QS_ZERO = QSqrt2()


@dataclass(frozen=True)
class Exact:
    """(a + b*sqrt2) + i*(c + d*sqrt2) with rational a, b, c, d."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)
    c: Fraction = Fraction(0)
    d: Fraction = Fraction(0)

    def __add__(self, o: "Exact") -> "Exact":
        return Exact(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    def __sub__(self, o: "Exact") -> "Exact":
        return Exact(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __neg__(self) -> "Exact":
        return Exact(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, o: "Exact") -> "Exact":
        # (x1 + i y1)(x2 + i y2) with x, y in Q[sqrt2].
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = o.a, o.b, o.c, o.d
        ra = a * e + 2 * b * f - c * g - 2 * d * h
        rb = a * f + b * e - c * h - d * g
        rc = a * g + 2 * b * h + c * e + 2 * d * f
        rd = a * h + b * g + c * f + d * e
        return Exact(ra, rb, rc, rd)

    def conj(self) -> "Exact":
        return Exact(self.a, self.b, -self.c, -self.d)

    def abs2(self) -> QSqrt2:
        """Squared modulus, exactly, as an element of Q[sqrt2]."""
        v = self * self.conj()
        if v.c != 0 or v.d != 0:
            raise AssertionError(f"squared modulus not real: {v}")
        return QSqrt2(v.a, v.b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    @staticmethod
    def rational(q: Rat) -> "Exact":
        return Exact(Fraction(q))

    @staticmethod
    def i_power(k: int) -> "Exact":
        return (E_ONE, E_I, -E_ONE, -E_I)[k & 3]


E_ZERO = Exact()
E_ONE = Exact(Fraction(1))
E_I = Exact(c=Fraction(1))
E_INV_SQRT2 = Exact(b=Fraction(1, 2))  # (1/2)*sqrt2 == 1/sqrt2

# Single-qubit operators in the (|H>, |-H>) basis, stored column-major:
# OP[name][r][c] is <basis_r| op |basis_c>.
_R = E_INV_SQRT2
H_BASIS_OPS: dict[str, tuple[tuple[Exact, Exact], tuple[Exact, Exact]]] = {
    "I": ((E_ONE, E_ZERO), (E_ZERO, E_ONE)),
    "H": ((E_ONE, E_ZERO), (E_ZERO, -E_ONE)),
    "X": ((_R, _R), (_R, -_R)),
    "Z": ((_R, -_R), (-_R, -_R)),
    "Y": ((E_ZERO, -E_I), (E_I, E_ZERO)),
}


class HBasisState:
    """Exact two-qubit state in the |+-H> x |+-H> basis (index: q1*2 + q2,
    bit 1 marking the flipped |-H| component)."""

    __slots__ = ("amps",)

    def __init__(self, amps: Sequence[Exact]):
        self.amps = tuple(amps)

    @staticmethod
    def basis(idx: int) -> "HBasisState":
        return HBasisState([E_ONE if k == idx else E_ZERO for k in range(4)])

    def __add__(self, o: "HBasisState") -> "HBasisState":
        return HBasisState([x + y for x, y in zip(self.amps, o.amps)])

    def scaled(self, s: Exact) -> "HBasisState":
        return HBasisState([s * x for x in self.amps])

    def apply_1q(self, op: str, qubit: int) -> "HBasisState":
        m = H_BASIS_OPS[op]
        out = [E_ZERO] * 4
        for idx, amp in enumerate(self.amps):
            if amp.is_zero():
                continue
            bit = (idx >> (1 - qubit)) & 1
            for new_bit in (0, 1):
                coeff = m[new_bit][bit]
                if coeff.is_zero():
                    continue
                new_idx = idx ^ ((bit ^ new_bit) << (1 - qubit))
                out[new_idx] = out[new_idx] + coeff * amp
        return HBasisState(out)

    def apply_xz(self, x_pow: int, z_pow: int, qubit: int) -> "HBasisState":
        """Apply the canonical monomial X^x Z^z (Z first) to one qubit."""
        st = self
        if z_pow:
            st = st.apply_1q("Z", qubit)
        if x_pow:
            st = st.apply_1q("X", qubit)
        return st

    def norm2(self) -> QSqrt2:
        return sum((amp.abs2() for amp in self.amps), QS_ZERO)

    def weights(self) -> tuple[QSqrt2, QSqrt2, QSqrt2, QSqrt2]:
        return tuple(amp.abs2() for amp in self.amps)  # type: ignore[return-value]


def _as_fraction_list(coeffs: Sequence[Rat]) -> tuple[Fraction, ...]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class ExactPolynomial:
    """Univariate polynomial, coefficients by ascending degree."""

    coefficients: tuple[Fraction, ...]

    @classmethod
    def make(cls, coeffs: Sequence[Rat]) -> "ExactPolynomial":
        return cls(_as_fraction_list(coeffs))

    @classmethod
    def zero(cls) -> "ExactPolynomial":
        return cls(())

    @classmethod
    def binomial_term(cls, w: int, total: int) -> "ExactPolynomial":
        """p**w * (1-p)**(total-w)."""
        one_minus = cls.make([1, -1]) ** (total - w)
        return cls.make([0] * w + [1]) * one_minus

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

    def compose(self, inner: "ExactPolynomial") -> "ExactPolynomial":
        out = ExactPolynomial.zero()
        for c in reversed(self.coefficients):
            out = out * inner + ExactPolynomial.make([c])
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

