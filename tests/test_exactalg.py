"""Exact scalar and polynomial arithmetic."""

from decimal import Decimal
from fractions import Fraction

import pytest

from c4distill.exactalg import (
    E_I,
    E_INV_SQRT2,
    E_ONE,
    Exact,
    ExactPolynomial,
    HBasisState,
    QSqrt2,
)


def to_complex(x: Exact) -> complex:
    s = 2**0.5
    return complex(x.a + x.b * s, x.c + x.d * s)


def test_exact_field_arithmetic():
    r = E_INV_SQRT2
    assert (r * r).a == Fraction(1, 2)
    assert (E_I * E_I) == -E_ONE
    x = Exact(Fraction(1), Fraction(2), Fraction(3), Fraction(4))
    assert abs(to_complex(x) - to_complex(x * E_ONE)) < 1e-15
    mod2 = x.abs2()
    want = to_complex(x)
    assert float(mod2) == pytest.approx(abs(want) ** 2, rel=1e-12)


def test_qsqrt2_rationality_guard():
    assert QSqrt2(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    with pytest.raises(ValueError):
        QSqrt2(Fraction(1), Fraction(1)).as_fraction()


def test_h_basis_operators_are_consistent():
    # X * Z = -i Y in the eigenbasis representation as well.
    for idx in range(4):
        v = HBasisState.basis(idx)
        via_xz = v.apply_1q("Z", 0).apply_1q("X", 0)
        via_y = v.apply_1q("Y", 0).scaled(-E_I)
        assert all((a - b).is_zero() for a, b in zip(via_xz.amps, via_y.amps))


def test_polynomial_arithmetic_and_compose():
    p = ExactPolynomial.make([1, -2])  # 1 - 2x
    q = ExactPolynomial.make([0, 0, 3])  # 3x^2
    assert (p * q).coefficients == (Fraction(0), Fraction(0), Fraction(3), Fraction(-6))
    assert (p + q)(Fraction(1, 2)) == Fraction(3, 4)
    composed = q.compose(p)  # 3(1-2x)^2
    assert composed.coefficients == (Fraction(3), Fraction(-12), Fraction(12))
    assert (p**3)(Fraction(1, 3)) == Fraction(1, 27)


def test_compose_matches_power_expansion():
    # The 15-to-1 error numerator: expanding powers of (1-2p) directly and
    # composing the x-form polynomial with x(p) = 1-2p must agree.
    x = ExactPolynomial.make([1, -2])
    direct = (
        ExactPolynomial.make([1])
        - (x**7).scaled(15)
        + (x**8).scaled(15)
        - x**15
    )
    in_x = ExactPolynomial.make([1] + [0] * 6 + [-15, 15] + [0] * 6 + [-1])
    assert in_x.compose(x).coefficients == direct.coefficients
    # Leading behaviour 140 (2p)^3 / 32 / 16-normalization -> 35 p^3.
    assert direct.leading_term() == (3, Fraction(1120))


def test_binomial_term_partition_of_unity():
    total = ExactPolynomial.zero()
    for w in range(11):
        from math import comb

        total = total + ExactPolynomial.binomial_term(w, 10).scaled(comb(10, w))
    assert total.coefficients == (Fraction(1),)


def test_polynomial_evaluation_types():
    poly = ExactPolynomial.make([Fraction(1, 16), -10, Fraction(9, 2)])
    want = Fraction(1, 16) - Fraction(10, 100) + Fraction(9, 2) / 10000
    got = poly(Fraction(1, 100))
    assert type(got) is Fraction and got == want
    assert type(poly(0.01)) is float and poly(0.01) == pytest.approx(float(want), rel=1e-15)
    decimal_value = poly(Decimal("0.01"))
    assert type(decimal_value) is Decimal and decimal_value == Decimal("-0.03705")


def test_non_integer_coefficient_rejected():
    with pytest.raises(ValueError):
        ExactPolynomial.make([Fraction(1, 2)]).as_integers()
