"""Exact scalar and polynomial arithmetic."""

from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from c4distill.enumeration import H_BASIS_OPS, _column
from c4distill.exactalg import Exact, ExactPolynomial
from exact_reference import OPS, QExact, binomial_term, i_power

ints = st.integers(min_value=-10**6, max_value=10**6)
powers = st.integers(min_value=0, max_value=8)
elements = st.builds(Exact, ints, ints, ints, ints)
# (a + b sqrt2) + i (c + d sqrt2) has a rational squared modulus exactly
# when ab + cd = 0; these are the elements with b = -t c and d = t a.
rational_modulus = st.builds(lambda a, c, t: Exact(a, -t * c, c, t * a), ints, ints, ints)


@given(rational_modulus, elements, powers, powers)
def test_exact_field_arithmetic(x, y, j, k):
    # x / 2**j and y / 2**k in Q(i, sqrt2), against the Fraction reference.
    qx, qy = QExact.of(x, 2**j), QExact.of(y, 2**k)
    assert QExact.of(x * y, 2 ** (j + k)) == qx * qy
    assert QExact.of(y * x, 2 ** (j + k)) == qx * qy
    assert QExact.of(x * Exact.i_power(k)) == QExact.of(x) * i_power(k)
    assert type(x.abs2()) is int
    assert (Fraction(x.abs2(), 4**j), 0) == qx.abs2()


@given(elements, powers)
@example(Exact(1, 1), 0)
def test_abs2_rationality_guard(x, k):
    rational, root2 = QExact.of(x, 2**k).abs2()
    if root2:
        with pytest.raises(AssertionError):
            x.abs2()
    else:
        assert Fraction(x.abs2(), 4**k) == rational


def test_h_basis_operators_are_consistent():
    # The integer operators are H itself, sqrt2 X and sqrt2 Z.
    sqrt2 = QExact(b=1)
    for name, scale in (("H", QExact(1)), ("X", sqrt2), ("Z", sqrt2)):
        for r, c in ((0, 0), (0, 1), (1, 0), (1, 1)):
            assert QExact.of(Exact(H_BASIS_OPS[name][r][c])) == scale * OPS[name][r][c]
    # X * Z = -i Y in the eigenbasis representation as well, against an
    # explicit Y: the columns of (sqrt2 X)(sqrt2 Z) are those of -2i Y.
    minus_2i = QExact.of(Exact(c=-2))
    for c in (0, 1):
        via_xz = _column(c, 1, 1, False)
        assert [QExact.of(Exact(v)) for v in via_xz] == [minus_2i * OPS["Y"][r][c] for r in (0, 1)]


@given(
    st.lists(st.fractions(-100, 100, max_denominator=64), max_size=12),
    st.fractions(0, Fraction(1, 2), max_denominator=10**6),
)
def test_float_evaluation_matches_fraction_evaluation(coeffs, p):
    poly = ExactPolynomial.make(coeffs)
    exact = poly(p)
    assert exact == sum((c * p**i for i, c in enumerate(coeffs)), Fraction(0))
    got = poly(float(p))
    assert type(got) is float
    # Horner's rule in float, from a rounded p and rounded coefficients:
    # a few roundings per degree, relative to the sum of |c_i| p^i.
    scale = sum(abs(c) * p**i for i, c in enumerate(coeffs))
    assert abs(Fraction(got) - exact) <= 4 * (len(coeffs) + 1) * Fraction(2) ** -53 * scale


def test_polynomial_arithmetic_and_compose():
    p = ExactPolynomial.make([1, -2])  # 1 - 2x
    q = ExactPolynomial.make([0, 0, 3])  # 3x^2
    assert (p * q).coefficients == (Fraction(0), Fraction(0), Fraction(3), Fraction(-6))
    assert (p + q)(Fraction(1, 2)) == Fraction(3, 4)
    composed = ExactPolynomial.make([3, -12, 12])  # q(p(x)) = 3(1-2x)^2
    for t in (Fraction(0), Fraction(1, 3), Fraction(-5, 2)):
        assert composed(t) == q(p(t))
    assert (p**3)(Fraction(1, 3)) == Fraction(1, 27)


def test_compose_matches_power_expansion():
    # The 15-to-1 error numerator: expanding powers of (1-2p) directly and
    # composing the x-form polynomial with x(p) = 1-2p must agree.  Both
    # have degree 15, so agreeing at 16 distinct points makes them equal.
    x = ExactPolynomial.make([1, -2])
    direct = (
        ExactPolynomial.make([1])
        - (x**7).scaled(15)
        + (x**8).scaled(15)
        - x**15
    )
    in_x = ExactPolynomial.make([1] + [0] * 6 + [-15, 15] + [0] * 6 + [-1])
    assert direct.degree() == 15
    for t in (Fraction(k, 7) for k in range(-8, 8)):
        assert direct(t) == in_x(x(t))
    # Leading behaviour 140 (2p)^3 / 32 / 16-normalization -> 35 p^3.
    assert direct.leading_term() == (3, Fraction(1120))


@given(st.integers(min_value=0, max_value=24))
def test_binomial_term_partition_of_unity(total):
    # The polynomial oracle's Bernstein terms.
    terms = [binomial_term(w, total).scaled(comb(total, w)) for w in range(total + 1)]
    assert sum(terms, ExactPolynomial(())).coefficients == (Fraction(1),)
    # Each term is p**w (1-p)**(total-w), exactly, at a rational point.
    p = Fraction(2, 7)
    assert [t(p) for t in terms] == [comb(total, w) * p**w * (1 - p) ** (total - w) for w in range(total + 1)]


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
