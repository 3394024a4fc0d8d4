"""Rational reference for the exact core.

``QExact`` is Q(i, sqrt2) with dyadic rational parts (integer numerators
over one power-of-two denominator), ``OPS`` holds the H-basis operators
with their true 1/sqrt2 entries (Y included), and ``assemble`` builds a
pattern's accepted branch in that field, term by term at its true scale,
with weights as Fractions.  The integer ring ``c4distill.exactalg.Exact``
and the scaled assembly in ``c4distill.enumeration`` are checked against
it; none of its arithmetic goes through either module.

``pauli_products`` multiplies Pauli forms as ``PauliString`` products, the
way the frame engine once built its tables; its integer tables are checked
against it.  ``CodeReference`` decomposes a Pauli over the [[4,2,2]] code by
commutation tests, the way the frame engine once did for every pattern; the
engine's lookup in its table of the 64 normalizer elements is checked
against it, and its ``normalizer`` builds that table from ``PauliString``
products, the way the frame engine once did.

``sturm_signs_below_half`` answers the routines loader's sign questions with
a Sturm chain of plain Fraction remainders and a loop that divides out
1 - 2p, the way the loader once did for every rule; the loader's chain of
primitive integer pseudo-remainders is checked against it.

``fraction_polynomials`` sums a routine's verdicts into its polynomials the
way ``enumeration`` once did: Fraction tallies by Hamming weight, each
times its ``binomial_term`` p^w (1-p)^(10-w) and added up, with the pattern
counts read from Fraction comparisons.  ``fifteen_to_one_polynomials``
builds the 15-to-1 routine's acceptance and undetected weight from powers
of x = 1 - 2p.  The integer expansions of both are checked against them.
Their arithmetic runs on Fraction coefficient lists (``poly_sum``,
``poly_scaled``, ``poly_product``, ``poly_power``); only the results are
wrapped as ``ExactPolynomial`` values, which do no arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from types import MappingProxyType

from c4distill.circuits import CODE, build_distillation_circuit
from c4distill.enumeration import N_LOCATIONS, PolynomialSet
from c4distill.exactalg import Exact, ExactPolynomial
from c4distill.pauli import PauliString, _relabel, conjugate_through


@dataclass(eq=False, slots=True)
class QExact:
    """((a + b*sqrt2) + i*(c + d*sqrt2)) / 2**e with integer a, b, c, d and
    e >= 0.  Every element the reference meets has a power-of-two
    denominator, so its four parts share one; equality compares values, not
    representations."""

    a: int = 0
    b: int = 0
    c: int = 0
    d: int = 0
    e: int = 0

    @classmethod
    def of(cls, x: Exact, denominator: int = 1) -> "QExact":
        """The ring element x divided by a power of two."""
        e = denominator.bit_length() - 1
        assert denominator == 1 << e, denominator
        return cls(x.a, x.b, x.c, x.d, e)

    def _over(self, e: int) -> tuple[int, int, int, int]:
        """The four numerators over 2**e, for e >= self.e."""
        s = e - self.e
        return self.a << s, self.b << s, self.c << s, self.d << s

    def __eq__(self, o: "QExact") -> bool:
        e = max(self.e, o.e)
        return self._over(e) == o._over(e)

    def __add__(self, o: "QExact") -> "QExact":
        if self.e < o.e:
            return o + self
        a, b, c, d = o._over(self.e)
        return QExact(self.a + a, self.b + b, self.c + c, self.d + d, self.e)

    def __neg__(self) -> "QExact":
        return QExact(-self.a, -self.b, -self.c, -self.d, self.e)

    def __mul__(self, o: "QExact") -> "QExact":
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = o.a, o.b, o.c, o.d
        return QExact(
            a * e + 2 * b * f - c * g - 2 * d * h,
            a * f + b * e - c * h - d * g,
            a * g + 2 * b * h + c * e + 2 * d * f,
            a * h + b * g + c * f + d * e,
            self.e + o.e,
        )

    def conj(self) -> "QExact":
        return QExact(self.a, self.b, -self.c, -self.d, self.e)

    def abs2(self) -> tuple[Fraction, Fraction]:
        """Squared modulus as (rational part, sqrt2 part)."""
        v = self * self.conj()
        assert v.c == 0 and v.d == 0, v
        return Fraction(v.a, 1 << v.e), Fraction(v.b, 1 << v.e)


ZERO = QExact()
ONE = QExact(1)
I = QExact(c=1)
INV_SQRT2 = QExact(b=1, e=1)
HALF = QExact(1, e=1)

_R = INV_SQRT2
# OPS[name][r][c] is <basis_r| op |basis_c> in the (|H>, |-H>) basis.
OPS = {
    "H": ((ONE, ZERO), (ZERO, -ONE)),
    "X": ((_R, _R), (_R, -_R)),
    "Z": ((_R, -_R), (-_R, -_R)),
    "Y": ((ZERO, -I), (I, ZERO)),
}


def i_power(k: int) -> QExact:
    return (ONE, I, -ONE, -I)[k & 3]


def apply_1q(amps: list[QExact], op: str, qubit: int) -> list[QExact]:
    """A single-qubit operator on a two-qubit state (index q1*2 + q2)."""
    m = OPS[op]
    out = [ZERO] * 4
    for idx, amp in enumerate(amps):
        bit = (idx >> (1 - qubit)) & 1
        for new_bit in (0, 1):
            new_idx = idx ^ ((bit ^ new_bit) << (1 - qubit))
            out[new_idx] = out[new_idx] + m[new_bit][bit] * amp
    return out


def _apply_xz(amps, x_pow: int, z_pow: int, qubit: int):
    if z_pow:
        amps = apply_1q(amps, "Z", qubit)
    if x_pow:
        amps = apply_1q(amps, "X", qubit)
    return amps


def assemble(d1: int, d2: int, term1, term2, sign: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """(accept, err1, err2, both, either) of the accepted branch, each as
    (rational part, sqrt2 part), from the same key ``_assemble`` takes."""
    base = [ZERO] * 4
    base[(d1 << 1) | d2] = ONE
    for bit in (d1, d2):
        if bit:
            base = [I * x for x in base]
    acc = [ZERO] * 4
    for term, h_qubit, shift in ((term1, 1, 0), (term2, 0, 2 * sign)):
        if term is None:
            continue
        om, (a1, b1, a2, b2) = term
        t = apply_1q(base, "H", h_qubit)
        t = _apply_xz(t, a2, b2, 1)
        t = _apply_xz(t, a1, b1, 0)
        scale = i_power(om + shift) * HALF
        acc = [x + scale * y for x, y in zip(acc, t)]
    w = [x.abs2() for x in acc]

    def add(*parts):
        return sum(p[0] for p in parts), sum(p[1] for p in parts)

    norm = add(*w)
    return norm, add(w[2], w[3]), add(w[1], w[3]), w[3], (norm[0] - w[0][0], norm[1] - w[0][1])


def pauli_products(forms: list[PauliString]) -> list[PauliString]:
    """products[v]: the product of the forms at v's set bits, higher bits to
    the left, as ``PauliString`` products; the frame engine's integer table
    is checked against it."""
    products = [PauliString.identity(forms[0].n)]
    for v in range(1, 1 << len(forms)):
        top = v.bit_length() - 1
        products.append(forms[top] * products[v ^ 1 << top])
    return products


class CodeReference:
    """The code on the wires of ``build_distillation_circuit()``, with the
    commutation-based decomposition of a Pauli into a logical term."""

    def __init__(self):
        circuit, _ = build_distillation_circuit()
        n = self.n = circuit.width
        self.ancilla = circuit.labels["ancilla"]
        code = self.code = tuple(
            circuit.labels[k] for k in ("out1", "check_z_wire", "out2", "check_x_wire")
        )
        self.sx, self.sz = (_relabel(p, code, n) for p in CODE.stabilizers)
        self.lx = tuple(_relabel(p, code, n) for p in CODE.logical_x)
        self.lz = tuple(_relabel(p, code, n) for p in CODE.logical_z)
        # H on every code wire except the third, which the eliminated
        # controlled-H pair targeted.
        self.h_layer = [("h", (code[0],)), ("h", (code[1],)), ("h", (code[3],))]

    def normalizer(self) -> dict[tuple[int, int], tuple[int, tuple[int, int, int, int]]]:
        """The 64 normalizer elements lx1^a1 lz1^b1 lx2^a2 lz2^b2 sx^c sz^d,
        multiplied in that order, keyed by (x, z): their phase and
        (a1, b1, a2, b2)."""
        table = {}
        for e in range(64):
            p = PauliString.identity(self.n)
            for j, gen in enumerate((self.lx[0], self.lz[0], self.lx[1], self.lz[1], self.sx, self.sz)):
                if e >> j & 1:
                    p = p * gen
            table[p.x, p.z] = p.phase, (e & 1, e >> 1 & 1, e >> 2 & 1, e >> 3 & 1)
        return table

    def split_ancilla(self, p: PauliString) -> tuple[int, PauliString]:
        """(ancilla Z bit, ``p`` without its ancilla part)."""
        a = self.ancilla
        if p.x >> a & 1:
            raise AssertionError("ancilla picked up a non-diagonal component")
        mask = ((1 << p.n) - 1) ^ (1 << a)
        return p.z >> a & 1, PauliString(p.n, p.x & mask, p.z & mask, p.phase)

    def flip(self, p: PauliString) -> PauliString:
        """``p`` conjugated through the H layer."""
        return conjugate_through(p, self.h_layer, self.n)

    def logical_term(self, p: PauliString):
        """Decompose an ancilla-free Pauli over the code: None when a
        stabilizer detects it, else (i-power, X1,Z1,X2,Z2 exponents)."""
        if not p.commutes(self.sx) or not p.commutes(self.sz):
            return None
        a1 = 0 if p.commutes(self.lz[0]) else 1
        b1 = 0 if p.commutes(self.lx[0]) else 1
        a2 = 0 if p.commutes(self.lz[1]) else 1
        b2 = 0 if p.commutes(self.lx[1]) else 1
        canon = PauliString.identity(p.n)
        for power, gen in ((a1, self.lx[0]), (b1, self.lz[0]), (a2, self.lx[1]), (b2, self.lz[1])):
            if power:
                canon = canon * gen
        resid_x = p.x ^ canon.x
        resid_z = p.z ^ canon.z
        if resid_x not in (0, self.sx.x) or resid_z not in (0, self.sz.z):
            raise AssertionError("residual is not a stabilizer element")
        if resid_x:
            canon = canon * self.sx
        if resid_z:
            canon = canon * self.sz
        if canon.x != p.x or canon.z != p.z:
            raise AssertionError("decomposition failed")
        return (p.phase - canon.phase) & 3, (a1, b1, a2, b2)


def _trimmed(coeffs) -> list[Fraction]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_sum(*polys) -> list[Fraction]:
    """The sum of ascending coefficient lists."""
    out = [Fraction(0)] * max(map(len, polys), default=0)
    for poly in polys:
        for k, c in enumerate(poly):
            out[k] += c
    return _trimmed(out)


def poly_scaled(poly, s) -> list[Fraction]:
    """``poly`` times the number ``s``."""
    return _trimmed([s * c for c in poly])


def poly_product(*polys) -> list[Fraction]:
    """The product of ascending coefficient lists, [1] for none."""
    out = [Fraction(1)]
    for poly in polys:
        prod = [Fraction(0)] * (len(out) + len(poly) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(poly):
                prod[i + j] += a * b
        out = prod
    return _trimmed(out)


def poly_power(poly, k: int) -> list[Fraction]:
    return poly_product(*[poly] * k)


def poly_value(coeffs: list[Fraction], p: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * p + c
    return acc


def poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of ascending coefficient lists, for a nonzero ``b``."""
    top = len(b) - 1
    quotient = [Fraction(0)] * max(len(a) - top, 0)
    rest = list(a)
    for shift in reversed(range(len(quotient))):
        c = quotient[shift] = rest[shift + top] / b[top]
        for k, bc in enumerate(b):
            rest[shift + k] -= c * bc
    return _trimmed(quotient), _trimmed(rest)


def sturm_signs_below_half(coeffs) -> tuple[int, int, int]:
    """(sign of the lowest nonzero coefficient, distinct roots in (0, 1/2),
    sign at 1/2 once every factor 1 - 2p is divided out) of the polynomial
    with ascending ``coeffs``; all 0 for the zero polynomial.

    The roots are counted on the polynomial divided by its lowest power of
    p, by Sturm's theorem on unscaled Fraction remainders.  The chain is
    divided by its last member, the gcd of the polynomial and its
    derivative, so multiple roots count once and a root at 1/2 is simple;
    Sturm counts the roots in (0, 1/2], so one at 1/2 is subtracted."""
    poly = _trimmed(coeffs)
    while poly and poly[0] == 0:
        poly = poly[1:]
    if not poly:
        return 0, 0, 0
    chain = [poly, [k * c for k, c in enumerate(poly)][1:]]
    while chain[-1]:
        chain.append([-c for c in poly_divmod(chain[-2], chain[-1])[1]])
    chain.pop()
    chain = [poly_divmod(f, chain[-1])[0] for f in chain]

    def sign_changes(p: Fraction) -> int:
        signs = [v > 0 for v in (poly_value(f, p) for f in chain) if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    half = Fraction(1, 2)
    roots = sign_changes(Fraction(0)) - sign_changes(half) - (poly_value(chain[0], half) == 0)
    end = poly
    while not poly_value(end, half):
        end = poly_divmod(end, [Fraction(1), Fraction(-2)])[0]
    return (1 if poly[0] > 0 else -1), roots, (1 if poly_value(end, half) > 0 else -1)


def binomial_term(w: int, total: int) -> ExactPolynomial:
    """p**w * (1-p)**(total-w), expanded in closed form."""
    return ExactPolynomial.make([0] * w + [(-1) ** j * comb(total - w, j) for j in range(total - w + 1)])


def fraction_polynomials(verdicts) -> PolynomialSet:
    """The polynomial set of the exact ``verdicts`` of all 1024 patterns,
    summed on Fraction polynomials."""
    tallies = [[Fraction(0)] * (N_LOCATIONS + 1) for _ in range(5)]
    counts = {"fractional_accept": 0, "half_fidelity": 0}
    for bits, v in enumerate(verdicts):
        if not v.accept:
            continue
        w = bits.bit_count()
        for tally, q in zip(tallies, (v.accept, v.err1, v.err2, v.both, v.either)):
            tally[w] += q
        counts["fractional_accept"] += v.accept != 1
        counts["half_fidelity"] += sum(
            err != 0 and err != v.accept and 2 * err != v.accept for err in (v.err1, v.err2)
        )
    acceptance, marginal, marginal_second, both, either = (
        ExactPolynomial.make(
            poly_sum(*(poly_scaled(binomial_term(w, N_LOCATIONS).coefficients, q) for w, q in enumerate(t) if q))
        )
        for t in tallies
    )
    assert marginal == marginal_second, "marginal error polynomials differ between outputs"
    return PolynomialSet(
        acceptance=acceptance,
        marginal=marginal,
        either=either,
        both=both,
        accept_by_weight=tuple(tallies[0]),
        pattern_counts=MappingProxyType(counts),
    )


def fifteen_to_one_polynomials() -> tuple[ExactPolynomial, ExactPolynomial]:
    """(acceptance, undetected weight) of the 15-to-1 routine:
    (1 + 15 x^8)/16 and (1 - 15 x^7 + 15 x^8 - x^15)/32 with x = 1 - 2p."""
    x = [Fraction(1), Fraction(-2)]
    one = [Fraction(1)]
    x8_15 = poly_scaled(poly_power(x, 8), 15)
    return (
        ExactPolynomial.make(poly_scaled(poly_sum(one, x8_15), Fraction(1, 16))),
        ExactPolynomial.make(
            poly_scaled(
                poly_sum(one, poly_scaled(poly_power(x, 7), -15), x8_15, poly_scaled(poly_power(x, 15), -1)),
                Fraction(1, 32),
            )
        ),
    )
