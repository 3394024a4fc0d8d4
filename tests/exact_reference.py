"""Fraction reference for the exact core.

``QExact`` is Q(i, sqrt2) with rational parts, ``OPS`` holds the H-basis
operators with their true 1/sqrt2 entries (Y included), and ``assemble``
builds a pattern's accepted branch in that field, term by term at its true
scale.  The integer ring ``c4distill.exactalg.Exact`` and the scaled
assembly in ``c4distill.enumeration`` are checked against it.

``CodeReference`` decomposes a Pauli over the [[4,2,2]] code by commutation
tests, the way the frame engine once did for every pattern; the engine's
lookup in its table of the 64 normalizer elements is checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from c4distill.circuits import CODE, build_distillation_circuit
from c4distill.exactalg import Exact
from c4distill.pauli import PauliString, _relabel, conjugate_through


@dataclass(frozen=True)
class QExact:
    """(a + b*sqrt2) + i*(c + d*sqrt2) with rational a, b, c, d."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)
    c: Fraction = Fraction(0)
    d: Fraction = Fraction(0)

    @classmethod
    def of(cls, x: Exact, denominator: int = 1) -> "QExact":
        """The ring element x divided by an integer denominator."""
        return cls(*(Fraction(v, denominator) for v in (x.a, x.b, x.c, x.d)))

    def __add__(self, o: "QExact") -> "QExact":
        return QExact(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    def __neg__(self) -> "QExact":
        return QExact(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, o: "QExact") -> "QExact":
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = o.a, o.b, o.c, o.d
        return QExact(
            a * e + 2 * b * f - c * g - 2 * d * h,
            a * f + b * e - c * h - d * g,
            a * g + 2 * b * h + c * e + 2 * d * f,
            a * h + b * g + c * f + d * e,
        )

    def conj(self) -> "QExact":
        return QExact(self.a, self.b, -self.c, -self.d)

    def abs2(self) -> tuple[Fraction, Fraction]:
        """Squared modulus as (rational part, sqrt2 part)."""
        v = self * self.conj()
        assert v.c == 0 and v.d == 0, v
        return v.a, v.b


ZERO = QExact()
ONE = QExact(Fraction(1))
I = QExact(c=Fraction(1))
INV_SQRT2 = QExact(b=Fraction(1, 2))
HALF = QExact(Fraction(1, 2))

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
