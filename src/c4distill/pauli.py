"""Exact algebra of n-qubit Pauli operators and Clifford conjugation tables.

Pauli operators are stored in symplectic form: two packed bit vectors (one
for the X part, one for the Z part) plus a power of i.  The canonical form of
an operator is

    i**phase * (X monomial over the x bits) * (Z monomial over the z bits)

so every group element has exactly one representation and products carry an
exact phase in {1, i, -1, -i}.  Everything here is immutable and safe to
share between threads.
"""

from __future__ import annotations

from typing import Iterable

_PAULI_FROM_BITS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_PHASE_LABEL = {0: "+", 1: "+i", 2: "-", 3: "-i"}


class DimensionError(ValueError):
    """Raised when operands act on different numbers of qubits."""


def _parity(mask: int) -> int:
    return mask.bit_count() & 1


class PauliString:
    """An n-qubit Pauli operator with exact phase; immutable.

    Attributes:
        n: number of qubits.
        x: packed bit vector of X components (bit j -> qubit j).
        z: packed bit vector of Z components.
        phase: exponent k of the global factor i**k, 0 <= k < 4.
    """

    __slots__ = ("n", "x", "z", "phase")

    def __init__(self, n: int, x: int, z: int, phase: int = 0):
        if not 0 <= x < (1 << n) or not 0 <= z < (1 << n):
            raise ValueError("bit vectors exceed qubit count")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "phase", phase & 3)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not PauliString:
            return NotImplemented
        return (self.n, self.x, self.z, self.phase) == (other.n, other.x, other.z, other.phase)

    def __hash__(self) -> int:
        return hash((self.n, self.x, self.z, self.phase))

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def single(cls, n: int, qubit: int, kind: str) -> "PauliString":
        """One-qubit X, Y or Z embedded at position ``qubit``; Y = i*X*Z."""
        bit = 1 << qubit
        if kind == "X":
            return cls(n, bit, 0, 0)
        if kind == "Z":
            return cls(n, 0, bit, 0)
        if kind == "Y":
            return cls(n, bit, bit, 1)
        if kind == "I":
            return cls(n, 0, 0, 0)
        raise ValueError(f"unknown Pauli kind {kind!r}")

    @classmethod
    def from_label(cls, label: str, phase: int = 0) -> "PauliString":
        """Build from a string like "XIZY" (leftmost letter = qubit 0)."""
        p = cls.identity(len(label))
        for j, ch in enumerate(label.upper()):
            p = p * cls.single(len(label), j, ch)
        return cls(p.n, p.x, p.z, p.phase + phase)

    def label(self) -> str:
        letters = "".join(
            _PAULI_FROM_BITS[(self.x >> j & 1, self.z >> j & 1)] for j in range(self.n)
        )
        # Each Y site is stored as X*Z = -i*Y, so fold one i back per Y.
        shown = (self.phase + 3 * bin(self.x & self.z).count("1")) & 3
        return _PHASE_LABEL[shown] + letters

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n != other.n:
            raise DimensionError(f"qubit counts differ: {self.n} != {other.n}")
        # Commuting Z^z1 past X^x2 gives (-1) per overlapping position.
        phase = self.phase + other.phase + 2 * _parity(self.z & other.x)
        return PauliString(self.n, self.x ^ other.x, self.z ^ other.z, phase)

    def commutes(self, other: "PauliString") -> bool:
        """True iff the symplectic inner product of the bit vectors is even."""
        if self.n != other.n:
            raise DimensionError(f"qubit counts differ: {self.n} != {other.n}")
        return (_parity(self.x & other.z) ^ _parity(self.z & other.x)) == 0


def _signed(label: str) -> PauliString:
    """The Pauli with this label; a leading ``-`` is a phase of -1."""
    if label.startswith("-"):
        return PauliString.from_label(label[1:], phase=2)
    return PauliString.from_label(label)


# Conjugation tables for the named Clifford gates: U X_j U^dagger and
# U Z_j U^dagger with exact phase, one pair per wire of the gate.  Two-qubit
# gates take (control, target) wire order; SWAP is symmetric.
GATE_ACTIONS: dict[str, tuple[tuple[PauliString, PauliString], ...]] = {
    name: tuple((_signed(lx), _signed(lz)) for lx, lz in pairs)
    for name, pairs in (
        ("h", [("Z", "X")]),
        ("s", [("Y", "Z")]),
        ("sdg", [("-Y", "Z")]),
        ("x", [("X", "-Z")]),
        ("y", [("-X", "-Z")]),
        ("z", [("-X", "Z")]),
        # pi/2 rotations about Y: Y(pi/2) sends X -> -Z, Z -> X.
        ("ry_p2", [("-Z", "X")]),
        ("ry_m2", [("Z", "-X")]),
        ("cx", [("XX", "ZI"), ("IX", "ZZ")]),
        ("cz", [("XZ", "ZI"), ("ZX", "IZ")]),
        ("cy", [("XY", "ZI"), ("ZX", "ZZ")]),
        ("swap", [("IX", "IZ"), ("XI", "ZI")]),
    )
}


def _relabel(p: PauliString, wires: tuple[int, ...], n: int) -> PauliString:
    """``p``, on len(wires) qubits, with its qubit j moved to ``wires[j]`` of
    an n-qubit register."""
    x = z = 0
    for local, wire in enumerate(wires):
        x |= (p.x >> local & 1) << wire
        z |= (p.z >> local & 1) << wire
    return PauliString(n, x, z, p.phase)


def conjugate_through(
    p: PauliString, gates: Iterable[tuple[str, tuple[int, ...]]], n: int
) -> PauliString:
    """Propagate ``p`` forward through a list of (gate name, wires) Cliffords.

    The first list entry is applied first in time; the result is the operator
    that, placed after the listed gates, acts identically to ``p`` placed
    before them.
    """
    if p.n != n:
        raise DimensionError(f"qubit counts differ: {p.n} != {n}")
    for name, wires in gates:
        table = GATE_ACTIONS[name]
        if len(wires) != len(table):
            raise DimensionError(f"gate {name} takes {len(table)} wires")
        on = 0
        for wire in wires:
            on |= 1 << wire
        if not (p.x | p.z) & on:
            continue
        # i^phase X^x Z^z is (i^phase X^x Z^z off the gate's wires) times
        # (X^x Z^z on them): disjoint wires, so the gate conjugates only the
        # second factor, X images before Z images as in its canonical form.
        image = PauliString(len(table), 0, 0)
        for local, wire in enumerate(wires):
            if p.x >> wire & 1:
                image = image * table[local][0]
        for local, wire in enumerate(wires):
            if p.z >> wire & 1:
                image = image * table[local][1]
        p = PauliString(n, p.x & ~on, p.z & ~on, p.phase) * _relabel(image, wires, n)
    return p
