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

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

_PAULI_FROM_BITS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_PHASE_LABEL = {0: "+", 1: "+i", 2: "-", 3: "-i"}


class DimensionError(ValueError):
    """Raised when operands act on different numbers of qubits."""


def _parity(mask: int) -> int:
    return mask.bit_count() & 1


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator with exact phase.

    Attributes:
        n: number of qubits.
        x: packed bit vector of X components (bit j -> qubit j).
        z: packed bit vector of Z components.
        phase: exponent k of the global factor i**k, 0 <= k < 4.
    """

    n: int
    x: int
    z: int
    phase: int = 0

    def __post_init__(self):
        if not 0 <= self.x < (1 << self.n) or not 0 <= self.z < (1 << self.n):
            raise ValueError("bit vectors exceed qubit count")
        object.__setattr__(self, "phase", self.phase & 3)

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


@dataclass(frozen=True)
class CliffordAction:
    """A Clifford unitary given by its conjugation action on X_j and Z_j.

    ``image_of_x[j]`` is U X_j U^dagger with exact phase, likewise for Z.
    """

    n: int
    image_of_x: tuple[PauliString, ...]
    image_of_z: tuple[PauliString, ...]

    def __post_init__(self):
        if len(self.image_of_x) != self.n or len(self.image_of_z) != self.n:
            raise ValueError("need one X and one Z image per qubit")

    def conjugate(self, p: PauliString) -> PauliString:
        """Return U p U^dagger, tracking the phase exactly."""
        if p.n != self.n:
            raise DimensionError(f"qubit counts differ: {p.n} != {self.n}")
        out = PauliString(self.n, 0, 0, p.phase)
        for j in range(self.n):
            if p.x >> j & 1:
                out = out * self.image_of_x[j]
        for j in range(self.n):
            if p.z >> j & 1:
                out = out * self.image_of_z[j]
        return out


def _action_from_labels(pairs: Iterable[tuple[str, str]]) -> CliffordAction:
    """Build a gate table from (image of X_j, image of Z_j) label pairs.

    Labels may carry a leading ``-`` for a phase of -1.
    """
    imgs_x, imgs_z = [], []
    pairs = list(pairs)
    for lx, lz in pairs:
        imgs_x.append(_parse_signed(lx, len(pairs)))
        imgs_z.append(_parse_signed(lz, len(pairs)))
    return CliffordAction(len(pairs), tuple(imgs_x), tuple(imgs_z))


def _parse_signed(label: str, n: int) -> PauliString:
    sign = 0
    if label.startswith("-"):
        sign = 2
        label = label[1:]
    return PauliString.from_label(label.ljust(n, "I"), phase=sign)


# Conjugation tables for the named Clifford gates.  Two-qubit gates take
# (control, target) wire order; SWAP is symmetric.
GATE_ACTIONS: dict[str, CliffordAction] = {
    "h": _action_from_labels([("Z", "X")]),
    "s": _action_from_labels([("Y", "Z")]),
    "sdg": _action_from_labels([("-Y", "Z")]),
    "x": _action_from_labels([("X", "-Z")]),
    "y": _action_from_labels([("-X", "-Z")]),
    "z": _action_from_labels([("-X", "Z")]),
    # pi/2 rotations about Y: Y(pi/2) sends X -> -Z, Z -> X.
    "ry_p2": _action_from_labels([("-Z", "X")]),
    "ry_m2": _action_from_labels([("Z", "-X")]),
    "cx": _action_from_labels([("XX", "ZI"), ("IX", "ZZ")]),
    "cz": _action_from_labels([("XZ", "ZI"), ("ZX", "IZ")]),
    "cy": _action_from_labels([("XY", "ZI"), ("ZX", "ZZ")]),
    "swap": _action_from_labels([("IX", "IZ"), ("XI", "ZI")]),
}


@lru_cache(maxsize=None)
def embedded_action(name: str, wires: tuple[int, ...], n: int) -> CliffordAction:
    """The named gate acting on ``wires`` inside an n-qubit register."""
    table = GATE_ACTIONS[name]
    if len(wires) != table.n:
        raise DimensionError(f"gate {name} takes {table.n} wires")
    imgs_x = [PauliString.single(n, j, "X") for j in range(n)]
    imgs_z = [PauliString.single(n, j, "Z") for j in range(n)]
    for local, wire in enumerate(wires):
        imgs_x[wire] = _relabel(table.image_of_x[local], wires, n)
        imgs_z[wire] = _relabel(table.image_of_z[local], wires, n)
    return CliffordAction(n, tuple(imgs_x), tuple(imgs_z))


def _relabel(p: PauliString, wires: tuple[int, ...], n: int) -> PauliString:
    out = PauliString(n, 0, 0, p.phase)
    for local, wire in enumerate(wires):
        xb, zb = p.x >> local & 1, p.z >> local & 1
        out = PauliString(
            n, out.x | (xb << wire), out.z | (zb << wire), out.phase
        )
    return out


def conjugate_through(
    p: PauliString, gates: Iterable[tuple[str, tuple[int, ...]]], n: int
) -> PauliString:
    """Propagate ``p`` forward through a list of (gate name, wires) Cliffords.

    The first list entry is applied first in time; the result is the operator
    that, placed after the listed gates, acts identically to ``p`` placed
    before them.
    """
    for name, wires in gates:
        p = embedded_action(name, tuple(wires), n).conjugate(p)
    return p
