"""Small dense state-vector simulator (n <= 12) used as the ground-truth oracle.

A state is a (2,)*width tensor, optionally followed by batch axes that every
element acts on alike.  Circuits are executed with explicit measurement
branching: ``run`` either enumerates every outcome branch or post-selects a
target outcome per label.  Measurements project without renormalizing, so a
branch's state carries its weight: run on a batch of basis inputs, each
branch holds the columns of its Kraus operators.  Channel comparison works on
Choi matrices built from those Kraus operators, so unitary identities are
checked up to global phase and measurement circuits are checked outcome by
outcome.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Optional

import numpy as np

from .circuits import Circuit, Element
from .pauli import DimensionError


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _controlled(u: np.ndarray) -> np.ndarray:
    d = u.shape[0]
    out = np.eye(2 * d, dtype=complex)
    out[d:, d:] = u
    return out


_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.diag([1, 1j]).astype(complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1, -1]).astype(complex)
_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]

GATE_MATRICES: dict[str, np.ndarray] = {
    "h": _H,
    "s": _S,
    "sdg": _S.conj().T,
    "x": _X,
    "y": _Y,
    "z": _Z,
    "ry_p4": _ry(math.pi / 4),
    "ry_m4": _ry(-math.pi / 4),
    "ry_p2": _ry(math.pi / 2),
    "ry_m2": _ry(-math.pi / 2),
    "cx": _controlled(_X),
    "cz": _controlled(_Z),
    "cy": _controlled(_Y),
    "ch": _controlled(_H),
    "swap": _SWAP,
    "cswap": _controlled(_SWAP),
}

H_STATE = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)], dtype=complex)
# Rows <H| and <-H|: applied to a wire, it maps the (|H>, |-H>) basis to (|0>, |1>).
H_BASIS = np.stack([H_STATE.conj(), np.array([-H_STATE[1], H_STATE[0]]).conj()])


def _projectors(*vecs) -> tuple[np.ndarray, np.ndarray]:
    return tuple(np.outer(v, v.conj()) for v in vecs)


# Projectors per measurement basis, indexed by outcome bit (0 <-> +1).
_PROJECTORS = {
    "mz": _projectors(np.array([1, 0], complex), np.array([0, 1], complex)),
    "mx": _projectors(np.array([1, 1], complex) / math.sqrt(2), np.array([1, -1], complex) / math.sqrt(2)),
    "my": _projectors(np.array([1, 1j], complex) / math.sqrt(2), np.array([1, -1j], complex) / math.sqrt(2)),
}

_PREP_ROTATION = {"prep_0": None, "prep_plus": "h", "prep_h": "ry_p4"}

# Branches whose weight falls to this or below are dropped.
_MIN_WEIGHT = 1e-24
# Rows of the Choi difference formed at a time by ``channel_distance``.
_CHOI_ROWS = 32
# OpenBLAS hands a call to its thread pool from m*n*k = 65536 multiply-adds
# in a complex matrix product and from 10001 elements in a dot product.  On
# a shared host the pool's wake-ups and spinning made some processes build
# the dense classifier's 32768-amplitude batch ten times slower than others.
# Wider products and dots are therefore cut into blocks of at most these
# sizes, half the thresholds or less, which run on the calling thread.
_PRODUCT_BLOCK = 2**15
_DOT_BLOCK = 2**13


class SimulationError(RuntimeError):
    """Raised on invalid circuit usage (bad prep, unset condition bit, ...)."""


@cache
def _permutation(wires: tuple[int, ...], ndim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The axis order that puts ``wires`` first, and its inverse."""
    order = wires + tuple(a for a in range(ndim) if a not in wires)
    return order, tuple(order.index(a) for a in range(ndim))


def apply_unitary(state: np.ndarray, mat: np.ndarray, wires: tuple[int, ...]) -> np.ndarray:
    """Apply a 2^k x 2^k matrix to the given wires of a (2,)*n state tensor;
    any axes after the wire axes are batch axes and are left in place.
    Ascending adjacent wires take one stacked matmul on a reshaped view;
    other wires take one transpose to the front, the matmul there, and one
    transpose back.  Columns beyond ``_PRODUCT_BLOCK`` multiply-adds per
    product are stacked as equal blocks when such blocks divide them, as
    they do for power-of-two batches."""
    k, lo = len(wires), wires[0]
    if wires != tuple(range(lo, lo + k)):
        order, inverse = _permutation(wires, state.ndim)
        return apply_unitary(state.transpose(order), mat, tuple(range(k))).transpose(inverse)
    columns = state.reshape(2**lo, 2**k, -1)
    step = max(1, _PRODUCT_BLOCK >> 2 * k)
    if columns.shape[2] <= step or columns.shape[2] % step:
        return (mat @ columns).reshape(state.shape)
    # Blocks are cut from contiguous columns: cut straight from a transposed
    # state, they made the products several times slower.
    blocks = (2**lo, 2**k, columns.shape[2] // step, step)
    out = np.empty(blocks, np.result_type(mat, columns))
    np.matmul(mat, np.ascontiguousarray(columns).reshape(blocks).swapaxes(1, 2), out=out.swapaxes(1, 2))
    return out.reshape(state.shape)


def _vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """np.vdot summed over blocks of at most ``_DOT_BLOCK`` elements."""
    a, b = a.reshape(-1), b.reshape(-1)
    return sum(np.vdot(a[i : i + _DOT_BLOCK], b[i : i + _DOT_BLOCK]) for i in range(0, a.size, _DOT_BLOCK))


class Branch:
    """One measurement-outcome branch of a circuit run.  The state is left
    unnormalized, so its squared norm is the branch's weight."""

    __slots__ = ("state", "outcomes")

    def __init__(self, state: np.ndarray, outcomes: Optional[dict[str, int]] = None):
        self.state = state
        self.outcomes = {} if outcomes is None else outcomes

    @property
    def prob(self) -> float:
        return float(_vdot(self.state, self.state).real)


def _check_prepped_zero(state: np.ndarray, wire: int):
    excited = state.reshape(2**wire, 2, -1)[:, 1]
    if _vdot(excited, excited).real > 1e-18 * _vdot(state, state).real:
        raise SimulationError(f"prep on wire {wire} which is not in |0>")


def apply_element(
    branch: Branch, el: Element, postselect: Optional[dict[str, int]] = None
) -> list[Branch]:
    """Apply one element to a branch, returning the resulting branches.

    Unitary elements preserve the norm; preparations require the wire to be
    in |0>; measurements record an outcome bit (both, or the post-selected
    target) and project without renormalizing, dropping an outcome whose
    weight vanishes.  Conditioned elements demand their classical bit be set.
    """
    if el.cond is not None:
        name, want = el.cond
        if name not in branch.outcomes:
            raise SimulationError(f"condition on unset bit {name!r}")
        if branch.outcomes[name] != want:
            return [branch]
    if el.op in _PREP_ROTATION:
        _check_prepped_zero(branch.state, el.wires[0])
        rot = _PREP_ROTATION[el.op]
        if rot is not None:
            branch.state = apply_unitary(branch.state, GATE_MATRICES[rot], el.wires)
        return [branch]
    if el.op in GATE_MATRICES:
        branch.state = apply_unitary(branch.state, GATE_MATRICES[el.op], el.wires)
        return [branch]
    if el.op in _PROJECTORS:
        if postselect is not None and el.label in postselect:
            bits = (postselect[el.label],)
        else:
            bits = (0, 1)
        outs = []
        for bit in bits:
            state = apply_unitary(branch.state, _PROJECTORS[el.op][bit], el.wires)
            nb = Branch(state, {**branch.outcomes, el.label: bit})
            if nb.prob > _MIN_WEIGHT:
                outs.append(nb)
        return outs
    raise SimulationError(f"unknown element {el.op!r}")


def run(
    circuit: Circuit,
    state: Optional[np.ndarray] = None,
    postselect: Optional[dict[str, int]] = None,
    merge_hidden: bool = False,
) -> list[Branch]:
    """Execute a circuit from ``state`` (default all wires |0>), which may
    carry batch axes after its wire axes, and return its outcome branches.

    Measurement handling: if the label appears in ``postselect`` the branch is
    projected onto that outcome; otherwise both outcomes are enumerated.
    With ``merge_hidden`` branches that agree on every label not starting
    with ``_`` and hold the same state up to a phase and a scale are merged
    into one carrying both weights, which keeps gadget-heavy circuits cheap.
    """
    if state is None:
        state = np.zeros((2,) * circuit.width, dtype=complex)
        state[(0,) * circuit.width] = 1.0
    branches = [Branch(state)]
    for el in circuit.elements:
        branches = [nb for br in branches for nb in apply_element(br, el, postselect)]
        if merge_hidden and len(branches) > 1:
            branches = _merge_equal_branches(branches)
    return branches


def _merge_equal_branches(branches: list[Branch]) -> list[Branch]:
    merged: list[Branch] = []
    for br in branches:
        visible = {k: v for k, v in br.outcomes.items() if not k.startswith("_")}
        for keep in merged:
            keep_vis = {k: v for k, v in keep.outcomes.items() if not k.startswith("_")}
            if keep_vis != visible:
                continue
            pk, pb = keep.prob, br.prob
            if abs(abs(_vdot(keep.state, br.state)) - math.sqrt(pk * pb)) < 1e-9 * math.sqrt(pk * pb):
                keep.state = keep.state * math.sqrt((pk + pb) / pk)
                break
        else:
            merged.append(br)
    return merged


def _open_ends(circuit: Circuit) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A circuit's open wires, in order: those it does not prepare (its
    channel's inputs) and those it does not measure (its outputs)."""
    closed = ({el.wires[0] for el in circuit.elements if el.op in ops} for ops in (_PREP_ROTATION, _PROJECTORS))
    return tuple(tuple(w for w in range(circuit.width) if w not in c) for c in closed)


def labeled_kraus(circuit: Circuit) -> dict[tuple, list[np.ndarray]]:
    """Kraus operators per outcome-label tuple, as 2^n_out x 2^n_in matrices.

    One run on a batch holding every basis state of the open input wires
    gives each branch's Kraus columns.  Measured wires are discarded by
    expanding them in the computational basis: each branch contributes one
    Kraus component per basis state of the discarded register, and their
    Choi matrices add up to the branch channel without any assumption on
    what the circuit left on those wires.
    """
    width = circuit.width
    ins, outs = _open_ends(circuit)
    measured = tuple(w for w in range(width) if w not in outs)
    labels = sorted(el.label for el in circuit.elements if el.op in _PROJECTORS)
    d_in = 2 ** len(ins)
    state = np.zeros((2,) * width + (d_in,), dtype=complex)
    state[tuple(slice(None) if w in ins else 0 for w in range(width))] = np.eye(d_in).reshape(
        (2,) * len(ins) + (d_in,)
    )
    kraus = {}
    for br in run(circuit, state=state):
        block = np.transpose(br.state, measured + outs + (width,))
        kraus[tuple(br.outcomes[l] for l in labels)] = list(
            block.reshape(2 ** len(measured), 2 ** len(outs), d_in)
        )
    return kraus


def _choi_deviation(a: list[np.ndarray], b: list[np.ndarray]) -> float:
    """Max |J_a - J_b| over the Choi matrices of two Kraus lists (either may
    be empty).  With each vectorized Kraus operator a column of V, J = V V^+,
    so J_a - J_b = [V_a V_b] [V_a -V_b]^+, formed a block of rows at a time;
    it is Hermitian, so a block needs only the columns from its first row on."""
    if a and b and a[0].shape != b[0].shape:
        raise DimensionError("open wire sets differ")
    size = (a or b)[0].size
    va, vb = (np.array([k.reshape(-1) for k in ks], dtype=complex).reshape(-1, size).T for ks in (a, b))
    left, right = np.hstack([va, vb]), np.hstack([va, -vb]).conj().T
    return max(float(np.abs(left[i : i + _CHOI_ROWS] @ right[:, i:]).max()) for i in range(0, size, _CHOI_ROWS))


def channel_distance(
    circ_a: Circuit, circ_b: Circuit, compare_labels: bool = True
) -> float:
    """Max absolute Choi-matrix deviation between the two circuits' channels
    (so a global phase does not count).  Circuits with measurements are
    compared branch by branch when ``compare_labels`` is set, else as the
    outcome-forgetting channel.

    Circuits that leave different wires unprepared or unmeasured raise a
    ``DimensionError``, as their channels would be paired by rank, not by
    wire.  Circuits of one width are first cut down to the wires either of
    them touches, in their order.  On an untouched wire both channels are
    Phi (x) id, and J(Phi (x) id) is J(Phi) (x) J(id) up to the order of the
    factors, the same order on both sides; J(id) has entries 0 and 1, so
    max |J_a - J_b| does not change.  Two circuits that touch no wire are
    compared on no wires: 0.0."""
    if _open_ends(circ_a) != _open_ends(circ_b):
        raise DimensionError("the circuits leave different wires open")
    if circ_a.width == circ_b.width:
        kept = sorted({w for c in (circ_a, circ_b) for el in c.elements for w in el.wires})
        index = {w: i for i, w in enumerate(kept)}
        circ_a, circ_b = (
            Circuit(len(kept), tuple(el._replace(wires=tuple(index[w] for w in el.wires)) for el in c.elements))
            for c in (circ_a, circ_b)
        )
    ka = labeled_kraus(circ_a)
    kb = labeled_kraus(circ_b)
    if not compare_labels:
        ka, kb = ({(): [m for ms in k.values() for m in ms]} for k in (ka, kb))
    return max(_choi_deviation(ka.get(key, []), kb.get(key, [])) for key in set(ka) | set(kb))
