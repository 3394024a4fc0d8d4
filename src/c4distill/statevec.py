"""Small dense state-vector simulator (n <= 12) used as the ground-truth oracle.

Circuits are executed with explicit measurement branching: ``run`` either
enumerates every outcome branch or post-selects a target outcome per label.  Channel comparison works on Choi matrices built from the branch
Kraus operators, so unitary identities are checked up to global phase and
measurement circuits are checked outcome by outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

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

# Eigenvectors per measurement basis, indexed by outcome bit (0 <-> +1).
_MEAS_VECS = {
    "mz": (np.array([1, 0], complex), np.array([0, 1], complex)),
    "mx": (np.array([1, 1], complex) / math.sqrt(2), np.array([1, -1], complex) / math.sqrt(2)),
    "my": (np.array([1, 1j], complex) / math.sqrt(2), np.array([1, -1j], complex) / math.sqrt(2)),
}

_PREP_ROTATION = {"prep_0": None, "prep_plus": "h", "prep_h": "ry_p4"}


class SimulationError(RuntimeError):
    """Raised on invalid circuit usage (bad prep, unset condition bit, ...)."""


def apply_unitary(state: np.ndarray, mat: np.ndarray, wires: tuple[int, ...]) -> np.ndarray:
    """Apply a 2^k x 2^k matrix to the given wires of a (2,)*n state tensor."""
    n = state.ndim
    k = len(wires)
    rest = [a for a in range(n) if a not in wires]
    perm = list(wires) + rest
    st = np.transpose(state, perm).reshape(2**k, -1)
    st = mat @ st
    st = st.reshape([2] * n)
    return np.transpose(st, np.argsort(perm))


@dataclass
class Branch:
    """One measurement-outcome branch of a circuit run."""

    state: np.ndarray
    prob: float
    outcomes: dict[str, int] = field(default_factory=dict)


def _initial_state(width: int, initial_bits: Optional[dict[int, int]]) -> np.ndarray:
    state = np.zeros([2] * width, dtype=complex)
    idx = [0] * width
    for wire, bit in (initial_bits or {}).items():
        idx[wire] = bit
    state[tuple(idx)] = 1.0
    return state


def _check_prepped_zero(state: np.ndarray, wire: int):
    sl = [slice(None)] * state.ndim
    sl[wire] = 1
    if np.linalg.norm(state[tuple(sl)]) > 1e-9:
        raise SimulationError(f"prep on wire {wire} which is not in |0>")


def apply_element(
    branch: Branch, el: Element, postselect: Optional[dict[str, int]] = None
) -> list[Branch]:
    """Apply one element to a branch, returning the resulting branches.

    Unitary elements preserve the norm; preparations require the wire to be
    in |0>; measurements record an outcome bit (both, or the post-selected
    target) and renormalize.  Conditioned elements demand their classical bit be set.
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
    if el.op in _MEAS_VECS:
        return _measure(branch, el, postselect)
    raise SimulationError(f"unknown element {el.op!r}")


def run(
    circuit: Circuit,
    initial_bits: Optional[dict[int, int]] = None,
    postselect: Optional[dict[str, int]] = None,
    merge_hidden: bool = False,
) -> list[Branch]:
    """Execute a circuit and return its outcome branches.

    Measurement handling: if the label appears in ``postselect`` the branch is
    projected onto that outcome (its probability absorbs the branch weight);
    otherwise both outcomes are enumerated.  With ``merge_hidden`` branches
    that agree on every label not starting with ``_`` and hold the same state
    up to a global phase are merged, which keeps gadget-heavy circuits cheap.
    """
    branches = [Branch(_initial_state(circuit.width, initial_bits), 1.0)]
    for el in circuit.elements:
        new_branches: list[Branch] = []
        for br in branches:
            new_branches.extend(apply_element(br, el, postselect))
        branches = [b for b in new_branches if b.prob > 1e-24]
        if merge_hidden and len(branches) > 1:
            branches = _merge_equal_branches(branches)
    return branches


def _measure(br: Branch, el: Element, postselect) -> list[Branch]:
    wire = el.wires[0]
    vecs = _MEAS_VECS[el.op]
    outs: list[Branch] = []
    probs = []
    projected = []
    for bit in (0, 1):
        proj = np.outer(vecs[bit], vecs[bit].conj())
        st = apply_unitary(br.state, proj, (wire,))
        p = float(np.vdot(st, st).real)
        probs.append(p)
        projected.append(st)
    if postselect is not None and el.label in postselect:
        bit = postselect[el.label]
        p = probs[bit]
        nb = Branch(projected[bit], br.prob * p, dict(br.outcomes))
        if p > 1e-24:
            nb.state = projected[bit] / math.sqrt(p)
        nb.outcomes[el.label] = bit
        return [nb]
    for bit in (0, 1):
        p = probs[bit]
        if p <= 1e-24:
            continue
        nb = Branch(projected[bit] / math.sqrt(p), br.prob * p, dict(br.outcomes))
        nb.outcomes[el.label] = bit
        outs.append(nb)
    return outs


def _merge_equal_branches(branches: list[Branch]) -> list[Branch]:
    merged: list[Branch] = []
    for br in branches:
        visible = {k: v for k, v in br.outcomes.items() if not k.startswith("_")}
        for keep in merged:
            keep_vis = {k: v for k, v in keep.outcomes.items() if not k.startswith("_")}
            if keep_vis != visible:
                continue
            ov = abs(np.vdot(keep.state, br.state))
            if abs(ov - 1.0) < 1e-9:
                keep.prob += br.prob
                break
        else:
            merged.append(br)
    return merged


def h_basis_joint(state: np.ndarray, wire1: int, wire2: int) -> np.ndarray:
    """2x2 array of probabilities in the (|H>,|-H>) x (|H>,|-H>) basis."""
    mh = np.array([-H_STATE[1], H_STATE[0]], dtype=complex)
    basis = np.stack([H_STATE.conj(), mh.conj()])
    st = apply_unitary(state, basis, (wire1,))
    st = apply_unitary(st, basis, (wire2,))
    probs = np.abs(st) ** 2
    axes = tuple(a for a in range(state.ndim) if a not in (wire1, wire2))
    joint = probs.sum(axis=axes) if axes else probs
    if wire1 > wire2:
        joint = joint.T
    return joint


def open_input_wires(circuit: Circuit) -> tuple[int, ...]:
    prepped = {el.wires[0] for el in circuit.elements if el.op in _PREP_ROTATION}
    return tuple(w for w in range(circuit.width) if w not in prepped)


def open_output_wires(circuit: Circuit) -> tuple[int, ...]:
    measured = {el.wires[0] for el in circuit.elements if el.op in _MEAS_VECS}
    return tuple(w for w in range(circuit.width) if w not in measured)


def labeled_kraus(circuit: Circuit) -> dict[tuple, list[np.ndarray]]:
    """Kraus operators per outcome-label tuple, as 2^n_out x 2^n_in matrices.

    Measured wires are discarded by expanding them in the computational
    basis: each branch contributes one Kraus component per basis state of
    the discarded register, and their Choi matrices add up to the branch
    channel without any assumption on what the circuit left on those wires.
    """
    ins = open_input_wires(circuit)
    measured = tuple(sorted({el.wires[0] for el in circuit.elements if el.op in _MEAS_VECS}))
    outs = open_output_wires(circuit)
    labels = sorted(el.label for el in circuit.elements if el.op in _MEAS_VECS)
    d_in = 2 ** len(ins)
    d_disc = 2 ** len(measured)
    d_out = 2 ** len(outs)
    kraus: dict[tuple, list[np.ndarray]] = {}
    for col in range(d_in):
        bits = {w: (col >> i) & 1 for i, w in enumerate(reversed(ins))}
        for br in run(circuit, initial_bits=bits):
            key = tuple(br.outcomes[l] for l in labels)
            block = np.transpose(br.state, measured + outs).reshape(d_disc, d_out)
            mats = kraus.setdefault(
                key, [np.zeros((d_out, d_in), dtype=complex) for _ in range(d_disc)]
            )
            for i in range(d_disc):
                mats[i][:, col] = block[i] * math.sqrt(br.prob)
    return kraus


def _choi(kraus: Iterable[np.ndarray]) -> np.ndarray:
    mats = list(kraus)
    size = mats[0].size
    j = np.zeros((size, size), dtype=complex)
    for k in mats:
        v = k.reshape(-1)
        j += np.outer(v, v.conj())
    return j


def channel_distance(
    circ_a: Circuit, circ_b: Circuit, compare_labels: bool = True
) -> float:
    """Max absolute Choi-matrix deviation between the two circuits' channels
    (so a global phase does not count).  Circuits with measurements are
    compared branch by branch when ``compare_labels`` is set, else as the
    outcome-forgetting channel."""
    ka = labeled_kraus(circ_a)
    kb = labeled_kraus(circ_b)
    if compare_labels:
        worst = 0.0
        for key in set(ka) | set(kb):
            a = ka.get(key)
            b = kb.get(key)
            if a is None or b is None:
                present = a if a is not None else b
                worst = max(worst, float(np.abs(_choi(present)).max()))
                continue
            if a[0].shape != b[0].shape:
                raise DimensionError("open wire sets differ")
            worst = max(worst, float(np.abs(_choi(a) - _choi(b)).max()))
        return worst
    ja = _choi([m for ms in ka.values() for m in ms])
    jb = _choi([m for ms in kb.values() for m in ms])
    if ja.shape != jb.shape:
        raise DimensionError("open wire sets differ")
    return float(np.abs(ja - jb).max())

