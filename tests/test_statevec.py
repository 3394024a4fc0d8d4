"""Dense simulator basics, measurement gadget, and cross-module checks."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c4distill.circuits import Circuit, Element, gates
from c4distill import statevec
from c4distill.pauli import GATE_ACTIONS, DimensionError, PauliString, embedded_action
from c4distill.statevec import (
    _CHOI_ROWS,
    GATE_MATRICES,
    SimulationError,
    _choi_deviation,
    apply_unitary,
    channel_distance,
    labeled_kraus,
    run,
)
from conftest import h_fidelity, kron_all


def _single_state(circuit, **kwargs):
    branches = run(circuit, **kwargs)
    assert len(branches) == 1
    return branches[0]


def test_double_hadamard_is_identity():
    c = Circuit(1, tuple(gates(("h", (0,)), ("h", (0,)))))
    br = _single_state(c)
    assert abs(br.state[0] - 1.0) < 1e-12


def test_h_state_preparation():
    c = Circuit(1, (Element("prep_h", (0,)),))
    br = _single_state(c)
    want = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)])
    assert np.allclose(br.state, want, atol=1e-12)


def test_nondestructive_h_measurement_on_h_state():
    # |+> ancilla controlling H onto |H>, measured in X: outcome +1 surely.
    c = Circuit(
        2,
        (
            Element("prep_plus", (0,)),
            Element("prep_h", (1,)),
            Element("ch", (0, 1)),
            Element("mx", (0,), label="m"),
        ),
    )
    branches = run(c)
    assert len(branches) == 1
    assert branches[0].outcomes == {"m": 0}
    assert abs(branches[0].prob - 1.0) < 1e-12
    assert h_fidelity(branches[0].state, 1) == pytest.approx(1.0, abs=1e-12)


def test_norm_preserved_by_unitaries():
    c = Circuit(
        3,
        tuple(
            gates(
                ("ry_p4", (0,)),
                ("cx", (0, 1)),
                ("ch", (1, 2)),
                ("cy", (2, 0)),
                ("sdg", (1,)),
            )
        ),
    )
    br = _single_state(c)
    assert abs(np.vdot(br.state, br.state).real - 1.0) < 1e-12


def test_reduced_fidelity_examples():
    for prep, want in ((None, 1.0), ("y", 0.0), ("z", 0.5)):
        elems = [Element("prep_h", (0,)), Element("prep_h", (1,))]
        if prep:
            elems.append(Element(prep, (0,)))
        br = _single_state(Circuit(2, tuple(elems)))
        assert h_fidelity(br.state, 0) == pytest.approx(want, abs=1e-12)
        assert h_fidelity(br.state, 1) == pytest.approx(1.0, abs=1e-12)
    # Oracle for the Z case: |<H|Z|H>|^2 from the dense matrices.
    hvec = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)])
    overlap = hvec @ kron_all("Z") @ hvec
    assert abs(overlap) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_identity_circuit_equals_empty():
    a = Circuit(2, tuple(gates(("swap", (0, 1)), ("swap", (0, 1)))))
    b = Circuit(2, ())
    assert channel_distance(a, b) <= 1e-10
    # Circuits that touch no wire are compared on none.
    assert channel_distance(Circuit(3, ()), Circuit(3, ())) == 0.0
    assert channel_distance(Circuit(1, ()), Circuit(1, ()), compare_labels=False) == 0.0


def _full_width_distance(a, b, compare_labels):
    """channel_distance with no wire dropped: every label's Choi deviation
    on the circuits' own widths."""
    ka, kb = labeled_kraus(a), labeled_kraus(b)
    if not compare_labels:
        ka, kb = ({(): [m for ms in k.values() for m in ms]} for k in (ka, kb))
    return max(_choi_deviation(ka.get(key, []), kb.get(key, [])) for key in set(ka) | set(kb))


@st.composite
def _gate_list(draw, width):
    elems = []
    for name in draw(st.lists(st.sampled_from(sorted(GATE_MATRICES)), max_size=4)):
        k = GATE_MATRICES[name].shape[0].bit_length() - 1
        if k <= width:
            elems.append(Element(name, tuple(draw(st.permutations(range(width)))[:k])))
    return elems


@settings(max_examples=60)
@given(
    width=st.integers(1, 3),
    measure=st.sampled_from([None, "mz", "mx", "my"]),
    compare_labels=st.booleans(),
    data=st.data(),
)
def test_idle_wire_does_not_change_channel_distance(width, measure, compare_labels, data):
    """Padding both circuits of a pair with an untouched wire, at any
    position, leaves the distance as it was, and the distance equals the
    deviation of the full-width Choi matrices, which keep the padded wire."""
    a, b = data.draw(_gate_list(width)), data.draw(_gate_list(width))
    if measure:
        # The same measured wire on both sides; a pair that measures
        # different wires keeps its idle wires (see the test below).
        m = Element(measure, (data.draw(st.integers(0, width - 1)),), label="m")
        a, b = a + [m], b + [m]
    pad = data.draw(st.integers(0, width))
    padded = [
        Circuit(width + 1, tuple(el._replace(wires=tuple(w + (w >= pad) for w in el.wires)) for el in c))
        for c in (a, b)
    ]
    want = channel_distance(Circuit(width, tuple(a)), Circuit(width, tuple(b)), compare_labels)
    got = channel_distance(*padded, compare_labels)
    assert got == want
    assert got == pytest.approx(_full_width_distance(*padded, compare_labels), rel=1e-12, abs=1e-13)


def test_idle_wires_stay_when_the_circuits_measure_different_wires():
    """Circuits that leave different wires open are refused: their channels'
    outputs (or inputs) would be paired by rank, not by wire.  Here wire 1 is
    untouched; ``a`` measures wire 0 and ``b`` wire 2, so paired by rank the
    untouched wire is the first open output of ``a`` and the second of
    ``b``.  That reading is 1.0, and 0.0 without the untouched wire, where
    each side's one open output carries input wire 2."""
    a = Circuit(3, (Element("s", (0,)), Element("mz", (0,), label="m")))
    b = Circuit(3, (Element("swap", (2, 0)), Element("mz", (2,), label="m")))
    squeezed = [Circuit(2, tuple(el._replace(wires=tuple(w // 2 for w in el.wires)) for el in c.elements))
                for c in (a, b)]
    for compare_labels in (True, False):
        by_rank = _full_width_distance(a, b, compare_labels)
        assert abs(by_rank - _full_width_distance(*squeezed, compare_labels)) > 1e-3
        for pair in ((a, b), squeezed, (b, a)):
            with pytest.raises(DimensionError, match="different wires open"):
                channel_distance(*pair, compare_labels)
    # Preparing different wires is refused the same way.
    prepared = [Circuit(2, (Element("prep_0", (w,)),)) for w in (0, 1)]
    with pytest.raises(DimensionError, match="different wires open"):
        channel_distance(*prepared)


def test_channel_width_mismatch():
    with pytest.raises(DimensionError):
        channel_distance(Circuit(1, ()), Circuit(2, ()))


def test_prep_requires_zero():
    c = Circuit(1, (Element("x", (0,)), Element("prep_h", (0,))))
    with pytest.raises(SimulationError):
        run(c)


def test_condition_requires_bit():
    c = Circuit(1, (Element("x", (0,), cond=("nope", 1)),))
    with pytest.raises(SimulationError):
        run(c)


def test_circuit_unitary_matches_matrix():
    c = Circuit(2, tuple(gates(("h", (0,)), ("cx", (0, 1)))))
    # The one outcome-free branch has one Kraus operator: the unitary.
    ((u,),) = labeled_kraus(c).values()
    h0 = np.kron(GATE_MATRICES["h"], np.eye(2))
    want = GATE_MATRICES["cx"] @ h0
    assert np.allclose(u, want, atol=1e-12)


def test_labeled_kraus_is_one_batched_run(monkeypatch):
    from c4distill import statevec

    calls = [0]
    execute = statevec.run

    def counting(*args, **kwargs):
        calls[0] += 1
        return execute(*args, **kwargs)

    monkeypatch.setattr(statevec, "run", counting)
    # Bell circuit with wire 0 measured: branch b keeps <i|_0 P_b U for the
    # discarded basis state i, a 2x4 matrix that vanishes unless i = b.
    c = Circuit(2, tuple(gates(("h", (0,)), ("cx", (0, 1)))) + (Element("mz", (0,), label="m"),))
    kraus = labeled_kraus(c)
    assert calls[0] == 1
    u = GATE_MATRICES["cx"] @ np.kron(GATE_MATRICES["h"], np.eye(2))
    assert sorted(kraus) == [(0,), (1,)]
    for (b,), mats in kraus.items():
        assert len(mats) == 2
        for i, k in enumerate(mats):
            want = u[2 * i : 2 * i + 2] if i == b else np.zeros((2, 4))
            assert np.allclose(k, want, atol=1e-12), (b, i)


def test_named_cliffords_match_pauli_tables():
    # Every named Clifford conjugates Paulis identically in both modules.
    for name, action in GATE_ACTIONS.items():
        mat = GATE_MATRICES[name]
        n = action.n
        for qubit in range(n):
            for kind in "XZ":
                p = PauliString.single(n, qubit, kind)
                img = embedded_action(name, tuple(range(n)), n).conjugate(p)
                label = img.label()
                phase = {"+": 1, "-": -1, "+i": 1j, "-i": -1j}[label[:-n]]
                want = phase * kron_all(label[-n:])
                got = mat @ kron_all("I" * qubit + kind + "I" * (n - qubit - 1)) @ mat.conj().T
                assert np.allclose(got, want, atol=1e-12), (name, qubit, kind)


def _full_register_matrix(mat, wires, width):
    """The gate as a 2^width x 2^width matrix: kron with the identity on the
    other wires, which puts the gate's wires first, then a transpose of the
    2 * width tensor axes back to wire order (wire 0 most significant)."""
    order = list(wires) + [w for w in range(width) if w not in wires]
    full = np.kron(mat, np.eye(2 ** (width - len(wires)))).reshape((2,) * 2 * width)
    perm = [order.index(w) for w in range(width)]
    return full.transpose(perm + [width + p for p in perm]).reshape(2**width, 2**width)


def _check_kernel(name, wires, width, batch, strided, seed):
    rng = np.random.default_rng(seed)
    shape = (2,) * width + tuple(batch)
    state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if strided:
        # The same values as a moveaxis view of a buffer that holds axis 0
        # last, which is non-contiguous unless the state has two entries.
        state = np.moveaxis(np.ascontiguousarray(np.moveaxis(state, 0, -1)), -1, 0)
        assert state.flags["C_CONTIGUOUS"] == (state.size == 2)
    before = state.copy()
    got = apply_unitary(state, GATE_MATRICES[name], wires)
    full = _full_register_matrix(GATE_MATRICES[name], wires, width)
    want = (full @ before.reshape(2**width, -1)).reshape(shape)
    assert got.shape == shape
    assert np.allclose(got, want, rtol=0, atol=1e-12), (name, wires, width, batch, strided)
    assert np.array_equal(state, before)  # the input is not written


def test_kernel_on_every_gate_and_wire_order():
    """Every gate on every ordered wire tuple of a 5-wire register, reversed
    and non-adjacent ones included, with two batch axes, contiguous or not."""
    for name, mat in sorted(GATE_MATRICES.items()):
        k = mat.shape[0].bit_length() - 1
        for wires in itertools.permutations(range(5), k):
            for strided in (False, True):
                _check_kernel(name, wires, 5, (3, 2), strided, seed=len(wires))



def test_kernel_and_dot_in_blocks(monkeypatch):
    """With blocks small enough to cut a 5-wire register, products stacked
    as equal blocks, products whose columns the blocks do not divide (a
    batch of 3) and products within one block equal the full-register
    matrix, and dots summed over blocks, a partial last block included,
    equal one np.vdot."""
    monkeypatch.setattr(statevec, "_PRODUCT_BLOCK", 16)
    monkeypatch.setattr(statevec, "_DOT_BLOCK", 24)
    for name, mat in sorted(GATE_MATRICES.items()):
        k = mat.shape[0].bit_length() - 1
        for wires in itertools.permutations(range(5), k):
            for batch in ((2, 2), (3,)):
                _check_kernel(name, wires, 5, batch, strided=len(batch) == 1, seed=len(wires))
    rng = np.random.default_rng(3)
    for size in (1, 24, 25, 100):
        a, b = (rng.normal(size=size) + 1j * rng.normal(size=size) for _ in range(2))
        assert statevec._vdot(a, b) == pytest.approx(np.vdot(a, b), rel=1e-12)

@given(
    name=st.sampled_from(sorted(GATE_MATRICES)),
    width=st.integers(1, 5),
    batch=st.lists(st.integers(1, 3), max_size=2),
    strided=st.booleans(),
    data=st.data(),
)
def test_kernel_matches_full_register_matrix(name, width, batch, strided, data):
    k = GATE_MATRICES[name].shape[0].bit_length() - 1
    if k > width:
        width = k
    wires = tuple(data.draw(st.permutations(range(width)))[:k])
    _check_kernel(name, wires, width, batch, strided, seed=data.draw(st.integers(0, 2**32 - 1)))


def _brute_choi_deviation(a, b):
    """max |J_a - J_b| with J = sum over Kraus operators K of vec(K) vec(K)^+."""
    size = (a or b)[0].size
    choi_a, choi_b = (
        sum((np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in ks), np.zeros((size, size)))
        for ks in (a, b)
    )
    return float(np.abs(choi_a - choi_b).max())


def _kraus_list(rng, count, shape):
    return [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(count)]


@given(
    shape=st.sampled_from([(1, 1), (2, 2), (3, 5), (2, 16), (6, 7), (8, 16)]),
    counts=st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any),
    seed=st.integers(0, 2**32 - 1),
)
def test_choi_deviation_matches_brute_force(shape, counts, seed):
    """Unequal Kraus counts, an empty side, and sizes below, at and above the
    row block, including a partial last block."""
    rng = np.random.default_rng(seed)
    a, b = (_kraus_list(rng, n, shape) for n in counts)
    assert _choi_deviation(a, b) == pytest.approx(_brute_choi_deviation(a, b), rel=1e-12, abs=1e-13)


def test_choi_deviation_special_pairs():
    rng = np.random.default_rng(5)
    for shape in ((2, 2), (8, 16), (6, 7)):
        a = _kraus_list(rng, 3, shape)
        # A global phase on every operator does not change the channel.
        assert _choi_deviation(a, [np.exp(0.7j) * k for k in a]) <= 1e-12
        assert _choi_deviation(a, a[::-1]) <= 1e-12
        # J_a - J_b differs from 0 in its last diagonal entry only, which
        # lies in the last block of rows.
        last = np.zeros(shape, dtype=complex)
        last[-1, -1] = 1j
        for other in ([], [np.zeros(shape)]):
            assert _choi_deviation([last], other) == 1.0
            assert _choi_deviation(other, [last]) == 1.0
    assert (8 * 16) % _CHOI_ROWS == 0 and (6 * 7) % _CHOI_ROWS != 0
    with pytest.raises(DimensionError):
        _choi_deviation([np.eye(2)], [np.eye(4)])
