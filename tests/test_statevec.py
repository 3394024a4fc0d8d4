"""Dense simulator basics, measurement gadget, and cross-module checks."""

import math

import numpy as np
import pytest

from c4distill.circuits import Circuit, Element, gates
from c4distill.pauli import GATE_ACTIONS, PauliString, embedded_action
from c4distill.statevec import (
    GATE_MATRICES,
    SimulationError,
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


def test_channel_width_mismatch():
    from c4distill.pauli import DimensionError

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
