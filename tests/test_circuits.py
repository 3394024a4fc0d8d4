"""Codec, distillation circuit, reference outcomes, and the gadget build."""

import random

import numpy as np
import pytest

from c4distill.circuits import (
    CODE,
    Circuit,
    Element,
    NondeterministicReference,
    build_c4_codec,
    build_distillation_circuit,
    build_gadget_distillation,
    insert_pattern,
    reference_outcomes,
)
from c4distill.pauli import PauliString
from c4distill.statevec import run
from conftest import h_basis_joint, h_fidelity, kron_all


def test_code_definition_invariants():
    sx, sz = CODE.stabilizers
    assert sx.commutes(sz)
    for log in CODE.logical_x + CODE.logical_z:
        assert sx.commutes(log) and sz.commutes(log)
    for i in range(2):
        assert not CODE.logical_x[i].commutes(CODE.logical_z[i])
        assert CODE.logical_x[i].commutes(CODE.logical_z[1 - i])
    # Any weight-1 Pauli anticommutes with at least one stabilizer.
    for qubit in range(4):
        for kind in "XYZ":
            p = PauliString.single(4, qubit, kind)
            assert not (p.commutes(sx) and p.commutes(sz))


def _run_codec(pre=(), between=(), postselect=None):
    enc, dec = build_c4_codec()
    elems = list(pre) + list(enc.elements) + list(between) + list(dec.elements)
    return run(Circuit(4, tuple(elems), dict(enc.labels)), postselect=postselect)


def test_codec_roundtrip_on_basis_states():
    enc, dec = build_c4_codec()
    circ = Circuit(4, tuple(list(enc.elements) + list(dec.elements)), dict(enc.labels))
    for d1 in (0, 1):
        for d2 in (0, 1):
            state = np.zeros((2,) * 4, dtype=complex)
            state[d1, 0, d2, 0] = 1.0
            branches = run(circ, state=state)
            assert len(branches) == 1
            br = branches[0]
            assert br.outcomes == {"check_z": 0, "check_x": 0}
            marginal = np.abs(br.state[d1, :, d2, :]) ** 2
            assert marginal.sum() == pytest.approx(1.0, abs=1e-10)


def test_encoded_state_is_stabilized():
    enc, _ = build_c4_codec()
    elems = [Element("prep_h", (0,)), Element("prep_h", (2,))] + list(enc.elements)
    (br,) = run(Circuit(4, tuple(elems)))
    psi = br.state.reshape(-1)
    for label in ("XXXX", "ZZZZ"):
        assert psi @ kron_all(label) @ psi.conj() == pytest.approx(1.0, abs=1e-12)


def test_single_qubit_error_flips_a_check():
    for wire in range(4):
        for kind in ("x", "y", "z"):
            enc, dec = build_c4_codec()
            elems = (
                [Element("prep_h", (0,)), Element("prep_h", (2,))]
                + list(enc.elements)
                + [Element(kind, (wire,))]
                + list(dec.elements)
            )
            branches = run(Circuit(4, tuple(elems)))
            for br in branches:
                assert br.outcomes != {"check_z": 0, "check_x": 0}, (wire, kind)


def test_logical_y_passes_checks_and_flips_output():
    # Apply the physical representative of logical Y on qubit 1 inside the
    # code: checks stay clean, first output flips, second is untouched.
    ly = CODE.logical_x[0] * CODE.logical_z[0] * PauliString(4, 0, 0, 1)
    label = ly.label()
    enc, dec = build_c4_codec()
    gate_seq = []
    for j, ch in enumerate(label.lstrip("+-i")):
        if ch != "I":
            gate_seq.append(Element(ch.lower(), (j,)))
    elems = (
        [Element("prep_h", (0,)), Element("prep_h", (2,))]
        + list(enc.elements)
        + gate_seq
        + list(dec.elements)
    )
    branches = run(Circuit(4, tuple(elems)))
    assert len(branches) == 1
    br = branches[0]
    assert br.outcomes == {"check_z": 0, "check_x": 0}
    assert h_fidelity(br.state, 0) == pytest.approx(0.0, abs=1e-12)
    assert h_fidelity(br.state, 2) == pytest.approx(1.0, abs=1e-12)


def test_distillation_circuit_shape():
    circ, locations = build_distillation_circuit()
    assert circ.width == 5
    n_ch = sum(el.op == "ch" for el in circ.elements)
    assert n_ch == 4
    # Two resource states per controlled-H gadget.
    assert 2 * n_ch == 8
    assert len(locations) == 10
    assert sum(1 for l in locations if l.kind == "data") == 2
    assert sum(1 for l in locations if l.kind == "gate") == 8
    gadgets = {(l.gadget, l.role) for l in locations if l.kind == "gate"}
    assert gadgets == {(g, r) for g in range(4) for r in ("first", "second")}


def test_noiseless_run_reference_and_outputs():
    circ, _ = build_distillation_circuit()
    ref = reference_outcomes(circ)
    assert set(ref) == {"meas_encoded", "check_z", "check_x"}
    (br,) = run(circ, postselect=ref)
    assert br.prob == pytest.approx(1.0, abs=1e-12)
    assert h_fidelity(br.state, circ.labels["out1"]) == pytest.approx(1.0, abs=1e-12)
    assert h_fidelity(br.state, circ.labels["out2"]) == pytest.approx(1.0, abs=1e-12)


def test_reference_rejects_random_measurement():
    circ = Circuit(
        1, (Element("prep_0", (0,)), Element("mx", (0,), label="m"))
    )
    with pytest.raises(NondeterministicReference):
        reference_outcomes(circ)


def test_codec_sandwich_reference_deterministic():
    enc, dec = build_c4_codec()
    circ = Circuit(
        4,
        tuple(
            [Element("prep_h", (0,)), Element("prep_h", (2,))]
            + list(enc.elements)
            + list(dec.elements)
        ),
    )
    assert reference_outcomes(circ) == {"check_z": 0, "check_x": 0}


def test_double_data_error_accepted_with_both_outputs_flipped():
    circ, locations = build_distillation_circuit()
    ref = reference_outcomes(circ)
    noisy = insert_pattern(circ, locations, 0b0000000011)
    (br,) = run(noisy, postselect=ref)
    assert br.prob == pytest.approx(1.0, abs=1e-10)
    assert h_fidelity(br.state, circ.labels["out1"]) == pytest.approx(0.0, abs=1e-10)
    assert h_fidelity(br.state, circ.labels["out2"]) == pytest.approx(0.0, abs=1e-10)


def test_insert_pattern_keeps_pauli_order():
    circ, locations = build_distillation_circuit()
    for loc in locations:
        noisy = insert_pattern(circ, locations, 1 << loc.id)
        at, end = loc.insert_index, loc.insert_index + len(loc.paulis)
        assert noisy.elements[at:end] == tuple(Element(op, (w,)) for op, w in loc.paulis), loc.id
        assert noisy.elements[:at] + noisy.elements[end:] == circ.elements, loc.id
    # The first resource state of gadget 0: z on the ancilla, then y on the target.
    first = locations[2]
    assert (first.id, first.role) == (2, "first")
    spliced = insert_pattern(circ, locations, 1 << 2).elements[first.insert_index :][:2]
    assert [(el.op, el.wires) for el in spliced] == [
        ("z", (circ.labels["ancilla"],)),
        ("y", (circ.elements[first.insert_index - 1].wires[1],)),
    ]
    # With every bit set, locations sharing an index keep their list order.
    expected = []
    for idx, el in enumerate(circ.elements + (None,)):
        expected += [Element(op, (w,)) for loc in locations if loc.insert_index == idx for op, w in loc.paulis]
        expected += [el] if el else []
    assert insert_pattern(circ, locations, (1 << len(locations)) - 1).elements == tuple(expected)


def test_encoded_measurement_sorts_h_subspaces():
    # Encoded inputs |+-H>|+-H>: the ancilla outcome is fixed by the product
    # of the two signs (aligned pair -> reference outcome, anti-aligned pair
    # -> flipped), and the circuit is deterministic in every case.
    circ, _ = build_distillation_circuit()
    n_anc = circ.labels["ancilla"]
    for s1 in (0, 1):
        for s2 in (0, 1):
            elems = []
            for el in circ.elements:
                elems.append(el)
                if el.op == "prep_h" and el.wires[0] == circ.labels["out1"] and s1:
                    elems.append(Element("y", el.wires))
                if el.op == "prep_h" and el.wires[0] == circ.labels["out2"] and s2:
                    elems.append(Element("y", el.wires))
            branches = run(Circuit(circ.width, tuple(elems), dict(circ.labels)))
            outcomes = {b.outcomes["meas_encoded"] for b in branches}
            assert outcomes == {(s1 + s2) % 2}


def test_serialization_stable():
    circ, _ = build_distillation_circuit()
    text = circ.serialize()
    lines = text.strip().split("\n")
    assert lines[0] == "wires 5"
    assert "ch 0 2" in lines
    assert "mx 0 -> meas_encoded" in lines
    assert text == circ.serialize()


def _gadget_verdict(circ, locations, ref, bits):
    noisy = insert_pattern(circ, locations, bits)
    branches = run(noisy, postselect=ref, merge_hidden=True)
    weight = sum(br.prob for br in branches)
    if weight < 1e-12:
        return 0.0, None
    joint = np.zeros((2, 2))
    for br in branches:
        # Branch states are unnormalized, so their weights add directly.
        joint += h_basis_joint(br.state, circ.labels["out1"], circ.labels["out2"])
    return weight, joint / weight


def test_gadget_level_build_matches_canonical_classification():
    """The 7-wire build with explicit resource states reproduces the verdicts
    of the 5-wire build with propagated error forms."""
    from c4distill.enumeration import exact_verdicts

    circ, locations = build_gadget_distillation()
    ref = {k: v for k, v in reference_outcomes(circ).items() if not k.startswith("_")}
    verdicts = exact_verdicts()
    rng = random.Random(23)
    patterns = list(range(11)) + [rng.randrange(1024) for _ in range(12)]
    for bits in patterns:
        weight, joint = _gadget_verdict(circ, locations, ref, bits)
        want = verdicts[bits]
        assert weight == pytest.approx(float(want.accept), abs=1e-9), bits
        if joint is not None and float(want.accept) > 0:
            acc = float(want.accept)
            err1 = float(want.err1) / acc
            err2 = float(want.err2) / acc
            both = float(want.both) / acc
            assert joint[1, 0] + joint[1, 1] == pytest.approx(err1, abs=1e-9), bits
            assert joint[0, 1] + joint[1, 1] == pytest.approx(err2, abs=1e-9), bits
            assert joint[1, 1] == pytest.approx(both, abs=1e-9), bits
