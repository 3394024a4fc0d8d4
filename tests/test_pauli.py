"""Pauli algebra against the dense matrix oracle."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from c4distill.pauli import (
    GATE_ACTIONS,
    DimensionError,
    PauliString,
    conjugate_through,
)
from conftest import kron_all

PHASE_PREFIX = {"+i": 1j, "-i": -1j, "+": 1, "-": -1}


def dense(p: PauliString) -> np.ndarray:
    label = p.label()
    for prefix in ("+i", "-i", "+", "-"):
        if label.startswith(prefix):
            return PHASE_PREFIX[prefix] * kron_all(label[len(prefix):])
    raise AssertionError(label)


def test_single_qubit_products_exhaustive():
    # Group law with phases on one qubit, all 16 letter pairs.
    for a, b in itertools.product("IXYZ", repeat=2):
        pa = PauliString.from_label(a)
        pb = PauliString.from_label(b)
        got = dense(pa * pb)
        want = dense(pa) @ dense(pb)
        assert np.allclose(got, want, atol=1e-12), (a, b)


def test_zx_equals_iy():
    z = PauliString.from_label("Z")
    x = PauliString.from_label("X")
    prod = z * x
    assert prod.label() == "+iY"


def test_x_squared_is_identity():
    x = PauliString.from_label("X")
    assert (x * x).label() == "+I"


def test_xxxx_times_zzzz():
    got = PauliString.from_label("XXXX") * PauliString.from_label("ZZZZ")
    # Oracle: positionwise dense product.
    want = kron_all("XXXX") @ kron_all("ZZZZ")
    assert np.allclose(dense(got), want, atol=1e-12)
    assert got.label() == "+YYYY"


@st.composite
def paulis(draw, n=None):
    """A phased Pauli string on n qubits (1 to 4 when n is not given)."""
    n = n or draw(st.integers(min_value=1, max_value=4))
    bits = st.integers(min_value=0, max_value=2**n - 1)
    return PauliString(n, draw(bits), draw(bits), draw(st.integers(min_value=0, max_value=3)))


@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: st.tuples(*[paulis(n)] * 3)))
def test_associativity_sampled(ps):
    left = (ps[0] * ps[1]) * ps[2]
    right = ps[0] * (ps[1] * ps[2])
    assert left == right
    assert np.allclose(dense(left), dense(ps[0]) @ dense(ps[1]) @ dense(ps[2]), atol=1e-12)


def test_inverse():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        p = PauliString(n, rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4))
        # p is i^k times a product of X^x Z^z factors, and (XZ)^-1 = -XZ, so
        # its inverse is i^(2y - k) times the same product, y the number of
        # qubits carrying both X and Z.
        y_count = bin(p.x & p.z).count("1")
        inverse = PauliString(n, p.x, p.z, -p.phase + 2 * y_count)
        assert (p * inverse).label() == "+" + "I" * n


@pytest.mark.parametrize(
    "a,b,expect",
    [
        ("XXXX", "ZZZZ", True),
        ("YIII", "ZZZZ", False),
        ("YYII", "XXXX", True),
    ],
)
def test_commutes(a, b, expect):
    pa = PauliString.from_label(a)
    pb = PauliString.from_label(b)
    assert pa.commutes(pb) is expect


@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: st.tuples(paulis(n), paulis(n))))
def test_commutation_matches_dense_matrices(pq):
    p, q = pq
    dp, dq = dense(p), dense(q)
    assert p.commutes(q) == np.allclose(dp @ dq, dq @ dp, atol=1e-12)
    assert p.commutes(q) != np.allclose(dp @ dq, -dq @ dp, atol=1e-12)


@given(paulis(1), paulis(2))
def test_gate_actions_match_gate_matrices(p1, p2):
    # Every conjugation table is U P U^dagger of the gate's dense matrix.
    from c4distill.statevec import GATE_MATRICES

    for name, table in GATE_ACTIONS.items():
        n = len(table)
        p = (p1, p2)[n - 1]
        u = GATE_MATRICES[name]
        got = conjugate_through(p, [(name, tuple(range(n)))], n)
        assert np.allclose(dense(got), u @ dense(p) @ u.conj().T, atol=1e-12), name


def test_commutes_dimension_error():
    with pytest.raises(DimensionError):
        PauliString.from_label("X").commutes(PauliString.from_label("XX"))


def test_conjugation_dimension_errors():
    # A gate given the wrong number of wires is refused before the skip of
    # gates on which the Pauli is the identity, so even I is checked.
    for p in (PauliString.from_label("XY"), PauliString.identity(2)):
        with pytest.raises(DimensionError, match="gate cx takes 2 wires"):
            conjugate_through(p, [("h", (0,)), ("cx", (1,))], 2)
        with pytest.raises(DimensionError, match="gate h takes 1 wires"):
            conjugate_through(p, [("h", (0, 1))], 2)
    with pytest.raises(DimensionError, match="qubit counts differ"):
        conjugate_through(PauliString.from_label("X"), [("h", (0,))], 2)


def test_hadamard_conjugation():
    assert conjugate_through(PauliString.from_label("Z"), [("h", (0,))], 1).label() == "+X"
    assert conjugate_through(PauliString.from_label("Y"), [("h", (0,))], 1).label() == "-Y"


def test_cx_copies_x():
    assert conjugate_through(PauliString.from_label("XI"), [("cx", (0, 1))], 2).label() == "+XX"


def test_cz_kicks_control_z_onto_target_y():
    # The propagated form of a resource error entering before the CZ of the
    # controlled-H construction: Y on the target picks up Z on the control.
    assert conjugate_through(PauliString.from_label("IY"), [("cz", (0, 1))], 2).label() == "+ZY"


_NAMES1 = ("h", "s", "sdg", "x", "y", "z", "ry_p2", "ry_m2")
_NAMES2 = ("cx", "cz", "cy", "swap")


def _random_gate_sequence(rng, n, length):
    seq = []
    for _ in range(length):
        if n >= 2 and rng.random() < 0.5:
            wires = tuple(rng.sample(range(n), 2))
            seq.append((rng.choice(_NAMES2), wires))
        else:
            seq.append((rng.choice(_NAMES1), (rng.randrange(n),)))
    return seq


def _gates(n):
    """One named Clifford on distinct wires of n qubits."""
    one = st.tuples(st.sampled_from(_NAMES1), st.tuples(st.integers(0, n - 1)))
    if n < 2:
        return one
    pair = st.permutations(range(n)).map(lambda w: tuple(w[:2]))
    return one | st.tuples(st.sampled_from(_NAMES2), pair)


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(paulis(n), st.lists(_gates(n), min_size=1, max_size=5))))
def test_conjugation_matches_dense_oracle(case):
    from c4distill.statevec import GATE_MATRICES

    p, seq = case
    n = p.n
    got = dense(conjugate_through(p, seq, n))
    u = np.eye(2**n, dtype=complex)
    for name, wires in seq:
        u = _embed(GATE_MATRICES[name], wires, n) @ u
    want = u @ dense(p) @ u.conj().T
    assert np.allclose(got, want, atol=1e-10)


def _embed(mat, wires, n):
    from c4distill.statevec import apply_unitary

    full = np.zeros((2**n, 2**n), dtype=complex)
    for col in range(2**n):
        state = np.zeros([2] * n, dtype=complex)
        state[tuple((col >> (n - 1 - i)) & 1 for i in range(n))] = 1.0
        full[:, col] = apply_unitary(state, mat, wires).reshape(-1)
    return full


def test_conjugation_preserves_commutation():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(2, 4)
        seq = _random_gate_sequence(rng, n, 4)
        p = PauliString(n, rng.getrandbits(n), rng.getrandbits(n))
        q = PauliString(n, rng.getrandbits(n), rng.getrandbits(n))
        pc = conjugate_through(p, seq, n)
        qc = conjugate_through(q, seq, n)
        assert p.commutes(q) == pc.commutes(qc)
