import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and take no per-example
# deadline, so the suite stays deterministic on a loaded host.
settings.register_profile("c4distill", derandomize=True, deadline=None, max_examples=30)
settings.load_profile("c4distill")

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)
PAULI_MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def h_fidelity(state: np.ndarray, wire: int) -> float:
    """<H| rho_wire |H> for a normalized state tensor."""
    from c4distill.statevec import H_STATE

    v = np.tensordot(H_STATE.conj(), state, axes=([0], [wire]))
    return float(np.vdot(v, v).real)


def h_basis_joint(state: np.ndarray, wire1: int, wire2: int) -> np.ndarray:
    """2x2 weights of wires (wire1, wire2) in the (|H>, |-H>) basis, summed
    over the other wires; unnormalized, like the branch states of ``run``."""
    from c4distill.statevec import H_STATE

    basis = (H_STATE, np.array([-H_STATE[1], H_STATE[0]]))
    joint = np.zeros((2, 2))
    for r, u in enumerate(basis):
        for c, v in enumerate(basis):
            amp = np.tensordot(np.outer(u, v).conj(), state, axes=([0, 1], [wire1, wire2]))
            joint[r, c] = np.vdot(amp, amp).real
    return joint


def postselected(branches: list, outcomes: dict) -> list:
    """The branches of ``run`` whose outcomes include every given one."""
    return [br for br in branches if outcomes.items() <= br.outcomes.items()]


def kron_all(labels: str) -> np.ndarray:
    """Dense matrix of a Pauli label string (leftmost letter = qubit 0)."""
    out = np.array([[1]], dtype=complex)
    for ch in labels:
        out = np.kron(out, PAULI_MATS[ch])
    return out


@pytest.fixture(scope="session")
def polyset():
    from c4distill.enumeration import derive_polynomials

    return derive_polynomials()


@pytest.fixture(scope="session")
def models():
    from c4distill.routines import builtin_models

    return builtin_models()
