"""Every named circuit identity must hold on the dense oracle at 1e-10."""

import pytest

from c4distill.circuits import gates
from c4distill.identities import IDENTITIES, TOL, _circ, verify_all
from c4distill.statevec import channel_distance


@pytest.mark.parametrize("name", sorted(IDENTITIES))
def test_identity(name):
    _, fn = IDENTITIES[name]
    dist = fn()
    assert dist <= TOL, f"{name} deviates by {dist:.3e}"


def test_groups_cover_the_construction():
    groups = {g for g, _ in IDENTITIES.values()}
    assert groups == {"gadget", "measurement", "errors", "appendix"}
    appendix = [n for n, (g, _) in IDENTITIES.items() if g == "appendix"]
    assert len(appendix) == 5


def test_verify_all_shape():
    results = verify_all()
    assert set(results) == set(IDENTITIES)
    assert all(ok for ok, _ in results.values())


def test_near_miss_identities_fail():
    """Two wrong identities read far above TOL, so a comparison that returns
    0 fails the suite: the CZ sandwich with Y(pi/4) where it needs Y(-pi/4)
    (2 wires, one row block), and the controlled-H of
    ``ch-commutes-into-middle`` retargeted to wire 2, on which the prefix
    acts (5 wires, many row blocks)."""
    ch = _circ(2, gates(("ch", (0, 1))))
    sandwich = _circ(2, gates(("ry_p4", (1,)), ("cz", (0, 1)), ("ry_p4", (1,))))
    assert channel_distance(ch, sandwich) >= 1e-3
    prefix = gates(("h", (3,)), ("h", (2,)), ("s", (2,)), ("sdg", (4,)), ("cz", (2, 4)))
    lhs = _circ(5, gates(("ch", (0, 2))) + prefix)
    rhs = _circ(5, prefix + gates(("ch", (0, 2))))
    assert channel_distance(lhs, rhs) >= 1e-3
