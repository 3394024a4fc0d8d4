"""Every named circuit identity must hold on the dense oracle at 1e-10."""

import pytest

from c4distill.circuits import gates, logical_middle_block, middle_block
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


def test_appendix_identities_run_without_their_idle_wire(monkeypatch):
    """Neither side of ``ch-commutes-into-middle`` or
    ``middle-block-cz-reduction`` touches wire 1, so each side reaches
    ``run`` once, on the other 4 wires."""
    from c4distill import statevec

    widths = []
    execute = statevec.run

    def counting(circuit, *args, **kwargs):
        widths.append(circuit.width)
        return execute(circuit, *args, **kwargs)

    monkeypatch.setattr(statevec, "run", counting)
    for name in ("ch-commutes-into-middle", "middle-block-cz-reduction"):
        widths.clear()
        assert IDENTITIES[name][1]() <= TOL
        assert widths == [4, 4], name


def test_near_miss_identities_fail():
    """Three wrong identities read far above TOL, so a comparison that
    returns 0 fails the suite: the CZ sandwich with Y(pi/4) where it needs
    Y(-pi/4) (2 wires, one row block); the controlled-H of
    ``ch-commutes-into-middle`` retargeted to wire 2, on which the prefix
    acts; and ``middle-block-cz-reduction`` without its final ancilla CZ.
    The last two leave wire 1 untouched, so they are compared on 4 wires,
    in 8 blocks of 32 rows."""
    ch = _circ(2, gates(("ch", (0, 1))))
    sandwich = _circ(2, gates(("ry_p4", (1,)), ("cz", (0, 1)), ("ry_p4", (1,))))
    assert channel_distance(ch, sandwich) >= 1e-3
    prefix = gates(("h", (3,)), ("h", (2,)), ("s", (2,)), ("sdg", (4,)), ("cz", (2, 4)))
    lhs = _circ(5, gates(("ch", (0, 2))) + prefix)
    rhs = _circ(5, prefix + gates(("ch", (0, 2))))
    assert channel_distance(lhs, rhs) >= 1e-3
    lhs = _circ(5, gates(*middle_block(0, 1, 2, 3, 4)[:-1]))
    rhs = _circ(5, gates(("ch", (0, 3)), *logical_middle_block(1, 2, 3, 4), ("ch", (0, 3))))
    assert channel_distance(lhs, rhs) >= 1e-3
