"""Named circuit identities backing the construction, checked on the oracle.

Groups:

* ``gadget``: the controlled-H decomposition into a CZ between two Y(pi/4)
  rotations and the measurement gadget that teleports those rotations from
  |H> resource states.
* ``measurement``: the Hadamard-pair measurement in unencoded and encoded
  form, the controlled-H count reduction, and the transversal-H property of
  the code.
* ``errors``: the propagation rules for Y errors on resource states.
* ``appendix``: the rewrite chain that justifies trading the controlled-H
  pair on the untargeted code wires for two ancilla CZs.

``verify_all`` returns name -> (ok, max Choi deviation); everything must
hold at 1e-10.
"""

from __future__ import annotations

from typing import Callable

from .circuits import (
    Circuit,
    Element,
    build_c4_codec,
    controlled_h_gadget,
    gates,
    logical_middle_block,
    middle_block,
    rotation_gadget,
)
from .statevec import channel_distance

TOL = 1e-10


def _circ(width: int, elements: list[Element]) -> Circuit:
    return Circuit(width, tuple(elements))


def controlled_h_as_cz_sandwich() -> float:
    lhs = _circ(2, gates(("ch", (0, 1))))
    rhs = _circ(2, gates(("ry_m4", (1,)), ("cz", (0, 1)), ("ry_p4", (1,))))
    return channel_distance(lhs, rhs)


def rotation_gadget_plus() -> float:
    lhs = _circ(1, gates(("ry_p4", (0,))))
    rhs = _circ(2, rotation_gadget(target=0, resource=1, sign=+1, tag="g"))
    return channel_distance(lhs, rhs, compare_labels=False)


def rotation_gadget_minus() -> float:
    lhs = _circ(1, gates(("ry_m4", (0,))))
    rhs = _circ(2, rotation_gadget(target=0, resource=1, sign=-1, tag="g"))
    return channel_distance(lhs, rhs, compare_labels=False)


def controlled_h_gadget_realization() -> float:
    lhs = _circ(2, gates(("ch", (0, 1))))
    elems, _ = controlled_h_gadget(0, 1, (2, 3), "g")
    return channel_distance(lhs, _circ(4, elems), compare_labels=False)


def unencoded_measurement_swap_form() -> float:
    lhs = _circ(
        3,
        [Element("prep_plus", (0,))]
        + gates(("ch", (0, 1)), ("ch", (0, 2)))
        + [Element("mx", (0,), label="m"), Element("h", (2,))],
    )
    rhs = _circ(
        3,
        [Element("prep_plus", (0,))]
        + gates(
            ("ch", (0, 1)),
            ("ch", (0, 2)),
            ("cswap", (0, 1, 2)),
            ("h", (2,)),
            ("ch", (0, 1)),
            ("ch", (0, 2)),
            ("cswap", (0, 1, 2)),
        )
        + [Element("mx", (0,), label="m")],
    )
    return channel_distance(lhs, rhs)


def _four_gadget_measurement() -> Circuit:
    elems = [Element("prep_plus", (0,))]
    elems += gates(*[("ch", (0, w)) for w in (1, 2, 3, 4)])
    elems += gates(*logical_middle_block(1, 2, 3, 4))
    elems += gates(*[("ch", (0, w)) for w in (1, 2, 3, 4)])
    elems.append(Element("mx", (0,), label="m"))
    return _circ(5, elems)


def _two_gadget_measurement() -> Circuit:
    elems = [Element("prep_plus", (0,))]
    elems += gates(("ch", (0, 2)), ("ch", (0, 4)))
    elems += gates(*middle_block(0, 1, 2, 3, 4))
    elems += gates(("ch", (0, 2)), ("ch", (0, 4)))
    elems.append(Element("mx", (0,), label="m"))
    return _circ(5, elems)


def encoded_measurement_gadget_reduction() -> float:
    return channel_distance(_four_gadget_measurement(), _two_gadget_measurement())


def transversal_h_is_logical_hh_swap() -> float:
    enc, _ = build_c4_codec()
    lhs = _circ(4, list(enc.elements) + gates(("h", (0,)), ("h", (1,)), ("h", (2,)), ("h", (3,))))
    rhs = _circ(4, gates(("h", (0,)), ("h", (2,)), ("swap", (0, 2))) + list(enc.elements))
    return channel_distance(lhs, rhs)


def resource_error_acts_after_rotation() -> float:
    gadget = rotation_gadget(target=0, resource=1, sign=+1, tag="g")
    noisy = [gadget[0], Element("y", (1,))] + gadget[1:]
    lhs = _circ(2, noisy)
    rhs = _circ(1, gates(("ry_p4", (0,)), ("y", (0,))))
    return channel_distance(lhs, rhs, compare_labels=False)


def first_gate_state_error_rule() -> float:
    lhs = _circ(
        2, gates(("ry_m4", (1,)), ("y", (1,)), ("cz", (0, 1)), ("ry_p4", (1,)))
    )
    rhs = _circ(2, gates(("ch", (0, 1)), ("z", (0,)), ("y", (1,))))
    return channel_distance(lhs, rhs)


def second_gate_state_error_rule() -> float:
    elems, prep_idx = controlled_h_gadget(0, 1, (2, 3), "g")
    noisy = list(elems)
    noisy.insert(prep_idx[1] + 1, Element("y", (3,)))
    lhs = _circ(4, noisy)
    rhs = _circ(2, gates(("ch", (0, 1)), ("y", (1,))))
    return channel_distance(lhs, rhs, compare_labels=False)


def cy_pushthrough_spawns_cz() -> float:
    lhs = _circ(3, gates(("ch", (0, 2)), ("cy", (1, 2))))
    rhs = _circ(3, gates(("cz", (0, 1)), ("cy", (1, 2)), ("ch", (0, 2))))
    return channel_distance(lhs, rhs)


def cy_pushthrough_reversed() -> float:
    lhs = _circ(3, gates(("cy", (1, 2)), ("ch", (0, 2))))
    rhs = _circ(3, gates(("ch", (0, 2)), ("cz", (0, 1)), ("cy", (1, 2))))
    return channel_distance(lhs, rhs)


def ch_commutes_into_middle() -> float:
    prefix = gates(("h", (3,)), ("h", (2,)), ("s", (2,)), ("sdg", (4,)), ("cz", (2, 4)))
    lhs = _circ(5, gates(("ch", (0, 3))) + prefix)
    rhs = _circ(5, prefix + gates(("ch", (0, 3))))
    return channel_distance(lhs, rhs)


def middle_block_cz_reduction() -> float:
    lhs = _circ(5, gates(*middle_block(0, 1, 2, 3, 4)))
    rhs = _circ(
        5,
        gates(("ch", (0, 3)))
        + gates(*logical_middle_block(1, 2, 3, 4))
        + gates(("ch", (0, 3))),
    )
    return channel_distance(lhs, rhs)


def middle_block_is_encoded_h2() -> float:
    enc, _ = build_c4_codec()
    lhs = _circ(4, list(enc.elements) + gates(*logical_middle_block(0, 1, 2, 3)))
    rhs = _circ(4, gates(("h", (2,))) + list(enc.elements))
    return channel_distance(lhs, rhs)


IDENTITIES: dict[str, tuple[str, Callable[[], float]]] = {
    "controlled-h-as-cz-sandwich": ("gadget", controlled_h_as_cz_sandwich),
    "rotation-gadget-plus": ("gadget", rotation_gadget_plus),
    "rotation-gadget-minus": ("gadget", rotation_gadget_minus),
    "controlled-h-gadget-realization": ("gadget", controlled_h_gadget_realization),
    "unencoded-measurement-swap-form": ("measurement", unencoded_measurement_swap_form),
    "encoded-measurement-gadget-reduction": ("measurement", encoded_measurement_gadget_reduction),
    "transversal-h-is-logical-hh-swap": ("measurement", transversal_h_is_logical_hh_swap),
    "resource-error-acts-after-rotation": ("errors", resource_error_acts_after_rotation),
    "first-gate-state-error-rule": ("errors", first_gate_state_error_rule),
    "second-gate-state-error-rule": ("errors", second_gate_state_error_rule),
    "cy-pushthrough-spawns-cz": ("appendix", cy_pushthrough_spawns_cz),
    "cy-pushthrough-reversed": ("appendix", cy_pushthrough_reversed),
    "ch-commutes-into-middle": ("appendix", ch_commutes_into_middle),
    "middle-block-cz-reduction": ("appendix", middle_block_cz_reduction),
    "middle-block-is-encoded-h2": ("appendix", middle_block_is_encoded_h2),
}


def verify_all() -> dict[str, tuple[bool, float]]:
    out = {}
    for name, (_, fn) in IDENTITIES.items():
        dist = fn()
        out[name] = (dist <= TOL, dist)
    return out
