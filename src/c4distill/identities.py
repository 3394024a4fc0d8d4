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

The gadget builders live next to the identities that check them, with the
7-wire gadget-level routine that ``dump-circuit --gadget-level`` prints.
"""

from __future__ import annotations

from typing import Callable

from .circuits import (
    Circuit,
    Element,
    ErrorLocation,
    build_c4_codec,
    build_distillation_circuit,
    gates,
    logical_middle_block,
    middle_block,
)
from .statevec import channel_distance

TOL = 1e-10


def rotation_gadget(
    target: int, resource: int, sign: int, tag: str
) -> list[Element]:
    """Teleport a Y(+-pi/4) rotation onto ``target`` consuming one |H> state.

    The resource wire must be in |0>; it is measured in the Y basis, the
    correction fires on the outcome that needs it, and the wire is restored
    to |0> so it can be reused.  Measurement labels are hidden (``_`` prefix).
    """
    lbl = f"_{tag}"
    rot = "ry_p2" if sign > 0 else "ry_m2"
    fire = 1 if sign > 0 else 0
    return [
        Element("prep_h", (resource,)),
        Element("cy", (resource, target)),
        Element("my", (resource,), label=lbl),
        Element(rot, (target,), cond=(lbl, fire)),
        Element("sdg", (resource,)),
        Element("h", (resource,)),
        Element("x", (resource,), cond=(lbl, 1)),
    ]


def controlled_h_gadget(
    control: int, target: int, resources: tuple[int, int], tag: str
) -> tuple[list[Element], list[int]]:
    """Controlled-H from a CZ between two rotation gadgets.

    Returns the elements and the indices (relative to the returned list) of
    the two resource-state preparations, in consumption order.
    """
    first = rotation_gadget(target, resources[0], -1, tag + "a")
    second = rotation_gadget(target, resources[1], +1, tag + "b")
    elems = first + [Element("cz", (control, target))] + second
    return elems, [0, len(first) + 1]


def build_gadget_distillation() -> tuple[Circuit, list[ErrorLocation]]:
    """Gadget-level variant of the routine: controlled-H gates realized with
    explicit resource states on two reused wires (7 wires total), built from
    the 5-wire circuit by replacing each controlled-H with its gadget.

    Error locations point at the resource-state preparations themselves, so
    this build checks the propagated error forms used everywhere else.
    """
    circuit, locations = build_distillation_circuit()
    resources = (5, 6)
    gate_locations = iter(locations[2:])
    elements: list[Element] = []
    moved = locations[:2]
    for el in circuit.elements:
        if el.op != "ch":
            elements.append(el)
            continue
        pair = (next(gate_locations), next(gate_locations))
        gelems, preps = controlled_h_gadget(*el.wires, resources, f"g{pair[0].gadget}")
        for loc, prep, wire in zip(pair, preps, resources):
            moved.append(loc._replace(insert_index=len(elements) + prep + 1, paulis=(("y", wire),)))
        elements += gelems
    labels = {name: circuit.labels[name] for name in ("ancilla", "out1", "out2")}
    labels.update(resource_a=resources[0], resource_b=resources[1])
    return Circuit(7, tuple(elements), labels), moved


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
