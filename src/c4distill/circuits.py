"""Circuit IR and the builders of the distillation routine.

The main product is the 5-wire distillation circuit: an ancilla prepared in
|+>, two data wires carrying the resource states to be improved, and two
check wires, with the four-qubit code's encoder/decoder around an encoded
Hadamard-pair measurement.  Error locations come in two kinds: the 2 data
states (a Y before encoding) and the 8 gate states backing the four
controlled-H gadgets (inserted in their propagated form after the ideal
gate: Z-on-control with Y-on-target for the first resource state of a
gadget, a bare Y-on-target for the second).  ``build_distillation_circuit``
is the one description of the routine: both classifiers in ``enumeration``
read it.  The gadgets themselves, and the gadget-level variant of the
routine, are built in ``identities``, which checks them.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .pauli import PauliString

GateSpec = tuple[str, tuple[int, ...]]


class Element(NamedTuple):
    """One circuit element: preparation, gate, or measurement."""

    op: str
    wires: tuple[int, ...]
    label: Optional[str] = None
    cond: Optional[tuple[str, int]] = None

    def serialize(self) -> str:
        parts = [self.op] + [str(w) for w in self.wires]
        if self.label is not None:
            parts += ["->", self.label]
        if self.cond is not None:
            parts.append(f"?{self.cond[0]}={self.cond[1]}")
        return " ".join(parts)


class Circuit:
    """Ordered elements over ``width`` wires plus semantic wire labels;
    immutable, and unhashable, as its labels are a dict."""

    __slots__ = ("width", "elements", "labels")

    def __init__(self, width: int, elements: tuple[Element, ...], labels: Optional[dict[str, int]] = None):
        labels = {} if labels is None else labels
        for el in elements:
            if any(w < 0 or w >= width for w in el.wires):
                raise ValueError(f"element {el} references wire out of range")
            if len(set(el.wires)) != len(el.wires):
                raise ValueError(f"element {el} repeats a wire")
        if len(set(labels.values())) != len(labels):
            raise ValueError("wire labels must be injective")
        measured = [el.label for el in elements if el.label is not None]
        if len(set(measured)) != len(measured):
            raise ValueError("measurement labels must be distinct")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def unchecked(cls, width: int, elements: tuple[Element, ...]) -> Circuit:
        """An unlabeled circuit of elements known to be valid on ``width`` wires, not checked again."""
        circuit = object.__new__(cls)
        for name, value in zip(cls.__slots__, (width, elements, {})):
            object.__setattr__(circuit, name, value)
        return circuit

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not Circuit:
            return NotImplemented
        return (self.width, self.elements, self.labels) == (other.width, other.elements, other.labels)

    def serialize(self) -> str:
        lines = [f"wires {self.width}"]
        for name in sorted(self.labels):
            lines.append(f"label {name} {self.labels[name]}")
        lines += [el.serialize() for el in self.elements]
        return "\n".join(lines) + "\n"


def gates(*specs: GateSpec) -> list[Element]:
    return [Element(name, wires) for name, wires in specs]


class CodeDefinition(NamedTuple):
    """The [[4,2,2]] error-detecting code and our logical operator choices."""

    stabilizers: tuple[PauliString, PauliString]
    logical_x: tuple[PauliString, PauliString]
    logical_z: tuple[PauliString, PauliString]


CODE = CodeDefinition(
    stabilizers=(PauliString.from_label("XXXX"), PauliString.from_label("ZZZZ")),
    logical_x=(PauliString.from_label("XXII"), PauliString.from_label("XIIX")),
    logical_z=(PauliString.from_label("ZIIZ"), PauliString.from_label("ZZII")),
)


class ErrorLocation(NamedTuple):
    """One of the 10 places a faulty resource state feeds the routine."""

    id: int
    kind: str  # "data" or "gate"
    gadget: Optional[int]  # 0..3 for gate locations
    role: Optional[str]  # "first" or "second" for gate locations
    insert_index: int  # elements are inserted before this circuit index
    paulis: tuple[tuple[str, int], ...]  # (pauli op, wire)


# Encoder for two logical qubits carried on wires (d1, z0, d2, plus):
# d1 -> logical 1, d2 -> logical 2, auxiliary wires start in |0> and |+>.
def _encoder_specs(d1: int, z0: int, d2: int, plus: int) -> list[GateSpec]:
    return [("cx", (plus, d1)), ("cx", (d2, z0)), ("cx", (d1, z0)), ("cx", (plus, d2))]


def _decoder_specs(d1: int, z0: int, d2: int, plus: int) -> list[GateSpec]:
    return [(op, w) for op, w in reversed(_encoder_specs(d1, z0, d2, plus))]


# Clifford block between the two controlled-H pairs of the measurement
# gadget in the four-gadget form: no ancilla CZs; acts as an encoded
# Hadamard on the second logical qubit.
def logical_middle_block(w1: int, w2: int, w3: int, w4: int) -> list[GateSpec]:
    return [
        ("h", (w2,)),
        ("h", (w3,)),
        ("s", (w2,)),
        ("sdg", (w4,)),
        ("cz", (w2, w4)),
        ("cy", (w2, w3)),
        ("h", (w2,)),
        ("cy", (w4, w3)),
    ]


# The same block in the two-gadget form (ancilla = wire a): the two ancilla
# CZs, one after cz(w2, w4) and one at the end, are what remains of the
# eliminated controlled-H pair.
def middle_block(a: int, w1: int, w2: int, w3: int, w4: int) -> list[GateSpec]:
    block = logical_middle_block(w1, w2, w3, w4)
    block.insert(5, ("cz", (a, w2)))
    return block + [("cz", (a, w4))]


def build_c4_codec() -> tuple[Circuit, Circuit]:
    """Encoder and decoder circuits for the code on 4 wires.

    Wire order: (data1, |0> ancilla, data2, |+> ancilla).  The decoder is the
    element-wise reverse of the encoder followed by the two check
    measurements (Z on the |0> wire, X on the |+> wire).
    """
    labels = {"data1": 0, "ancilla_zero": 1, "data2": 2, "ancilla_plus": 3}
    enc = [Element("prep_0", (1,)), Element("prep_plus", (3,))]
    enc += gates(*_encoder_specs(0, 1, 2, 3))
    dec = gates(*_decoder_specs(0, 1, 2, 3))
    dec += [Element("mz", (1,), label="check_z"), Element("mx", (3,), label="check_x")]
    return (
        Circuit(4, tuple(enc), dict(labels)),
        Circuit(4, tuple(dec), dict(labels)),
    )


def build_distillation_circuit() -> tuple[Circuit, list[ErrorLocation]]:
    """The full 10-to-2 routine on 5 wires plus its 10 error locations."""
    a, w1, w2, w3, w4 = 0, 1, 2, 3, 4
    ch_pair = [("ch", (a, w2)), ("ch", (a, w4))]
    elements: list[Element] = [
        Element("prep_plus", (a,)),
        Element("prep_h", (w1,)),
        Element("prep_0", (w2,)),
        Element("prep_h", (w3,)),
        Element("prep_plus", (w4,)),
    ]
    data_insert = len(elements)
    elements += gates(
        *_encoder_specs(w1, w2, w3, w4), *ch_pair, *middle_block(a, w1, w2, w3, w4), *ch_pair
    )
    elements.append(Element("mx", (a,), label="meas_encoded"))
    elements += gates(*_decoder_specs(w1, w2, w3, w4))
    elements.append(Element("mz", (w2,), label="check_z"))
    elements.append(Element("mx", (w4,), label="check_x"))

    locations = [
        ErrorLocation(0, "data", None, None, data_insert, (("y", w1),)),
        ErrorLocation(1, "data", None, None, data_insert, (("y", w3),)),
    ]
    ch_indices = [idx for idx, el in enumerate(elements) if el.op == "ch"]
    for g, idx in enumerate(ch_indices):
        target = elements[idx].wires[1]
        locations += [
            ErrorLocation(2 + 2 * g, "gate", g, "first", idx + 1, (("z", a), ("y", target))),
            ErrorLocation(3 + 2 * g, "gate", g, "second", idx + 1, (("y", target),)),
        ]
    labels = {
        "ancilla": a,
        "out1": w1,
        "check_z_wire": w2,
        "out2": w3,
        "check_x_wire": w4,
    }
    return Circuit(5, tuple(elements), labels), locations


def insert_pattern(
    circuit: Circuit, locations: Sequence[ErrorLocation], bits: int
) -> Circuit:
    """Insert the Pauli errors of the given 10-bit pattern into the circuit:
    each set location's Paulis go before its ``insert_index``, in the order
    ``paulis`` lists them, and locations sharing an index in list order."""
    elements = list(circuit.elements)
    hit = sorted((loc for loc in locations if bits >> loc.id & 1), key=lambda loc: loc.insert_index)
    for loc in reversed(hit):  # from the back, so earlier indices stay valid
        elements[loc.insert_index : loc.insert_index] = [Element(op, (w,)) for op, w in loc.paulis]
    return Circuit(circuit.width, tuple(elements), circuit.labels)


class NondeterministicReference(RuntimeError):
    """A noiseless measurement came out random: the circuit is miswired."""


def reference_outcomes(circuit: Circuit) -> dict[str, int]:
    """Noiseless outcome of every visible measurement.

    Labels starting with ``_`` (gadget-internal measurements, intrinsically
    random) are excluded; every other outcome must be deterministic or the
    circuit is miswired.
    """
    from .statevec import run

    branches = run(circuit, merge_hidden=True)
    seen: dict[tuple, float] = {}
    for br in branches:
        if br.prob <= 1e-9:
            continue
        key = tuple(sorted((k, v) for k, v in br.outcomes.items() if not k.startswith("_")))
        seen[key] = seen.get(key, 0.0) + br.prob
    if len(seen) != 1:
        raise NondeterministicReference(
            f"noiseless run has {len(seen)} distinct visible outcome sets"
        )
    ((key, prob),) = seen.items()
    if abs(prob - 1.0) > 1e-9:
        raise NondeterministicReference("noiseless outcome probability != 1")
    return dict(key)
