"""The package's record types: value records are NamedTuples, the rest are
slotted classes.  Frozen records refuse assignment, records built from equal
fields compare (and, where every field hashes, hash) equal, routine models
and branches compare by identity, and tallies by their counts."""

from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest

from c4distill.circuits import CodeDefinition, Circuit, Element, ErrorLocation
from c4distill.enumeration import ExactVerdict, PolynomialSet
from c4distill.exactalg import Exact, ExactPolynomial
from c4distill.montecarlo import (
    CorrelationReport,
    PipelineResult,
    RoundTally,
    SampleStats,
    VerdictTable,
)
from c4distill.pauli import CliffordAction, PauliString
from c4distill.planner import DistillationPlan, PlannerGoal, RoundResult, SearchResult, TableRow
from c4distill.routines import RoutineModel
from c4distill.statevec import Branch

_X, _Z = PauliString(1, 1, 0), PauliString(1, 0, 1, 2)
_POLY = ExactPolynomial((Fraction(1), Fraction(-1, 2)))
_ROUND = RoundResult("A", 0.01, 1e-3, 0.9, 5.5)
_PLAN = DistillationPlan(("A",), 0.01, (_ROUND,), 1e-3, 5.5, False)
_CUMULATIVE = np.zeros((4, 2))
_STATE = np.zeros(2, dtype=complex)


def _tally(errors: int = 3) -> RoundTally:
    tally = RoundTally(1, 0.01)
    tally.errors = errors
    return tally


def _pipeline(errors: int = 3) -> PipelineResult:
    return PipelineResult(100, 0.01, 7, ("A",), "blocked", (_tally(0), _tally(errors)), False, _PLAN)


# name -> (build a fresh record from fixed fields, kind).  Kinds: "value"
# records are frozen and compare and hash by their fields; "unhashable"
# ones hold a dict, an array or mutable tallies, so they do not hash;
# "identity" records are frozen and compare and hash by identity; "tally"
# is mutable and compares by its counts; "state" is mutable and compares
# by identity.
RECORDS = {
    "PauliString": (lambda: PauliString(2, 1, 2, 3), "value"),
    "CliffordAction": (lambda: CliffordAction(1, (_Z,), (_X,)), "value"),
    "Element": (lambda: Element("mx", (0,), "m", ("c", 1)), "value"),
    "Circuit": (lambda: Circuit(1, (Element("h", (0,)),), {"q": 0}), "unhashable"),
    "CodeDefinition": (lambda: CodeDefinition((_X, _Z), (_X, _X), (_Z, _Z)), "value"),
    "ErrorLocation": (lambda: ErrorLocation(2, "gate", 0, "first", 9, (("z", 0), ("y", 2))), "value"),
    "Exact": (lambda: Exact(1, -2, 3, 4), "value"),
    "ExactPolynomial": (lambda: ExactPolynomial(_POLY.coefficients), "value"),
    "ExactVerdict": (lambda: ExactVerdict(*[Fraction(k, 64) for k in (48, 8, 8, 2, 14)]), "value"),
    "PolynomialSet": (
        lambda: PolynomialSet(_POLY, _POLY, _POLY, _POLY, (Fraction(1),), MappingProxyType({"a": 0})),
        "unhashable",
    ),
    "RoutineModel": (lambda: RoutineModel("C", 5, 1, _POLY, _POLY), "identity"),
    "RoundResult": (lambda: RoundResult("A", 0.01, 1e-3, 0.9, 5.5), "value"),
    "DistillationPlan": (lambda: DistillationPlan(("A",), 0.01, (_ROUND,), 1e-3, 5.5, False), "value"),
    "PlannerGoal": (lambda: PlannerGoal(0.01, R=1e6), "value"),
    "SearchResult": (lambda: SearchResult(None, _PLAN), "value"),
    "TableRow": (lambda: TableRow("AA", 31.4, 1e-9, 2.5), "value"),
    "VerdictTable": (lambda: VerdictTable(_CUMULATIVE), "unhashable"),
    "SampleStats": (lambda: SampleStats(0.01, 1000, 7, 900, 3, 4, 1), "value"),
    "RoundTally": (_tally, "tally"),
    "PipelineResult": (_pipeline, "unhashable"),
    "CorrelationReport": (lambda: CorrelationReport(100, 0.1, -0.2, 0.4, False), "value"),
    "Branch": (lambda: Branch(_STATE), "state"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_equality_and_hash(name):
    build, kind = RECORDS[name]
    a, b = build(), build()
    assert type(a).__name__ == name and a is not b
    assert not hasattr(a, "__dict__"), "a record keeps its fields in slots"
    field = (getattr(a, "_fields", None) or type(a).__slots__)[0]
    if kind in ("tally", "state"):
        setattr(a, field, getattr(b, field))
    else:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
    if kind in ("identity", "state"):
        assert a == a and a != b
        assert hash(a) == object.__hash__(a)
        return
    assert a == b and not a != b
    if kind == "value":
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    if name in ("RoundTally", "PipelineResult"):
        # Equality reads every count, also through a result's tallies.
        (b if name == "RoundTally" else b.tallies[1]).errors += 1
        assert a != b
