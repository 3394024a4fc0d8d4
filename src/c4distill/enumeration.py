"""Exhaustive classification of the 2^10 error patterns of the routine.

Two classifiers cover every pattern, and both classify the circuit and the
error locations of ``circuits.build_distillation_circuit()``:

* ``DenseClassifier`` runs the 5-wire circuit on the state-vector oracle
  once for all patterns, each location branching the batch on its own axis
  where it is inserted, and post-selects the noiseless reference outcomes.
* ``FrameClassifier`` never touches amplitudes on the full register.  Gate
  errors are conjugated (exactly, with phases) through the circuit's own
  Clifford elements to a common reference point, the second controlled-H
  pair, multiplied out on (x, z, phase) integers once per value of the
  eight gate bits, and looked up in a table of the code's 64 normalizer
  elements (a miss is a detected error); the accepted-branch Kraus operator
  of the encoded measurement is then assembled on two qubits in the ring
  Z[i, sqrt2], once per distinct (data bits, logical terms, sign) key.  The
  single-qubit X and Z are stored times sqrt2, so every operator entry is an
  integer; each term's scale i^k sqrt2^m is one ``Exact`` product, whose
  integer parts times integer column products make the assembled state
  exactly 8 times the accepted branch.  Every squared modulus is then an
  integer (``Exact.abs2`` checks that no sqrt2 part survives), and
  acceptance and per-output error weights come out as integers over 64,
  tallied as such, which is what makes the polynomial coefficients exact.

Both classifiers must agree on all 1024 patterns; the derived acceptance and
undetected-error polynomials must equal the published integer coefficient
lists, or ``CoefficientMismatch`` reports a per-degree and per-weight diff.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache
from itertools import zip_longest
from math import comb
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .circuits import CODE, build_distillation_circuit, reference_outcomes
from .exactalg import E_ONE, Exact, ExactPolynomial
from .pauli import PauliString, _relabel, conjugate_through

N_LOCATIONS = 10
N_PATTERNS = 1 << N_LOCATIONS

# Coefficient lists (by ascending degree) that the enumeration must
# reproduce exactly: acceptance, marginal undetected error of one output,
# and undetected error on at least one output.
PUBLISHED_ACCEPTANCE = (1, -10, 58, -192, 400, -544, 480, -256, 64)
PUBLISHED_MARGINAL = (0, 0, 9, -56, 160, -256, 240, -128, 32)
PUBLISHED_EITHER = (0, 0, 13, -80, 228, -368, 352, -192, 48)


class CoefficientMismatch(RuntimeError):
    """Derived polynomials disagree with the published coefficients."""


class ExactVerdict:
    """Unconditional weights (probabilities given the pattern) as exact
    rationals: acceptance, per-output error, both-error and either-error;
    immutable."""

    __slots__ = ("accept", "err1", "err2", "both", "either", "_floats")

    def __init__(self, accept: Fraction, err1: Fraction, err2: Fraction, both: Fraction, either: Fraction):
        object.__setattr__(self, "accept", accept)
        object.__setattr__(self, "err1", err1)
        object.__setattr__(self, "err2", err2)
        object.__setattr__(self, "both", both)
        object.__setattr__(self, "either", either)
        # Outside the weights that == and hash read.  float(Fraction) is this
        # int/int true division, reached through numbers.Rational.
        object.__setattr__(self, "_floats", tuple(v.numerator / v.denominator for v in self.weights()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not ExactVerdict:
            return NotImplemented
        return self.weights() == other.weights()

    def __hash__(self) -> int:
        return hash(self.weights())

    def weights(self) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
        return self.accept, self.err1, self.err2, self.both, self.either

    def as_floats(self) -> tuple[float, float, float, float, float]:
        return self._floats

    def error_class(self) -> str:
        """Conditional classification of a pattern's accepted branch, by
        exact comparison of the weights."""
        if not self.accept:
            return "rejected"
        flips = tuple(
            0 if not err else 1 if err == self.accept else None
            for err in (self.err1, self.err2)
        )
        return _ERROR_CLASSES.get(flips, "partial")


class DenseVerdict(NamedTuple):
    accept: float
    err1: float
    err2: float
    both: float
    either: float


_REJECTED = ExactVerdict(*[Fraction(0)] * 5)
# (output-1 flipped, output-2 flipped) of an accepted branch -> its class.
_ERROR_CLASSES = {
    (0, 0): "clean",
    (1, 0): "first_output",
    (0, 1): "second_output",
    (1, 1): "both_outputs",
}


class FrameClassifier:
    """Exact Pauli-propagation classifier for 10-bit error patterns.

    Wires, location ids and error forms are read from
    ``build_distillation_circuit()``.  Gate errors commute past sibling
    controlled-H gates (their ancilla part is diagonal), so each first-block
    error propagates through ordinary Cliffords only, to the second
    controlled-H pair.  An error that reaches that reference point off the
    code's normalizer flips a check in every measurement branch and is
    rejected outright; normalizer elements, looked up in a table of all 64
    keyed by their X and Z bits, act as logical Paulis whose interference in
    the encoded measurement is evaluated exactly.
    """

    def __init__(self):
        circuit, locations = build_distillation_circuit()
        n = circuit.width
        a = self.ancilla = circuit.labels["ancilla"]
        code = tuple(circuit.labels[k] for k in ("out1", "check_z_wire", "out2", "check_x_wire"))
        w1, w2, w3, w4 = code
        sx, sz = (_relabel(p, code, n) for p in CODE.stabilizers)
        lx = tuple(_relabel(p, code, n) for p in CODE.logical_x)
        lz = tuple(_relabel(p, code, n) for p in CODE.logical_z)
        # Each gate location's error, first-block ones (bits 2-5) moved to
        # the second controlled-H pair, second-block ones (bits 6-9) as they
        # are.
        second_pair = [idx for idx, el in enumerate(circuit.elements) if el.op == "ch"][2]
        self.forms: dict[int, PauliString] = {}
        for loc in locations:
            if loc.kind != "gate":
                continue
            form = PauliString.identity(n)
            for op, wire in loc.paulis:
                form = PauliString.single(n, wire, op.upper()) * form
            first_block = loc.insert_index <= second_pair
            if first_block != (loc.id < 6):
                raise AssertionError(f"location {loc.id} is in the other controlled-H block")
            if first_block:
                between = circuit.elements[loc.insert_index : second_pair]
                path = [(el.op, el.wires) for el in between if el.op != "ch"]
                form = conjugate_through(form, path, n)
                if (form.x | form.z) >> w1 & 1:
                    raise AssertionError("concentrated form leaves frame assumptions")
            if form.x >> a & 1:
                raise AssertionError("ancilla picked up a non-diagonal component")
            self.forms[loc.id] = form
        # The code's 64 normalizer elements lx1^a1 lz1^b1 lx2^a2 lz2^b2 sx^c sz^d,
        # multiplied in that order and keyed by (x, z); a miss is detected.
        self._normalizer: dict[tuple[int, int], tuple[int, tuple[int, int, int, int]]] = {}
        for e in range(64):
            p = PauliString.identity(n)
            for j, gen in enumerate((lx[0], lz[0], lx[1], lz[1], sx, sz)):
                if e >> j & 1:
                    p = p * gen
            self._normalizer[p.x, p.z] = p.phase, (e & 1, e >> 1 & 1, e >> 2 & 1, e >> 3 & 1)
        # Everything but the data bits depends only on bits 2-9: the product
        # of their forms (higher ids to the left) gives term 1 and, with the
        # first block seen through H on every code wire but the third (which
        # the eliminated controlled-H pair targeted), term 2.  The sign is
        # the ancilla Z bit; None marks a value whose terms are both detected.
        h_layer = [("h", (w1,)), ("h", (w2,)), ("h", (w4,))]
        gate_forms = [self.forms[i] for i in range(2, 10)]
        flipped = [conjugate_through(f, h_layer, n) for f in gate_forms[:4]] + gate_forms[4:]
        self._terms: list[Optional[tuple]] = []
        for p1, p2 in zip(_products(gate_forms), _products(flipped)):
            term1, term2 = self._term(*p1), self._term(*p2)
            detected = term1 is None and term2 is None
            self._terms.append(None if detected else (term1, term2, p1[1] >> a & 1))
        # The Kraus assembly depends on a pattern only through the key
        # (d1, d2, term1, term2, sign), and the 1024 patterns share a few
        # dozen keys; each is assembled once per classifier.
        self._assembled: dict[tuple, ExactVerdict] = {}

    def _term(self, x: int, z: int, phase: int) -> Optional[tuple[int, tuple[int, int, int, int]]]:
        """Logical term of i^phase X^x Z^z with its ancilla Z bit dropped: None
        when a stabilizer detects it, else (i-power, X1,Z1,X2,Z2 exponents)."""
        hit = self._normalizer.get((x, z & ~(1 << self.ancilla)))
        return None if hit is None else ((phase - hit[0]) & 3, hit[1])

    def classify(self, bits: int) -> ExactVerdict:
        terms = self._terms[bits >> 2]
        if terms is None:
            return _REJECTED
        key = (bits & 1, bits >> 1 & 1, *terms)
        verdict = self._assembled.get(key)
        if verdict is None:
            verdict = self._assembled[key] = _assemble(*key)
        return verdict


# Single-qubit operators in the (|H>, |-H>) basis: OP[name][r][c] is
# <basis_r| op |basis_c>.  X and Z are stored times sqrt2, so every entry is
# an integer.
H_BASIS_OPS: dict[str, tuple[tuple[int, int], tuple[int, int]]] = {
    "H": ((1, 0), (0, -1)),
    "X": ((1, 1), (1, -1)),
    "Z": ((1, -1), (-1, -1)),
}
# sqrt2**k for k = 0..4.
_SQRT2_POWERS = (E_ONE, Exact(b=1), Exact(2), Exact(b=2), Exact(4))


def _products(forms: list[PauliString]) -> list[tuple[int, int, int]]:
    """products[v]: (x, z, phase) of the product of the forms at v's set bits,
    higher bits to the left, multiplied as ``PauliString.__mul__`` does."""
    forms = [(f.x, f.z, f.phase) for f in forms]
    products = [(0, 0, 0)]
    for v in range(1, 1 << len(forms)):
        top = v.bit_length() - 1
        (x1, z1, ph1), (x2, z2, ph2) = forms[top], products[v ^ 1 << top]
        products.append((x1 ^ x2, z1 ^ z2, (ph1 + ph2 + 2 * (z1 & x2).bit_count()) & 3))
    return products


def _column(bit: int, x: int, z: int, h: bool) -> tuple[int, int]:
    """Column ``bit`` of sqrt2**(x + z) X^x Z^z H^h in the (|H>, |-H>) basis."""
    col = (1 - bit, bit)
    for name, on in (("H", h), ("Z", z), ("X", x)):
        if on:
            (m00, m01), (m10, m11) = H_BASIS_OPS[name]
            col = (m00 * col[0] + m01 * col[1], m10 * col[0] + m11 * col[1])
    return col


def _assemble(d1: int, d2: int, term1, term2, sign: int) -> ExactVerdict:
    """Exact verdict of the encoded measurement's accepted branch, from the
    data-qubit error bits, the two logical terms (i-power, X1,Z1,X2,Z2
    exponents; None when detected) and the ancilla sign between them.

    A term is 1/2 times its logical monomial applied to i^(d1+d2)|d1 d2>
    after an H on one qubit, which is a product state: the outer product of
    two integer columns, which leave out the monomial's k = X1+Z1+X2+Z2
    factors of 1/sqrt2.  Scaling it by sqrt2**(4 - k) makes the accumulated
    state (index q1*2 + q2) 8 times the branch, so each weight is
    |8 amp|^2/64.
    """
    acc = [(0, 0, 0, 0)] * 4
    for term, h_qubit, shift in ((term1, 1, 0), (term2, 0, 2 * sign)):
        if term is None:
            continue
        om, (a1, b1, a2, b2) = term
        col1 = _column(d1, a1, b1, h_qubit == 0)
        col2 = _column(d2, a2, b2, h_qubit == 1)
        scale = Exact.i_power(d1 + d2 + om + shift) * _SQRT2_POWERS[4 - a1 - b1 - a2 - b2]
        for idx in range(4):
            k = col1[idx >> 1] * col2[idx & 1]
            a, b, c, d = acc[idx]
            acc[idx] = (a + k * scale.a, b + k * scale.b, c + k * scale.c, d + k * scale.d)
    w0, w1, w2, w3 = (Exact(*amp).abs2() for amp in acc)
    norm = w0 + w1 + w2 + w3
    return ExactVerdict(*(Fraction(w, 64) for w in (norm, w2 + w3, w1 + w3, w3, norm - w0)))


class DenseClassifier:
    """State-vector classification against the noiseless reference run.

    All 1024 patterns are one batch: the circuit is walked once, each error
    location doubles the batch on its own axis with a copy carrying its
    Paulis, and the reference outcomes are post-selected.  A pattern's
    unnormalized weights in the (|H>, |-H>) basis of the outputs give its verdict.
    """

    def __init__(self):
        import numpy as np

        from .statevec import GATE_MATRICES, H_BASIS, Branch, apply_element, apply_unitary

        circuit, locations = build_distillation_circuit()
        reference = reference_outcomes(circuit)
        width = circuit.width
        branch = Branch(np.zeros((2,) * width + (1,) * N_LOCATIONS, dtype=complex))
        branch.state.flat[0] = 1.0
        for index, el in enumerate(circuit.elements):
            for loc in locations:
                if loc.insert_index == index:
                    # Bit loc.id's axis, bit 9's first so the flat batch is the pattern index: index 1 has the Paulis.
                    hit = branch.state
                    for op, wire in loc.paulis:
                        hit = apply_unitary(hit, GATE_MATRICES[op], (wire,))
                    branch.state = np.concatenate((branch.state, hit), axis=-1 - loc.id)
            (branch,) = apply_element(branch, el, reference)
        out1, out2 = circuit.labels["out1"], circuit.labels["out2"]
        st = branch.state.reshape((2,) * width + (N_PATTERNS,))
        st = apply_unitary(apply_unitary(st, H_BASIS, (out1,)), H_BASIS, (out2,))
        # w[r, c, bits]: weight of output 1 in |+-H>_r and output 2 in |+-H>_c.
        w = np.moveaxis(np.abs(st) ** 2, (out1, out2), (0, 1)).sum(axis=tuple(range(2, width)))
        accept = w.sum(axis=(0, 1))
        fields = (accept, w[1].sum(axis=0), w[:, 1].sum(axis=0), w[1, 1], accept - w[0, 0])
        self._verdicts = tuple(DenseVerdict(*v) for v in zip(*(f.tolist() for f in fields)))

    def classify(self, bits: int) -> DenseVerdict:
        return self._verdicts[bits]


class PolynomialSet(NamedTuple):
    """The routine's exact polynomials plus enumeration bookkeeping."""

    acceptance: ExactPolynomial
    marginal: ExactPolynomial
    either: ExactPolynomial
    both: ExactPolynomial
    accept_by_weight: tuple[Fraction, ...]
    pattern_counts: Mapping[str, int]


@cache
def exact_verdicts() -> tuple[ExactVerdict, ...]:
    """Exact verdicts for all 1024 patterns, cached."""
    fc = FrameClassifier()
    return tuple(fc.classify(bits) for bits in range(N_PATTERNS))


def derive_polynomials(validate: bool = True) -> PolynomialSet:
    """The routine's exact polynomials, derived once per process.  With
    ``validate`` every call checks them against the published coefficients
    and raises ``CoefficientMismatch`` on a difference."""
    result = _cached_polynomials()
    if validate:
        _validate(result)
    return result


@lru_cache(maxsize=1)
def _cached_polynomials() -> PolynomialSet:
    """Sum the per-pattern weights into exact polynomials in p.

    Patterns reduce by Hamming weight into integer tallies t_w of 64ths
    (every weight is an integer over 64, see ``_assemble``), and the sum
    over weights of t_w p^w (1-p)^(10-w) is expanded on integers: the
    coefficient of p^k is one sum over w <= k of t_w (-1)^(k-w) C(10-w, k-w),
    over 64.  The reduction is a plain sum, so any enumeration order (or
    parallel fan-out) gives identical results.
    """
    # Accepted patterns per (verdict, Hamming weight).  The classifier shares
    # one verdict object among the patterns of a Kraus key, so keyed by
    # identity each of its few dozen verdicts is read once.
    verdicts, patterns = {}, Counter()
    for bits, v in enumerate(exact_verdicts()):
        if v.accept:
            verdicts[id(v)] = v
            patterns[id(v), bits.bit_count()] += 1
    sixty_fourths = {key: [q.numerator * (64 // q.denominator) for q in v.weights()] for key, v in verdicts.items()}
    # Tallies by Hamming weight of accept, err1, err2, both and either.
    tallies = [[0] * (N_LOCATIONS + 1) for _ in range(5)]
    counts = {"fractional_accept": 0, "half_fidelity": 0}
    for (key, w), n in patterns.items():
        weights = sixty_fourths[key]
        for tally, q in zip(tallies, weights):
            tally[w] += n * q
        accept, err1, err2 = weights[:3]
        counts["fractional_accept"] += n * (accept != 64)
        # Outputs whose error conditional on acceptance is not 0, 1/2 or 1.
        counts["half_fidelity"] += n * sum(err != 0 and err != accept and 2 * err != accept for err in (err1, err2))
    if tallies[1] != tallies[2]:
        raise AssertionError("marginal error polynomials differ between outputs")
    acceptance, marginal, both, either = (
        ExactPolynomial.make(
            [
                Fraction(sum(t[w] * (-1) ** (k - w) * comb(N_LOCATIONS - w, k - w) for w in range(k + 1)), 64)
                for k in range(N_LOCATIONS + 1)
            ]
        )
        for t in (tallies[0], tallies[1], tallies[3], tallies[4])
    )
    return PolynomialSet(
        acceptance=acceptance,
        marginal=marginal,
        either=either,
        both=both,
        accept_by_weight=tuple(Fraction(q, 64) for q in tallies[0]),
        pattern_counts=MappingProxyType(counts),
    )


def _validate(ps: PolynomialSet):
    problems = []
    for name, got, want in (
        ("acceptance", ps.acceptance, PUBLISHED_ACCEPTANCE),
        ("marginal", ps.marginal, PUBLISHED_MARGINAL),
        ("either", ps.either, PUBLISHED_EITHER),
    ):
        pairs = enumerate(zip_longest(got.coefficients, want, fillvalue=0))
        diff = [f"  degree {d}: derived {g} != published {w}" for d, (g, w) in pairs if g != w]
        if diff:
            problems.append(f"{name} polynomial differs:\n" + "\n".join(diff))
    if problems:
        weights = ", ".join(f"w={w}: {q}" for w, q in enumerate(ps.accept_by_weight))
        raise CoefficientMismatch(
            "\n".join(problems) + f"\nacceptance weight per pattern class: {weights}"
        )


def classification_report() -> dict:
    """JSON-ready summary: coefficient lists plus pattern tallies."""
    ps = derive_polynomials()
    by_class: dict[str, int] = {}
    for v in exact_verdicts():
        cls = v.error_class()
        by_class[cls] = by_class.get(cls, 0) + 1
    rejected = by_class.pop("rejected", 0)
    clean = by_class.pop("clean", 0)
    return {
        "a": ps.acceptance.as_integers(),
        "u": ps.marginal.as_integers(),
        "u2": ps.either.as_integers(),
        "both": ps.both.as_integers(),
        "patterns": {
            "rejected": rejected,
            "clean": clean,
            "error": by_class,
            "fractional_accept": ps.pattern_counts["fractional_accept"],
            "half_fidelity": ps.pattern_counts["half_fidelity"],
        },
        "accept_weight_by_pattern_weight": [str(q) for q in ps.accept_by_weight],
    }
