"""Exhaustive pattern classification and the exact polynomials."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c4distill import enumeration, exactalg
from c4distill.circuits import build_distillation_circuit, insert_pattern, reference_outcomes
from c4distill.enumeration import (
    N_LOCATIONS,
    N_PATTERNS,
    PUBLISHED_ACCEPTANCE,
    PUBLISHED_EITHER,
    PUBLISHED_MARGINAL,
    DenseClassifier,
    ExactVerdict,
    FrameClassifier,
    classification_report,
    derive_polynomials,
    exact_verdicts,
)
from c4distill.pauli import PauliString
from c4distill.statevec import run
from conftest import h_basis_joint
from exact_reference import CodeReference, assemble, fraction_polynomials, pauli_products


def _unmemoized_classify(fc: FrameClassifier, ref: CodeReference, bits: int):
    """Reference: propagate one pattern, decompose its logical terms by
    commutation tests and assemble its Kraus branch from scratch in
    Q(i, sqrt2) on dyadic rationals, with no memo shared between patterns.
    Each weight comes as (rational part, sqrt2 part)."""
    n = fc.forms[2].n
    d1 = bits & 1
    d2 = bits >> 1 & 1
    mid_total = PauliString.identity(n)
    late_total = PauliString.identity(n)
    for loc_id in range(2, 6):
        if bits >> loc_id & 1:
            mid_total = fc.forms[loc_id] * mid_total
    for loc_id in range(6, 10):
        if bits >> loc_id & 1:
            late_total = fc.forms[loc_id] * late_total
    s1, mid_code = ref.split_ancilla(mid_total)
    s2, late_code = ref.split_ancilla(late_total)
    sign = (s1 + s2) & 1

    term1 = ref.logical_term(late_code * mid_code)
    term2 = ref.logical_term(late_code * ref.flip(mid_code))
    if term1 is None and term2 is None:
        return ((0, 0),) * 5
    return assemble(d1, d2, term1, term2, sign)


def test_memoized_verdicts_equal_unmemoized_reference():
    fc = FrameClassifier()
    ref = CodeReference()
    verdicts = exact_verdicts()
    for bits in range(N_PATTERNS):
        want = _unmemoized_classify(fc, ref, bits)
        # Exact equality, field for field, and no sqrt2 part in the reference.
        for v in (verdicts[bits], fc.classify(bits)):
            assert all(type(f) is Fraction for f in v.weights()), bits
            assert [(f, 0) for f in v.weights()] == list(want), bits


def test_assembly_memo_is_small_and_per_instance():
    first, second = FrameClassifier(), FrameClassifier()
    for bits in range(N_PATTERNS):
        first.classify(bits)
    assert 0 < len(first._assembled) <= 72
    assert not second._assembled
    for bits in range(N_PATTERNS):
        second.classify(bits)
    assert second._assembled.keys() == first._assembled.keys()
    assert all(second._assembled[k] is not v for k, v in first._assembled.items())


def test_classifying_all_patterns_makes_few_exact_products(monkeypatch):
    calls = [0]
    multiply = exactalg.Exact.__mul__

    def counting(self, other):
        calls[0] += 1
        return multiply(self, other)

    monkeypatch.setattr(exactalg.Exact, "__mul__", counting)
    fc = FrameClassifier()
    for bits in range(N_PATTERNS):
        fc.classify(bits)
    # One product per logical term, its scale i^k sqrt2^m, so two per
    # assembled key (64 of them); one key's entries scale that product's
    # integer parts.  Five products per term took 640, and assembling every
    # pattern anew took 18,432.
    assert 0 < calls[0] <= 128


def test_normalizer_lookup_equals_commutation_decomposition():
    # Every Pauli on the four code wires, in all four phases.
    fc, ref = FrameClassifier(), CodeReference()
    wires = ref.code
    detected = 0
    for bits in range(256):
        x = sum((bits >> j & 1) << w for j, w in enumerate(wires))
        z = sum((bits >> (4 + j) & 1) << w for j, w in enumerate(wires))
        for phase in range(4):
            p = PauliString(ref.n, x, z, phase)
            term = fc._term(p.x, p.z, p.phase)
            assert term == ref.logical_term(p), (bits, phase)
            assert (term is None) == (not p.commutes(ref.sx) or not p.commutes(ref.sz))
            detected += term is None
    assert detected == 3 * 64 * 4


def test_integer_products_equal_pauli_string_products():
    # Both tables over bits 2-9, as the classifier forms them: the gate
    # forms as they are, and with the first block seen through the H layer.
    fc, ref = FrameClassifier(), CodeReference()
    gate_forms = [fc.forms[i] for i in range(2, 10)]
    flipped = [ref.flip(f) for f in gate_forms[:4]] + gate_forms[4:]
    for forms in (gate_forms, flipped):
        want = pauli_products(forms)
        assert len(want) == 256
        assert enumeration._products(forms) == [(p.x, p.z, p.phase) for p in want]


def test_logical_terms_are_looked_up_not_decomposed(monkeypatch):
    calls = {"mul": 0, "commutes": 0}
    multiply, commutes = PauliString.__mul__, PauliString.commutes

    def counting_mul(self, other):
        calls["mul"] += 1
        return multiply(self, other)

    def counting_commutes(self, other):
        calls["commutes"] += 1
        return commutes(self, other)

    monkeypatch.setattr(PauliString, "__mul__", counting_mul)
    monkeypatch.setattr(PauliString, "commutes", counting_commutes)
    fc = FrameClassifier()
    for bits in range(N_PATTERNS):
        fc.classify(bits)
    # Decomposing two terms per value of bits 2-9 by commutation tests made
    # 1,792 commutation tests and 1,610 products.
    assert calls["commutes"] == 0
    assert 0 < calls["mul"] <= 1000


def test_polynomials_match_published_exactly(polyset):
    assert polyset.acceptance.as_integers() == list(PUBLISHED_ACCEPTANCE)
    assert polyset.marginal.as_integers() == list(PUBLISHED_MARGINAL)
    assert polyset.either.as_integers() == list(PUBLISHED_EITHER)


def test_all_errors_pattern_is_accepted(polyset):
    # a(1) = 1: the weight-10 pattern passes every check.
    assert polyset.acceptance(Fraction(1)) == 1
    assert sum(PUBLISHED_ACCEPTANCE) == 1
    v = exact_verdicts()[N_PATTERNS - 1]
    assert float(v.accept) == pytest.approx(1.0)


def test_noiseless_pattern_clean():
    v = exact_verdicts()[0]
    assert float(v.accept) == 1.0
    assert float(v.either) == 0.0


def test_every_single_error_rejected():
    verdicts = exact_verdicts()
    for loc in range(10):
        assert float(verdicts[1 << loc].accept) == 0.0, loc


def test_odd_weight_gate_only_patterns_rejected():
    verdicts = exact_verdicts()
    for gate_bits in range(256):
        if bin(gate_bits).count("1") % 2 == 1:
            assert float(verdicts[gate_bits << 2].accept) == 0.0, gate_bits


def test_as_floats_equals_float_bit_for_bit():
    """as_floats divides numerator by denominator; it must round exactly as
    float(Fraction) does, for every field of every pattern, and for ratios
    that are not dyadic or whose terms exceed 2**53.  Each verdict converts
    once: repeated calls return the same tuple, which takes no part in ==,
    hashing or the weights."""
    hard = ExactVerdict(
        Fraction(1, 3), Fraction(2**80 + 1, 3**50), Fraction(-7, 10), Fraction(10**400, 10**399 + 1), Fraction(0)
    )
    for bits, v in enumerate(exact_verdicts() + (hard,)):
        got, want = v.as_floats(), tuple(float(f) for f in v.weights())
        assert len(got) == 5 and all(type(g) is float for g in got), bits
        assert [g.hex() for g in got] == [w.hex() for w in want], bits
        assert v.as_floats() is got, bits
        fresh = ExactVerdict(*v.weights())
        assert fresh == v and hash(fresh) == hash(v), bits
        assert fresh.as_floats() == got and fresh == v and hash(fresh) == hash(v), bits
        assert fresh.weights() == v.weights(), bits


def test_dense_and_frame_agree_on_all_patterns():
    dense = DenseClassifier()
    verdicts = exact_verdicts()
    worst = 0.0
    for bits in range(N_PATTERNS):
        dv = dense.classify(bits)
        ev = verdicts[bits].as_floats()
        for got, want in zip((dv.accept, dv.err1, dv.err2, dv.both, dv.either), ev):
            worst = max(worst, abs(got - want))
    assert worst < 1e-10


def test_engines_follow_the_circuits_location_ids(monkeypatch):
    """Both engines read their location ids from build_distillation_circuit():
    with the ids of gadget 0's and gadget 1's second states swapped (3 <-> 5),
    and likewise of gadgets 2 and 3 (7 <-> 9), the verdicts change and the
    two engines still agree on every pattern."""
    swap = {3: 5, 5: 3, 7: 9, 9: 7}

    def relabelled():
        circuit, locations = build_distillation_circuit()
        return circuit, [loc._replace(id=swap.get(loc.id, loc.id)) for loc in locations]

    unswapped = exact_verdicts()
    monkeypatch.setattr(enumeration, "build_distillation_circuit", relabelled)
    frame, dense = FrameClassifier(), DenseClassifier()
    changed = 0
    for bits in range(N_PATTERNS):
        v, dv = frame.classify(bits), dense.classify(bits)
        changed += v != unswapped[bits]
        want = pytest.approx(v.as_floats(), abs=1e-10)
        assert (dv.accept, dv.err1, dv.err2, dv.both, dv.either) == want, bits
    assert changed


def _per_pattern_verdict(circ, locations, reference, bits):
    """Oracle: insert one pattern's Paulis and run the circuit for it alone."""
    branches = run(insert_pattern(circ, locations, bits), postselect=reference)
    if not branches:
        return (0.0,) * 5
    (br,) = branches
    joint = h_basis_joint(br.state, circ.labels["out1"], circ.labels["out2"])
    accept = joint.sum()
    return accept, joint[1].sum(), joint[:, 1].sum(), joint[1, 1], accept - joint[0, 0]


def test_dense_classifier_matches_per_pattern_runs():
    circ, locations = build_distillation_circuit()
    reference = reference_outcomes(circ)
    dense = DenseClassifier()
    rng = random.Random(41)
    patterns = [0, N_PATTERNS - 1] + rng.sample(range(1, N_PATTERNS - 1), 70)
    for bits in patterns:
        dv = dense.classify(bits)
        got = (dv.accept, dv.err1, dv.err2, dv.both, dv.either)
        want = _per_pattern_verdict(circ, locations, reference, bits)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-12, bits


def test_dense_classifier_is_one_batched_pass(monkeypatch):
    from c4distill import circuits, enumeration, statevec

    inserted = [0]
    insert = circuits.insert_pattern

    def counting_insert(*args):
        inserted[0] += 1
        return insert(*args)

    monkeypatch.setattr(circuits, "insert_pattern", counting_insert)
    monkeypatch.setattr(enumeration, "insert_pattern", counting_insert, raising=False)
    circ, locations = build_distillation_circuit()
    width = circ.width
    elements, unbatched = [], [0]
    apply_element = statevec.apply_element

    def counting_apply_element(branch, el, *args):
        if branch.state.ndim == width:
            unbatched[0] += 1
        else:
            elements.append((el, branch.state.size >> width, branch.state.ndim))
        return apply_element(branch, el, *args)

    # (matrix, batch columns) of every gate application; depth skips the
    # call that apply_unitary makes on itself for non-adjacent wires.
    products, depth = [], [0]
    apply_unitary = statevec.apply_unitary

    def counting_apply_unitary(state, mat, wires):
        if not depth[0]:
            products.append((mat, state.size >> width))
        depth[0] += 1
        try:
            return apply_unitary(state, mat, wires)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(statevec, "apply_element", counting_apply_element)
    monkeypatch.setattr(statevec, "apply_unitary", counting_apply_unitary)
    dense = DenseClassifier()
    for bits in range(N_PATTERNS):
        dense.classify(bits)
    assert inserted[0] == 0
    # Each element once on the batched state, besides the one unbatched
    # noiseless reference run; the batch has doubled once per location
    # inserted before it.
    assert unbatched[0] <= len(circ.elements)
    assert [el for el, _, _ in elements] == list(circ.elements)
    for index, (_, columns, ndim) in enumerate(elements):
        assert ndim == width + N_LOCATIONS
        assert columns == 1 << sum(loc.insert_index <= index for loc in locations), index
    # Only the elements after the last insertions and the two H-basis
    # rotations act on all 1024 columns.
    full = [mat for mat, columns in products if columns == N_PATTERNS]
    assert len(full) <= 9
    assert sum(mat is statevec.H_BASIS for mat in full) == 2


def test_output_fidelity_classes(polyset):
    # Conditional output fidelities only ever take the values 0 and 1 here;
    # the enumeration reports whether any 1/2-fidelity residual occurs, and
    # none does (consistent with the integer coefficient lists).
    assert polyset.pattern_counts["half_fidelity"] == 0
    dense = DenseClassifier()
    for bits in (0, 3, 0b1010000000, 0b0001100000):
        dv = dense.classify(bits)
        assert dv.accept > 0.25, bits  # every pattern here is accepted
        # Joint (output 1, output 2) flip weights: (clean, clean), (clean,
        # flipped), (flipped, clean), (flipped, flipped).
        joint = (dv.accept - dv.either, dv.err2 - dv.both, dv.err1 - dv.both, dv.both)
        assert sum(joint) == pytest.approx(dv.accept, abs=1e-12)
        for q in joint:
            assert min(abs(q / dv.accept - t) for t in (0.0, 0.5, 1.0)) < 1e-10, bits


def _conditional_errors(polyset):
    """Output-1 error and either-output error, conditional on acceptance."""
    return (
        lambda p: polyset.marginal(p) / polyset.acceptance(p),
        lambda p: polyset.either(p) / polyset.acceptance(p),
    )


def test_positivity_and_ordering(polyset):
    e, e2 = _conditional_errors(polyset)
    p = 0.0
    while p <= 1.0:
        a = float(polyset.acceptance(p))
        u = float(polyset.marginal(p))
        u2 = float(polyset.either(p))
        assert -1e-12 <= u <= u2 + 1e-12 <= a + 1e-12 <= 1 + 1e-12, p
        p += 1e-3 * 10  # coarse outer grid; the fine grid runs below 0.089
    p = 1e-3
    while p <= 0.089:
        ev = e(p)
        e2v = e2(p)
        assert e2v <= 2 * ev - ev * ev + 1e-15, p
        p += 1e-3


def test_acceptance_positive_below_half(polyset):
    p = 0.0
    while p < 0.5:
        assert float(polyset.acceptance(p)) > 0.0
        p += 1e-2


def test_conditional_error_values(polyset):
    e, e2 = _conditional_errors(polyset)
    assert e(0.0) == 0.0
    # Two significant figures at p = 0.01.
    assert e(0.01) == pytest.approx(9.3e-4, abs=0.05e-4)
    # Both-error leading coefficient: 2*9 - 13 = 5.
    both_coeffs = polyset.both.as_integers()
    assert both_coeffs[2] == 5
    assert 2 * PUBLISHED_MARGINAL[2] - PUBLISHED_EITHER[2] == 5


def test_division_by_zero_guard():
    # a(p) vanishes nowhere on [0, 1/2); a synthetic zero acceptance raises,
    # naming the routine, for float and Fraction arguments alike.
    from c4distill.exactalg import ExactPolynomial
    from c4distill.routines import RoutineModel, VanishingDenominator

    bad = RoutineModel(
        name="Z", m=2, n=1,
        acceptance_poly=ExactPolynomial.make([0, 1]),
        undetected_poly=ExactPolynomial.make([1]),
    )
    for p in (0.0, Fraction(0)):
        with pytest.raises(VanishingDenominator, match="routine Z"):
            bad.output_error(p)


def test_accept_weight_per_class(polyset):
    assert [int(q) for q in polyset.accept_by_weight] == [1, 0, 13, 32, 50, 64, 50, 32, 13, 0, 1]


def _assert_same_polynomial_set(got, want):
    """Every field equal, and every coefficient and weight a Fraction."""
    for field in got._fields:
        assert getattr(got, field) == getattr(want, field), field
    for poly in (got.acceptance, got.marginal, got.either, got.both):
        assert all(type(c) is Fraction for c in poly.coefficients)
    assert all(type(q) is Fraction for q in got.accept_by_weight)


def test_polynomials_match_fraction_oracle(polyset):
    _assert_same_polynomial_set(polyset, fraction_polynomials(exact_verdicts()))


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_integer_sum_matches_fraction_oracle_on_drawn_verdicts(seed):
    # Weights in 64ths with every case of the pattern counts: rejected,
    # fractional and full acceptance, and errors of 0, 1/2, 1 and others.
    # Both outputs carry the same error, so the marginals agree.
    rnd = random.Random(seed)
    verdicts = []
    for _ in range(N_PATTERNS):
        accept = rnd.choice([0, 32, 64, rnd.randrange(65)])
        err = rnd.choice([0, accept, accept // 2, rnd.randrange(65)])
        weights = (accept, err, err, rnd.randrange(65), rnd.randrange(65))
        verdicts.append(ExactVerdict(*(Fraction(q, 64) for q in weights)))
    with mock.patch.object(enumeration, "exact_verdicts", lambda: verdicts):
        got = enumeration._cached_polynomials.__wrapped__()
    _assert_same_polynomial_set(got, fraction_polynomials(verdicts))


def test_symmetry_between_outputs():
    # derive_polynomials itself asserts u_out1 == u_out2; spot-check a few
    # mirrored patterns too (swap the two data bits and the gadget pairs
    # targeting the same wire across blocks).
    verdicts = exact_verdicts()
    total_err1 = sum(float(v.err1) for v in verdicts)
    total_err2 = sum(float(v.err2) for v in verdicts)
    assert total_err1 == pytest.approx(total_err2, abs=1e-9)


def test_classification_report_shape():
    report = classification_report()
    assert report["a"] == list(PUBLISHED_ACCEPTANCE)
    counts = report["patterns"]
    n_error = sum(counts["error"].values())
    assert counts["rejected"] + counts["clean"] + n_error == N_PATTERNS
    assert counts["half_fidelity"] == 0
    # Mixed-flip (fractionally accepted) patterns are reported separately.
    assert counts["error"]["partial"] == counts["fractional_accept"] == 256
    assert counts["error"]["both_outputs"] == 32


def test_partial_patterns_are_correlated_half_flips():
    # Patterns whose accepted branch carries an X/Z-type logical residual:
    # acceptance weight 1/2, each output marginally flipped with probability
    # 1/2, and the flips perfectly correlated -- either anticorrelated
    # (exactly one output flipped, 128 patterns) or jointly flipped/clean
    # (128 patterns).  The integer coefficient lists absorb these halves.
    verdicts = exact_verdicts()
    partials = [v for v in verdicts if v.error_class() == "partial"]
    assert len(partials) == 256
    both_kinds = {0.0: 0, 0.5: 0}
    for v in partials:
        acc = float(v.accept)
        assert acc == pytest.approx(0.5, abs=1e-12)
        assert float(v.err1) / acc == pytest.approx(0.5, abs=1e-12)
        assert float(v.err2) / acc == pytest.approx(0.5, abs=1e-12)
        both_kinds[round(float(v.both) / acc, 12)] += 1
    assert both_kinds == {0.0: 128, 0.5: 128}


def test_coefficient_mismatch_reports_diff(monkeypatch):
    import c4distill.enumeration as en

    # Derived once per process, validated on every call.
    assert en.derive_polynomials() is en.derive_polynomials(validate=False)
    monkeypatch.setattr(en, "PUBLISHED_MARGINAL", (0, 0, 8, -56, 160, -256, 240, -128, 32))
    with pytest.raises(en.CoefficientMismatch) as err:
        en.derive_polynomials()
    assert "degree 2" in str(err.value)
    assert "weight" in str(err.value)
