"""Routine models: the derived 10-to-2 and the closed-form 15-to-1."""

from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from exact_reference import fifteen_to_one_polynomials, sturm_signs_below_half
from hypothesis import given
from hypothesis import strategies as st

from c4distill import enumeration, routines
from c4distill.exactalg import ExactPolynomial
from c4distill.routines import (
    _signs_below_half,
    builtin_models,
    load_routines_config,
    model_fifteen_to_one,
    model_ten_to_two,
)


def test_model_a_basics():
    a = model_ten_to_two()
    assert (a.m, a.n) == (10, 2)
    assert a.acceptance(0.0) == 1
    assert a.output_error(0.0) == 0
    assert float(a.acceptance(0.01)) == pytest.approx(0.9056, abs=1e-4)
    # One significant figure of the output error at p = 0.01.
    assert round(float(a.output_error(0.01)), 4) == pytest.approx(9e-4, abs=0.5e-4)
    cost = a.m / (a.n * float(a.acceptance(0.01)))
    assert cost == pytest.approx(5.5, abs=0.05)


def test_model_a_leading_order():
    d, kappa = model_ten_to_two().leading_order()
    assert (d, kappa) == (2, Fraction(9))


def test_model_b_basics():
    b = model_fifteen_to_one()
    assert (b.m, b.n) == (15, 1)
    assert b.acceptance(0.0) == 1
    assert b.output_error(0.0) == 0
    cost = b.m / float(b.acceptance(0.01))
    assert cost == pytest.approx(17.4, abs=0.05)
    # One significant figure (the printed value rounds up from 3.6e-5).
    err = float(b.output_error(0.01))
    assert f"{err:.0e}" == "4e-05"


def test_model_b_leading_order_is_cubic():
    b = model_fifteen_to_one()
    d, kappa = b.leading_order()
    assert (d, kappa) == (3, Fraction(35))
    # Series check by evaluation at small p.
    for p in (1e-6, 1e-7):
        assert float(b.output_error(p)) == pytest.approx(35 * p**3, rel=1e-4)


def test_model_b_matches_fraction_oracle():
    b = model_fifteen_to_one()
    acceptance, undetected = fifteen_to_one_polynomials()
    assert b.acceptance_poly == acceptance
    assert b.undetected_poly == undetected
    for poly in (b.acceptance_poly, b.undetected_poly):
        assert all(type(c) is Fraction for c in poly.coefficients)


def test_builtin_polynomials_take_no_polynomial_arithmetic(monkeypatch):
    # Both builtin routines' polynomials are summed on integers; the
    # uncached calls build fresh values without replacing the cached ones.
    calls = []
    for name in ("__add__", "__mul__", "scaled", "__pow__"):
        def counted(*args, _name=name, _method=getattr(ExactPolynomial, name)):
            calls.append(_name)
            return _method(*args)

        monkeypatch.setattr(ExactPolynomial, name, counted)
    enumeration._cached_polynomials.__wrapped__()
    model_fifteen_to_one.__wrapped__()
    assert calls == []
    one = ExactPolynomial.make([1])
    assert (one + one).scaled(2) ** 2 == ExactPolynomial.make([16])
    assert set(calls) == {"__add__", "scaled", "__pow__", "__mul__"}


def test_models_map_into_unit_interval():
    for model in builtin_models().values():
        p = 0.0
        while p <= 0.25:
            a = float(model.acceptance(p))
            e = float(model.output_error(p))
            assert 0.0 <= a <= 1.0
            assert 0.0 <= e <= 1.0
            p += 0.01


def test_error_monotone_below_threshold():
    from c4distill.planner import threshold

    for model in builtin_models().values():
        thr = threshold(model)
        prev = -1.0
        p = 1e-4
        while p < thr:
            e = float(model.output_error(p))
            assert e > prev
            prev = e
            p += 2e-3


def test_config_loading(tmp_path):
    path = tmp_path / "routines.cfg"
    path.write_text(
        "[C]\n"
        "m = 7\n"
        "n = 1\n"
        "acceptance = 1 -7/2 21/2\n"
        "undetected = 0 0 7\n"
    )
    models = load_routines_config(str(path))
    c = models["C"]
    assert (c.m, c.n) == (7, 1)
    p = Fraction(1, 100)
    acc = 1 - Fraction(7, 2) * p + Fraction(21, 2) * p * p
    assert c.acceptance(p) == acc
    assert c.output_error(p) == 7 * p * p / acc
    # 1 - 7p + 21p^2/2 vanishes at (7 - sqrt 7)/21 ~ 0.21 and ~ 0.46.
    path.write_text("[C]\nm = 7\nn = 1\nacceptance = 1 -7 21/2\nundetected = 0 0 7\n")
    with pytest.raises(ValueError, match=r"routine \[C\]"):
        load_routines_config(str(path))


def test_config_missing_file():
    with pytest.raises(FileNotFoundError):
        load_routines_config("/nonexistent/routines.cfg")


def test_config_refuses_routines_that_lower_the_cost(tmp_path):
    """A round multiplies a plan's cost by m / (n a(p)), and the planner
    ranks sequences on the premise that this factor is at least 1 on
    [0, 1/2).  The factor must also be a float."""
    path = tmp_path / "routines.cfg"
    big = "1" + "0" * 400
    for head, match in (
        ("m = 1\nn = 2\nacceptance = 1", "acceptance above m/n"),
        ("m = 2\nn = 1\nacceptance = 1 10", "acceptance above m/n"),  # above 2 past p = 1/10
        (f"m = 1\nn = {big}\nacceptance = 1", "acceptance above m/n"),
        (f"m = {big}\nn = 1\nacceptance = 1", "m/n beyond float range"),
    ):
        path.write_text(f"[C]\n{head}\nundetected = 0 0 1\n")
        with pytest.raises(ValueError, match=rf"routine \[C\] has an {match}"):
            load_routines_config(str(path))
    # The factor may be 1: everywhere, at p = 0 alone, or at p = 1/2 alone.
    for head in (
        "m = 1\nn = 1\nacceptance = 1",
        "m = 1\nn = 1\nacceptance = 1 -1",
        "m = 2\nn = 1\nacceptance = 1 2",
    ):
        path.write_text(f"[C]\n{head}\nundetected = 0 0 1\n")
        assert list(load_routines_config(str(path))) == ["C"], head


def test_config_refuses_an_error_equal_to_p_twice(tmp_path):
    """A threshold is one sign change of e(p) - p, from below p to above: a
    routine whose error equals p at two points of (0, 1/2), or at one after
    starting above p, has no such threshold."""
    path = tmp_path / "routines.cfg"
    # e(p) = p^2 (40 (1 - 4p)^2 + 1/10) equals p three times; e(p) = 3p/2 - 3p^2
    # starts above p and falls below it at 1/6.
    for undetected in ("0 0 401/10 -320 640", "0 3/2 -3"):
        path.write_text(f"[C]\nm = 5\nn = 1\nacceptance = 1\nundetected = {undetected}\n")
        with pytest.raises(ValueError, match=r"routine \[C\] has an output error equal to p twice"):
            load_routines_config(str(path))
    # A double root counts once: e(p) = 8p^2 - 16p^3 touches p at 1/4 alone.
    # e(p) = p is not refused either; every round of it counts as diverged,
    # and nor is e(p) = 2p, above p everywhere (threshold 0.0).
    for undetected in ("0 0 8 -16", "0 1", "0 2"):
        path.write_text(f"[C]\nm = 5\nn = 1\nacceptance = 1\nundetected = {undetected}\n")
        assert list(load_routines_config(str(path))) == ["C"], undetected


def test_config_refuses_an_error_above_one(tmp_path):
    """An output error is a probability: an undetected weight may not exceed
    the acceptance in (0, 1/2)."""
    path = tmp_path / "routines.cfg"
    # 20p^4 passes 1 - 3p/2 near p = 0.43 (from p0 = 0.45 a round gave an
    # error of 2.52), and 2 starts above 1.
    for acceptance, undetected in (("1 -3/2", "0 0 0 0 20"), ("1", "2")):
        path.write_text(f"[C]\nm = 5\nn = 1\nacceptance = {acceptance}\nundetected = {undetected}\n")
        with pytest.raises(ValueError, match=r"routine \[C\] has an undetected weight above the acceptance"):
            load_routines_config(str(path))
    # e(p) = 1 everywhere, and e(p) = 4p (1 - p), which reaches 1 at p = 1/2
    # alone, are probabilities; every round of either counts as diverged.
    for acceptance, undetected in (("1 -2", "1 -2"), ("1", "0 4 -4")):
        path.write_text(f"[C]\nm = 5\nn = 1\nacceptance = {acceptance}\nundetected = {undetected}\n")
        assert list(load_routines_config(str(path))) == ["C"], undetected


def test_config_refuses_a_crossing_above_the_threshold_bracket(tmp_path):
    """The planner bisects for a threshold on (1e-6, 1/4) only, so an output
    error that crosses p from 1/4 up would get none, and its rounds would run
    where they worsen the error."""
    path = tmp_path / "routines.cfg"
    # e(p) = 3p^2 crosses p at 1/3 (from p0 = 0.4 a plan reached 0.48), 4p^2
    # at 1/4 itself, 5p^2 - 6p^3 at 1/3 and equals p again at 1/2, and
    # 9p^2 - 27p^3 + 27p^4 crosses at 1/3 through a triple root.
    for undetected in ("0 0 3", "0 0 4", "0 0 5 -6", "0 0 9 -27 27"):
        path.write_text(f"[C]\nm = 3\nn = 1\nacceptance = 1\nundetected = {undetected}\n")
        with pytest.raises(ValueError, match=r"routine \[C\] has an output error that crosses p in \[1/4, 1/2\)"):
            load_routines_config(str(path))
    # A crossing below 1/4 (8p^2 - 8p^3, at (2 - sqrt 2)/4), an error below
    # p throughout (p^2), and one that touches p at 1/3 without crossing it
    # and equals p again at 1/2 (8p^2 - 21p^3 + 18p^4) are accepted.
    for undetected in ("0 0 8 -8", "0 0 1", "0 0 8 -21 18"):
        path.write_text(f"[C]\nm = 3\nn = 1\nacceptance = 1\nundetected = {undetected}\n")
        assert list(load_routines_config(str(path))) == ["C"], undetected


def test_readme_config_loads(tmp_path):
    """The README's example routine is one the loader accepts."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    path = tmp_path / "routines.cfg"
    path.write_text(readme.read_text().split("```ini\n")[1].split("```")[0])
    assert list(load_routines_config(str(path))) == ["C"]


def test_config_reports_the_earlier_of_two_broken_rules(tmp_path):
    """Each config breaks two rules that follow each other in the loader;
    the loader reports the first, so the rules keep their order."""
    big = "1" + "0" * 400
    cases = (
        # A two-character name that lacks m, n and undetected.
        ("[CD]\nacceptance = 1\n", "needs a one-character name"),
        # A builtin's name, lacking its keys.
        ("[A]\nacceptance = 1\n", "would replace the builtin"),
        # No undetected, and m = 0.
        ("[C]\nm = 0\nn = 1\nacceptance = 1\n", "lacks undetected"),
        # m below 1, and m/n beyond float range.
        (f"[C]\nm = -{big}\nn = 1\nacceptance = 1\nundetected = 0 1\n", "needs m >= 1"),
        # m/n beyond float range, and an acceptance with a zero denominator.
        (f"[C]\nm = {big}\nn = 1\nacceptance = 1/0\nundetected = 0 1\n", "m/n beyond float range"),
        # A zero denominator, and an acceptance of 2 at p = 0.
        ("[C]\nm = 5\nn = 1\nacceptance = 2 1/0\nundetected = 0 1\n", "coefficient with a zero denominator"),
        # 2 - 8p is 2 at p = 0 and vanishes at 1/4.
        ("[C]\nm = 5\nn = 1\nacceptance = 2 -8\nundetected = 0 0 1\n", "needs 0 < acceptance <= 1"),
        # 1 + p - 8p^2 exceeds m/n = 1 near 0 and vanishes near 0.42.
        ("[C]\nm = 1\nn = 1\nacceptance = 1 1 -8\nundetected = 0 0 1\n", "acceptance that vanishes"),
        # 1 + p exceeds m/n = 1, and the undetected weight has a zero denominator.
        ("[C]\nm = 1\nn = 1\nacceptance = 1 1\nundetected = 0 1/0\n", "acceptance above m/n"),
        # A zero denominator, and an undetected weight of -p.
        ("[C]\nm = 5\nn = 1\nacceptance = 1\nundetected = -1 1/0\n", "coefficient with a zero denominator"),
        # 40p^2 (1 - 4p)^2 vanishes at 1/4 and equals p three times.
        ("[C]\nm = 5\nn = 1\nacceptance = 1\nundetected = 0 0 40 -320 640\n", "undetected weight not positive"),
        # p^2 (40 (1 - 4p)^2 + 1/10) equals p three times and passes 1 near 1/2.
        ("[C]\nm = 5\nn = 1\nacceptance = 1\nundetected = 0 0 401/10 -320 640\n", "output error equal to p twice"),
        # 3p^2 + 1000p^10 passes 1 near 0.46 and crosses p near 1/3.
        ("[C]\nm = 5\nn = 1\nacceptance = 1\nundetected = 0 0 3 0 0 0 0 0 0 0 1000\n", "undetected weight above the acceptance"),
    )
    path = tmp_path / "routines.cfg"
    for config, message in cases:
        path.write_text(config)
        with pytest.raises(ValueError, match=message):
            load_routines_config(str(path))


def _planted(free, roots):
    """The polynomial with coefficients ``free`` times (p - r)^k for each
    (r, k) in ``roots``."""
    poly = ExactPolynomial.make(free)
    for r, k in roots:
        poly = poly * ExactPolynomial.make([-r, 1]) ** k
    return poly


@given(
    free=st.lists(
        st.one_of(
            st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 10])),
            st.sampled_from(["1e300", "-1e300", "1e-300", "-1e-300"]).map(Fraction),
        ),
        max_size=4,
    ),
    ends=st.tuples(*[st.tuples(st.just(r), st.integers(0, 2)) for r in (0, Fraction(1, 4), Fraction(1, 2))]),
    interior=st.lists(
        st.tuples(st.sampled_from([Fraction(1, 3), Fraction(1, 5), Fraction(3, 10), Fraction(1, 8)]), st.integers(1, 3)),
        max_size=2,
    ),
)
def test_signs_below_half_match_the_fraction_sturm_oracle(free, ends, interior):
    """The primitive integer chain gives the sign triple of the unscaled
    Fraction chain and its 1 - 2p loop, with roots planted at 0, 1/4 and
    1/2 and double and triple roots inside."""
    poly = _planted(free, [*ends, *interior])
    assert _signs_below_half(poly) == sturm_signs_below_half(poly.coefficients)


def _bits(poly: ExactPolynomial) -> int:
    return max((max(abs(c.numerator), c.denominator).bit_length() for c in poly.coefficients), default=0)


@pytest.mark.parametrize("size", [16, 32])
@pytest.mark.parametrize("key", ["acceptance", "undetected"])
def test_sign_reads_do_bounded_work(tmp_path, monkeypatch, size, key):
    """Loading a config of large literals divides numbers whose bit length
    stays within a multiple of deg * L, where L is the bit length of the
    primitive input.  An unscaled Fraction chain reaches 19-33 deg * L on
    these configs; the primitive chain stays near 5."""
    literals = ["104/5", "-756/17", str(2**31 - 1), "1/3", "1e-3", "7/1024"]
    # Past a leading 1 or 0 0 the lowest coefficient is positive, so no rule
    # can decide from it alone: each must count this polynomial's roots.
    head = ["1"] if key == "acceptance" else ["0", "0"]
    text = " ".join(head + [literals[k % len(literals)] for k in range(size - len(head))])
    polys = {"acceptance": "1", "undetected": "0 0 1", key: text}
    path = tmp_path / "routines.cfg"
    path.write_text("[C]\nm = 100\nn = 1\n" + "".join(f"{k} = {v}\n" for k, v in polys.items()))
    peak = 0
    divmod_ = routines._divmod

    def counted(a, b):
        nonlocal peak
        out = divmod_(a, b)
        peak = max(peak, *map(_bits, (a, b, *out)))
        return out

    monkeypatch.setattr(routines, "_divmod", counted)
    refusal = {"acceptance": "acceptance above m/n", "undetected": "undetected weight above the acceptance"}[key]
    with pytest.raises(ValueError, match=refusal):
        load_routines_config(str(path))
    poly = ExactPolynomial.make([Fraction(c) for c in text.split()])
    cs = poly.coefficients
    L = _bits(poly.scaled(Fraction(lcm(*(c.denominator for c in cs)), gcd(*(c.numerator for c in cs)))))
    assert 0 < peak <= 8 * poly.degree() * L, (peak, poly.degree(), L)
