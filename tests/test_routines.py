"""Routine models: the derived 10-to-2 and the closed-form 15-to-1."""

from fractions import Fraction
from pathlib import Path

import pytest

from c4distill.routines import (
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
