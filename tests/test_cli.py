"""Golden-file and exit-code tests for every CLI sub-command."""

import contextlib
import io
import json
import os
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c4distill import exactalg
from c4distill.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

GOLDEN_CASES = [
    ("polynomials.json", ["polynomials"]),
    ("threshold_a.json", ["threshold", "--routine", "A"]),
    ("threshold_b.json", ["threshold", "--routine", "B"]),
    ("table1.csv", ["table1"]),
    (
        "curve_both_thresh.csv",
        ["curve", "--figure", "both-thresh", "--pmin", "0.01", "--pmax", "0.05", "--points", "5"],
    ),
    (
        "curve_regionplot.csv",
        ["curve", "--figure", "regionplot", "--pmin", "0.002", "--pmax", "0.08",
         "--points", "5", "--boundaries"],
    ),
    (
        "curve_distplot.csv",
        ["curve", "--figure", "distplot", "--eg-min", "1e-8", "--eg-max", "1e-4",
         "--points", "5", "--max-rounds", "4"],
    ),
    ("plan.json", ["plan", "--p0", "0.01", "--eg", "1e-5"]),
    ("simulate.json", ["simulate", "--p", "0.02", "--trials", "1000", "--seed", "42"]),
    ("pipeline.json", ["pipeline", "--k0", "2000", "--seq", "A", "--p0", "0.05", "--seed", "3"]),
    ("verify_identities.txt", ["verify-identities"]),
    ("dump_circuit.txt", ["dump-circuit"]),
    ("dump_circuit_gadgets.txt", ["dump-circuit", "--gadget-level"]),
]


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("fname,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden(fname, argv):
    code, out = run_cli(argv)
    assert code == EXIT_OK
    with open(os.path.join(GOLDEN_DIR, fname)) as fh:
        assert out == fh.read()


def test_table_values_in_output():
    code, out = run_cli(["table1"])
    assert code == EXIT_OK
    assert "AA,27.9" in out
    assert "BAAA,2180.8" in out


def test_threshold_values():
    _, out_a = run_cli(["threshold", "--routine", "A"])
    _, out_b = run_cli(["threshold", "--routine", "B"])
    assert abs(json.loads(out_a)["threshold"] - 0.089) <= 1e-3
    assert abs(json.loads(out_b)["threshold"] - 0.141) <= 1e-3


def test_plan_headline():
    code, out = run_cli(["plan", "--p0", "0.01", "--eg", "1e-5"])
    payload = json.loads(out)
    assert payload["sequence"] == "AA"
    assert abs(payload["final_cost"] - 27.9) <= 0.1
    assert abs(payload["improvement_factor"] - 9.4) <= 0.1


def test_plan_from_computation_size():
    code, out = run_cli(["plan", "--p0", "0.01", "--R", "1e4"])
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["goal_error"] == pytest.approx(1e-5)


def test_usage_errors(tmp_path):
    assert run_cli(["plan", "--p0", "0.01"])[0] == EXIT_USAGE  # no goal
    assert run_cli(["plan", "--p0", "0.01", "--eg", "0.5"])[0] == EXIT_USAGE
    assert run_cli(["simulate", "--p", "0.9", "--trials", "10"])[0] == EXIT_USAGE
    assert run_cli(["simulate", "--p", "0.1", "--trials", "0"])[0] == EXIT_USAGE
    assert run_cli(["pipeline", "--k0", "100", "--seq", "AX", "--p0", "0.01"])[0] == EXIT_USAGE
    assert run_cli(["threshold", "--routine", "Z"])[0] == EXIT_USAGE
    assert run_cli(["nonsense"])[0] == EXIT_USAGE
    assert run_cli(["curve", "--figure", "regionplot", "--pmin", "0.1", "--pmax", "0.01"])[0] == EXIT_USAGE
    assert run_cli(["curve", "--figure", "both-thresh", "--points", "1"])[0] == EXIT_USAGE
    # An explicit zero is a value, not a request for the figure's default.
    for argv in (
        ["--figure", "both-thresh", "--pmin", "0", "--pmax", "0.05", "--points", "3"],
        ["--figure", "both-thresh", "--pmax", "0"],
        ["--figure", "regionplot", "--points", "0"],
        ["--figure", "distplot", "--eg-min", "0"],
        ["--figure", "distplot", "--eg-max", "0"],
    ):
        assert run_cli(["curve"] + argv)[0] == EXIT_USAGE, argv
    # Every curve grid is a probability grid below 1/2, as for simulate.
    for argv in (
        ["--figure", "both-thresh", "--pmax", "inf", "--points", "3"],
        ["--figure", "both-thresh", "--pmax", "0.6"],
        ["--figure", "regionplot", "--pmax", "inf"],
        ["--figure", "regionplot", "--pmin", "nan"],
        ["--figure", "distplot", "--eg-max", "0.5"],
    ):
        assert run_cli(["curve"] + argv)[0] == EXIT_USAGE, argv
    for r in ("0", "-0.0", "-5", "nan"):
        assert run_cli(["plan", "--p0", "0.01", "--R", r])[0] == EXIT_USAGE, r
    # Only the commands that read routine definitions accept --routines.
    for argv in (
        ["dump-circuit"],
        ["simulate", "--p", "0.05", "--trials", "10"],
        ["polynomials"],
    ):
        assert run_cli(argv + ["--routines", "/nonexistent.ini"])[0] == EXIT_USAGE, argv
    for rounds in ("0", "-3"):
        argv = ["plan", "--p0", "0.01", "--eg", "1e-5", "--max-rounds", rounds]
        assert run_cli(argv)[0] == EXIT_USAGE
    assert run_cli(["table1", "--p0", "0.2"])[0] == EXIT_USAGE  # above B's threshold
    assert run_cli(["curve", "--figure", "distplot", "--max-rounds", "0"])[0] == EXIT_USAGE
    assert run_cli(["pipeline", "--k0", "-5", "--seq", "A", "--p0", "0.01"])[0] == EXIT_USAGE
    assert run_cli(["pipeline", "--k0", "100", "--seq", "A", "--p0", "0.7"])[0] == EXIT_USAGE
    assert run_cli(["pipeline", "--k0", "100", "--seq", "", "--p0", "0.01"])[0] == EXIT_USAGE
    # Seeds outside [0, 2**64) would alias another seed's streams.
    for seed in (str(1 << 64), "-1"):
        for argv in (
            ["simulate", "--p", "0.05", "--trials", "10"],
            ["pipeline", "--k0", "100", "--seq", "A", "--p0", "0.01"],
        ):
            assert run_cli(argv + ["--seed", seed])[0] == EXIT_USAGE, (argv, seed)
    missing = str(tmp_path / "no_such_dir" / "out.json")
    assert run_cli(["simulate", "--p", "0.1", "--trials", "10", "-o", missing])[0] == EXIT_USAGE
    argv = ["pipeline", "--k0", "100", "--seq", "A", "--p0", "0.01", "-o", missing]
    assert run_cli(argv)[0] == EXIT_USAGE
    cfg = tmp_path / "routines.cfg"
    for body in (
        "m = 5\nn = 1\nacceptance = 1 -5 10\n",  # no undetected
        "m = 0\nn = 1\nacceptance = 1 -5 10\nundetected = 0 0 10\n",
        "m = 5\nn = 1\nacceptance = 1 -5 10\nundetected = 0 0 1/0\n",
        # An acceptance is a probability: above 1 at p = 0, a plan's cost
        # would underflow to 0.
        "m = 2\nn = 3\nacceptance = 1e300\nundetected = 0 0 1\n",
        # An undetected weight is a probability: negative near 0, or past
        # its root at 1/10, a plan's error would be negative.
        "m = 5\nn = 1\nacceptance = 1\nundetected = 0 -1\n",
        "m = 5\nn = 1\nacceptance = 1\nundetected = 0 0 1 -10\n",
    ):
        cfg.write_text("[C]\n" + body)
        for argv in (["threshold", "--routine", "C"], ["plan", "--p0", "0.01", "--eg", "1e-10"]):
            assert run_cli(argv + ["--routines", str(cfg)])[0] == EXIT_USAGE, (body, argv)
    # A sequence names one routine per character, so [CC] would read as C, C.
    cfg.write_text("[CC]\nm = 5\nn = 1\nacceptance = 1 -5 10\nundetected = 0 0 10\n")
    for argv in (["threshold", "--routine", "CC"], ["plan", "--p0", "0.01", "--eg", "1e-10"]):
        assert run_cli(argv + ["--routines", str(cfg)])[0] == EXIT_USAGE, argv
    # An acceptance of zero, or one with a root in (0, 1/2), is refused when
    # the file is read: a simple root at 1/4 (the top of the threshold
    # bracket) or at 1/5 (where e(p) - p changes sign through the pole, so
    # bisection would miss the threshold at 1/15), and a double root at 1/4,
    # where the acceptance touches zero without changing sign.
    for acceptance in ("0", "1 -4", "1 -5", "1 -8 16"):
        cfg.write_text(f"[C]\nm = 5\nn = 1\nacceptance = {acceptance}\nundetected = 0 0 10\n")
        for argv in (["threshold", "--routine", "C"], ["plan", "--p0", "0.01", "--eg", "1e-5"]):
            assert run_cli(argv + ["--routines", str(cfg)])[0] == EXIT_USAGE, (acceptance, argv)
    # A coefficient beyond float range is refused when the file is read.
    cfg.write_text("[C]\nm = 5\nn = 1\nacceptance = 1 -1\nundetected = 0 0 1e400\n")
    for argv in (
        ["threshold", "--routine", "C"],
        ["plan", "--p0", "0.01", "--eg", "1e-5"],
        ["curve", "--figure", "distplot"],
    ):
        assert run_cli(argv + ["--routines", str(cfg)])[0] == EXIT_USAGE, argv
    # A write that fails after the file opened (ENOSPC) is a usage error too.
    if os.path.exists("/dev/full"):
        assert run_cli(["threshold", "--routine", "A", "-o", "/dev/full"])[0] == EXIT_USAGE


def test_extreme_grids():
    # At p = 1e-40 the deep sequences' errors underflow to 0 as floats; their
    # crossings are still found, and are those of the default grid.
    argv = ["curve", "--figure", "regionplot", "--boundaries"]
    code, out = run_cli(argv + ["--pmin", "1e-40", "--pmax", "0.1", "--points", "5"])
    assert code == EXIT_OK
    assert out.split("\n\n")[1] == run_cli(argv)[1].split("\n\n")[1]
    # max/min beyond float range: the grid still ends at the given max.
    code, out = run_cli(
        ["curve", "--figure", "distplot", "--eg-min", "5e-324", "--eg-max", "1e-4", "--points", "3"]
    )
    assert code == EXIT_OK
    assert out.splitlines()[-1].startswith("1.00000e-04,")


# Mostly probabilities, with nan, infinities, subnormals and out-of-range
# values.
_floats = st.one_of(
    st.floats(0, 0.5),
    st.floats(1e-12, 0.1),
    st.floats(),
    st.sampled_from([5e-324, 1e-310, 0.0]),
)
_planner_argv = st.one_of(
    st.tuples(
        st.just("curve"),
        st.sampled_from(["--figure=both-thresh", "--figure=regionplot", "--figure=distplot"]),
        *(
            st.builds(f"--{name}={{!r}}".format, _floats)
            for name in ("pmin", "pmax", "eg-min", "eg-max", "p0")
        ),
        st.builds("--points={}".format, st.integers(2, 4)),
        st.builds("--max-rounds={}".format, st.integers(1, 4)),
        st.sampled_from(["--boundaries", ""]),
    ),
    st.tuples(
        st.just("plan"),
        st.builds("--p0={!r}".format, _floats),
        st.one_of(
            st.builds("--eg={!r}".format, _floats),
            st.builds("--R={!r}".format, st.one_of(_floats, st.floats(1, 1e30))),
        ),
        st.builds("--max-rounds={}".format, st.integers(1, 4)),
    ),
    st.tuples(st.just("table1"), st.builds("--p0={!r}".format, _floats)),
)


@settings(max_examples=100)
@given(_planner_argv)
def test_planner_commands_exit_0_or_1(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([arg for arg in argv if arg])
    assert code in (EXIT_OK, EXIT_USAGE), (argv, err.getvalue())
    assert (code == EXIT_USAGE) == err.getvalue().startswith("usage error:"), argv


def test_output_path_checked_before_work(tmp_path, monkeypatch):
    import c4distill.montecarlo as mc

    def never(*args):
        raise AssertionError("sampled before checking the output path")

    monkeypatch.setattr(mc, "sample_routine", never)
    argv = ["simulate", "--p", "0.05", "--trials", "3000000"]
    assert run_cli(argv + ["-o", str(tmp_path / "missing_dir" / "x.json")])[0] == EXIT_USAGE
    monkeypatch.setenv("C4DISTILL_OUTDIR", str(tmp_path / "missing_dir"))
    assert run_cli(argv + ["-o", "x.json"])[0] == EXIT_USAGE


def test_mismatch_exit_code(monkeypatch):
    import c4distill.enumeration as en

    monkeypatch.setattr(en, "PUBLISHED_ACCEPTANCE", (2, -10, 58, -192, 400, -544, 480, -256, 64))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(["polynomials"])
    assert code == EXIT_MISMATCH


def test_fractional_coefficient_is_a_mismatch(monkeypatch):
    import c4distill.enumeration as en

    ps = en.derive_polynomials()
    marginal = list(ps.marginal.coefficients)
    marginal[2] = Fraction(17, 2)
    broken = replace(ps, marginal=exactalg.ExactPolynomial.make(marginal))
    monkeypatch.setattr(en, "_cached_polynomials", lambda: broken)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["polynomials"])
    assert code == EXIT_MISMATCH
    assert "degree 2: derived 17/2 != published 9" in err.getvalue()


def test_output_file_and_outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("C4DISTILL_OUTDIR", str(tmp_path))
    code, out = run_cli(["table1", "-o", "t.csv"])
    assert code == EXIT_OK and out == ""
    assert (tmp_path / "t.csv").read_text().startswith("sequence,")


def test_custom_routine_config(tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("[C]\nm = 5\nn = 1\nacceptance = 1 -5 10\nundetected = 0 0 10\n")
    code, out = run_cli(["threshold", "--routine", "C", "--routines", str(cfg)])
    assert code == EXIT_OK
    # e(p) = 10 p^2 / (1 - 5p + 10p^2): fixed point at (15 - sqrt(185)) / 20.
    want = (15 - 185**0.5) / 20
    assert json.loads(out)["threshold"] == pytest.approx(want, abs=1e-5)
    # An acceptance whose only root in [0, 1/2] is 1/2 itself is accepted:
    # e(p) = 10 p^2 / (1 - 2p) crosses p at 1/12.
    cfg.write_text("[C]\nm = 5\nn = 1\nacceptance = 1 -2\nundetected = 0 0 10\n")
    code, out = run_cli(["threshold", "--routine", "C", "--routines", str(cfg)])
    assert code == EXIT_OK
    assert json.loads(out)["threshold"] == pytest.approx(1 / 12, abs=1e-5)
    # With e(p) = p^2 there is no threshold; at p0 above B's, no 15-to-1-only
    # sequence reaches the plan's error, so there is no improvement factor.
    cfg.write_text("[D]\nm = 3\nn = 1\nacceptance = 1\nundetected = 0 0 1\n")
    code, out = run_cli(["plan", "--p0", "0.2", "--eg", "1e-3", "--routines", str(cfg)])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["sequence"] == "DDD" and payload["improvement_factor"] is None
    # e(p) = p / (1 - 2p) never improves: every round of it diverges, so at a
    # p0 above A's and B's thresholds nothing is feasible.
    cfg.write_text("[W]\nm = 2\nn = 1\nacceptance = 1 -2\nundetected = 0 1\n")
    code, out = run_cli(["plan", "--p0", "0.3", "--eg", "1e-3", "--routines", str(cfg)])
    assert code == EXIT_OK
    assert json.loads(out) == {"feasible": False, "goal_error": 1e-3, "best_error_achieved": None}


def test_verify_identities_all_pass():
    code, out = run_cli(["verify-identities"])
    assert code == EXIT_OK
    lines = [l for l in out.strip().split("\n") if l]
    assert len(lines) == 15
    assert all(l.startswith("PASS") for l in lines)
