"""Golden-file and exit-code tests for every CLI sub-command."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from c4distill import exactalg
from c4distill.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
COMMANDS = (
    "polynomials", "threshold", "curve", "table1", "plan",
    "simulate", "pipeline", "verify-identities", "dump-circuit",
)

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


def test_plan_goal_options_are_exclusive(capsys):
    """A goal is --eg or --R, never both; either alone plans as before."""
    code, out = run_cli(["plan", "--p0", "0.01", "--eg", "1e-5", "--R", "1e20"])
    assert code == EXIT_USAGE and out == ""
    assert capsys.readouterr().err.startswith("usage error:")
    with open(os.path.join(GOLDEN_DIR, "plan.json")) as fh:
        golden = fh.read()
    # 1 / (10 * 1e4) is the float 1e-5, so --R 1e4 asks for the golden's goal.
    for goal in (["--eg", "1e-5"], ["--R", "1e4"]):
        assert run_cli(["plan", "--p0", "0.01"] + goal) == (EXIT_OK, golden), goal


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
    # table1 compares the builtin routines alone, so it reads none.
    for argv in (
        ["dump-circuit"],
        ["simulate", "--p", "0.05", "--trials", "10"],
        ["polynomials"],
        ["table1"],
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
        # A round may not lower a plan's cost m / (n a(p)): an acceptance
        # above m/n at p = 0, or past p = 1/10, would.
        "m = 1\nn = 2\nacceptance = 1\nundetected = 0 0 1\n",
        "m = 2\nn = 1\nacceptance = 1 10\nundetected = 0 0 1\n",
        # An m/n beyond float range, and one so small that it is below any
        # acceptance.
        f"m = 1{'0' * 400}\nn = 1\nacceptance = 1\nundetected = 0 0 1\n",
        f"m = 1\nn = 1{'0' * 400}\nacceptance = 1\nundetected = 0 0 1\n",
        # e(p) = p^2 (40 (1 - 4p)^2 + 1/10) equals p three times in (0, 1/2),
        # so no one threshold bounds where its rounds improve.
        "m = 5\nn = 1\nacceptance = 1\nundetected = 0 0 401/10 -320 640\n",
        # e(p) = 3p/2 - 3p^2 is above p below 1/6 and below it above, so a
        # threshold at 1/6 would allow its rounds exactly where they worsen.
        "m = 2\nn = 1\nacceptance = 1\nundetected = 0 3/2 -3\n",
        # An undetected weight above the acceptance: from p0 = 0.45 a round
        # would give an output error of 2.52.
        "m = 5\nn = 1\nacceptance = 1 -3/2\nundetected = 0 0 0 0 20\n",
        # e(p) = 3p^2 crosses p at 1/3, above the threshold bracket: it would
        # get no threshold, and a plan from p0 = 0.4 would reach 0.48.
        "m = 3\nn = 1\nacceptance = 1\nundetected = 0 0 3\n",
    ):
        cfg.write_text("[C]\n" + body)
        for argv in (["threshold", "--routine", "C"], ["plan", "--p0", "0.01", "--eg", "1e-10"]):
            assert run_cli(argv + ["--routines", str(cfg)])[0] == EXIT_USAGE, (body, argv)
    # A sequence names one routine per character, so [CC] would read as C, C.
    cfg.write_text("[CC]\nm = 5\nn = 1\nacceptance = 1 -5 10\nundetected = 0 0 10\n")
    for argv in (["threshold", "--routine", "CC"], ["plan", "--p0", "0.01", "--eg", "1e-10"]):
        assert run_cli(argv + ["--routines", str(cfg)])[0] == EXIT_USAGE, argv
    # The routines a config defines are extra ones: [A] or [B] would replace a
    # builtin, and every improvement factor compares against the builtin B.
    for name in ("A", "B"):
        cfg.write_text(f"[{name}]\nm = 2\nn = 1\nacceptance = 1\nundetected = 0 0 1\n")
        for argv in (["plan", "--p0", "0.01", "--eg", "1e-5"], ["threshold", "--routine", name]):
            assert run_cli(argv + ["--routines", str(cfg)])[0] == EXIT_USAGE, (name, argv)
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


def test_wide_regionplot_crossings_are_those_of_the_stripped_pairs():
    """A pair of sequences that end with the same rounds crosses where the
    pair without them does.  Unstripped, the deep sequences' float errors
    reached 1/2 on this grid (AAAA at p = 0.2 gave 0.5000000000000023), and
    the export printed crossings no monotone round allows."""
    from c4distill.planner import TABLE_SEQUENCES

    code, out = run_cli(["curve", "--figure", "regionplot", "--pmin", "0.002", "--pmax", "0.3",
                         "--points", "8", "--boundaries"])
    assert code == EXIT_OK
    crossings = {}
    for row in out.split("\n\n")[1].splitlines()[1:]:
        a, b, p = row.split(",")
        crossings.setdefault((a, b), []).append(p)
    stripped = set()
    for a, b in zip(TABLE_SEQUENCES, TABLE_SEQUENCES[1:]):
        pair = a, b
        while len(a) > 1 and len(b) > 1 and a[-1] == b[-1]:
            a, b = a[:-1], b[:-1]
        stripped.add((a, b))
        assert crossings.get(pair) == crossings.get((a, b)), pair
    assert stripped == {("A", "B"), ("B", "AA"), ("AAA", "BB"), ("BB", "BAA")}
    assert crossings[("B", "AA")] == ["3.95644e-02"]
    assert ("AAAA", "BBA") not in crossings


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


def _exits_0_or_1(argv):
    """Runs argv, dropping empty arguments: exit 0, or exit 1 with a usage message."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([arg for arg in argv if arg])
    assert code in (EXIT_OK, EXIT_USAGE), (argv, err.getvalue())
    assert (code == EXIT_USAGE) == err.getvalue().startswith("usage error:"), argv


@settings(max_examples=100)
@given(_planner_argv)
def test_planner_commands_exit_0_or_1(argv):
    _exits_0_or_1(argv)


# Whole numbers, the edge of numpy's int64 counts and literals the count
# parser refuses.  A state count stays small, since a pipeline's work grows
# with it; a trial count costs the same at any size.
_literals = st.sampled_from(["1e30", str(1 << 63), "inf", "nan", "2.5", "0x10", "1_000", "-0", "1e3"])
_seeds = st.builds("--seed={}".format, st.one_of(st.integers(0, 99), st.integers(-2, 2**64 + 2), st.just("1.5")))
_monte_carlo_argv = st.one_of(
    st.tuples(
        st.just("simulate"),
        st.builds("--p={!r}".format, _floats),
        st.builds("--trials={}".format, st.one_of(st.integers(-3, (1 << 63) + 3), _literals)),
        _seeds,
    ),
    st.tuples(
        st.just("pipeline"),
        st.builds("--k0={}".format, st.one_of(st.integers(-3, 10**5), _literals)),
        st.builds("--seq={}".format, st.one_of(st.text("AB", min_size=1, max_size=5), st.text("ABa", max_size=3))),
        st.builds("--p0={!r}".format, _floats),
        _seeds,
        st.sampled_from(["--grouping=blocked", "--grouping=instance", "--grouping=pairs", ""]),
    ),
)


@settings(max_examples=100)
@given(_monte_carlo_argv)
def test_monte_carlo_commands_exit_0_or_1(argv):
    _exits_0_or_1(argv)


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
    broken = ps._replace(marginal=exactalg.ExactPolynomial.make(marginal))
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
    cfg.write_text("[C]\nm = 5\nn = 1\nacceptance = 1 -5 10\nundetected = 0 0 5/2\n")
    code, out = run_cli(["threshold", "--routine", "C", "--routines", str(cfg)])
    assert code == EXIT_OK
    # e(p) = 5 p^2 / (2 - 10p + 20p^2): fixed point at (15 - sqrt(65)) / 40.
    want = (15 - 65**0.5) / 40
    assert json.loads(out)["threshold"] == pytest.approx(want, abs=1e-5)
    # An acceptance whose only root in [0, 1/2] is 1/2 itself is accepted,
    # with an undetected weight 8 p^2 (1 - p) (1 - 2p) that vanishes there
    # too: e(p) = 8 p^2 (1 - p) crosses p at (2 - sqrt(2)) / 4.
    cfg.write_text("[C]\nm = 5\nn = 1\nacceptance = 1 -2\nundetected = 0 0 8 -24 16\n")
    code, out = run_cli(["threshold", "--routine", "C", "--routines", str(cfg)])
    assert code == EXIT_OK
    assert json.loads(out)["threshold"] == pytest.approx((2 - 2**0.5) / 4, abs=1e-5)
    # With e(p) = p^2 there is no threshold; at p0 above B's, no 15-to-1-only
    # sequence reaches the plan's error, so there is no improvement factor.
    cfg.write_text("[D]\nm = 3\nn = 1\nacceptance = 1\nundetected = 0 0 1\n")
    code, out = run_cli(["plan", "--p0", "0.2", "--eg", "1e-3", "--routines", str(cfg)])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["sequence"] == "DDD" and payload["improvement_factor"] is None
    # e(p) = 2p never improves: every round of it diverges, so at a p0 above
    # A's and B's thresholds nothing is feasible.
    cfg.write_text("[W]\nm = 2\nn = 1\nacceptance = 1\nundetected = 0 2\n")
    code, out = run_cli(["plan", "--p0", "0.3", "--eg", "1e-3", "--routines", str(cfg)])
    assert code == EXIT_OK
    assert json.loads(out) == {"feasible": False, "goal_error": 1e-3, "best_error_achieved": None}
    # A round that keeps the cost (m = n = 1, acceptance 1) is accepted; of
    # the plans that cost 1, the one of fewest rounds wins.
    cfg.write_text("[T]\nm = 1\nn = 1\nacceptance = 1\nundetected = 0 0 1\n")
    code, out = run_cli(["plan", "--p0", "0.01", "--eg", "1e-5", "--routines", str(cfg)])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert (payload["sequence"], payload["final_cost"]) == ("TT", 1.0)


def test_builtin_figures_ignore_routines(tmp_path):
    """both-thresh and regionplot plot the builtin routines alone: a valid
    --routines file is read and checked, and changes no byte of them."""
    cfg = tmp_path / "r.cfg"
    cfg.write_text("[C]\nm = 5\nn = 1\nacceptance = 1 -5 10\nundetected = 0 0 5/2\n")
    for fname in ("curve_both_thresh.csv", "curve_regionplot.csv"):
        argv = dict(GOLDEN_CASES)[fname]
        code, out = run_cli(argv)
        assert code == EXIT_OK
        assert run_cli(argv + ["--routines", str(cfg)]) == (code, out), fname


def _poly(head):
    """A polynomial of at most 8 coefficients, small ones or float literals,
    whose constant term is drawn from ``head``, as a config writes it."""
    small = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 10]))
    return st.builds(
        lambda c0, rest: " ".join(str(c) for c in [c0, *rest]),
        st.sampled_from(head),
        st.lists(st.one_of(small, st.sampled_from(["1e300", "-1e300", "1e-300", "-1e-300"])), max_size=7),
    )


# Its round from p0 = 0.45 would give an error of 2.52, and a second round
# from there a negative acceptance, error and cost; the loader refuses it.
UNBOUNDED_ERROR = "[C]\nm = 5\nn = 1\nacceptance = 1 -3/2\nundetected = 0 0 0 0 20\n"


@example(config=UNBOUNDED_ERROR, p0=0.45, eg=1e-3)
@given(
    config=st.builds(
        "[C]\nm = {}\nn = {}\nacceptance = {}\nundetected = {}\n".format,
        st.integers(1, 20),
        st.integers(1, 3),
        _poly(["1", "1/2"]),
        _poly(["0", "1/100"]),
    ),
    p0=st.sampled_from([0.01, 0.1, 0.3, 0.45]),
    eg=st.sampled_from([1e-3, 1e-8]),
)
def test_routine_configs_through_planner_commands(tmp_path_factory, config, p0, eg):
    """Whatever a config holds, each command that reads it exits 0, or 1 with
    the usage-error prefix, and every plan it prints runs each round from
    below 1/2 on a positive acceptance, at a cost that starts at 1 or more
    and never falls."""
    cfg = tmp_path_factory.getbasetemp() / "generated.cfg"
    cfg.write_text(config)
    for argv in (
        ["threshold", "--routine", "C"],
        ["plan", "--p0", repr(p0), "--eg", repr(eg), "--max-rounds", "3"],
        ["curve", "--figure", "distplot", "--points", "3"],
    ):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run_cli(argv + ["--routines", str(cfg)])
        assert code in (EXIT_OK, EXIT_USAGE), (argv, err.getvalue())
        assert (code == EXIT_USAGE) == err.getvalue().startswith("usage error:"), argv
        rounds = json.loads(out).get("rounds") if code == EXIT_OK and argv[0] == "plan" else None
        if rounds:
            costs = [r["cost"] for r in rounds]
            assert all(r["p_in"] < 0.5 and r["acceptance"] > 0 for r in rounds), out
            assert costs[0] >= 1 and costs == sorted(costs), out


def _fresh_process(argv) -> tuple[int, str]:
    """Exit code and stdout of ``c4distill argv`` in a new interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(exactalg.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "c4distill.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    return out.returncode, out.stdout


def _help(parse_args, argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as exit_:
        parse_args(argv + ["--help"])
    assert exit_.value.code == 0
    return buf.getvalue()


def test_reused_parser_leaks_nothing_between_calls(tmp_path):
    """main() parses with one parser per process; after a usage error and a
    run with --routines, each later call prints what it prints alone."""
    from c4distill.cli import build_parser

    assert build_parser() is build_parser()
    cfg = tmp_path / "r.cfg"
    cfg.write_text("[T]\nm = 1\nn = 1\nacceptance = 1\nundetected = 0 0 1\n")
    custom = ["plan", "--p0", "0.01", "--eg", "1e-5", "--routines", str(cfg)]
    # Both goals: argparse refuses the pair in the middle of the parse.
    assert run_cli(["plan", "--p0", "0.01", "--eg", "1e-5", "--R", "1e4"])[0] == EXIT_USAGE
    assert run_cli(custom) == _fresh_process(custom)
    for fname in ("plan.json", "curve_distplot.csv"):
        with open(os.path.join(GOLDEN_DIR, fname)) as fh:
            assert run_cli(dict(GOLDEN_CASES)[fname]) == (EXIT_OK, fh.read()), fname
    # Help is the text of a parser built for the call, as before the reuse.
    for argv in [[]] + [[name] for name in COMMANDS]:
        assert _help(main, argv) == _help(build_parser.__wrapped__().parse_args, argv), argv


def test_plan_answer_needs_no_bound_on_rounds():
    """The search stops at its answer, so a bound far past it changes
    neither the output nor, beyond a few steps, the work."""
    argv = ["plan", "--p0", "0.01", "--eg", "1e-5", "--max-rounds"]
    assert run_cli(argv + ["100000"]) == run_cli(argv + ["6"])


def test_verify_identities_all_pass():
    code, out = run_cli(["verify-identities"])
    assert code == EXIT_OK
    lines = [l for l in out.strip().split("\n") if l]
    assert len(lines) == 15
    assert all(l.startswith("PASS") for l in lines)


def test_verify_identities_verbose_prints_each_distance():
    """--verbose appends each identity's distance to the default line, which
    stays the golden's."""
    from c4distill.identities import IDENTITIES, TOL

    code, out = run_cli(["verify-identities", "--verbose"])
    assert code == EXIT_OK
    with open(os.path.join(GOLDEN_DIR, "verify_identities.txt")) as f:
        text = f.read()
    golden = text.splitlines()
    lines = out.splitlines()
    assert len(lines) == len(golden) == len(IDENTITIES) == 15
    for line, want, name in zip(lines, golden, IDENTITIES):
        head, _, detail = line.rpartition(" ")
        assert head == want and want.endswith(f" {name}")
        assert detail.startswith("(") and detail.endswith(")")
        assert float(detail[1:-1]) <= TOL, line
    assert run_cli(["verify-identities"]) == (EXIT_OK, text)


def test_counts_accept_integral_float_literals(capsys):
    """--k0 and --trials read a count as the documents write it (1e9), and a
    count written either way gives byte-identical output; a fractional,
    infinite, overflowing or malformed count is a usage error."""
    argv = ["pipeline", "--seq", "AA", "--p0", "0.02", "--seed", "5", "--k0"]
    code, out = run_cli(argv + ["4000000"])
    assert code == EXIT_OK and run_cli(argv + ["4e6"]) == (code, out)
    argv = ["simulate", "--p", "0.05", "--seed", "5", "--trials"]
    code, out = run_cli(argv + ["20000"])
    assert code == EXIT_OK and run_cli(argv + ["2e4"]) == run_cli(argv + ["2.0E+4"]) == (code, out)
    for bad in ("1.5", "inf", "nan", "1e400", "-inf", "1e-3", "abc", "4/2", ""):
        for argv in (
            ["pipeline", "--seq", "AA", "--p0", "0.02", f"--k0={bad}"],
            ["simulate", "--p", "0.05", f"--trials={bad}"],
        ):
            capsys.readouterr()
            assert run_cli(argv)[0] == EXIT_USAGE, argv
            assert f"{bad!r} is not a finite whole number" in capsys.readouterr().err, argv


def test_counts_past_their_range_are_refused_at_once(capsys):
    """numpy counts trials and states in int64, and a grid's step must
    resolve its points as floats: past either, the command exits 1 with a
    message before any work, never 3 or after a long run."""
    too_fine = ["--points", str(10**30)]
    for argv in (
        ["simulate", "--p", "0.05", "--trials", "1e30"],
        ["simulate", "--p", "0.05", "--trials", str(1 << 63)],
        ["pipeline", "--seq", "A", "--p0", "0.05", "--k0", "1e30"],
        ["pipeline", "--seq", "A", "--p0", "0.05", "--k0", str(1 << 63)],
        ["curve", "--figure", "both-thresh", "--pmin", "0.02", "--pmax", "0.05"] + too_fine,
        ["curve", "--figure", "distplot"] + too_fine,
        ["curve", "--figure", "regionplot"] + too_fine,
    ):
        capsys.readouterr()
        start = time.perf_counter()
        assert run_cli(argv)[0] == EXIT_USAGE, argv
        assert time.perf_counter() - start < 1, argv
        assert capsys.readouterr().err.startswith("usage error:"), argv
    code, out = run_cli(["simulate", "--p", "0.05", "--trials", str((1 << 63) - 1), "--seed", "7"])
    assert code == EXIT_OK and json.loads(out)["trials"] == (1 << 63) - 1
