"""The package's own dependencies."""

import ast
import os
import subprocess
import sys

import c4distill


def _loaded(modules: str, package: str, then: str = "") -> str:
    """Modules of ``package`` loaded by a fresh interpreter that imports
    the given c4distill modules and then runs the statement ``then``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(c4distill.__file__)))
    code = (
        "import sys\n"
        f"import {modules}\n"
        f"{then}\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_modules_import_without_mpmath():
    modules = "c4distill.cli, c4distill.planner, c4distill.montecarlo, c4distill.enumeration"
    assert _loaded(modules, "mpmath") == "[]"


def test_planner_path_imports_without_numpy():
    # Planner-only commands never pay for a numpy import.
    modules = "c4distill.cli, c4distill.planner, c4distill.routines, c4distill.enumeration"
    assert _loaded(modules, "numpy") == "[]"


def test_setup_imports_without_configparser():
    # Only a --routines file needs the config parser; setup never loads it.
    assert _loaded("c4distill.montecarlo, c4distill.routines", "configparser") == "[]"


def test_modules_import_without_dataclasses():
    # Records are NamedTuples and slotted classes: no module generates code
    # for its classes when it is imported.
    modules = "c4distill.cli, c4distill.identities, c4distill.montecarlo, c4distill.routines, c4distill.statevec"
    assert _loaded(modules, "dataclasses") == "[]"


def test_montecarlo_imports_without_numpy_random():
    # Its streams' seed-sequence class is made on the first stream, so that
    # set-up does not load the generators.
    assert "numpy.random" not in ast.literal_eval(_loaded("c4distill.montecarlo", "numpy"))


def test_setup_loads_only_what_it_runs():
    # Set-up builds the routine models and the verdict table; the planner,
    # the oracle, the identities and the CLI are compiled only where used.
    setup = "c4distill.routines.builtin_models(); c4distill.montecarlo.verdict_table()"
    loaded = ast.literal_eval(_loaded("c4distill.montecarlo, c4distill.routines", "c4distill", setup))
    assert loaded == [
        "c4distill",
        "c4distill.circuits",
        "c4distill.enumeration",
        "c4distill.exactalg",
        "c4distill.montecarlo",
        "c4distill.pauli",
        "c4distill.routines",
    ]


def test_dump_circuit_loads_only_the_circuit():
    # The CLI imports each command's modules when the command runs.
    dump = (
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    c4distill.cli.main(['dump-circuit'])"
    )
    loaded = ast.literal_eval(_loaded("c4distill.cli", "c4distill", dump))
    assert loaded == ["c4distill", "c4distill.circuits", "c4distill.cli", "c4distill.pauli"]
