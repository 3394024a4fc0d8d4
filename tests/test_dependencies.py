"""The package's own dependencies."""

import os
import subprocess
import sys

import c4distill


def test_modules_import_without_mpmath():
    src = os.path.dirname(os.path.dirname(os.path.abspath(c4distill.__file__)))
    code = (
        "import sys\n"
        "import c4distill.cli, c4distill.planner, c4distill.montecarlo, c4distill.enumeration\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
