"""The suite's own pytest settings."""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PYPROJECT = os.path.join(ROOT, "pyproject.toml")


def test_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    # Hypothesis reports a falsifying example through libcst, whose import
    # warns; under the warnings-as-errors setting that must not abort the run.
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_sample.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n"
    )
    # The inner session loads only the Hypothesis plugin, not every
    # installed entry point.
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "hypothesis.extra.pytestplugin",
         "test_sample.py"],
        cwd=tmp_path,
        env=dict(os.environ, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1"),
        capture_output=True,
        text=True,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "Falsifying example" in out.stdout
    assert "1 failed, 1 passed" in out.stdout
