"""A failing property under the suite's warning filters still shows its example."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""


@pytest.mark.parametrize("libcst", ["present", "blocked"])
def test_failing_property_prints_falsifying_example(tmp_path, libcst):
    # The suite's conftest and pyproject settings, around a property that must fail.
    shutil.copy(TESTS / "conftest.py", tmp_path)
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    path = [str(ROOT / "src")]
    if libcst == "blocked":
        # pytest and hypothesis alone, as `pip install -e .[test]` installs them
        blocker = tmp_path / "blocker"
        blocker.mkdir()
        (blocker / "libcst.py").write_text('raise ImportError("libcst is not installed")\n')
        path.insert(0, str(blocker))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
