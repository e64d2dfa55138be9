"""The repository's pytest settings report a failing hypothesis test as a
failure and go on with the run.

``filterwarnings`` turns warnings into errors.  When a ``@given`` test
fails, hypothesis may import libcst to print a patch for the failing
example, and that import warns that ``mypy_extensions.TypedDict`` is
deprecated; as an error inside pytest's report hook it would end the run
with INTERNALERROR and leave every later test unrun.
"""

import subprocess
import sys
from pathlib import Path

from helpers import child_env

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(probe)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env=child_env(),
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed")
