"""Every demo runs to the end in a fresh interpreter, on this copy of the
package, without a word on stderr (the demos assert what they print)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    child = subprocess.run([sys.executable, str(demo)], capture_output=True,
                           env=env, cwd=ROOT, timeout=120)
    assert child.returncode == 0, child.stderr.decode(errors="replace")
    assert child.stderr == b""
    assert child.stdout
