"""Each demo runs to the end from the repository root, as its docstring
says to run it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import stringalg

SRC = Path(stringalg.__file__).resolve().parents[1]
ROOT = SRC.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout
