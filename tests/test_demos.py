"""Each demo runs to the end from the repository root, as its docstring
says to run it; so do the README's command lines and its library tour."""

import ast
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import stringalg
from stringalg import cli

SRC = Path(stringalg.__file__).resolve().parents[1]
ROOT = SRC.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


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


def _readme_block(heading, fence):
    """The first fenced block under the README heading."""
    section = README.read_text().split(heading, 1)[1]
    start = section.index(fence) + len(fence)
    return section[start : section.index("```", start)].strip("\n")


def test_readme_command_lines_exit_zero(monkeypatch, capsys):
    lines = _readme_block("## Command line", "```sh").splitlines()
    monkeypatch.chdir(ROOT)
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "stringalg", line
        assert cli.main(argv[1:]) == 0, (line, capsys.readouterr().err)
    assert len(lines) == 11


def test_readme_library_tour_gives_its_commented_values():
    """The tour runs, and each line whose comment starts with a literal
    (up to a colon) evaluates to it."""
    tour = _readme_block("## Library tour", "```python")
    names = {}
    exec(tour, names)
    checked = {}
    for line in tour.splitlines():
        code, _, comment = line.partition("#")
        try:
            expected = ast.literal_eval(comment.split(":")[0].strip())
        except (ValueError, SyntaxError):
            continue
        checked[code.strip()] = eval(code, names) == expected
    assert checked == {
        "classify(p).verdict": True,
        "conjecture_scan(p, 46, min_len=37).count_both_ge2": True,
    }
