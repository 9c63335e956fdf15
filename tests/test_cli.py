import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stringalg import cli
from stringalg.cli import main
from stringalg.errors import SearchBudgetExceeded

SKEW6 = "fixtures/skew6.alg"
THIRTEEN = "fixtures/thirteen.alg"
NINE = "fixtures/nine.alg"
SQUARE = "fixtures/commsquare.alg"

SRC = Path(cli.__file__).resolve().parents[1]
ROOT = SRC.parent
ENV = dict(os.environ, PYTHONPATH=str(SRC))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_skew6_json(capsys):
    code, out, _ = run(capsys, "classify", SKEW6, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["verdict"] == "NotLaura"
    assert payload["doze"]["rho1"] == ["alpha", "beta1"]
    assert payload["doze"]["rho2"] == ["gamma1", "delta"]


def test_classify_thirteen_text(capsys):
    code, out, _ = run(capsys, "classify", THIRTEEN)
    assert code == 0
    assert "StrictLauraOrTilted" in out


def test_validate_nine_reports_beta1(capsys):
    code, out, _ = run(capsys, "validate", NINE)
    assert code == 0
    assert "string algebra: no" in out
    assert "beta1" in out


def test_validate_nine_json(capsys):
    code, out, _ = run(capsys, "validate", NINE, "--json")
    payload = json.loads(out)
    assert payload["string"] is False
    sites = {v["site"] for v in payload["violations"]["string"]}
    assert "beta1" in sites


def test_doze_commands_agree(capsys):
    code1, out1, _ = run(capsys, "doze", SKEW6, "--json")
    code2, out2, _ = run(capsys, "oracle-doze", SKEW6, "--max-len", "10", "--json")
    assert code1 == code2 == 0
    w1 = json.loads(out1)["doze"]
    w2 = json.loads(out2)["doze"]
    assert w1["rho1"] == w2["rho1"] == ["alpha", "beta1"]


def test_bands_thirteen(capsys):
    code, out, _ = run(capsys, "bands", THIRTEEN)
    assert code == 0
    assert out.splitlines() == [
        "band: 2: rho1 rho2^-1",
        "band: 4: rho3 rho4^-1",
        "band: 11: rho5 rho6^-1",
        "band: 13: rho7 rho8^-1",
    ]


def test_strings_command(capsys):
    code, out, _ = run(capsys, "strings", SKEW6, "--max-len", "1")
    assert code == 0
    assert len(out.splitlines()) == 12


def test_decompose_thirteen_json(capsys):
    code, out, _ = run(capsys, "decompose", THIRTEEN, "--json")
    payload = json.loads(out)
    assert [p["objects"] for p in payload["a_parts"]] == [
        ["10", "11", "8"],
        ["12", "13", "9"],
    ]
    assert payload["middle"]["objects"] == ["5", "6", "7", "8", "9"]


def test_check_structure_thirteen(capsys):
    code, out, _ = run(capsys, "check-structure", THIRTEEN, "--json")
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert set(payload["checks"]) == {
        "full",
        "no_entry",
        "convex",
        "unique_cycle",
        "middle_finite",
        "sides_double_zero_free",
        "support_cover",
    }


# Golden stdout, recorded before the structure checks and the double-zero
# decisions moved onto the analysed string automaton; they must keep these
# bytes.  Inputs that are not StrictLauraOrTilted print nothing (exit 2).
THIRTEEN_STRUCTURE = {
    (): (
        "full: pass\nno_entry: pass\nconvex: pass\nunique_cycle: pass\n"
        "middle_finite: pass\nsides_double_zero_free: pass\nsupport_cover: pass\n"
    ),
    ("--json",): (
        '{"algebra": "thirteen", "all_pass": true, "checks": {"convex": true, '
        '"full": true, "middle_finite": true, "no_entry": true, '
        '"sides_double_zero_free": true, "support_cover": true, "unique_cycle": true}, '
        '"command": "check-structure", "details": [], "schema": 1}\n'
    ),
}
CLASSIFY_JSON = {
    SKEW6: (
        0,
        '{"algebra": "skew6", "bands": [], "command": "classify", "doze": '
        '{"band": "x4: gamma1 gamma2^-1 beta2^-1 beta1", "rho1": ["alpha", "beta1"], '
        '"rho2": ["gamma1", "delta"], "w1": "x4:", "w3": "x4:"}, "notes": '
        '["band census omitted: only complete without interlaced double-zeros"], '
        '"schema": 1, "verdict": "NotLaura"}\n',
    ),
    THIRTEEN: (
        0,
        '{"algebra": "thirteen", "bands": [{"band": "band: 2: rho1 rho2^-1", '
        '"entering": ["alpha1"], "exiting": []}, {"band": "band: 4: rho3 rho4^-1", '
        '"entering": ["alpha2"], "exiting": []}, {"band": "band: 11: rho5 rho6^-1", '
        '"entering": [], "exiting": ["delta1"]}, {"band": "band: 13: rho7 rho8^-1", '
        '"entering": [], "exiting": ["delta2"]}], "command": "classify", "doze": null, '
        '"notes": [], "schema": 1, "verdict": "StrictLauraOrTilted"}\n',
    ),
    NINE: (2, ""),
    SQUARE: (
        0,
        '{"algebra": "commsquare", "bands": [], "command": "classify", "doze": null, '
        '"notes": ["special biserial input: verdict computed on the J-quotient, where '
        'being laura is equivalent"], "schema": 1, "verdict": "FiniteType"}\n',
    ),
}


@pytest.mark.parametrize("path", [SKEW6, THIRTEEN, NINE, SQUARE])
@pytest.mark.parametrize("cover", [(), ("--cover-len", "0"), ("--cover-len", "10")])
@pytest.mark.parametrize("form", [(), ("--json",)])
def test_check_structure_golden_stdout(capsys, path, cover, form):
    code, out, _ = run(capsys, "check-structure", path, *cover, *form)
    if path == THIRTEEN:
        assert (code, out) == (0, THIRTEEN_STRUCTURE[form])
    else:
        assert (code, out) == (2, "")


@pytest.mark.parametrize("path", [SKEW6, THIRTEEN, NINE, SQUARE])
def test_classify_golden_stdout(capsys, path):
    code, out, _ = run(capsys, "classify", path, "--json")
    assert (code, out) == CLASSIFY_JSON[path]


# SHA-256 of the stdout, stderr and exit codes of `module` and `dozed`,
# recorded before string modules moved out of the matrix layer.  `module`
# runs once on every canonical string of length <= 6 and once on its
# inverse; `dozed` runs at powers 0..4.
MODULE_SHA256 = {
    (SKEW6, ()): "69bff19422818ea15b0b9fe3c5b3878d30f29c69d5be0182c51426eaa6f6c9fa",
    (SKEW6, ("--json",)): "be620c61fec8c98ed7810ea04fe5c56f37a9bd659ee8c6c440361cb3c12de5c0",
    (THIRTEEN, ()): "b34e899e2f68553bee2cb4a472e751840a040c06a9b8c08aca8828ac10e9ea10",
    (THIRTEEN, ("--json",)): "e8f34a188efcc0513af644d2bf775b4c89273f105913c9222fdbc5b48d76c472",
}
DOZED_SHA256 = {
    (): "1c4b55eb4f71a8414620b8754905b8320b856fa720b24f439dfe8f983312b2c8",
    ("--json",): "a66419845cd8cdb45f69804f0e6a81233ce4e84f69eb0eb6b84d1df17d6fe656",
}


def _transcript(capsys, runs):
    parts = []
    for argv in runs:
        code, out, err = run(capsys, *argv)
        parts.append(f"{code}\n{out}{err}")
    return hashlib.sha256("".join(parts).encode()).hexdigest()


@pytest.mark.parametrize(
    "path,form",
    sorted(MODULE_SHA256),
    ids=[f"{Path(path).stem}-{'json' if form else 'text'}" for path, form in sorted(MODULE_SHA256)],
)
def test_module_golden_stdout(capsys, path, form):
    from stringalg import textio
    from stringalg.automaton import strings_of_length
    from stringalg.walks import inverse_walk, serialize_walk

    _, p = textio.parse_file(path)
    runs = [
        ("module", path, "--string", serialize_walk(v), *form)
        for w in strings_of_length(p, range(7))
        for v in (w, inverse_walk(p.quiver, w))
    ]
    assert len(runs) == {SKEW6: 64, THIRTEEN: 186}[path]
    assert _transcript(capsys, runs) == MODULE_SHA256[path, form]


@pytest.mark.parametrize("form", sorted(DOZED_SHA256), ids=["text", "json"])
def test_dozed_golden_stdout(capsys, form):
    runs = [("dozed", SKEW6, "--n", str(k), *form) for k in range(5)]
    assert _transcript(capsys, runs) == DOZED_SHA256[form]


def test_module_command_dims(capsys):
    code, out, _ = run(
        capsys,
        "module",
        SKEW6,
        "--string",
        "x4: gamma1 gamma2^-1 beta2^-1 beta1",
        "--dims",
        "--json",
    )
    payload = json.loads(out)
    assert payload["total"] == 5
    assert payload["dims"] == {"x2": 1, "x3": 1, "x4": 2, "x5": 1}
    assert "maps" not in payload


def test_module_command_full(capsys):
    code, out, _ = run(
        capsys, "module", SKEW6, "--string", "x2: beta1", "--json"
    )
    payload = json.loads(out)
    assert payload["maps"] == {"beta1": [[0, 0, 1]]}


def test_dozed_command(capsys):
    code, out, _ = run(capsys, "dozed", SKEW6, "--n", "1", "--json")
    payload = json.loads(out)
    assert payload["total"] == 5


def test_dozed_without_witness_is_precondition_error(capsys):
    code, _, err = run(capsys, "dozed", THIRTEEN, "--n", "1")
    assert code == 2
    assert "precondition" in err


def test_scan_streams_json_lines(capsys):
    code, out, _ = run(capsys, "scan", SKEW6, "--max-len", "4", "--json")
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["count_both_ge2"] == len(lines) - 1
    for line in lines[:-1]:
        assert "witness" in json.loads(line)


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra x\nvertex 1\narrow a 1 -> 1\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "error" in err


def test_semantic_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra x\nvertex 1 2\narrow a : 1 -> 2\narrow b : 2 -> 1\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_unreadable_file_exit_code(tmp_path, capsys, kind):
    path = tmp_path / "algebra.alg"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b"algebra x\nvertex \xff\n")
    code, out, err = run(capsys, "classify", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: ")
    assert "Traceback" not in err


# The known anchor-choice defect of `decompose` (special biserial corpus,
# seed 20260809, instance 99): the side part of one band differs between
# its eligible anchors.
ANCHOR_DEFECT = """algebra sb99
vertex v0 v1 v2 v3 v4 v5 v6
arrow a0 : v0 -> v6
arrow a1 : v0 -> v6
arrow a2 : v4 -> v0
arrow a3 : v2 -> v4
arrow a4 : v1 -> v3
arrow a5 : v2 -> v0
zero a2 a0
zero a5 a1
comm a3 a2 a1 = a5 a0
"""


def test_corrupt_presentation_exit_code(tmp_path, capsys):
    path = tmp_path / "sb99.alg"
    path.write_text(ANCHOR_DEFECT)
    code, out, err = run(capsys, "decompose", str(path))
    assert code == 3
    assert out == ""
    assert err == "analysis failed: side part depends on the anchor choice\n"


def test_search_budget_exit_code(monkeypatch, capsys):
    def exhausted(p, max_len, node_budget=None):
        raise SearchBudgetExceeded("double-zero enumeration budget exhausted")

    monkeypatch.setattr(cli, "find_doze_bruteforce", exhausted)
    code, out, err = run(capsys, "oracle-doze", SKEW6, "--max-len", "10")
    assert code == 3
    assert out == ""
    assert "budget exhausted" in err


def test_band_census_cap_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(importlib.import_module("stringalg.automaton"), "_CENSUS_CAP", 2)
    code, out, err = run(capsys, "bands", THIRTEEN)
    assert code == 3
    assert out == ""
    assert err == "analysis failed: band census exceeded the cycle cap\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("strings", SKEW6, "--max-len", "6"),
        ("scan", SKEW6, "--max-len", "6"),
        ("bands", SKEW6, "--max-len", "6"),
    ],
)
def test_walk_cap_exit_code(monkeypatch, capsys, argv):
    monkeypatch.setattr(importlib.import_module("stringalg.automaton"), "_WALK_CAP", 10)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == "analysis failed: string enumeration exceeded the walk cap\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("dozed", SKEW6, "--n", "-1"),
        ("strings", SKEW6, "--max-len", "-1"),
        ("bands", THIRTEEN, "--max-len", "-3"),
        ("scan", SKEW6, "--max-len", "-1"),
        ("oracle-doze", SKEW6, "--max-len", "-1"),
        ("check-structure", THIRTEEN, "--cover-len", "-2"),
    ],
)
def test_negative_length_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "must be >= 0" in captured.err


def test_decompose_not_laura_exit_code(capsys):
    code, _, err = run(capsys, "decompose", SKEW6)
    assert code == 2


def test_non_special_biserial_input_is_precondition_error(tmp_path, capsys):
    path = tmp_path / "parallel.alg"
    path.write_text(
        "algebra parallel\nvertex 1 2 3 4\narrow a : 1 -> 2\narrow b : 2 -> 4\n"
        "arrow c : 1 -> 3\narrow d : 3 -> 4\narrow e : 2 -> 4\ncomm a b = c d\n"
    )
    code, out, err = run(capsys, "strings", str(path), "--max-len", "2")
    assert (code, out) == (2, "")
    assert err == "precondition violated: needs a string or special biserial presentation\n"


def test_module_with_non_string_walk_is_precondition_error(capsys):
    code, _, err = run(
        capsys, "module", SKEW6, "--string", "x1: alpha beta1"
    )
    assert code == 2


def test_outputs_are_byte_identical_across_runs(capsys):
    first = run(capsys, "classify", THIRTEEN, "--json")
    second = run(capsys, "classify", THIRTEEN, "--json")
    assert first == second
    third = run(capsys, "scan", SKEW6, "--max-len", "6", "--json")
    fourth = run(capsys, "scan", SKEW6, "--max-len", "6", "--json")
    assert third == fourth


@pytest.mark.parametrize("path,max_len", [(SKEW6, 12), (SQUARE, 8)])
def test_scan_json_matches_the_exact_route(capsys, path, max_len):
    from stringalg import textio
    from stringalg.presentation import quotient_by_J
    from stringalg.walks import serialize_walk
    from tests.test_rep import exact_scan

    name, p = textio.parse_file(path)
    result = exact_scan(quotient_by_J(p), max_len)
    witnesses = [serialize_walk(w) for w in result.witnesses]
    payload = {
        "schema": 1,
        "algebra": name,
        "command": "scan",
        "max_len": max_len,
        "count_both_ge2": result.count_both_ge2,
        "witnesses": witnesses,
    }
    lines = [json.dumps({"witness": w}, sort_keys=True) for w in witnesses]
    lines.append(json.dumps(payload, sort_keys=True))
    code, out, _ = run(capsys, "scan", path, "--max-len", str(max_len), "--json")
    assert code == 0
    assert out == "".join(line + "\n" for line in lines)


def test_seed_flag_is_accepted(capsys):
    code, out, _ = run(capsys, "classify", THIRTEEN, "--seed", "7")
    assert code == 0


# --- start-up: a process loads only the layers its command runs ------------

HEAVY = (
    "stringalg.stringhom",
    "stringalg.rep",
    "stringalg.decomp",
    "stringalg.exactla",
    "fractions",
    "json",
    "networkx",
    "dataclasses",
    "inspect",
)

IMPORT_PROBE = f"""
import contextlib, io, sys
from stringalg.cli import main

def loaded():
    return sorted(m for m in {HEAVY!r} if m in sys.modules)

print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    main(["classify", {THIRTEEN!r}])
print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    main(["module", {SKEW6!r}, "--string", "x4: gamma1 gamma2^-1 beta2^-1 beta1"])
print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    main(["dozed", {SKEW6!r}, "--n", "2"])
print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    main(["scan", {SKEW6!r}, "--max-len", "4"])
print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    main(["decompose", {THIRTEEN!r}])
print(loaded())
"""


def test_cli_loads_only_the_layers_each_command_runs():
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=ENV, capture_output=True, text=True, check=True,
    )
    steps = list(map(ast.literal_eval, done.stdout.splitlines()))
    after_import, after_classify, after_module, after_dozed, after_scan, after_decompose = steps
    assert after_import == []
    assert after_classify == []
    # on a string algebra the string-module commands never load the matrix route
    assert after_module == after_dozed == after_scan == ["stringalg.stringhom"]
    assert after_decompose == ["stringalg.decomp", "stringalg.stringhom"]


def test_cli_import_loads_no_typing_without_site():
    # with `site`, a .pth file may preload typing; -S shows what the package pulls in
    done = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, stringalg.cli; print('typing' in sys.modules)"],
        cwd=ROOT, env=ENV, capture_output=True, text=True, check=True,
    )
    assert done.stdout == "False\n"


# One fresh process per lazily loaded path, all started at once.
LAZY_PATHS = [
    ("classify", SKEW6, "--json"),
    ("decompose", THIRTEEN),
    ("check-structure", THIRTEEN),
    ("module", SKEW6, "--string", "x4: gamma1 gamma2^-1 beta2^-1 beta1", "--dims"),
    ("dozed", SKEW6, "--n", "2"),
    ("dozed", THIRTEEN, "--n", "1"),
    ("scan", SKEW6, "--max-len", "8", "--json"),
]


def test_fresh_processes_match_in_process_runs(capsys):
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "stringalg.cli", *argv],
            cwd=ROOT, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for argv in LAZY_PATHS
    ]
    fresh = []
    for proc in procs:
        out, err = proc.communicate(timeout=60)
        fresh.append((proc.returncode, out, err))
    for argv, result in zip(LAZY_PATHS, fresh):
        assert result == run(capsys, *argv), argv
