"""Known answers, written in the fixtures' own names, and their checks.

Each check takes an answer already mapped back to fixture names and
returns a list of problems; an empty list means the answer is right.
The values come from the paper's worked examples as pinned by the
acceptance suite (criteria 1-3 and 7), plus counts that do not depend
on names: strings, bands and scan witnesses.
"""

import json
import os
import re
import traceback

from inputs import map_tokens
from stringalg.errors import CorruptPresentationError

STRICT = "StrictLauraOrTilted"
NOT_LAURA = "NotLaura"

# skew6 has one automorphism (beta1<->beta2, gamma1<->gamma2, x3<->x4).
# Which of the two mirror-image witnesses the search returns depends on
# name order, so after renaming either one is right.
SKEW6_WITNESSES = {
    frozenset({("alpha", "beta1"), ("gamma1", "delta")}),
    frozenset({("alpha", "beta2"), ("gamma2", "delta")}),
}
THIRTEEN_A = {frozenset({"8", "10", "11"}), frozenset({"9", "12", "13"})}
THIRTEEN_B = {frozenset({"1", "2", "5"}), frozenset({"3", "4", "6"})}
THIRTEEN_C = frozenset({"5", "6", "7", "8", "9"})
# (band arrows, entering, exiting) for the four one-sided bands.
THIRTEEN_BANDS = {
    (frozenset({"rho1", "rho2"}), frozenset({"alpha1"}), frozenset()),
    (frozenset({"rho3", "rho4"}), frozenset({"alpha2"}), frozenset()),
    (frozenset({"rho5", "rho6"}), frozenset(), frozenset({"delta1"})),
    (frozenset({"rho7", "rho8"}), frozenset(), frozenset({"delta2"})),
}
CHECKS = (
    "full",
    "no_entry",
    "convex",
    "unique_cycle",
    "middle_finite",
    "sides_double_zero_free",
    "support_cover",
)
NINE_VIOLATIONS = {
    "condition (2) violated at beta1 [successors]",
    "condition (2) violated at beta2 [successors]",
    "condition (2) violated at gamma1 [predecessors]",
    "condition (2) violated at gamma2 [predecessors]",
}
SKEW6_STRINGS_UP_TO_4 = 24
SKEW6_SCAN_COUNT = {8: 26, 10: 34, 12: 42}
SKEW6_SCAN12_STRINGS = 56
MODULE_DIMS = {"x2": 1, "x3": 1, "x4": 2, "x5": 1}
DOZED_TOTALS = [1, 5, 9]
THIRTEEN_WINDOW = (37, 46)  # pumping bound 36, plus 1 to plus 10
THIRTEEN_STRINGS_PER_LENGTH = 12  # 120 strings in the window
KNOWN_DEFECT_MESSAGE = "side part depends on the anchor choice"


def _expect(problems, ok, what):
    if not ok:
        problems.append(what)


def _arrows_of(walk_text):
    """Arrow names of a serialized walk 'base: a b^-1 ...'."""
    body = walk_text.split(":", 1)[1]
    return frozenset(tok.removesuffix("^-1") for tok in body.split())


def _band_line(line):
    band, rest = line.split("  entering=")
    entering, exiting = rest.split(" exiting=")
    as_set = lambda s: frozenset() if s == "-" else frozenset(s.split(","))
    return _arrows_of(band.removeprefix("band: ")), as_set(entering), as_set(exiting)


def _parts(lines):
    parts = {}
    for line in lines:
        label = line.split(":", 1)[0]
        objects = re.search(r"objects=\{([^}]*)\}", line).group(1)
        parts.setdefault(label[0], set()).add(frozenset(objects.split(", ")))
    return parts


def _cli_classify_skew6(out, problems):
    data = json.loads(out)
    _expect(problems, data["verdict"] == NOT_LAURA, f"verdict {data['verdict']}")
    pair = frozenset({tuple(data["doze"]["rho1"]), tuple(data["doze"]["rho2"])})
    _expect(problems, pair in SKEW6_WITNESSES, f"witness generators {sorted(pair)}")


def _cli_classify_thirteen(out, problems):
    lines = out.splitlines()
    _expect(problems, lines[0] == f"verdict: {STRICT}", lines[0])
    bands = {_band_line(l) for l in lines if l.startswith("band: ")}
    _expect(problems, bands == THIRTEEN_BANDS, "bands or their boundaries")


def _cli_validate_nine(out, problems):
    lines = out.splitlines()
    _expect(problems, lines[:2] == ["string algebra: no", "special biserial: no"], lines[:2])
    found = {l.strip().split("]:")[0] + "]" for l in lines[2:]}
    _expect(problems, found == NINE_VIOLATIONS, f"violations {sorted(found)}")


def _cli_decompose(out, problems):
    parts = _parts(out.splitlines())
    _expect(problems, parts.get("A") == THIRTEEN_A, "A parts")
    _expect(problems, parts.get("B") == THIRTEEN_B, "B parts")
    _expect(problems, parts.get("C") == {THIRTEEN_C}, "middle part")


def _cli_check_structure(out, problems):
    expected = [f"{name}: pass" for name in CHECKS]
    _expect(problems, out.splitlines() == expected, "structure checks")


def _cli_bands(out, problems):
    bands = {_arrows_of(l.removeprefix("band: ")) for l in out.splitlines()}
    _expect(problems, bands == {b for b, _, _ in THIRTEEN_BANDS}, "bands")


def _cli_strings(out, problems):
    n = len(out.splitlines())
    _expect(problems, n == SKEW6_STRINGS_UP_TO_4, f"{n} strings")


def _dims(line):
    return {v: int(d) for v, d in (tok.split(":") for tok in line.split()[1:])}


def _cli_module(out, problems):
    lines = out.splitlines()
    _expect(problems, lines[1] == "total dimension 5", lines[1])
    _expect(problems, _dims(lines[2]) == MODULE_DIMS, lines[2])


def _cli_dozed(out, problems):
    line = out.splitlines()[1]
    _expect(problems, line == f"total dimension {DOZED_TOTALS[2]}", line)


def _cli_scan(max_len, as_json):
    def check(out, problems):
        *witnesses, last = out.splitlines()
        count = json.loads(last)["count_both_ge2"] if as_json else int(last.rsplit(":", 1)[1])
        want = SKEW6_SCAN_COUNT[max_len]
        _expect(problems, count == want == len(witnesses), f"scan count {count}, {len(witnesses)} witnesses")

    return check


def _cli_oracle(out, problems):
    m = re.match(r"doze: rho1=(\S+) .* rho2=(\S+)$", out.strip())
    pair = m and frozenset({tuple(m.group(1).split(".")), tuple(m.group(2).split("."))})
    _expect(problems, pair in SKEW6_WITNESSES, f"oracle witness {out.strip()[:80]}")


def _cli_classify_nine(out, problems):
    _expect(problems, out == "", "stdout not empty")


def _cli_classify_commsquare(out, problems):
    _expect(problems, out.splitlines()[0] == "verdict: FiniteType", out.splitlines()[0])


CLI = {
    "classify:skew6": (0, _cli_classify_skew6),
    "classify:thirteen": (0, _cli_classify_thirteen),
    "validate:nine": (0, _cli_validate_nine),
    "decompose:thirteen": (0, _cli_decompose),
    "check-structure:thirteen": (0, _cli_check_structure),
    "bands:thirteen": (0, _cli_bands),
    "strings:skew6:4": (0, _cli_strings),
    "module:skew6": (0, _cli_module),
    "dozed:skew6": (0, _cli_dozed),
    "scan:skew6:8": (0, _cli_scan(8, True)),
    "oracle-doze:skew6:10": (0, _cli_oracle),
    "scan:skew6:10": (0, _cli_scan(10, False)),
    "classify:nine": (2, _cli_classify_nine),
    "classify:commsquare": (0, _cli_classify_commsquare),
}


def check_cli(command, code, stdout):
    """Problems with one CLI result; stdout is in the renamed names."""
    want_code, check = CLI[command["id"]]
    if code != want_code:
        return [f"exit code {code}, expected {want_code}"]
    problems = []
    try:
        check(map_tokens(stdout, command["back"]), problems)
    except (ValueError, KeyError, IndexError, AttributeError, TypeError) as e:
        problems.append(f"unreadable output ({type(e).__name__}: {e})")
    return problems


def check_scaled(answer, copies):
    """answer: (verdict, A, B, C, checks, cover) with objects as
    (copy, fixture vertex) pairs."""
    verdict, a_parts, b_parts, middle, checks, cover = answer
    per_copy = lambda sets: {frozenset((c, v) for v in s) for c in range(copies) for s in sets}
    problems = []
    _expect(problems, verdict == STRICT, f"verdict {verdict}")
    _expect(problems, a_parts == per_copy(THIRTEEN_A), "A parts")
    _expect(problems, b_parts == per_copy(THIRTEEN_B), "B parts")
    _expect(problems, middle == frozenset().union(*per_copy([THIRTEEN_C])), "middle part")
    _expect(problems, all(ok for _, ok in checks) and cover, f"checks {checks} cover {cover}")
    return problems


def is_known_defect(exc):
    """True only for the known defect that the corpus keeps: `decompose`
    itself raising CorruptPresentationError("side part depends on the
    anchor choice").  Such an operation counts as failed, not as wrong."""
    frames = traceback.extract_tb(exc.__traceback__)
    return (
        type(exc) is CorruptPresentationError
        and str(exc) == KNOWN_DEFECT_MESSAGE
        and bool(frames)
        and frames[-1].name == "decompose"
        and os.path.basename(frames[-1].filename) == "decomp.py"
    )
