"""Command line interface.

Reads an algebra file, runs one analysis, and reports as text or JSON
(schema version 1).  Exit codes: 0 success; 1 unreadable file, parse or
semantic error; 2 precondition violation or invalid argument (such as a
negative length); 3 analysis failure (corrupted presentation or an
exhausted search budget); 141 stdout closed before the output ended.
Output is byte-identical from run to run.

A process loads only the layers its command runs, since start-up is most
of a command's wall time.  Every command loads the package core
(presentation, walks, automaton, doze) and the file reader; `module`,
`dozed` and `scan` also load `stringhom`, `decompose` and
`check-structure` load `decomp`, and `--json` loads `json`.  Those
imports therefore sit inside the functions that use them.  No command
loads the matrix route (`rep`, `exactla`, `fractions`) on a string
algebra.
"""

import argparse
import os
import sys

from .automaton import LETTER_CAP, band_census, enumerate_bands, enumerate_strings
from .doze import classify, find_doze, find_doze_bruteforce
from .errors import (
    CorruptPresentationError,
    DozedStringAnomaly,
    ParseError,
    PreconditionError,
    SearchBudgetExceeded,
    SemanticError,
)
from .presentation import monomial_form, validate_special_biserial, validate_string_algebra
from .textio import parse_file
from .walks import parse_walk, serialize_band, serialize_walk


def _witness_json(w):
    return {
        "rho1": list(w.rho1),
        "w1": serialize_walk(w.w1),
        "band": serialize_walk(w.band.walk),
        "w3": serialize_walk(w.w3),
        "rho2": list(w.rho2),
    }


def _violations_json(report):
    return [
        {
            "condition": v.condition,
            "site": v.site,
            "kind": v.kind,
            "detail": list(v.detail),
        }
        for v in report.violations
    ]


def _band_info_json(info):
    return {
        "band": serialize_band(info.band),
        "entering": sorted(info.boundary.entering),
        "exiting": sorted(info.boundary.exiting),
    }


def _part_json(part):
    out = {
        "label": part.label,
        "objects": sorted(part.objects),
        "arrows": sorted(part.arrows),
    }
    if part.anchor is not None:
        out["anchor"] = part.anchor
    if part.band is not None:
        out["band"] = serialize_band(part.band)
    return out


def cmd_validate(p, args):
    rs = validate_string_algebra(p)
    rb = validate_special_biserial(p)
    data = {
        "string": rs.is_valid,
        "special_biserial": rb.is_valid,
        "violations": {
            "string": _violations_json(rs),
            "special_biserial": _violations_json(rb),
        },
    }
    text = [
        f"string algebra: {'yes' if rs.is_valid else 'no'}",
        f"special biserial: {'yes' if rb.is_valid else 'no'}",
    ]
    for v in rs.violations:
        text.append(
            f"  condition ({v.condition}) violated at {v.site} [{v.kind}]: "
            + " ".join(v.detail)
        )
    return data, text


def cmd_classify(p, args):
    report = classify(p)
    data = {
        "verdict": report.verdict,
        "doze": _witness_json(report.evidence) if report.evidence else None,
        "bands": [_band_info_json(b) for b in report.bands],
        "notes": list(report.notes),
    }
    text = [f"verdict: {report.verdict}"]
    if report.evidence:
        text.append(report.evidence.serialize())
    for b in report.bands:
        text.append(
            f"{serialize_band(b.band)}  entering={','.join(sorted(b.boundary.entering)) or '-'}"
            f" exiting={','.join(sorted(b.boundary.exiting)) or '-'}"
        )
    text.extend(f"note: {n}" for n in report.notes)
    return data, text


def _monomial_form(p):
    if not p.is_monomial and not validate_special_biserial(p).is_valid:
        raise PreconditionError("needs a string or special biserial presentation")
    return monomial_form(p)


def cmd_doze(p, args):
    work = _monomial_form(p)
    w = find_doze(work)
    data = {"doze": _witness_json(w) if w else None}
    text = [w.serialize() if w else "no interlaced double-zero"]
    return data, text


def cmd_oracle_doze(p, args):
    work = _monomial_form(p)
    w = find_doze_bruteforce(work, args.max_len)
    data = {"doze": _witness_json(w) if w else None, "max_len": args.max_len}
    text = [w.serialize() if w else f"no interlaced double-zero up to length {args.max_len}"]
    return data, text


def cmd_bands(p, args):
    work = _monomial_form(p)
    if args.max_len is not None:
        bands = enumerate_bands(work, args.max_len)
    else:
        bands = band_census(work)
    data = {"bands": [serialize_band(b) for b in bands]}
    return data, data["bands"] or ["no bands"]


def cmd_strings(p, args):
    work = _monomial_form(p)
    walks = enumerate_strings(work, args.max_len)
    data = {"max_len": args.max_len, "strings": [serialize_walk(w) for w in walks]}
    return data, data["strings"]


def cmd_decompose(p, args):
    from .decomp import decompose

    dec = decompose(p)
    data = {
        "a_parts": [_part_json(part) for part in dec.a_parts],
        "b_parts": [_part_json(part) for part in dec.b_parts],
        "middle": _part_json(dec.middle),
        "notes": list(dec.notes),
    }
    text = []
    for part in dec.parts:
        anchor = f" anchor={part.anchor}" if part.anchor else ""
        text.append(
            f"{part.label}:{anchor} objects={{{', '.join(sorted(part.objects))}}} "
            f"arrows={{{', '.join(sorted(part.arrows))}}}"
        )
    return data, text


def cmd_check_structure(p, args):
    from .decomp import check_structure, decompose, support_cover_check

    dec = decompose(p)
    report = check_structure(p, dec)
    cover = support_cover_check(p, args.cover_len, dec)
    checks = report.as_dict()
    checks["support_cover"] = cover
    data = {"checks": checks, "all_pass": report.all_pass and cover,
            "details": list(report.details)}
    text = [f"{k}: {'pass' if v else 'FAIL'}" for k, v in checks.items()]
    text.extend(f"  {d}" for d in report.details)
    return data, text


def _dims_line(dims):
    return "dims " + " ".join(f"{v}:{d}" for v, d in dims.items())


def cmd_module(p, args):
    from .stringhom import string_entries

    work = _monomial_form(p)
    w = parse_walk(work.quiver, args.string)
    dims, entries = string_entries(work, w)
    total = sum(dims.values())
    data = {"string": serialize_walk(w), "total": total, "dims": dims}
    if not args.dims:
        data["maps"] = entries
    text = [f"string module over {serialize_walk(w)}", f"total dimension {total}", _dims_line(dims)]
    if not args.dims:
        for a, triples in entries.items():
            text.append(f"{a}: " + " ".join(f"({r},{c})={v}" for r, c, v in triples))
    return data, text


def cmd_dozed(p, args):
    from .stringhom import dozed_module_string, string_entries

    work = _monomial_form(p)
    w = find_doze(work)
    if w is None:
        raise PreconditionError("the algebra has no interlaced double-zero")
    if args.n * len(w.band.walk.letters) > LETTER_CAP:  # n is unbounded
        raise SearchBudgetExceeded(
            f"pumping the band {args.n} times exceeds {LETTER_CAP:,} letters"
        )
    sigma = dozed_module_string(work, w, args.n)
    dims, _ = string_entries(work, sigma)
    total = sum(dims.values())
    data = {"n": args.n, "sigma": serialize_walk(sigma), "total": total, "dims": dims}
    text = [
        f"pumped string at power {args.n}: {serialize_walk(sigma)}",
        f"total dimension {total}",
        _dims_line(dims),
    ]
    return data, text


def cmd_scan(p, args):
    from .stringhom import conjecture_scan

    work = _monomial_form(p)
    result = conjecture_scan(work, args.max_len)
    data = {
        "max_len": args.max_len,
        "count_both_ge2": result.count_both_ge2,
        "witnesses": [serialize_walk(w) for w in result.witnesses],
    }
    text = [f"{w}" for w in data["witnesses"]]
    text.append(f"count with pd>=2 and id>=2: {result.count_both_ge2}")
    return data, text


COMMANDS = {
    "validate": cmd_validate,
    "classify": cmd_classify,
    "doze": cmd_doze,
    "bands": cmd_bands,
    "strings": cmd_strings,
    "decompose": cmd_decompose,
    "check-structure": cmd_check_structure,
    "module": cmd_module,
    "dozed": cmd_dozed,
    "scan": cmd_scan,
    "oracle-doze": cmd_oracle_doze,
}


def _non_negative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the JSON schema")
    parser = argparse.ArgumentParser(
        prog="stringalg",
        description="Analyze string and special biserial algebra presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name):
        s = sub.add_parser(name, parents=[common])
        s.add_argument("file", help="algebra file")
        return s

    add("validate")
    add("classify")
    add("doze")
    s = add("bands")
    s.add_argument("--max-len", type=_non_negative, default=None, dest="max_len")
    s = add("strings")
    s.add_argument("--max-len", type=_non_negative, required=True, dest="max_len")
    add("decompose")
    s = add("check-structure")
    s.add_argument("--cover-len", type=_non_negative, default=8, dest="cover_len")
    s = add("module")
    s.add_argument("--string", required=True)
    s.add_argument("--dims", action="store_true")
    s = add("dozed")
    s.add_argument("--n", type=_non_negative, required=True)
    s = add("scan")
    s.add_argument("--max-len", type=_non_negative, required=True, dest="max_len")
    s = add("oracle-doze")
    s.add_argument("--max-len", type=_non_negative, required=True, dest="max_len")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        name, p = parse_file(args.file)
        data, text = COMMANDS[args.command](p, args)
    except OSError as e:
        print(f"error: cannot read {args.file}: {e.strerror or e}", file=sys.stderr)
        return 1
    except UnicodeDecodeError:
        print(f"error: cannot read {args.file}: not UTF-8 text", file=sys.stderr)
        return 1
    except (ParseError, SemanticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (PreconditionError, DozedStringAnomaly) as e:
        print(f"precondition violated: {e}", file=sys.stderr)
        return 2
    except (CorruptPresentationError, SearchBudgetExceeded) as e:
        print(f"analysis failed: {e}", file=sys.stderr)
        return 3
    if args.json:
        import json

        payload = {"schema": 1, "algebra": name, "command": args.command}
        payload.update(data)
        witnesses = data["witnesses"] if args.command == "scan" else []
        text = [json.dumps({"witness": w}, sort_keys=True) for w in witnesses]
        text.append(json.dumps(payload, sort_keys=True))
    try:
        for line in text:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:  # closed early: the final flush goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main())
