"""Seeded inputs for the four workloads.

Everything here is a pure function of the seed.  Fixture copies get
random vertex and arrow names, so the program never sees the names the
known answers are written in; each input carries the map that turns the
program's names back into the fixture's.

Importing this module imports the package, so that timing
`make_inputs` from before the import counts imports plus input
generation, which is what `setup_s` measures.
"""

import random
import re
from pathlib import Path

import stringalg.cli  # noqa: F401  (the import is part of set-up)
from stringalg import corpus, textio

FIXTURES = Path("fixtures")
THIRTEEN_COPIES = 8
LARGE_COPIES = 16  # the second size of the traced scaling exponents
STRING_CORPUS = 2000
SPECIAL_BISERIAL_CORPUS = 500
MODULE_STRING = "x4: gamma1 gamma2^-1 beta2^-1 beta1"

_TOKEN = re.compile(r"[A-Za-z0-9_]+")


def read_fixture(name):
    """(vertices, arrows, zeros, comms) of a fixture file, in file order."""
    vertices, arrows, zeros, comms = [], [], [], []
    for line in (FIXTURES / f"{name}.alg").read_text(encoding="utf-8").splitlines():
        toks = line.split("#", 1)[0].split()
        if not toks or toks[0] == "algebra":
            continue
        head, rest = toks[0], toks[1:]
        if head == "vertex":
            vertices += rest
        elif head == "arrow":
            arrows.append((rest[0], rest[2], rest[4]))
        elif head == "zero":
            zeros.append(rest)
        elif head == "comm":
            cut = rest.index("=")
            comms.append((rest[:cut], rest[cut + 1 :]))
        else:
            raise ValueError(f"{name}.alg: unexpected declaration {head!r}")
    return vertices, arrows, zeros, comms


def _renamer(rng, taken):
    """Fresh random identifiers: 'q' plus eight hex digits, never reused,
    so they cannot collide with words of the program's output."""
    names = {}

    def rename(old):
        if old not in names:
            new = f"q{rng.getrandbits(32):08x}"
            while new in taken:
                new = f"q{rng.getrandbits(32):08x}"
            taken.add(new)
            names[old] = new
        return names[old]

    return rename, names


def render(name, vertices, arrows, zeros, comms):
    lines = [f"algebra {name}", "vertex " + " ".join(vertices)]
    lines += [f"arrow {a} : {s} -> {t}" for a, s, t in arrows]
    lines += ["zero " + " ".join(z) for z in zeros]
    lines += ["comm " + " ".join(l) + " = " + " ".join(r) for l, r in comms]
    return "\n".join(lines) + "\n"


def relabelled_copies(fixture, copies, rng, name):
    """Disjoint union of `copies` renamed copies of a fixture.

    Returns (text, back) where back maps every new identifier to
    (copy index, fixture identifier).
    """
    vertices, arrows, zeros, comms = read_fixture(fixture)
    taken = set()
    out_v, out_a, out_z, out_c = [], [], [], []
    back = {}
    for copy in range(copies):
        rename, names = _renamer(rng, taken)
        out_v += [rename(v) for v in vertices]
        out_a += [(rename(a), rename(s), rename(t)) for a, s, t in arrows]
        out_z += [[rename(x) for x in z] for z in zeros]
        out_c += [([rename(x) for x in l], [rename(x) for x in r]) for l, r in comms]
        back.update({new: (copy, old) for old, new in names.items()})
    return render(name, out_v, out_a, out_z, out_c), back


def relabelled(fixture, rng):
    """One renamed copy: (text, back, forward) with back new -> old."""
    text, back = relabelled_copies(fixture, 1, rng, fixture)
    back = {new: old for new, (_, old) in back.items()}
    return text, back, {old: new for new, old in back.items()}


def map_tokens(text, table):
    """Replace every identifier token found in table."""
    return _TOKEN.sub(lambda m: table.get(m.group(0), m.group(0)), text)


def cli_inputs(seed, workdir):
    """Renamed fixture files plus the command lines run on them."""
    rng = random.Random(f"cli_fixtures:{seed}")
    files, backs = {}, {}
    forward_skew6 = None
    for name in ("skew6", "thirteen", "nine", "commsquare"):
        text, back, forward = relabelled(name, rng)
        path = Path(workdir) / f"{name}.alg"
        path.write_text(text, encoding="utf-8")
        files[name], backs[name] = str(path), back
        if name == "skew6":
            forward_skew6 = forward
    module_string = map_tokens(MODULE_STRING, forward_skew6)
    commands = [
        ("classify", "skew6", ["--json"]),
        ("classify", "thirteen", []),
        ("validate", "nine", []),
        ("decompose", "thirteen", []),
        ("check-structure", "thirteen", []),
        ("bands", "thirteen", []),
        ("strings", "skew6", ["--max-len", "4"]),
        ("module", "skew6", ["--string", module_string, "--dims"]),
        ("dozed", "skew6", ["--n", "2"]),
        ("scan", "skew6", ["--max-len", "8", "--json"]),
        ("oracle-doze", "skew6", ["--max-len", "10"]),
        ("scan", "skew6", ["--max-len", "10"]),
        ("classify", "nine", []),
        ("classify", "commsquare", []),
    ]
    return [
        {
            "id": f"{cmd}:{fixture}" + (f":{extra[1]}" if "--max-len" in extra else ""),
            "argv": [cmd, files[fixture]] + extra,
            "fixture": fixture,
            "back": backs[fixture],
        }
        for cmd, fixture, extra in commands
    ]


def scaled_inputs(seed):
    """Renamed disjoint copies of thirteen, keyed by copy count."""
    rng = random.Random(f"scaled_thirteen:{seed}")
    return {
        k: relabelled_copies("thirteen", k, rng, f"thirteen_x{k}")
        for k in (THIRTEEN_COPIES, LARGE_COPIES)
    }


def corpus_inputs(seed):
    """(op id, text) for the seeded string and special biserial corpora."""
    out = [
        (f"string:{i}", textio.serialize(f"s{i}", p))
        for i, p in enumerate(corpus.string_corpus(seed, STRING_CORPUS))
    ]
    out += [
        (f"special_biserial:{i}", textio.serialize(f"b{i}", p))
        for i, p in enumerate(corpus.special_biserial_corpus(seed, SPECIAL_BISERIAL_CORPUS))
    ]
    return out


def pumped_inputs(seed):
    rng = random.Random(f"pumped_scan:{seed}")
    return {name: relabelled(name, rng)[:2] for name in ("thirteen", "skew6")}


def make_inputs(workload, seed, workdir):
    if workload == "cli_fixtures":
        return cli_inputs(seed, workdir)
    if workload == "scaled_thirteen":
        return scaled_inputs(seed)
    if workload == "corpus_survey":
        return corpus_inputs(seed)
    if workload == "pumped_scan":
        return pumped_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")
