"""Plain text declaration format for bound quiver presentations.

One declaration per line; `#` starts a comment:

    algebra <name>
    vertex <id> [<id> ...]
    arrow <id> : <src> -> <tgt>
    zero <arrowid> <arrowid> [...]
    comm <arrowid> ... = <arrowid> ...

Compositions read left to right.  Parse errors carry 1-based line and
column; the canonical serializer round-trips through parse exactly.
Lines are split, never scanned: only an error's token gets a column.
"""

import re

from .errors import ParseError, SemanticError, StringAlgError
from .presentation import Presentation, Quiver

_ID = re.compile(r"[A-Za-z0-9_]+\Z")


def _column(line, i):
    """1-based column of the i-th token of a line, each token found after
    the end of the one before it."""
    end = 0
    for tok in line.split()[: i + 1]:
        start = line.find(tok, end)
        end = start + len(tok)
    return start + 1


def _first_unknown(toks, known, lineno, line):
    """The error for the first arrow after the head that is not known."""
    i = next(i for i, tok in enumerate(toks) if i and tok not in known)
    return SemanticError(f"unknown arrow {toks[i]!r}", lineno, _column(line, i))


def parse(text):
    """Parse the declaration format; returns (name, Presentation)."""
    name = None
    vertices = []
    arrows = []
    vertex_seen = set()
    arrow_seen = set()
    zero_decls = []
    comm_decls = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = line.split()
        if "#" in line:
            # a token that begins with `#` starts a comment; one inside a token does not
            for i, tok in enumerate(toks):
                if tok[0] == "#":
                    del toks[i:]
                    break
        if not toks:
            continue
        head, *rest = toks
        if head == "algebra":
            if len(rest) != 1:
                raise ParseError("expected 'algebra <name>'", lineno, _column(line, 0))
            if name is not None:
                raise ParseError("duplicate 'algebra' line", lineno, _column(line, 0))
            name = rest[0]
        elif head == "vertex":
            if not rest:
                raise ParseError("'vertex' needs at least one id", lineno, _column(line, 0))
            for i, tok in enumerate(rest, start=1):
                if not _ID.match(tok):
                    raise ParseError(f"invalid identifier {tok!r}", lineno, _column(line, i))
                if tok in vertex_seen:
                    raise ParseError(f"duplicate vertex {tok!r}", lineno, _column(line, i))
                vertex_seen.add(tok)
            vertices += rest
        elif head == "arrow":
            if len(rest) != 5 or rest[1] != ":" or rest[3] != "->":
                raise ParseError("expected 'arrow <id> : <src> -> <tgt>'", lineno, _column(line, 0))
            aid, _, src, _, tgt = rest
            if not _ID.match(aid):
                raise ParseError(f"invalid identifier {aid!r}", lineno, _column(line, 1))
            if aid in arrow_seen:
                raise ParseError(f"duplicate arrow {aid!r}", lineno, _column(line, 1))
            arrow_seen.add(aid)
            for i in (3, 5):
                if toks[i] not in vertex_seen:
                    raise SemanticError(f"unknown vertex {toks[i]!r}", lineno, _column(line, i))
            arrows.append((aid, src, tgt))
        elif head == "zero":
            if len(rest) < 2:
                raise ParseError("'zero' needs at least two arrows", lineno, _column(line, 0))
            if not arrow_seen.issuperset(rest):
                raise _first_unknown(toks, arrow_seen, lineno, line)
            zero_decls.append((rest, lineno, line))
        elif head == "comm":
            if "=" not in rest:
                raise ParseError("'comm' needs an '=' between the two sides", lineno, _column(line, 0))
            cut = rest.index("=")
            left, right = rest[:cut], rest[cut + 1 :]
            if not left or not right:
                raise ParseError("'comm' sides must both be nonempty", lineno, _column(line, 0))
            known = arrow_seen | {"="}
            if not known.issuperset(rest):
                raise _first_unknown(toks, known, lineno, line)
            comm_decls.append((left, right, lineno, line))
        else:
            raise ParseError(f"unknown declaration {head!r}", lineno, _column(line, 0))
    if name is None:
        raise ParseError("missing 'algebra <name>' line", 1, 1)
    quiver = Quiver(vertices, arrows)
    zeros = []
    for names, lineno, line in zero_decls:
        try:
            zeros.append(quiver.path(names))
        except SemanticError as e:
            raise SemanticError(str(e), lineno, _column(line, 1)) from None
    comms = []
    for left, right, lineno, line in comm_decls:
        try:
            comms.append((quiver.path(left), quiver.path(right)))
        except SemanticError as e:
            raise SemanticError(str(e), lineno, _column(line, 1)) from None
    try:
        presentation = Presentation(quiver, zeros, comms)
    except StringAlgError as e:
        raise SemanticError(str(e)) from None
    return name, presentation


def parse_file(path):
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def serialize(name, p):
    """Canonical text form: sorted declarations, one vertex line."""
    q = p.quiver
    lines = [f"algebra {name}"]
    lines.append("vertex " + " ".join(q.vertices))
    for a in sorted(q.arrows):
        lines.append(f"arrow {a.name} : {a.source} -> {a.target}")
    for g in p.zero_paths:
        lines.append("zero " + " ".join(g))
    for left, right in p.comm_pairs:
        lines.append("comm " + " ".join(left) + " = " + " ".join(right))
    return "\n".join(lines) + "\n"
