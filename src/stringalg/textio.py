"""Plain text declaration format for bound quiver presentations.

One declaration per line; `#` starts a comment:

    algebra <name>
    vertex <id> [<id> ...]
    arrow <id> : <src> -> <tgt>
    zero <arrowid> <arrowid> [...]
    comm <arrowid> ... = <arrowid> ...

Compositions read left to right.  Parse errors carry 1-based line and
column; the canonical serializer round-trips through parse exactly.
"""

import re

from .errors import ParseError, SemanticError, StringAlgError
from .presentation import Commutativity, Presentation, Quiver, ZeroRelation

_ID = re.compile(r"[A-Za-z0-9_]+\Z")


def _tokens(line):
    """(token, 1-based column) pairs up to the first token that begins
    with `#`; a `#` inside a token does not start a comment."""
    out = []
    col = 0
    for tok in line.split():
        if tok.startswith("#"):
            break
        col = line.find(tok, col)
        out.append((tok, col + 1))
        col += len(tok)
    return out


def _check_id(tok, lineno, col):
    if not _ID.match(tok):
        raise ParseError(f"invalid identifier {tok!r}", lineno, col)
    return tok


def parse(text):
    """Parse the declaration format; returns (name, Presentation)."""
    name = None
    vertices = []
    vertex_seen = {}
    arrows = []
    arrow_seen = {}
    zero_decls = []
    comm_decls = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = _tokens(line)
        if not toks:
            continue
        head, col = toks[0]
        rest = toks[1:]
        if head == "algebra":
            if len(rest) != 1:
                raise ParseError("expected 'algebra <name>'", lineno, col)
            if name is not None:
                raise ParseError("duplicate 'algebra' line", lineno, col)
            name = rest[0][0]
        elif head == "vertex":
            if not rest:
                raise ParseError("'vertex' needs at least one id", lineno, col)
            for tok, c in rest:
                _check_id(tok, lineno, c)
                if tok in vertex_seen:
                    raise ParseError(f"duplicate vertex {tok!r}", lineno, c)
                vertex_seen[tok] = (lineno, c)
                vertices.append(tok)
        elif head == "arrow":
            if (
                len(rest) != 5
                or rest[1][0] != ":"
                or rest[3][0] != "->"
            ):
                raise ParseError("expected 'arrow <id> : <src> -> <tgt>'", lineno, col)
            aid, acol = rest[0]
            src, scol = rest[2]
            tgt, tcol = rest[4]
            _check_id(aid, lineno, acol)
            if aid in arrow_seen:
                raise ParseError(f"duplicate arrow {aid!r}", lineno, acol)
            arrow_seen[aid] = (lineno, acol)
            for v, c in ((src, scol), (tgt, tcol)):
                if v not in vertex_seen:
                    raise SemanticError(f"unknown vertex {v!r}", lineno, c)
            arrows.append((aid, src, tgt))
        elif head == "zero":
            if len(rest) < 2:
                raise ParseError("'zero' needs at least two arrows", lineno, col)
            zero_decls.append(([t for t, _ in rest], lineno, rest[0][1]))
            for tok, c in rest:
                if tok not in arrow_seen:
                    raise SemanticError(f"unknown arrow {tok!r}", lineno, c)
        elif head == "comm":
            names = [t for t, _ in rest]
            if "=" not in names:
                raise ParseError("'comm' needs an '=' between the two sides", lineno, col)
            cut = names.index("=")
            left, right = names[:cut], names[cut + 1 :]
            if not left or not right:
                raise ParseError("'comm' sides must both be nonempty", lineno, col)
            for tok, c in rest:
                if tok != "=" and tok not in arrow_seen:
                    raise SemanticError(f"unknown arrow {tok!r}", lineno, c)
            comm_decls.append((left, right, lineno, rest[0][1]))
        else:
            raise ParseError(f"unknown declaration {head!r}", lineno, col)
    if name is None:
        raise ParseError("missing 'algebra <name>' line", 1, 1)
    quiver = Quiver(vertices, arrows)
    relations = []
    for names, lineno, col in zero_decls:
        try:
            relations.append(ZeroRelation(quiver.path(names)))
        except SemanticError as e:
            raise SemanticError(str(e), lineno, col) from None
    for left, right, lineno, col in comm_decls:
        try:
            relations.append(Commutativity(quiver.path(left), quiver.path(right)))
        except SemanticError as e:
            raise SemanticError(str(e), lineno, col) from None
    try:
        presentation = Presentation(quiver, relations)
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
