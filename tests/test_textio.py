import collections
import hashlib
import itertools
import random

import pytest

from stringalg import fixtures
from stringalg.corpus import special_biserial_corpus, string_corpus
from stringalg.errors import ParseError, SemanticError
from stringalg.presentation import Presentation, Quiver
from stringalg.textio import parse, parse_file, serialize

FIXTURE_FILES = {
    "skew6": "fixtures/skew6.alg",
    "thirteen": "fixtures/thirteen.alg",
    "nine": "fixtures/nine.alg",
    "commsquare": "fixtures/commsquare.alg",
}


def test_skew6_file_counts():
    name, p = parse_file(FIXTURE_FILES["skew6"])
    assert name == "skew6"
    assert len(p.quiver.vertices) == 6
    assert len(p.quiver.arrows) == 6
    assert len(p.zero_paths) == 4


def test_thirteen_file_counts():
    name, p = parse_file(FIXTURE_FILES["thirteen"])
    assert name == "thirteen"
    assert len(p.quiver.vertices) == 13
    assert len(p.quiver.arrows) == 16
    assert len(p.zero_paths) == 10
    assert ("alpha1", "rho1") in p.zero_paths
    assert ("delta2", "gamma2") in p.zero_paths


@pytest.mark.parametrize("name", sorted(FIXTURE_FILES))
def test_files_match_programmatic_fixtures(name):
    fname, p = parse_file(FIXTURE_FILES[name])
    assert fname == name
    assert p == fixtures.ALL[name]()


@pytest.mark.parametrize("name", sorted(FIXTURE_FILES))
def test_serialize_parse_round_trip(name):
    fname, p = parse_file(FIXTURE_FILES[name])
    text = serialize(fname, p)
    fname2, p2 = parse(text)
    assert (fname2, p2) == (fname, p)
    assert serialize(fname2, p2) == text


def test_comments_and_blank_lines_are_ignored():
    _, p = parse(
        """
        # leading comment
        algebra tiny

        vertex 1 2  # trailing comment
        arrow a : 1 -> 2
        """
    )
    assert len(p.quiver.arrows) == 1


def test_missing_algebra_line():
    with pytest.raises(ParseError):
        parse("vertex 1 2\n")


def test_syntax_error_reports_line_and_column():
    with pytest.raises(ParseError) as err:
        parse("algebra t\nvertex 1 2\narrow a 1 -> 2\n")
    assert err.value.line == 3


def test_unknown_vertex_is_semantic_error():
    with pytest.raises(SemanticError) as err:
        parse("algebra t\nvertex 1\narrow a : 1 -> 9\n")
    assert err.value.line == 3


def test_non_composable_zero_is_semantic_error():
    text = (
        "algebra t\nvertex 1 2 3\n"
        "arrow a : 1 -> 2\narrow b : 1 -> 3\nzero a b\n"
    )
    with pytest.raises(SemanticError) as err:
        parse(text)
    assert err.value.line == 5


def test_infinite_dimensional_is_semantic_error():
    text = "algebra t\nvertex 1 2\narrow a : 1 -> 2\narrow b : 2 -> 1\n"
    with pytest.raises(SemanticError):
        parse(text)


def test_duplicate_arrow_is_parse_error():
    text = "algebra t\nvertex 1 2\narrow a : 1 -> 2\narrow a : 2 -> 1\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == 4


def test_invalid_identifier_rejected():
    with pytest.raises(ParseError):
        parse("algebra t\nvertex a^b\n")


def test_comm_requires_equals_sign():
    text = (
        "algebra t\nvertex 1 2 3 4\n"
        "arrow a : 1 -> 2\narrow b : 2 -> 4\n"
        "arrow c : 1 -> 3\narrow d : 3 -> 4\n"
        "comm a b c d\n"
    )
    with pytest.raises(ParseError):
        parse(text)


def test_comm_parses(commsquare):
    _, p = parse_file(FIXTURE_FILES["commsquare"])
    assert p.comm_pairs == ((("a", "b"), ("c", "d")),)
    assert p == commsquare


def test_hash_inside_a_token_is_part_of_it():
    with pytest.raises(ParseError) as err:
        parse("algebra t\nvertex a#b\n")
    assert str(err.value) == "line 2, col 8: invalid identifier 'a#b'"


def test_token_beginning_with_hash_starts_a_comment():
    _, p = parse("algebra t\nvertex a #b\n")
    assert p.quiver.vertices == ("a",)


def test_tab_separated_tokens_keep_their_columns():
    with pytest.raises(SemanticError) as err:
        parse("algebra t\nvertex 1\t2\narrow\ta\t:\t1\t->\t\t9\n")
    assert (err.value.line, err.value.col) == (3, 17)
    with pytest.raises(ParseError) as err:
        parse("algebra t\nvertex\t1 \tb^\n")
    assert str(err.value) == "line 2, col 11: invalid identifier 'b^'"


# Every raising branch of `parse`: the error's class and message, and its
# (line, column) in the text as written and after `_tabbed`; None where the
# error has no position.  Recorded before the parser stopped computing a
# column for every token.
_SQUARE = (
    "algebra t\nvertex 1 2 3 4\n"
    "arrow a : 1 -> 2\narrow b : 2 -> 4\narrow c : 1 -> 3\narrow d : 3 -> 4\n"
)
_ARROW = "expected 'arrow <id> : <src> -> <tgt>'"
_ZERO = "'zero' needs at least two arrows"
_SIDES = "'comm' sides must both be nonempty"
PARSE_ERRORS = [
    ("vertex 1 2\n", ParseError, "missing 'algebra <name>' line", (1, 1), (1, 1)),
    ("", ParseError, "missing 'algebra <name>' line", (1, 1), (1, 1)),
    ("algebra\n", ParseError, "expected 'algebra <name>'", (1, 1), (3, 3)),
    ("algebra t u\n", ParseError, "expected 'algebra <name>'", (1, 1), (3, 3)),
    ("algebra t\nalgebra u\n", ParseError, "duplicate 'algebra' line", (2, 1), (4, 3)),
    ("algebra t\nvertex\n", ParseError, "'vertex' needs at least one id", (2, 1), (4, 3)),
    ("algebra t\nvertex 1 a^b\n", ParseError, "invalid identifier 'a^b'", (2, 10), (4, 14)),
    ("algebra t\nvertex 11 1 a#b\n", ParseError, "invalid identifier 'a#b'", (2, 13), (4, 18)),
    ("algebra t\nvertex 1 2 1\n", ParseError, "duplicate vertex '1'", (2, 12), (4, 17)),
    ("algebra t\nvertex 11 1 1\n", ParseError, "duplicate vertex '1'", (2, 13), (4, 18)),
    ("algebra t\nvertex 1\nvertex 2 1\n", ParseError, "duplicate vertex '1'", (3, 10), (5, 14)),
    ("algebra t\nvertex 1 2\narrow a 1 -> 2\n", ParseError, _ARROW, (3, 1), (5, 3)),
    ("algebra t\nvertex 1 2\narrow a : 1 2\n", ParseError, _ARROW, (3, 1), (5, 3)),
    ("algebra t\nvertex 1 2\narrow a : 1 -> 2 x\n", ParseError, _ARROW, (3, 1), (5, 3)),
    ("algebra t\nvertex 1 2\narrow a- : 1 -> 2\n",
     ParseError, "invalid identifier 'a-'", (3, 7), (5, 10)),
    ("algebra t\nvertex 1 2\narrow a : 1 -> 2\narrow a : 2 -> 1\n",
     ParseError, "duplicate arrow 'a'", (4, 7), (6, 10)),
    ("algebra t\nvertex 1 2\narrow a : 9 -> 2\n",
     SemanticError, "unknown vertex '9'", (3, 11), (5, 16)),
    ("algebra t\nvertex 1 2\narrow a : 1 -> 9\n",
     SemanticError, "unknown vertex '9'", (3, 16), (5, 23)),
    ("algebra t\nvertex 1 2\narrow ar : 1 -> r\n",
     SemanticError, "unknown vertex 'r'", (3, 17), (5, 24)),
    ("algebra t\nvertex 1 2 3\narrow a : 1 -> 2\nzero a\n", ParseError, _ZERO, (4, 1), (6, 3)),
    ("algebra t\nvertex 1 2 3\narrow a : 1 -> 2\nzero\n", ParseError, _ZERO, (4, 1), (6, 3)),
    ("algebra t\nvertex 1 2 3\narrow a : 1 -> 2\narrow b : 2 -> 3\nzero a x\n",
     SemanticError, "unknown arrow 'x'", (5, 8), (7, 12)),
    ("algebra t\nvertex 1 2 3\narrow a : 1 -> 2\narrow b : 2 -> 3\nzero x a\n",
     SemanticError, "unknown arrow 'x'", (5, 6), (7, 9)),
    (_SQUARE + "comm a b c d\n",
     ParseError, "'comm' needs an '=' between the two sides", (7, 1), (9, 3)),
    (_SQUARE + "comm = c d\n", ParseError, _SIDES, (7, 1), (9, 3)),
    (_SQUARE + "comm a b =\n", ParseError, _SIDES, (7, 1), (9, 3)),
    (_SQUARE + "comm a b = c e\n", SemanticError, "unknown arrow 'e'", (7, 14), (9, 21)),
    (_SQUARE + "comm a b = c = d\n", SemanticError, "unknown arrow '='", (7, 6), (9, 9)),
    (_SQUARE + "comm a b = a b\n",
     SemanticError, "commutativity a.b = a.b: sides not distinct", None, None),
    (_SQUARE + "comm a b = c\n",
     SemanticError, "commutativity a.b = c: sides must have length >= 2", None, None),
    (_SQUARE + "comm a b = d c\n",
     SemanticError, "path not composable at 'd'.'c': d ends at 4, c starts at 1", (7, 6), (9, 9)),
    ("algebra t\nvertex 1\nrelation a b\n",
     ParseError, "unknown declaration 'relation'", (3, 1), (5, 3)),
    ("algebra t\nvertex 1 2 3\narrow a : 1 -> 2\narrow b : 1 -> 3\nzero a b\n",
     SemanticError, "path not composable at 'a'.'b': a ends at 2, b starts at 1", (5, 6), (7, 9)),
    ("algebra t\nvertex 1 2\narrow a : 1 -> 2\narrow b : 2 -> 1\n",
     SemanticError, "ideal-avoiding oriented cycle through vertex '1'", None, None),
]


def _tabbed(text):
    """The same declarations behind two comment lines, each token led by
    a tab or a space and each line ending in a comment: every line moves
    down by two and every column to the right."""
    out = ["# a comment line", "\t# an indented one"]
    for line in text.splitlines():
        out.append(" \t" + "\t ".join(line.split()) + "  # trailing #comment")
    return "\n".join(out) + "\n"


def _outcome(text):
    try:
        name, p = parse(text)
    except (ParseError, SemanticError) as e:
        return type(e).__name__, str(e), e.line, e.col
    return "ok", serialize(name, p)


@pytest.mark.parametrize("tabbed", [False, True], ids=["plain", "tabbed"])
@pytest.mark.parametrize(
    "text,kind,message,at,at_tabbed", PARSE_ERRORS, ids=[str(i) for i in range(len(PARSE_ERRORS))]
)
def test_parse_errors_are_pinned(text, kind, message, at, at_tabbed, tabbed):
    if tabbed:
        text, at = _tabbed(text), at_tabbed
    line, col = at or (None, None)
    if at:
        message = f"line {line}, col {col}: {message}"
    assert _outcome(text) == (kind.__name__, message, line, col)


_SPARE_TOKENS = ["=", ":", "->", "#", "#x", "a#b", "b^", "-", "x9", "1", "algebra", "vertex",
                 "arrow", "zero", "comm"]


_EDITS = ("replace", "drop", "duplicate", "insert", "delete", "tab")


def _mutated(text, rng):
    """The text after one to three random edits: a token replaced, dropped
    or duplicated, a line inserted or deleted, or a line's spaces turned
    into tabs."""
    lines = text.splitlines()
    pool = text.split() + _SPARE_TOKENS
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines) + 1)
        edit = _EDITS[rng.randrange(len(_EDITS))]
        if edit == "insert":
            lines.insert(i, rng.choice(lines + _SPARE_TOKENS))
            continue
        i = min(i, len(lines) - 1)
        if edit == "delete":
            del lines[i]
            if not lines:
                break
            continue
        toks = lines[i].split(" ")
        j = rng.randrange(len(toks))
        if edit == "replace":
            toks[j] = rng.choice(pool)
        elif edit == "drop":
            del toks[j]
        elif edit == "duplicate":
            toks.insert(j, toks[j])
        lines[i] = ("\t" if edit == "tab" else " ").join(toks)
    return "\n".join(lines) + "\n"


# SHA-256 of the outcomes of `parse` on 50 seeded mutations of each fixture,
# recorded before the parser stopped computing a column for every token.
MUTATED_PARSES_SHA256 = "b88314c56d0b49347c42861c1dcfce4ad40b263b53ebe0c9c59b9d72bb143fc8"


def test_mutated_fixture_parses_are_pinned():
    rng = random.Random(20261019)
    outcomes = []
    for name in sorted(FIXTURE_FILES):
        with open(FIXTURE_FILES[name], encoding="utf-8") as fh:
            text = fh.read()
        outcomes += [_outcome(_mutated(text, rng)) for _ in range(50)]
    # the mutations reach most raising branches, not only the first
    kinds = {o[1].rpartition(": ")[2].partition(" '")[0] for o in outcomes if o[0] != "ok"}
    assert len(kinds) >= 10
    digest = hashlib.sha256("\n".join(map(repr, outcomes)).encode()).hexdigest()
    assert digest == MUTATED_PARSES_SHA256


# --- the parse route against the public constructors ------------------------


def _declarations(text):
    """(vertices, arrows, zeros, comms) of a text whose every line parses:
    the declarations as written, unchecked."""
    vertices, arrows, zeros, comms = [], [], [], []
    for line in text.splitlines():
        toks = list(itertools.takewhile(lambda tok: tok[0] != "#", line.split()))
        head, *rest = toks or [None]
        if head == "vertex":
            vertices += rest
        elif head == "arrow":
            arrows.append((rest[0], rest[2], rest[4]))
        elif head == "zero":
            zeros.append(rest)
        elif head == "comm":
            cut = rest.index("=")
            comms.append((rest[:cut], rest[cut + 1 :]))
    return vertices, arrows, zeros, comms


def _public_route(text):
    """The text's declarations fed to `Quiver`, `Quiver.path` and
    `Presentation`, each of which checks its input."""
    vertices, arrows, zeros, comms = _declarations(text)
    q = Quiver(vertices, arrows)
    zeros = [q.path(z) for z in zeros]
    return Presentation(q, zeros, [(q.path(l), q.path(r)) for l, r in comms])


def _fields(p):
    q = p.quiver
    orders = [(v, q.out_arrows(v), q.in_arrows(v)) for v in q.vertices]
    return (q.vertices, q.arrows, list(q.arrow.items()), orders,
            p.zero_paths, p.comm_pairs, p.zero_index())


def _read_every_line(text, error):
    """Whether `parse` raised error after reading every line, in building
    the presentation: an error with no position, a composability error,
    or a second '=' on a comm line.  Before that, `parse` rejects lines
    that the public route never sees."""
    message = str(error)
    if error.line is None or "path not composable" in message:
        return True
    return message.endswith("unknown arrow '='") and (
        text.splitlines()[error.line - 1].split()[0] == "comm"
    )


def test_parse_route_matches_the_public_constructors(corpora):
    """`parse` checks each declaration once and builds through the
    constructors' builders; on every text that reaches the build it
    agrees with the checked constructors, field by field, or on the
    error's class and message."""
    texts = [text for text, *_ in PARSE_ERRORS]
    for name in sorted(FIXTURE_FILES):
        with open(FIXTURE_FILES[name], encoding="utf-8") as fh:
            texts.append(fh.read())
    rng = random.Random(20261019)
    texts += [_mutated(text, rng) for text in texts[-len(FIXTURE_FILES):] for _ in range(50)]
    for generator, seed, size in [(string_corpus, 1, 2000), (string_corpus, 2, 500),
                                  (special_biserial_corpus, 1, 200),
                                  (special_biserial_corpus, 2, 200)]:
        texts += [serialize(f"c{i}", p) for i, p in enumerate(corpora(generator, seed, size))]
    compared = []
    for text in texts:
        try:
            got = _fields(parse(text)[1])
        except ParseError:
            continue
        except SemanticError as e:
            if not _read_every_line(text, e):
                continue
            message = str(e) if e.line is None else str(e).split(": ", 1)[1]
            with pytest.raises(SemanticError) as public:
                _public_route(text)
            assert str(public.value) == message, text
            compared.append(message.split(" ")[0])
            continue
        assert _fields(_public_route(text)) == got, text
        compared.append("ok")
    kinds = collections.Counter(compared)
    assert set(kinds) == {"ok", "path", "commutativity", "ideal-avoiding", "unknown"}, kinds
    assert kinds["ok"] >= 2900 + len(FIXTURE_FILES)
