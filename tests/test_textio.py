import pytest

from stringalg import fixtures
from stringalg.errors import ParseError, SemanticError
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
