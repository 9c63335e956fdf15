import importlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import contains_subpath
from stringalg import fixtures
from stringalg.cli import main
from stringalg.corpus import special_biserial_corpus
from stringalg.doze import classify
from stringalg.errors import (
    InfiniteDimensionalError,
    PreconditionError,
    SemanticError,
)
from stringalg.presentation import (
    Presentation,
    Quiver,
    minimalize,
    monomial_form,
    path_in_ideal,
    quotient_by_J,
    validate_special_biserial,
    validate_string_algebra,
)

ROOT = Path(__file__).resolve().parents[1]
presentation_module = importlib.import_module("stringalg.presentation")


def square(zeros=(), comms=((["a", "b"], ["c", "d"]),)):
    return Presentation.build(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")],
        zeros=zeros,
        comms=comms,
    )


def square_with_parallel_arrow():
    """The commutative square plus a second arrow 2 -> 4: three arrows end
    at 4, so it is not special biserial, and it is not monomial."""
    return Presentation.build(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4"), ("e", "2", "4")],
        comms=[(["a", "b"], ["c", "d"])],
    )


def test_quiver_rejects_unknown_endpoints():
    with pytest.raises(SemanticError):
        Quiver(["1"], [("a", "1", "2")])


def test_quiver_rejects_an_unknown_source():
    with pytest.raises(SemanticError, match="arrow 'a': unknown vertex '0'"):
        Quiver(["1"], [("a", "0", "1")])


def test_quiver_rejects_duplicate_vertex_ids():
    with pytest.raises(SemanticError, match="duplicate vertex id"):
        Quiver(["1", "1"], [])


def test_path_needs_an_arrow():
    with pytest.raises(SemanticError, match="a path needs at least one arrow"):
        Quiver(["1"], []).path([])


def test_quiver_rejects_duplicate_arrow_ids():
    with pytest.raises(SemanticError):
        Quiver(["1", "2"], [("a", "1", "2"), ("a", "2", "1")])


def test_path_composability_enforced():
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    assert q.path(["a", "b"]).source == "1"
    assert q.path(["a", "b"]).target == "3"
    with pytest.raises(SemanticError):
        q.path(["b", "a"])


def test_zero_relation_needs_length_two():
    q = Quiver(["1", "2"], [("a", "1", "2")])
    with pytest.raises(SemanticError, match=r"^zero relation a has length < 2$"):
        Presentation(q, [q.path(["a"])])


def test_commutativity_sides_must_be_parallel_and_distinct():
    q = Quiver(
        ["1", "2", "3", "4", "5"],
        [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "5")],
    )
    with pytest.raises(SemanticError, match=r"^commutativity a\.b = c\.d: sides not parallel$"):
        Presentation(q, comms=[(q.path(["a", "b"]), q.path(["c", "d"]))])
    with pytest.raises(SemanticError, match=r"^commutativity a\.b = a\.b: sides not distinct$"):
        Presentation(q, comms=[(q.path(["a", "b"]), q.path(["a", "b"]))])
    with pytest.raises(SemanticError, match=r"sides must have length >= 2$"):
        Presentation(q, comms=[(q.path(["a", "b"]), q.path(["c"]))])


def test_minimalize_drops_containing_generators():
    assert minimalize([("a", "b"), ("a", "b", "c")]) == [("a", "b")]
    assert minimalize([("x", "y", "z"), ("y", "z"), ("x", "y")]) == [
        ("x", "y"),
        ("y", "z"),
    ]


def test_minimalize_is_idempotent():
    gens = [("a", "b"), ("b", "c", "d"), ("a", "b", "c"), ("d", "e")]
    once = minimalize(gens)
    assert minimalize(once) == once


def test_presentation_minimalizes_on_load():
    p = Presentation.build(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")],
        zeros=[["a", "b"], ["a", "b", "c"]],
    )
    assert p.zero_paths == (("a", "b"),)


def test_infinite_dimensional_cycle_rejected():
    with pytest.raises(InfiniteDimensionalError):
        Presentation.build(
            ["1", "2"], [("a", "1", "2"), ("b", "2", "1")], zeros=[]
        )


@pytest.mark.parametrize(
    "vertices, arrows",
    [
        (["1"], [("e", "1", "1")]),
        (["1", "2"], [("a", "1", "2"), ("b", "2", "1")]),
    ],
    ids=["loop", "two-cycle"],
)
def test_infinite_dimensional_message_is_pinned(vertices, arrows):
    with pytest.raises(InfiniteDimensionalError) as err:
        Presentation.build(vertices, arrows)
    assert str(err.value) == "ideal-avoiding oriented cycle through vertex '1'"


def test_relation_bound_cycle_accepted():
    p = Presentation.build(
        ["1", "2"],
        [("a", "1", "2"), ("b", "2", "1")],
        zeros=[["a", "b"], ["b", "a"]],
    )
    assert p.zero_paths == (("a", "b"), ("b", "a"))


def test_loop_power_relation_gives_finite_dimension():
    p = Presentation.build(["1"], [("e", "1", "1")], zeros=[["e", "e"]])
    assert p.zero_paths == (("e", "e"),)
    with pytest.raises(InfiniteDimensionalError):
        Presentation.build(["1"], [("e", "1", "1")])


# --- path_in_ideal -------------------------------------------------------


def test_path_in_ideal_on_skew6(skew6):
    q = skew6.quiver
    assert path_in_ideal(skew6, q.path(["alpha", "beta1"]))
    assert not path_in_ideal(skew6, q.path(["beta1", "gamma1"]))


def test_single_arrow_never_in_ideal(skew6):
    for a in skew6.quiver.arrows:
        assert not path_in_ideal(skew6, (a.name,))


def test_path_in_ideal_monotone_under_extension(skew6):
    q = skew6.quiver
    assert path_in_ideal(skew6, q.path(["alpha", "beta1", "gamma1"]))
    assert path_in_ideal(skew6, q.path(["beta1", "gamma1", "delta"]))


def test_path_in_ideal_rejects_commutativity_interference(commsquare):
    q = commsquare.quiver
    with pytest.raises(PreconditionError):
        path_in_ideal(commsquare, q.path(["a", "b"]))
    # paths not containing a commutativity side are fine
    assert not path_in_ideal(commsquare, ("a",))


# --- validators ----------------------------------------------------------


def test_skew6_is_string_algebra(skew6):
    assert validate_string_algebra(skew6).is_valid


def test_single_vertex_is_string_algebra():
    p = Presentation.build(["x"], [])
    assert validate_string_algebra(p).is_valid


def test_nine_fails_unique_continuation_at_beta1(nine):
    report = validate_string_algebra(nine)
    assert not report.is_valid
    sites = {(v.site, v.kind) for v in report.by_condition(2)}
    assert ("beta1", "successors") in sites
    detail = {
        v.detail for v in report.by_condition(2) if v.site == "beta1"
    }
    assert ("gamma1", "gamma2") in detail


def test_three_arrows_out_of_one_vertex_fails_condition_1():
    p = Presentation.build(
        ["0", "1", "2", "3"],
        [("a", "0", "1"), ("b", "0", "2"), ("c", "0", "3")],
    )
    report = validate_special_biserial(p)
    assert not report.is_valid
    assert any(v.condition == 1 and v.site == "0" for v in report.violations)


def test_string_algebra_implies_special_biserial(skew6, thirteen):
    for p in (skew6, thirteen):
        assert validate_string_algebra(p).is_valid
        assert validate_special_biserial(p).is_valid


def test_commutative_square_is_special_biserial_not_string(commsquare):
    assert validate_special_biserial(commsquare).is_valid
    report = validate_string_algebra(commsquare)
    assert not report.is_valid
    assert report.by_condition(3)
    assert not report.by_condition(1) and not report.by_condition(2)


@pytest.mark.parametrize(
    "build",
    [fixtures.commutative_square, fixtures.nine, fixtures.skew6, square_with_parallel_arrow],
)
def test_validators_do_not_depend_on_call_order(build):
    fresh = (validate_string_algebra(build()), validate_special_biserial(build()))
    p = build()
    assert (validate_string_algebra(p), validate_special_biserial(p)) == fresh
    q = build()
    assert (validate_special_biserial(q), validate_string_algebra(q))[::-1] == fresh
    # the commutativity entries go to a copy, never into the shared scan
    for r in (p, q):
        assert validate_string_algebra(r) == fresh[0]
        assert not any(v.condition == 3 for v in validate_special_biserial(r).violations)
        assert validate_special_biserial(r) == fresh[1]


def _count_scans(monkeypatch):
    scanned = []
    scan = presentation_module._scan_axioms
    monkeypatch.setattr(
        presentation_module, "_scan_axioms", lambda p: scanned.append(p) or scan(p)
    )
    return scanned


def test_classify_scans_the_input_and_its_quotient_once(monkeypatch):
    scanned = _count_scans(monkeypatch)
    p = fixtures.commutative_square()
    classify(p)
    assert scanned == [p, monomial_form(p)]
    # the corpus validates each draw as it makes it; classify reuses that scan
    scanned.clear()
    draws = [p for p in special_biserial_corpus(7, 40) if not p.is_monomial]
    for p in draws:
        assert sum(q is p for q in scanned) == 1
    scanned.clear()
    classify(draws[0])
    assert scanned == [monomial_form(draws[0])]


def test_cli_validate_scans_once(monkeypatch, capsys):
    scanned = _count_scans(monkeypatch)
    for name in ("nine.alg", "commsquare.alg"):
        scanned.clear()
        assert main(["validate", str(ROOT / "fixtures" / name)]) == 0
        assert len(scanned) == 1
    capsys.readouterr()


# --- quotient_by_J -------------------------------------------------------


def test_quotient_of_commutative_square(commsquare):
    j = quotient_by_J(commsquare)
    assert j.zero_paths == (("a", "b"), ("c", "d"))
    assert j.is_monomial
    assert validate_string_algebra(j).is_valid


def test_quotient_leaves_monomial_presentations_unchanged(skew6):
    assert quotient_by_J(skew6) == skew6


def test_quotient_reminimalizes_redundant_zero():
    p = square(zeros=[["a", "b"]])
    # the commutativity side lies in the ideal, so the relation degrades
    # to two zero relations at load
    assert p.is_monomial
    assert p.zero_paths == (("a", "b"), ("c", "d"))
    assert quotient_by_J(p) == p


def test_quotient_rejects_non_special_biserial(nine):
    with pytest.raises(PreconditionError):
        quotient_by_J(nine)


def test_quotient_output_is_string_algebra_on_random_special_biserial():
    from stringalg.corpus import special_biserial_corpus

    for p in special_biserial_corpus(99, 25) + [fixtures.commutative_square()]:
        j = quotient_by_J(p)
        assert validate_string_algebra(j).is_valid
        for left, right in p.comm_pairs:
            assert path_in_ideal(j, left) and path_in_ideal(j, right)
        # the same presentation as one built, and checked, from its relations
        q = p.quiver
        built = Presentation(q, [q.path(g) for g in p.monomial_generators()])
        assert j == built and vars(j).keys() == vars(built).keys()


# --- monomial_form and cached facts --------------------------------------


def test_monomial_form_is_the_cached_J_quotient(commsquare, skew6):
    j = monomial_form(commsquare)
    assert j == quotient_by_J(commsquare)
    assert monomial_form(commsquare) is j
    assert monomial_form(skew6) is skew6
    # a presentation held in its own cache would be a reference cycle
    assert all(value is not skew6 for value in skew6._cache.values())


def test_monomial_form_keeps_the_quotient_precondition():
    with pytest.raises(PreconditionError, match="^quotient_by_J requires a special biserial"):
        monomial_form(square_with_parallel_arrow())


def test_max_generator_length_reads_the_generators_once():
    p = fixtures.thirteen()
    calls = []
    generators = p.monomial_generators
    p.monomial_generators = lambda: calls.append(1) or generators()
    assert [p.max_generator_length() for _ in range(3)] == [2, 2, 2]
    assert len(calls) == 1


def test_zero_index_is_the_constructors_last_index(monkeypatch):
    """The index the degenerate-commutativity loop built last is the
    index of the final zero generators, kept rather than built again."""
    presentations = [square(zeros=[["a", "b"]]), square(), fixtures.thirteen()]
    presentations += special_biserial_corpus(5, 20)
    assert presentations[0].zero_paths == (("a", "b"), ("c", "d"))
    window_index = presentation_module.window_index
    expected = [window_index(p.zero_paths) for p in presentations]

    def rebuilt(paths):
        raise AssertionError("zero_index rebuilt its index")

    monkeypatch.setattr(presentation_module, "window_index", rebuilt)
    assert [p.zero_index() for p in presentations] == expected


# --- indexed subpath tests against pairwise scans --------------------------


def scan_minimalize(paths):
    """Reference: compare each candidate with every path kept so far."""
    unique = sorted(set(tuple(p) for p in paths), key=lambda p: (len(p), p))
    kept = []
    for p in unique:
        if not any(contains_subpath(p, q) for q in kept):
            kept.append(p)
    return kept


def scan_path_in_ideal(p, arrows):
    """Reference: test every commutativity side, then every generator."""
    for l, r in p.comm_pairs:
        if contains_subpath(arrows, l) or contains_subpath(arrows, r):
            raise PreconditionError("membership depends on a commutativity relation")
    return any(contains_subpath(arrows, g) for g in p.zero_paths)


# A three-letter alphabet makes containments common.  The empty path is a
# subpath of every path, so it must drop every other path, as in the
# reference.
short_paths = st.lists(st.sampled_from("abc"), max_size=7).map(tuple)


@given(st.lists(short_paths, max_size=16))
@settings(max_examples=200)
def test_minimalize_matches_pairwise_reference(paths):
    assert minimalize(paths) == scan_minimalize(paths)


MEMBERSHIP_CASES = [
    fixtures.skew6(),
    fixtures.thirteen(),
    fixtures.nine(),
    fixtures.commutative_square(),
] + special_biserial_corpus(20260809, 12)


@st.composite
def oriented_paths(draw):
    """A presentation and an oriented path in its quiver, of length 1-8."""
    p = draw(st.sampled_from(MEMBERSHIP_CASES))
    q = p.quiver
    at = draw(st.sampled_from([v for v in q.vertices if q.out_arrows(v)]))
    names = []
    for _ in range(draw(st.integers(1, 8))):
        if not q.out_arrows(at):
            break
        a = draw(st.sampled_from(q.out_arrows(at)))
        names.append(a.name)
        at = a.target
    return p, tuple(names)


@given(oriented_paths())
@settings(max_examples=200)
def test_path_in_ideal_matches_generator_scan(case):
    p, arrows = case
    try:
        expected = scan_path_in_ideal(p, arrows)
    except PreconditionError:
        with pytest.raises(PreconditionError):
            path_in_ideal(p, arrows)
        return
    assert path_in_ideal(p, arrows) == expected
