import pytest

from stringalg.decomp import (
    Decomposition,
    Subcategory,
    check_structure,
    choose_anchor,
    d_category,
    decompose,
    support_cover_check,
)
from stringalg.errors import PreconditionError
from stringalg.presentation import Presentation
from stringalg.walks import (
    inverse_walk,
    parse_band,
    parse_walk,
    trivial_walk,
    walk_vertices,
)


def test_d_category_on_exiting_band_anchor(thirteen):
    cat = d_category(thirteen, trivial_walk(thirteen.quiver, "11"))
    assert cat.objects == {"8", "10", "11"}
    assert cat.arrows == {"rho5", "rho6", "delta1"}


def test_d_category_single_vertex():
    p = Presentation.build(["x"], [])
    cat = d_category(p, trivial_walk(p.quiver, "x"))
    assert cat.objects == {"x"}
    assert cat.arrows == frozenset()


def test_d_category_of_middle_vertex(thirteen):
    cat = d_category(thirteen, trivial_walk(thirteen.quiver, "7"))
    assert cat.objects == {"5", "6", "7", "8", "9"}


def test_d_category_of_nonempty_string(thirteen):
    w = parse_walk(thirteen.quiver, "9: gamma2 beta1")
    cat = d_category(thirteen, w)
    assert cat.objects == {"5", "7", "9"}
    assert cat.arrows == {"gamma2", "beta1"}


def test_d_category_invariant_under_inversion(thirteen):
    q = thirteen.quiver
    for text in ("9: gamma2 beta1", "11: rho5 rho6^-1", "7: beta1"):
        w = parse_walk(q, text)
        a = d_category(thirteen, w)
        b = d_category(thirteen, inverse_walk(q, w))
        assert (a.objects, a.arrows) == (b.objects, b.arrows)


def test_d_category_rejects_non_strings(skew6):
    with pytest.raises(PreconditionError):
        d_category(skew6, parse_walk(skew6.quiver, "x1: alpha beta1"))


def test_extensions_stay_inside_the_closure(thirteen):
    # every string containing w has all its vertices inside D(w)
    from stringalg.automaton import enumerate_strings

    q = thirteen.quiver
    w = parse_walk(q, "7: beta1")
    cat = d_category(thirteen, w)
    for s in enumerate_strings(thirteen, 6):
        letters = s.letters
        for i in range(len(letters) - len(w.letters) + 1):
            if letters[i : i + len(w.letters)] == w.letters:
                assert set(walk_vertices(q, s)) <= cat.objects
                break


# --- anchors ---------------------------------------------------------------


def band(p, text):
    return parse_band(p.quiver, text)


def test_choose_anchor_prefers_fully_internal_vertex(thirteen):
    assert choose_anchor(thirteen, band(thirteen, "band: 11: rho5 rho6^-1")) == "11"
    assert choose_anchor(thirteen, band(thirteen, "band: 13: rho7 rho8^-1")) == "13"


def test_choose_anchor_dual_side(thirteen):
    assert (
        choose_anchor(thirteen, band(thirteen, "band: 2: rho1 rho2^-1"), side="in")
        == "1"
    )


def test_choose_anchor_boundaryless_band():
    p = Presentation.build(["1", "2"], [("a", "2", "1"), ("b", "2", "1")])
    assert choose_anchor(p, band(p, "band: 2: a b^-1")) == "1"


# --- the decomposition ------------------------------------------------------


def test_thirteen_decomposition_matches_expected_parts(thirteen):
    dec = decompose(thirteen)
    assert [sorted(part.objects) for part in dec.a_parts] == [
        ["10", "11", "8"],
        ["12", "13", "9"],
    ]
    assert [sorted(part.objects) for part in dec.b_parts] == [
        ["1", "2", "5"],
        ["3", "4", "6"],
    ]
    assert sorted(dec.middle.objects) == ["5", "6", "7", "8", "9"]
    assert sorted(dec.middle.arrows) == ["beta1", "beta2", "gamma1", "gamma2"]


def test_decomposition_covers_every_vertex(thirteen):
    dec = decompose(thirteen)
    covered = set().union(*(part.objects for part in dec.parts))
    assert covered == set(thirteen.quiver.vertices)


def test_decompose_rejects_single_hereditary_band():
    p = Presentation.build(["1", "2"], [("a", "2", "1"), ("b", "2", "1")])
    with pytest.raises(PreconditionError):
        decompose(p)


def test_decompose_rejects_doze_bearing_input(skew6):
    with pytest.raises(PreconditionError):
        decompose(skew6)


def test_decompose_is_deterministic(thirteen):
    a = decompose(thirteen)
    b = decompose(thirteen)
    assert [p.objects for p in a.parts] == [p.objects for p in b.parts]
    assert [p.anchor for p in a.side_parts] == [p.anchor for p in b.side_parts]


# --- structure checks -------------------------------------------------------


def test_thirteen_passes_all_structure_checks(thirteen):
    report = check_structure(thirteen)
    assert report.all_pass, report.details


def test_unique_cycle_details(thirteen):
    dec = decompose(thirteen)
    a1 = dec.a_parts[0]
    # three objects, three arrows, one component: exactly one cycle
    assert len(a1.objects) == 3 and len(a1.arrows) == 3


def test_corrupted_quiver_fails_no_entry(thirteen):
    dec = decompose(thirteen)
    arrows = [(a.name, a.source, a.target) for a in thirteen.quiver.arrows]
    arrows.append(("intruder", "7", "10"))
    corrupted = Presentation.build(
        list(thirteen.quiver.vertices),
        arrows,
        zeros=[list(g) for g in thirteen.zero_paths],
    )
    report = check_structure(corrupted, dec)
    assert not report.no_entry
    assert any("intruder" in d for d in report.details)


def test_support_cover_check_on_thirteen(thirteen):
    assert support_cover_check(thirteen, 10)


def test_support_cover_fails_with_truncated_middle(thirteen):
    dec = decompose(thirteen)
    m = dec.middle
    middle = Subcategory(m.label, m.objects - {"7"}, m.arrows, m.anchor, m.band)
    broken = Decomposition(dec.a_parts, dec.b_parts, middle, dec.notes, dec.analyzed)
    assert not support_cover_check(thirteen, 10, broken)


def test_single_entering_band_decomposes_into_one_left_part():
    p = Presentation.build(
        ["0", "1", "2"],
        [("a", "2", "1"), ("b", "2", "1"), ("e", "0", "2")],
        zeros=[["e", "a"]],
    )
    dec = decompose(p)
    assert not dec.a_parts
    assert [part.anchor for part in dec.b_parts] == ["1"]
    assert dec.b_parts[0].objects == {"0", "1", "2"}
    assert support_cover_check(p, 8, dec)
    assert check_structure(p, dec).all_pass


def test_decompose_special_biserial_through_the_quotient():
    p = Presentation.build(
        ["0", "1", "2", "3", "4", "5"],
        [
            ("a", "2", "1"),
            ("b", "2", "1"),
            ("e", "0", "2"),
            ("c", "3", "4"),
            ("d", "4", "0"),
            ("f", "3", "5"),
            ("g", "5", "0"),
        ],
        zeros=[["e", "a"], ["g", "e"]],
        comms=[(["c", "d"], ["f", "g"])],
    )
    dec = decompose(p)
    assert dec.analyzed.is_monomial
    assert any("J-quotient" in n for n in dec.notes)
    assert check_structure(p, dec).all_pass
    assert support_cover_check(p, 8, dec)
