import gc
import importlib
import weakref

import pytest

from stringalg import fixtures, rep
from stringalg.automaton import (
    automaton,
    band_census,
    enumerate_bands,
    enumerate_strings,
    exists_band,
    pumping_bound,
    strings_of_length,
)
from stringalg.errors import SearchBudgetExceeded
from stringalg.fixtures import linear_a3
from stringalg.presentation import Presentation
from stringalg.walks import (
    Walk,
    direct,
    inverse,
    is_string,
    serialize_band,
    serialize_walk,
)


def all_walks_up_to(p, max_len):
    """Every composable walk (reduced or not), for acceptance cross-checks."""
    q = p.quiver
    out = []
    stack = [(Walk(v, ()), v) for v in q.vertices]
    while stack:
        w, at = stack.pop()
        out.append(w)
        if len(w.letters) >= max_len:
            continue
        for a in q.out_arrows(at):
            stack.append((Walk(w.base, w.letters + (direct(a.name),)), a.target))
        for a in q.in_arrows(at):
            stack.append((Walk(w.base, w.letters + (inverse(a.name),)), a.source))
    return out


def test_automaton_accepts_exactly_the_strings(skew6, thirteen, nine, commsquare, corpus500):
    from stringalg.presentation import quotient_by_J

    # Corpus quivers with a vertex of degree 4 have up to 175k walks of
    # length <= 8; the slice keeps those of degree <= 3 (about 20 of the
    # first 30 instances, 70k walks).
    corpus_slice = [
        p
        for p in corpus500[:30]
        if all(len(p.quiver.out_arrows(v)) + len(p.quiver.in_arrows(v)) <= 3 for v in p.quiver.vertices)
    ]
    for p in [skew6, thirteen, nine, quotient_by_J(commsquare)] + corpus_slice:
        aut = automaton(p)
        for w in all_walks_up_to(p, 8):
            assert aut.accepts(w) == is_string(p, w), serialize_walk(w)


def test_enumerate_strings_small_quiver():
    p = Presentation.build(["1", "2"], [("a", "1", "2")])
    got = {serialize_walk(w) for w in enumerate_strings(p, 1)}
    assert got == {"1:", "2:", "1: a"}


def test_enumerate_strings_skew6_length_one(skew6):
    walks = enumerate_strings(skew6, 1)
    assert len(walks) == 12  # 6 trivial walks plus 6 single arrows
    assert sum(1 for w in walks if not w.letters) == 6


def test_enumerate_strings_skew6_length_two(skew6):
    texts = {serialize_walk(w) for w in enumerate_strings(skew6, 2)}
    assert "x2: beta1 gamma1" in texts
    assert "x1: alpha beta1" not in texts
    assert "x4: beta1^-1 alpha^-1" not in texts


def test_enumerate_strings_matches_naive_filter(skew6):
    from stringalg.walks import canonical_string

    naive = set()
    for w in all_walks_up_to(skew6, 5):
        if is_string(skew6, w):
            naive.add(canonical_string(skew6.quiver, w))
    assert set(enumerate_strings(skew6, 5)) == naive


def test_strings_of_length_window(thirteen):
    for w in strings_of_length(thirteen, range(3, 5)):
        assert 3 <= len(w.letters) <= 4


def test_enumerate_bands_thirteen(thirteen):
    got = [serialize_band(b) for b in enumerate_bands(thirteen, 2)]
    assert got == [
        "band: 2: rho1 rho2^-1",
        "band: 4: rho3 rho4^-1",
        "band: 11: rho5 rho6^-1",
        "band: 13: rho7 rho8^-1",
    ]


def test_enumerate_bands_skew6(skew6):
    got = [serialize_band(b) for b in enumerate_bands(skew6, 4)]
    assert got == ["band: x2: beta1 gamma1 gamma2^-1 beta2^-1"]


def test_linear_quiver_has_no_bands():
    p = linear_a3()
    assert enumerate_bands(p, 6) == []
    assert not exists_band(p)


def test_exists_band_on_fixtures(skew6, thirteen):
    assert exists_band(skew6)
    assert exists_band(thirteen)


def test_band_census_matches_enumeration(skew6, thirteen):
    assert band_census(thirteen) == enumerate_bands(thirteen, 2)
    assert band_census(skew6) == enumerate_bands(skew6, 4)


def test_exists_band_agrees_with_enumeration_at_witness_length(corpus500):
    for p in corpus500[:120]:
        if exists_band(p):
            census = band_census(p)
            assert census, "cycle in the automaton but no band in the census"
            shortest = min(len(b) for b in census)
            assert enumerate_bands(p, shortest)
        else:
            assert enumerate_bands(p, 8) == []


def test_pumping_bound_exceeds_state_count(skew6, thirteen):
    for p in (skew6, thirteen):
        assert pumping_bound(p) == len(automaton(p)) + 2 * p.max_generator_length()
        assert pumping_bound(p) > len(automaton(p))


def test_census_bands_are_bands(corpus500):
    from stringalg.walks import is_band

    for p in corpus500[:60]:
        for b in band_census(p):
            assert is_band(p, b)


@pytest.mark.parametrize(
    "use",
    [automaton, lambda p: rep.conjecture_scan(p, 9)],
    ids=["automaton", "conjecture_scan"],
)
def test_presentation_is_freed_without_the_cycle_collector(use):
    """The cached automaton holds no reference back to its presentation,
    so dropping the presentation frees it by reference counting alone."""
    gc.disable()
    try:
        p = fixtures.thirteen()
        ref = weakref.ref(p)
        use(p)
        del p
        assert ref() is None
    finally:
        gc.enable()


def test_band_census_cap_is_a_search_budget(monkeypatch):
    # thirteen's automaton has more than two simple cycles
    monkeypatch.setattr(importlib.import_module("stringalg.automaton"), "_CENSUS_CAP", 2)
    with pytest.raises(SearchBudgetExceeded, match="band census exceeded the cycle cap"):
        band_census(fixtures.thirteen())
