"""The routes that the automaton-reading checks replaced, kept as
differential oracles.

- `restricted_double_zero`: build the full subpresentation on a set of
  arrows and run the per-generator decision on its own, fresh automaton
  (reach from the generator's start, then a longest path over the part
  no cycle reaches).
- `bfs_find_doze`: one breadth-first search per generator and per cycle
  state it reaches, until one reaches a completion.
- `enumerated_cover`: list the canonical strings and test each one's
  vertices and arrows against every part holding its base.

They run on the seeded corpora 1, 2 and 101 and on random full
subquivers of their members.
"""

import importlib
import random

import pytest

from stringalg import fixtures
from stringalg.automaton import StringAutomaton, enumerate_strings
from stringalg.corpus import special_biserial_corpus, string_corpus
from stringalg.decomp import (
    Decomposition,
    Subcategory,
    decompose,
    support_cover_check,
)
from stringalg.doze import (
    STRICT_LAURA_OR_TILTED,
    _assemble_witness,
    _double_zero_over,
    classify,
    find_doze,
    has_double_zero,
)
from stringalg.errors import CorruptPresentationError, SearchBudgetExceeded
from stringalg.graph import reach, topological_order
from stringalg.presentation import Presentation, Quiver, ZeroRelation, monomial_form
from stringalg.walks import walk_arrows, walk_vertices

SEEDS = (1, 2, 101)
SUBQUIVERS = 8  # random full subquivers per corpus member

automaton_module = importlib.import_module("stringalg.automaton")


def _corpus():
    out = []
    for seed in SEEDS:
        out += string_corpus(seed, 200)
        out += special_biserial_corpus(seed, 40)
    return [monomial_form(p) for p in out]


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


# --- the replaced routes ------------------------------------------------------


def restrict(p, objects, arrow_names):
    """Full subpresentation on the given objects and arrows: the
    generators all of whose arrows lie among them."""
    q = p.quiver
    sub = Quiver(
        sorted(objects),
        [(a.name, a.source, a.target) for a in q.arrows if a.name in arrow_names],
    )
    rels = [ZeroRelation(sub.path(g)) for g in p.zero_paths if set(g) <= arrow_names]
    return Presentation(sub, rels)


def restricted_double_zero(p):
    """has_double_zero on a fresh automaton, one generator at a time."""
    aut = StringAutomaton(p)
    gens = p.zero_paths
    cyc = aut.cycle_states()
    for g in gens:
        s0 = aut.state_after_direct_path(g[1:])
        if s0 is None:
            continue
        after = reach([s0], aut.successors)
        from_cyc = reach(after & cyc, aut.successors)
        longest = _dag_longest_from(aut, s0, after - from_cyc)
        for f in after:
            limit = None if f in from_cyc else longest.get(f, -1)
            for gen_idx, _x in aut.completions(f):
                if limit is None or len(gens[gen_idx]) - 1 <= limit:
                    return True
    return False


def _dag_longest_from(aut, s0, dag):
    if s0 not in dag:
        return {}
    succ = lambda s: [t for t in aut.successors(s) if t in dag]
    longest = {s0: 0}
    for s in topological_order([s0], succ):
        for t in succ(s):
            if longest[s] + 1 > longest.get(t, -1):
                longest[t] = longest[s] + 1
    return longest


def bfs_find_doze(p):
    aut = StringAutomaton(p)
    gens = p.zero_paths
    cyc = aut.cycle_states()
    for g in gens:
        s0 = aut.state_after_direct_path(g[1:])
        if s0 is None:
            continue
        dist1, par1 = aut.bfs([s0])
        for q in sorted((s for s in dist1 if s in cyc), key=lambda s: (dist1[s], s)):
            dist2, par2 = aut.bfs([q])
            for f in sorted(dist2, key=lambda s: (dist2[s], s)):
                comps = aut.completions(f)
                if comps:
                    comps.sort(key=lambda c: (gens[c[0]], c[1]))
                    return _assemble_witness(p, aut, g, q, par1, (f, comps[0]), par2)
    return None


def enumerated_cover(p, max_len, dec):
    q = p.quiver
    parts_at = {}
    for part in dec.parts:
        for v in part.objects:
            parts_at.setdefault(v, []).append(part)
    for w in enumerate_strings(p, max_len):
        vertices = set(walk_vertices(q, w))
        arrows = walk_arrows(w)
        if not any(
            vertices <= part.objects and arrows <= part.arrows
            for part in parts_at.get(w.base, ())
        ):
            return False
    return True


def _outcome(check, *args):
    try:
        return check(*args)
    except SearchBudgetExceeded:
        return "budget"


# --- double-zeros -------------------------------------------------------------


def test_has_double_zero_matches_the_per_generator_route(corpus):
    answers = [has_double_zero(p) for p in corpus]
    assert answers == [restricted_double_zero(p) for p in corpus]
    assert any(answers) and not all(answers)


def test_part_decision_matches_the_restricted_automaton(corpus):
    rng = random.Random(9)
    agree = positive = 0
    for p in corpus:
        q = p.quiver
        for _ in range(SUBQUIVERS):
            objects = {v for v in q.vertices if rng.random() < 0.7}
            arrows = {a.name for a in q.arrows if a.source in objects and a.target in objects}
            want = restricted_double_zero(restrict(p, objects, arrows))
            assert _double_zero_over(p, frozenset(arrows)) == want, (p.quiver.arrows, arrows)
            agree += 1
            positive += want
    assert agree == SUBQUIVERS * len(corpus)
    assert 0 < positive < agree


def test_side_part_decisions_match_the_restricted_automaton(corpus, thirteen):
    checked = 0
    for p in corpus + [thirteen]:
        if classify(p).verdict != STRICT_LAURA_OR_TILTED:
            continue
        try:
            dec = decompose(p)
        except CorruptPresentationError:
            continue  # the side part depends on the anchor (a known defect)
        for part in dec.side_parts:
            sub = restrict(p, part.objects, part.arrows)
            assert _double_zero_over(p, part.arrows) == restricted_double_zero(sub)
            checked += 1
    assert checked > 50


def test_find_doze_matches_the_bfs_route(corpus, skew6):
    found = 0
    for p in corpus + [skew6]:
        got, want = find_doze(p), bfs_find_doze(p)
        assert (got and got.serialize()) == (want and want.serialize())
        found += got is not None
    assert found > 20


# --- support cover ------------------------------------------------------------


def _decompositions(corpus):
    for p in corpus + [fixtures.thirteen()]:
        if classify(p).verdict != STRICT_LAURA_OR_TILTED:
            continue
        try:
            dec = decompose(p)
        except CorruptPresentationError:
            continue
        yield p, dec
        m = dec.middle
        for v in sorted(m.objects)[:2]:
            middle = Subcategory(m.label, m.objects - {v}, m.arrows, m.anchor, m.band)
            yield p, Decomposition(dec.a_parts, dec.b_parts, middle, dec.notes, dec.analyzed)
        for a in sorted(m.arrows)[:1]:
            middle = Subcategory(m.label, m.objects, m.arrows - {a}, m.anchor, m.band)
            yield p, Decomposition(dec.a_parts, dec.b_parts, middle, dec.notes, dec.analyzed)


def test_support_cover_matches_the_enumeration(corpus):
    answers = []
    for p, dec in _decompositions(corpus):
        for n in range(-1, 9):
            got = _outcome(support_cover_check, p, n, dec)
            assert got == _outcome(enumerated_cover, p, n, dec), (n, dec)
            answers.append(got)
    assert True in answers and False in answers


def test_support_cover_spends_the_same_budget(monkeypatch, thirteen):
    dec = decompose(thirteen)
    m = dec.middle
    broken = Decomposition(
        dec.a_parts,
        dec.b_parts,
        Subcategory(m.label, m.objects - {"7"}, m.arrows, m.anchor, m.band),
        dec.notes,
        dec.analyzed,
    )
    answers = set()
    for cap in (50, 200, 1000):
        monkeypatch.setattr(automaton_module, "_WALK_CAP", cap)
        for d in (dec, broken):
            for n in (3, 6, 10):
                got = _outcome(support_cover_check, thirteen, n, d)
                assert got == _outcome(enumerated_cover, thirteen, n, d), (cap, n)
                answers.add(got)
    assert answers == {True, False, "budget"}

