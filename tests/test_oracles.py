"""The routes that the table-driven and automaton-reading code replaced,
kept as differential oracles.

- `stepped_build`: the string automaton built by `reach` over
  `stepped` from every candidate letter, edges sorted, then
  `completions` asked of every state.
- `runs_is_string`: reducedness, then each maximal same-direction run
  read as an oriented path and searched with `has_window`.
- `restricted_double_zero`: build the full subpresentation on a set of
  arrows and run the per-generator decision on its own, fresh automaton
  (reach from the generator's start, then a longest path over the part
  no cycle reaches).
- `bfs_find_doze`: one breadth-first search per generator and per cycle
  state it reaches, until one reaches a completion.
- `enumerated_cover`: list the canonical strings and test each one's
  vertices and arrows against every part holding its base.

They run on the seeded corpora 1, 2 and 101, on random full subquivers
of their members, and on random letter sequences.
"""

import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringalg import fixtures
from stringalg.automaton import AutoState, StringAutomaton, enumerate_strings
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
from stringalg.presentation import (
    Presentation,
    Quiver,
    ZeroRelation,
    has_window,
    monomial_form,
)
from stringalg.walks import (
    Walk,
    direct,
    inverse,
    is_reduced,
    is_string,
    letter_ends,
    walk_arrows,
    walk_vertices,
)

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


def stepped(aut, s, letter):
    """State s extended by one letter, from the matchers alone; None when
    the extension is not a string."""
    if letter.arrow == s.arrow and letter.inverse != s.inverse:
        return None
    if letter_ends(aut.quiver, letter)[0] != aut.state_vertex(s):
        return None
    ac = aut.acr if letter.inverse else aut.acf
    node, hit = ac.advance(s.node if letter.inverse == s.inverse else 0, letter.arrow)
    return None if hit is not None else AutoState(letter.arrow, letter.inverse, node)


def completions(aut, s):
    """Direct letters that would complete a generator occurrence after
    state s, as (generator index, arrow name) pairs."""
    out = []
    for a in aut.quiver.out_arrows(aut.state_vertex(s)):
        if s.inverse and a.name == s.arrow:
            continue
        _node, hit = aut.acf.advance(0 if s.inverse else s.node, a.name)
        if hit is not None:
            out.append((hit, a.name))
    return out


def _candidate_letters(q, s):
    v = letter_ends(q, s.letter)[1]
    letters = [direct(a.name) for a in q.out_arrows(v)]
    letters += [inverse(a.name) for a in q.in_arrows(v)]
    return sorted(letters)


def stepped_build(p):
    """(states, edges, completing) of the automaton, one `stepped` per
    candidate letter."""
    aut = StringAutomaton(p)
    q = p.quiver
    edges = {}

    def succ(s):
        steps = (stepped(aut, s, letter) for letter in _candidate_letters(q, s))
        edges[s] = tuple(sorted(t for t in steps if t is not None))
        return edges[s]

    reach([aut.initial_state(f(a.name)) for a in q.arrows for f in (direct, inverse)], succ)
    states = tuple(sorted(edges))
    return states, edges, {s: c for s in states if (c := completions(aut, s))}


def maximal_runs(w):
    """Maximal same-direction segments as (inverse?, letters) pairs."""
    runs = []
    for l in w.letters:
        if runs and runs[-1][0] == l.inverse:
            runs[-1][1].append(l)
        else:
            runs.append((l.inverse, [l]))
    return runs


def run_oriented_arrows(inv, letters):
    """The run read as an oriented path; inverse runs read against the
    arrow direction, i.e. reversed."""
    names = [l.arrow for l in letters]
    return tuple(reversed(names)) if inv else tuple(names)


def runs_is_string(p, w):
    if not is_reduced(w):
        return False
    index = p.zero_index()
    return not any(
        has_window(run_oriented_arrows(inv, letters), index) for inv, letters in maximal_runs(w)
    )


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
            for gen_idx, _x in completions(aut, f):
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
                comps = completions(aut, f)
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


# --- the automaton build and is_string -----------------------------------------


def _fixtures():
    return [monomial_form(build()) for build in fixtures.ALL.values()]


def test_table_build_matches_the_stepped_build(corpus):
    completing = 0
    for p in corpus + _fixtures():
        aut = StringAutomaton(p)
        states, edges, comps = stepped_build(p)
        assert aut.states == states
        assert [aut.edges[s] for s in states] == [edges[s] for s in states]
        assert aut.edges.keys() == edges.keys()
        assert aut.completing == comps
        completing += len(comps)
        for s in states:
            for letter in _candidate_letters(p.quiver, s):
                assert aut.step(s, letter) == stepped(aut, s, letter)
    assert completing > 100


# A loop, generators of lengths 2 and 3, one through the loop, and a
# 2-cycle killed both ways round.
LOOPED = Presentation.build(
    ["1", "2", "3"],
    [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1"), ("l", "2", "2"), ("d", "1", "3")],
    zeros=[("a", "b"), ("l", "l"), ("b", "c", "a"), ("d", "c"), ("c", "d"), ("l", "b", "c")],
)
STRING_CASES = [LOOPED, fixtures.skew6(), fixtures.thirteen()] + [
    monomial_form(p) for p in string_corpus(3, 12) + special_biserial_corpus(3, 6)
]


def _run(names, inv):
    """A path's arrows as one run: forwards, or read backwards as inverse letters."""
    return [inverse(n) for n in reversed(names)] if inv else [direct(n) for n in names]


@st.composite
def letter_sequences(draw):
    """(presentation, walk) where the letters need not compose: random
    letters, generators read as direct or inverse runs, pieces of
    generators, generators split over a direction change, and letters
    followed by their inverse."""
    p = draw(st.sampled_from(STRING_CASES))
    names = sorted(p.quiver.arrow)
    gens = p.zero_paths
    letters = []
    for kind in draw(st.lists(st.sampled_from("lgpsu" if gens else "lu"), max_size=8)):
        if kind == "l":
            letters += _run([draw(st.sampled_from(names))], draw(st.booleans()))
        elif kind == "u":
            n = draw(st.sampled_from(names))
            letters += [direct(n), inverse(n)]
        else:
            g = draw(st.sampled_from(gens))
            i = draw(st.integers(1, len(g) - 1))
            inv = draw(st.booleans())
            if kind == "g":
                letters += _run(g, inv)
            elif kind == "p":
                letters += _run(g[i:] if draw(st.booleans()) else g[:i], inv)
            else:
                letters += _run(g[:i], inv) + _run(g[i:], not inv)
    return p, Walk(None, tuple(letters))


@settings(max_examples=600, deadline=None)
@given(letter_sequences())
def test_one_pass_is_string_matches_the_run_route(case):
    p, w = case
    assert is_string(p, w) == runs_is_string(p, w)


def test_one_pass_is_string_on_straddling_runs():
    def string(base, *letters):
        w = Walk(base, letters)
        assert is_string(LOOPED, w) == runs_is_string(LOOPED, w)
        return is_string(LOOPED, w)

    a, b, c, l = (direct(n) for n in "abcl")
    a_, b_, c_, l_ = (inverse(n) for n in "abcl")
    # the generator a . b in one run, and split by a direction change
    assert not string("1", a, b)
    assert string("1", a, l_, b)
    # an inverse run reads against the arrows
    assert not string("3", b_, a_)
    assert string("1", c_, b_)
    assert not string("1", c_, b_, a_)
    # the loop: l . l either way round, and a letter met by its inverse
    assert not string("2", l, l)
    assert not string("2", l_, l_)
    assert not string("2", l, l_)
    # l . b . c is found at its last letter, in a run after a change
    assert string("3", b_, l, b)
    assert not string("3", b_, l, b, c)
    assert string("1")


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

