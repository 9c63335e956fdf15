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
- `double_zero_witness_check`: the band, then `w.double_zero(n)` for
  n = 1, 2, 3, each re-validating both generators.
- `product_search_finite`: the construction-time finiteness check without
  the acyclic shortcut, the (vertex, matcher-progress) search on every
  quiver.
- `naturality_envelope`: the injective envelope as one solution of the
  naturality system that extends the socle matching, into injectives
  whose bases are the ideal-avoiding paths ending at each socle vertex;
  `rep` now builds the envelope as the dual of a projective cover over
  the opposite algebra.

The full `bfs` is also the oracle of the bounded one `find_doze` and
`shortest_cycle_at` use.  They run on the seeded corpora 1, 2 and 101,
on random full subquivers of their members, on random letter sequences
and on random bound quivers.
"""

import importlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringalg import exactla as la
from stringalg import fixtures, rep
from stringalg.automaton import AutoState, StringAutomaton, enumerate_strings
from stringalg.corpus import special_biserial_corpus, string_corpus
from stringalg.decomp import (
    Decomposition,
    Subcategory,
    decompose,
    support_cover_check,
)
from stringalg._ac import AhoCorasick
from stringalg.doze import (
    STRICT_LAURA_OR_TILTED,
    DozeWitness,
    _assemble_witness,
    _double_zero_over,
    _validate_witness,
    classify,
    find_doze,
    find_doze_bruteforce,
    has_double_zero,
)
from stringalg.errors import (
    CorruptPresentationError,
    InfiniteDimensionalError,
    SearchBudgetExceeded,
)
from stringalg.graph import cycle_entry, reach, topological_order
from stringalg.presentation import (
    Presentation,
    Quiver,
    ZeroRelation,
    has_window,
    monomial_form,
)
from stringalg.walks import (
    CyclicWalk,
    Walk,
    direct,
    inverse,
    is_band,
    is_reduced,
    is_string,
    letter_ends,
    parse_walk,
    walk_arrows,
    walk_end,
    walk_vertices,
)

SEEDS = (1, 2, 101)
SUBQUIVERS = 8  # random full subquivers per corpus member

automaton_module = importlib.import_module("stringalg.automaton")
presentation_module = importlib.import_module("stringalg.presentation")


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


def double_zero_witness_check(w):
    if not is_band(w.p, w.band):
        raise CorruptPresentationError("witness band is not a band")
    for n in (1, 2, 3):
        w.double_zero(n)
    return w


def product_search_finite(quiver, gens):
    ac = AhoCorasick(gens) if gens else None

    def succ(state):
        v, node = state
        for a in quiver.out_arrows(v):
            if ac is None:
                yield (a.target, 0)
            else:
                node2, hit = ac.advance(node, a.name)
                if hit is None:
                    yield (a.target, node2)

    entry = cycle_entry([(x, 0) for x in quiver.vertices], succ)
    if entry is not None:
        raise InfiniteDimensionalError(
            f"ideal-avoiding oriented cycle through vertex {entry[0]!r}"
        )


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


def _nearest(aut, search, targets):
    """(least nearest target, its distance, the letters leading to it)."""
    dist, parent = search
    hits = [s for s in dist if s in targets]
    if not hits:
        return None
    t = min(hits, key=lambda s: (dist[s], s))
    return t, dist[t], aut.path_letters(parent, t)


def test_bounded_bfs_matches_the_full_search(corpus):
    stopped = 0
    for p in corpus:
        aut = automaton_module.automaton(p)
        back = aut.predecessors.__getitem__
        hot = aut.cycle_states() & reach(aut.completing, back)
        for s in aut.states:
            full = aut.bfs([s])
            searches = [([s], hot), ([s], aut.completing)]
            searches += [([t], {s}) for t in aut.edges[s]]
            for sources, targets in searches:
                if sources != [s]:
                    full = aut.bfs(sources)
                bounded = aut.bfs(sources, targets)
                assert _nearest(aut, bounded, targets) == _nearest(aut, full, targets)
                dist, parent = bounded
                assert all(full[0][t] == d and full[1][t] == parent[t] for t, d in dist.items())
                stopped += len(dist) < len(full[0])
    assert stopped > 1000


# --- the witness check --------------------------------------------------------


def _check_outcome(check, w):
    try:
        check(w)
    except Exception as e:
        return type(e).__name__, str(e)
    return "ok"


def _replaced(w, **fields):
    args = {k: getattr(w, k) for k in ("p", "rho1", "w1", "band", "w3", "rho2")}
    args.update(fields)
    return DozeWitness(**args)


def _letters_at(q, v):
    return [direct(a.name) for a in q.out_arrows(v)] + [inverse(a.name) for a in q.in_arrows(v)]


def _meets_inverse(a, b):
    return a.arrow == b.arrow and a.inverse != b.inverse


def _walk_back(q, start, end, after, before, max_len=6):
    """A shortest walk from start to end that is reduced, also after the
    letter `after` and before the letter `before`; None if none is found."""
    frontier = [(start, ())]
    seen = set()
    for _ in range(max_len):
        nxt = []
        for v, letters in frontier:
            for l in _letters_at(q, v):
                if _meets_inverse(letters[-1] if letters else after, l):
                    continue
                at = letter_ends(q, l)[1]
                if at == end and not _meets_inverse(l, before):
                    return letters + (l,)
                if (at, l) not in seen:
                    seen.add((at, l))
                    nxt.append((at, letters + (l,)))
        frontier = nxt
    return None


def _non_primitive_band(w):
    return _replaced(w, band=CyclicWalk(Walk(w.band.base, w.band.letters * 2)))


def _open_band(w):
    walk = Walk(w.band.base, w.band.letters[:-1])
    if walk.letters and walk_end(w.p.quiver, walk) == walk.base:
        return None
    return _replaced(w, band=CyclicWalk(walk))


def _rho2_not_a_generator(w):
    return _replaced(w, rho2=w.rho2[:-1])


def _w3_off_the_band(w):
    other = [v for v in w.p.quiver.vertices if v != w.band.base]
    return _replaced(w, w3=Walk(other[0], w.w3.letters)) if other else None


def _w1_backtracks_rho1(w):
    last = w.rho1[-1]
    return _replaced(w, w1=Walk(w.w1.base, (inverse(last), direct(last)) + w.w1.letters))


def _w3_holds_rho2(w):
    """w3 followed by rho2 and a walk back to rho2's start: the interior
    then holds a whole generator."""
    q = w.p.quiver
    rho2 = tuple(direct(a) for a in w.rho2)
    source, target = q.arrow[w.rho2[0]].source, q.arrow[w.rho2[-1]].target
    back = _walk_back(q, target, source, rho2[-1], rho2[0])
    if back is None:
        return None
    return _replaced(w, w3=Walk(w.w3.base, w.w3.letters + rho2 + back))


MUTATIONS = (
    _non_primitive_band,
    _open_band,
    _rho2_not_a_generator,
    _w3_off_the_band,
    _w1_backtracks_rho1,
    _w3_holds_rho2,
)


@pytest.fixture(scope="module")
def witnesses(corpus):
    found = [w for p in corpus + _fixtures() if (w := find_doze(p)) is not None]
    assert len(found) > 300
    return found


def test_witness_check_accepts_what_the_double_zero_route_accepts(corpus, witnesses):
    # The brute-force oracle enumerates every double-zero up to its bound,
    # about 8 s at length 12 over the corpora, so they take length 8 there.
    brute = [find_doze_bruteforce(p, 8) for p in corpus]
    brute += [find_doze_bruteforce(p, 12) for p in _fixtures()]
    brute = [w for w in brute if w is not None]
    assert len(brute) > 250
    for w in witnesses + brute:
        assert _check_outcome(_validate_witness, w) == "ok"
        assert _check_outcome(double_zero_witness_check, w) == "ok"


def test_witness_check_rejects_as_the_double_zero_route_rejects(witnesses):
    seen = {}
    pairs = list(itertools.permutations(MUTATIONS, 2))
    for i, w in enumerate(witnesses):
        mutants = [(m.__name__, m(w)) for m in MUTATIONS]
        # every mutation alone, and one pair of them in turn (in both
        # orders), which pins which fault is reported first
        first, second = pairs[i % len(pairs)]
        inner = first(w)
        if inner is not None:
            mutants.append((f"{first.__name__}+{second.__name__}", second(inner)))
        for name, m in mutants:
            if m is None:
                continue
            got = _check_outcome(_validate_witness, m)
            assert got == _check_outcome(double_zero_witness_check, m), name
            assert got != "ok", name
            seen.setdefault(name, set()).add(got)
    # each single mutation raises the error it is built to raise
    assert seen["_non_primitive_band"] == seen["_open_band"] == {
        ("CorruptPresentationError", "witness band is not a band")
    }
    assert seen["_rho2_not_a_generator"] == {
        ("CorruptPresentationError", "double-zero ends must be zero generators")
    }
    assert {kind for kind, _msg in seen["_w3_off_the_band"]} == {"SemanticError"}
    assert seen["_w1_backtracks_rho1"] == {
        ("CorruptPresentationError", "double-zero walk is not reduced")
    }
    assert seen["_w3_holds_rho2"] == {
        ("CorruptPresentationError", "double-zero interior is not a string")
    }
    assert len(seen) == len(MUTATIONS) + len(pairs)


# --- the finiteness check -----------------------------------------------------


def _random_bound_quiver(rng):
    """Vertices, arrows, zero and commutativity relations by name: loops
    and parallel arrows allowed, acyclic (arrows only up the vertex
    order) half of the time."""
    n = rng.randint(1, 4)
    vertices = [str(i) for i in range(1, n + 1)]
    acyclic = rng.random() < 0.5
    arrows = []
    for i in range(rng.randint(0, 6)):
        s, t = rng.randrange(n), rng.randrange(n)
        if acyclic:
            if s == t:
                continue
            s, t = min(s, t), max(s, t)
        arrows.append((f"a{i}", vertices[s], vertices[t]))
    out = {v: [a for a in arrows if a[1] == v] for v in vertices}
    paths = []  # (start, arrow names, end)
    for _ in range(rng.randint(0, 6)):
        start = at = rng.choice(vertices)
        names = []
        for _ in range(rng.randint(2, 4)):
            if not out[at]:
                break
            name, _source, at = rng.choice(out[at])
            names.append(name)
        if len(names) >= 2:
            paths.append((start, tuple(names), at))
    zeros = [names for _start, names, _end in paths if rng.random() < 0.7]
    comms = [
        (l[1], r[1])
        for l, r in itertools.combinations(paths, 2)
        if (l[0], l[2]) == (r[0], r[2]) and l[1] != r[1] and rng.random() < 0.5
    ]
    return vertices, arrows, zeros, comms


def _construction(case):
    vertices, arrows, zeros, comms = case
    try:
        p = Presentation.build(vertices, arrows, zeros, comms)
    except Exception as e:
        return type(e).__name__, str(e)
    return "ok", p.zero_paths, p.comm_pairs


def _acyclic(case):
    vertices, arrows = case[0], case[1]
    return cycle_entry(vertices, lambda v: [t for _n, s, t in arrows if s == v]) is None


def test_acyclic_shortcut_matches_the_product_search(monkeypatch):
    rng = random.Random(20261018)
    cases = [_random_bound_quiver(rng) for _ in range(20_000)]
    fast = [_construction(case) for case in cases]
    monkeypatch.setattr(presentation_module, "_assert_finite_dimensional", product_search_finite)
    assert fast == [_construction(case) for case in cases]
    # acyclic and cyclic quivers, with and without commutativity
    # relations, accepted, and cyclic ones rejected; loops; parallel arrows
    kinds = {(_acyclic(case), got[0], bool(case[3])) for case, got in zip(cases, fast)}
    assert {(a, "ok", c) for a in (True, False) for c in (True, False)} <= kinds
    assert (False, "InfiniteDimensionalError", False) in kinds
    assert any(s == t for case in cases for _n, s, t in case[1])
    assert any(len({(s, t) for _n, s, t in case[1]}) < len(case[1]) for case in cases)


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



# --- injective envelope --------------------------------------------------------


def path_injective(p, x):
    """(I(x), basis): the ideal-avoiding paths ending at x, by vertex in
    (length, names) order; an arrow chops itself off the front of a path."""
    q = p.quiver
    zero = p.zero_index()
    paths = []
    stack = [((), x)]
    while stack:
        path, v = stack.pop()
        paths.append((path, v))
        for a in q.in_arrows(v):
            if not has_window((a.name,) + path, zero):
                stack.append(((a.name,) + path, a.source))
    paths.sort(key=lambda t: (len(t[0]), t[0]))
    basis, index = {}, {}
    for path, v in paths:
        index[path] = len(basis.setdefault(v, []))
        basis[v].append(path)
    dims = {v: len(b) for v, b in basis.items()}
    maps = {a.name: la.zeros(dims.get(a.target, 0), dims.get(a.source, 0)) for a in q.arrows}
    for path, v in paths:
        if path:
            maps[path[0]][index[path[1:]]][index[path]] = 1
    return rep.Representation(p, dims, maps), basis


def naturality_envelope(p, M, second_solution=False):
    """(I, embedding) with I one path injective per socle basis vector and
    the embedding any solution of the naturality system that extends the
    socle matching.  With second_solution=True a third value is returned:
    a different solution when the system is underdetermined, else None."""
    S, incl = rep.socle(M)
    q = p.quiver
    summands = [
        (v, [incl.blocks[v][i][j] for i in range(M.dims[v])])
        for v in sorted(q.vertices)
        for j in range(S.dims[v])
    ]
    data = [path_injective(p, v) for v, _ in summands]
    I, offsets = rep._direct_sum(p, [R for R, _ in data])
    socle_rows = [at[v] + basis[v].index(()) for (v, _), (_, basis), at in zip(summands, data, offsets)]
    var_offset, nvars = {}, 0
    for v in q.vertices:
        var_offset[v] = nvars
        nvars += I.dims[v] * M.dims[v]

    def var(v, r, c):
        return var_offset[v] + r * M.dims[v] + c

    rows, rhs = [], []
    # naturality: f_t . M_a = I_a . f_s for every arrow a
    for a in q.arrows:
        s, t = a.source, a.target
        for r in range(I.dims[t]):
            for c in range(M.dims[s]):
                row = [0] * nvars
                for k in range(M.dims[t]):
                    row[var(t, r, k)] += M.maps[a.name][k][c]
                for k in range(I.dims[s]):
                    row[var(s, k, c)] -= I.maps[a.name][r][k]
                if any(row):
                    rows.append(row)
                    rhs.append(0)
    # socle matching: the k-th socle vector goes to the k-th summand's socle line
    for k, (v, vec) in enumerate(summands):
        for r in range(I.dims[v]):
            row = [0] * nvars
            for c in range(M.dims[v]):
                row[var(v, r, c)] = vec[c]
            rows.append(row)
            rhs.append(1 if r == socle_rows[k] else 0)
    sols = la.solve_matrix(rows, [rhs], ncols=nvars) if rows else [[0] * nvars]
    assert sols is not None, "the naturality system is inconsistent"

    def embedding(values):
        blocks = {
            v: [[values[var(v, r, c)] for c in range(M.dims[v])] for r in range(I.dims[v])]
            for v in q.vertices
        }
        return rep.ModuleMap(M, I, blocks)

    embed = embedding(sols[0])
    assert embed.is_injective()
    if not second_solution:
        return I, embed
    null = la.kernel_basis(rows, ncols=nvars) if rows else []
    other = embedding([x + y for x, y in zip(sols[0], null[0])]) if null else None
    return I, embed, other


def naturality_id_at_least_2(p, M):
    """Not injective, and the cokernel of the envelope not injective either."""
    I, embed = naturality_envelope(p, M)
    if I.total_dim == M.total_dim:
        return False
    C, _ = rep.cokernel(embed)
    I2, _ = naturality_envelope(p, C)
    return I2.total_dim != C.total_dim


def test_envelope_solution_independence(skew6):
    M = rep.string_module(skew6, parse_walk(skew6.quiver, "x2: beta1 gamma1"))
    I, embed, other = naturality_envelope(skew6, M, second_solution=True)
    C1, _ = rep.cokernel(embed)
    if other is not None:
        assert any(embed.blocks[v] != other.blocks[v] for v in skew6.quiver.vertices)
        C2, _ = rep.cokernel(other)
        assert C1.dims == C2.dims


def test_duality_envelope_matches_the_naturality_solve(skew6, thirteen):
    compared = 0
    for p in [skew6, thirteen] + string_corpus(5, 10):
        for w in enumerate_strings(p, 4):
            M = rep.string_module(p, w)
            I, embed = rep.injective_envelope(p, M)
            J, oracle = naturality_envelope(p, M)
            assert I.dims == J.dims, w
            assert embed.is_injective(), w
            assert rep.cokernel(embed)[0].dims == rep.cokernel(oracle)[0].dims, w
            compared += 1
    assert compared == 315
