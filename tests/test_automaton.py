import gc
import importlib
import tracemalloc
import types
import weakref

import pytest

from conftest import linear_a3
from stringalg import cli, fixtures, graph, stringhom, textio
from stringalg.automaton import (
    StringAutomaton,
    automaton,
    band_census,
    enumerate_bands,
    enumerate_strings,
    exists_band,
    pumping_bound,
    strings_of_length,
)
from stringalg.corpus import special_biserial_corpus
from stringalg.doze import classify
from stringalg.errors import PreconditionError, SearchBudgetExceeded
from stringalg.presentation import Presentation, monomial_form
from stringalg.walks import (
    CyclicWalk,
    Letter,
    Walk,
    canonical_band,
    canonical_string,
    direct,
    inverse,
    is_band,
    is_string,
    serialize_band,
    serialize_walk,
    walk_end,
)

automaton_module = importlib.import_module("stringalg.automaton")
presentation_module = importlib.import_module("stringalg.presentation")


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


def degree_at_most_3(p):
    return all(len(p.quiver.out_arrows(v)) + len(p.quiver.in_arrows(v)) <= 3 for v in p.quiver.vertices)


def test_automaton_accepts_exactly_the_strings(skew6, thirteen, nine, commsquare, corpus500):
    from stringalg.presentation import quotient_by_J

    # Corpus quivers with a vertex of degree 4 have up to 175k walks of
    # length <= 8; the slice keeps those of degree <= 3 (about 20 of the
    # first 30 instances, 70k walks).
    corpus_slice = [p for p in corpus500[:30] if degree_at_most_3(p)]
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
    naive = set()
    for w in all_walks_up_to(skew6, 5):
        if is_string(skew6, w):
            naive.add(canonical_string(skew6.quiver, w))
    assert set(enumerate_strings(skew6, 5)) == naive


def test_strings_of_length_window(thirteen):
    for w in strings_of_length(thirteen, range(3, 5)):
        assert 3 <= len(w.letters) <= 4


@pytest.mark.parametrize("lengths", [{3, 5}, [3], range(3, 9, 2), range(8, 2, -1)], ids=str)
def test_strings_of_length_takes_only_a_range_of_consecutive_lengths(thirteen, lengths):
    with pytest.raises(PreconditionError, match="range of consecutive lengths"):
        strings_of_length(thirteen, lengths)


# --- the walk-tree enumerator against the naive filter of all walks ----------

NAIVE_MAX = 7


@pytest.fixture(scope="module")
def differential_instances(corpora, skew6, thirteen, nine, commsquare, corpus500):
    """Fixtures, the degree <= 3 instances among the first 30 of
    corpus500, and the J-quotients of six special biserial algebras, each
    with its strings up to NAIVE_MAX found by filtering every walk."""
    from stringalg.corpus import special_biserial_corpus
    from stringalg.presentation import quotient_by_J

    instances = [skew6, thirteen, nine, quotient_by_J(commsquare)]
    instances += [p for p in corpus500[:30] if degree_at_most_3(p)]
    instances += [quotient_by_J(p) for p in corpora(special_biserial_corpus, 20260809, 6)]
    return [(p, [w for w in all_walks_up_to(p, NAIVE_MAX) if is_string(p, w)]) for p in instances]


def naive_strings(p, strings, lengths):
    wanted = set(lengths)
    found = {canonical_string(p.quiver, w) for w in strings if len(w) in wanted}
    return sorted(found, key=Walk.key)


def naive_bands(p, strings, max_len):
    found = set()
    for w in strings:
        if 0 < len(w) <= max_len and walk_end(p.quiver, w) == w.base:
            c = CyclicWalk(w)
            if is_band(p, c):
                found.add(canonical_band(p.quiver, c))
    return sorted(found, key=lambda c: c.walk.key())


@pytest.mark.parametrize("lengths", [range(0, 1), range(1, 2), range(3, 6), range(5, 8)], ids=str)
def test_strings_of_length_matches_naive_filter(differential_instances, lengths):
    for p, strings in differential_instances:
        assert strings_of_length(p, lengths) == naive_strings(p, strings, lengths)


def test_enumerate_strings_matches_naive_filter_in_order(differential_instances):
    for p, strings in differential_instances:
        trivial = naive_strings(p, strings, {0})
        assert enumerate_strings(p, -1) == trivial
        for n in range(NAIVE_MAX + 1):
            assert enumerate_strings(p, n) == naive_strings(p, strings, range(n + 1))


def test_enumerate_bands_matches_naive_filter(differential_instances):
    for p, strings in differential_instances:
        for n in (1, 4, NAIVE_MAX):
            assert enumerate_bands(p, n) == naive_bands(p, strings, n)


def test_window_builds_a_walk_only_per_result(monkeypatch, thirteen):
    """Listing the strings of one long length builds no walk for the
    shorter strings the traversal passes through."""
    built = []

    class CountingWalk(Walk):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(automaton_module, "Walk", CountingWalk)
    got = strings_of_length(thirteen, range(46, 47))
    assert len(built) <= 2 * len(got)
    assert len(got) == 12


def test_walk_cap_counts_every_visited_string(monkeypatch, skew6):
    # every nonempty string of length <= 6 in either orientation is one visit
    visits = sum(1 for w in all_walks_up_to(skew6, 6) if w.letters and is_string(skew6, w))
    runs = (
        lambda: enumerate_strings(skew6, 6),
        lambda: strings_of_length(skew6, range(6, 7)),
        lambda: enumerate_bands(skew6, 6),
    )
    monkeypatch.setattr(automaton_module, "_WALK_CAP", visits)
    for run in runs:
        run()
    monkeypatch.setattr(automaton_module, "_WALK_CAP", visits - 1)
    for run in runs:
        with pytest.raises(SearchBudgetExceeded, match="string enumeration exceeded the walk cap"):
            run()


def test_cost_follows_the_walk_not_the_max_len(tmp_path, capsys):
    """A loop a with a a = 0 has two strings, a and its inverse: asking
    for every length up to a million walks those two, in a few MB."""
    p = Presentation.build(["1"], [("a", "1", "1")], zeros=[["a", "a"]])
    tracemalloc.start()
    try:
        got = enumerate_strings(p, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert got == enumerate_strings(p, 10)
    path = tmp_path / "loop.alg"
    path.write_text(textio.serialize("loop", p))
    for command in ("strings", "scan", "bands"):
        assert cli.main([command, str(path), "--max-len", str(10**6)]) == 0
    capsys.readouterr()


def test_letter_cap_boundary_on_thirteen(thirteen):
    """Thirteen's strings up to length 407 hold 996,348 letters, under
    the 1,000,000-letter cap; up to length 408 they pass it."""
    assert sum(map(len, enumerate_strings(thirteen, 407))) == 996_348
    with pytest.raises(SearchBudgetExceeded, match="exceeded 1,000,000 letters"):
        enumerate_strings(thirteen, 408)


def test_window_past_the_cap_raises_before_its_letters_grow(thirteen):
    """Thirteen's strings of length 10**9 lie past 200,000 visits: the
    walk raises on counting the ring turns down to the window, before it
    writes their letters."""
    tracemalloc.start()
    try:
        with pytest.raises(SearchBudgetExceeded, match="exceeded the walk cap"):
            strings_of_length(thirteen, range(10**9, 10**9 + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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


def test_exists_band_agrees_with_cycle_entry(corpus500):
    for p in corpus500:
        aut = automaton(p)
        assert exists_band(p) == (graph.cycle_entry(aut.states, aut.edges.__getitem__) is not None)


def test_states_are_numbered_in_key_order(corpus500):
    """State s is the s-th (arrow, inverse, prefix-table node) key in sorted
    order, every table has one entry per state, and the states of one
    letter share one `Letter`, which is a key of `first`."""
    instances = [build() for build in fixtures.ALL.values()] + list(corpus500)
    for p in [x for x in instances if x.is_monomial]:
        aut = automaton(p)
        keys = aut.keys
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert len(keys) == len(aut) == len(aut.edges) == len(aut.letter_of)
        assert aut.states == tuple(range(len(keys)))
        firsts = {letter: letter for letter in aut.first}
        for s, k in enumerate(keys):
            letter = aut.letter_of[s]
            assert type(letter) is Letter and letter == k[:2]
            assert firsts[letter] is letter
        for letter, s in aut.first.items():
            assert keys[s][:2] == letter


def test_classify_condenses_the_automaton_once(monkeypatch):
    """find_doze, band_census and exists_band share one Tarjan pass
    over the automaton's states."""
    calls = []
    real = graph.sccs

    def counting(nodes, succ):
        calls.append(tuple(nodes))
        return real(nodes, succ)

    for module in (graph, automaton_module):
        monkeypatch.setattr(module, "sccs", counting)
    for p in (fixtures.thirteen(), fixtures.skew6(), linear_a3()):
        calls.clear()
        classify(p)
        aut = automaton(monomial_form(p))
        exists_band(monomial_form(p))
        assert aut.cycle_states() == aut.cycle_states()
        assert calls.count(aut.states) == 1


def test_each_prefix_table_is_built_once_per_reader(monkeypatch, corpora, corpus500):
    """The prefix-table builder runs twice per string automaton, once per
    run direction, and once per presentation over a cyclic quiver, for
    its finiteness check, and not at all over an acyclic one.  On the
    fixtures, corpus500 and a special biserial corpus, every presentation
    built again under a call counter."""
    calls = []
    real = presentation_module._prefix_table

    def counting(patterns):
        calls.append(patterns)
        return real(patterns)

    for module in (presentation_module, automaton_module):
        monkeypatch.setattr(module, "_prefix_table", counting)
    instances = [build() for build in fixtures.ALL.values()] + list(corpus500)
    instances += corpora(special_biserial_corpus, 1, 100)
    cyclic = 0
    for p in instances:
        q, m = p.quiver, monomial_form(p)
        arrows_out = lambda v: [a.target for a in q.out_arrows(v)]
        has_cycle = graph.cycle_entry(q.vertices, arrows_out) is not None
        calls.clear()
        Presentation(
            q,
            [q.path(g) for g in p.zero_paths],
            [(q.path(l), q.path(r)) for l, r in p.comm_pairs],
        )
        assert len(calls) == has_cycle
        calls.clear()
        StringAutomaton(m)
        assert len(calls) == 2
        cyclic += has_cycle
    assert 100 < cyclic < len(instances) - 100, cyclic


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
    for p in corpus500[:60]:
        for b in band_census(p):
            assert is_band(p, b)


@pytest.mark.parametrize(
    "use",
    [automaton, lambda p: stringhom.conjecture_scan(p, 9)],
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
    monkeypatch.setattr(automaton_module, "_CENSUS_CAP", 2)
    with pytest.raises(SearchBudgetExceeded, match="band census exceeded the cycle cap"):
        band_census(fixtures.thirteen())


def test_the_automaton_submodule_is_not_shadowed(monkeypatch):
    """`import stringalg.automaton as m` binds the module, not the
    function `automaton`, so patching its walk cap takes effect."""
    import stringalg.automaton as m

    assert isinstance(m, types.ModuleType)
    monkeypatch.setattr(m, "_WALK_CAP", 50)
    with pytest.raises(SearchBudgetExceeded):
        m.strings_of_length(fixtures.thirteen(), range(0, 30))


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from stringalg import *", namespace)
    bound = {n: v for n, v in namespace.items() if n != "__builtins__"}
    assert [n for n, v in bound.items() if isinstance(v, types.ModuleType)] == []
    assert "StringAutomaton" in namespace and "classify" in namespace
