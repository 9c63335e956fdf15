"""The shared traversals in `graph` against a brute-force oracle.

The oracle lists every simple path from every node; reachability, strong
connectivity and the simple cycles (closed simple paths, normalised by
rotation) are read off that list.
"""

import ast
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import stringalg
from stringalg.automaton import automaton, band_census
from stringalg.corpus import special_biserial_corpus
from stringalg.doze import NOT_LAURA, classify, find_doze
from stringalg.graph import (
    component_cycles,
    cycle_entry,
    is_cyclic,
    reach,
    sccs,
    topological_order,
)
from stringalg.presentation import monomial_form
from stringalg.walks import Letter, Walk, canonical_band, make_cyclic, primitive_root

SRC = Path(stringalg.__file__).resolve().parents[1]


def simple_paths(nodes, succ):
    """Every simple path (a node tuple) starting at one of nodes."""
    out = []
    stack = [(v,) for v in nodes]
    while stack:
        path = stack.pop()
        out.append(path)
        for w in succ(path[-1]):
            if w not in path:
                stack.append(path + (w,))
    return out


def rotated(cycle):
    i = cycle.index(min(cycle))
    return tuple(cycle[i:] + cycle[:i])


def oracle_cycles(nodes, succ):
    """Sorted simple cycles in the part reachable from nodes."""
    reachable = {path[-1] for path in simple_paths(nodes, succ)}
    found = {
        rotated(path)
        for path in simple_paths(reachable, succ)
        if path[0] in succ(path[-1])
    }
    return sorted(found)


@st.composite
def digraphs(draw):
    """(n, successor lists, start nodes) with at most 7 nodes, loops and
    parallel-free edges."""
    n = draw(st.integers(1, 7))
    node = st.integers(0, n - 1)
    edges = draw(st.sets(st.tuples(node, node), max_size=3 * n))
    adj = {v: sorted(w for u, w in edges if u == v) for v in range(n)}
    starts = draw(st.lists(node, min_size=1, max_size=n, unique=True))
    return n, adj, starts


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_traversals_match_the_brute_force_oracle(graph):
    n, adj, starts = graph
    succ = adj.__getitem__
    paths = simple_paths(starts, succ)
    reachable = {path[-1] for path in paths}
    assert reach(starts, succ) == reachable

    reaches = {v: {path[-1] for path in simple_paths([v], succ)} for v in reachable}
    comps = sccs(starts, succ)
    assert sorted(v for comp in comps for v in comp) == sorted(reachable)
    listed = {}
    for i, comp in enumerate(comps):
        for v in comp:
            assert {u for u in reachable if v in reaches[u] and u in reaches[v]} == set(comp)
            listed[v] = i
    # a component comes after every component it reaches
    for u in reachable:
        for v in reaches[u]:
            assert listed[v] <= listed[u]

    cycles = oracle_cycles(starts, succ)
    found = [rotated(c) for c in component_cycles(comps, succ)]
    assert sorted(found) == cycles
    for c in found:
        assert all(c[(i + 1) % len(c)] in adj[c[i]] for i in range(len(c)))

    order = topological_order(starts, succ)
    entry = cycle_entry(starts, succ)
    if cycles:
        assert order is None
        assert any(entry in c for c in cycles)
    else:
        assert entry is None
        assert sorted(order) == sorted(reachable)
        position = {v: i for i, v in enumerate(order)}
        assert all(position[u] < position[w] for u in reachable for w in adj[u])


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_component_cycles_leave_the_components_alone(graph):
    _n, adj, starts = graph
    succ = adj.__getitem__
    comps = sccs(starts, succ)
    before = [list(c) for c in comps]
    cycles = list(component_cycles(comps, succ))
    assert comps == before
    # the acyclic components contribute nothing, so they may be left out
    cyclic = tuple(c for c in comps if is_cyclic(c, succ))
    assert list(component_cycles(cyclic, succ)) == cycles


def test_deep_chain_needs_no_recursion():
    n = 20_000
    succ = lambda v: [v + 1] if v + 1 < n else [0]
    assert len(reach([0], succ)) == n
    assert [len(c) for c in sccs([0], succ)] == [n]
    assert [len(c) for c in component_cycles(sccs([0], succ), succ)] == [n]
    assert topological_order([0], succ) is None
    assert topological_order([0], lambda v: [v + 1] if v + 1 < n else []) == list(range(n))


def test_band_census_is_the_primitive_roots_of_the_oracle_cycles(corpus500):
    """On DOZE instances whose automaton has a strongly connected component
    with more edges than states, where bands need not be disjoint."""
    checked = 0
    for p in corpus500:
        aut = automaton(p)
        succ = aut.edges.__getitem__
        edges_in = lambda comp: sum(t in comp for s in comp for t in succ(s))
        if not any(edges_in(set(c)) > len(c) for c in sccs(aut.states, succ)):
            continue
        if find_doze(p) is None:
            continue
        expected = set()
        for cycle in oracle_cycles(aut.states, succ):
            letters = [Letter(*aut.keys[s][:2]) for s in cycle[1:] + cycle[:1]]
            root = primitive_root(letters)
            walk = Walk(aut.ends_of[cycle[0]][1], tuple(root))
            expected.add(canonical_band(p.quiver, make_cyclic(p.quiver, walk)))
        assert band_census(p) == sorted(expected, key=lambda c: c.walk.key())
        checked += 1
        if checked == 10:
            break
    assert checked == 10


def test_cyclic_components_are_single_cycles_unless_not_laura(
    corpora, corpus500, thirteen, skew6, commsquare
):
    """Johnson's search in `component_cycles` runs only where a cyclic
    component is not one simple cycle; on every instance that is not
    NotLaura, each state of a cyclic automaton component has exactly one
    successor inside its component, so the search there serves only
    `bands` on NotLaura input."""
    quotients = [monomial_form(p) for p in corpora(special_biserial_corpus, 1, 200)]
    checked = 0
    for p in list(corpus500) + quotients + [thirteen, skew6, commsquare]:
        if classify(p).verdict == NOT_LAURA:
            continue
        aut = automaton(monomial_form(p))
        for comp in aut.cyclic_components:
            members = set(comp)
            assert all(sum(t in members for t in aut.edges[s]) == 1 for s in comp), p
        checked += 1
    assert checked > 300, checked


def test_no_source_file_imports_networkx():
    for path in sorted((SRC / "stringalg").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "networkx" for n in names), path.name
