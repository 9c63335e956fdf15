"""The routes that the table-driven and automaton-reading code replaced,
kept as differential oracles.

- `AhoCorasick`: the multi-pattern matcher with goto tables and
  breadth-first failure links, where `presentation.prefix_matcher`
  trims a prefix from the front; both number their nodes alike, so the
  oracles below that build it from `aut._generators` and compare with
  `aut.keys` pin that numbering too.
- `stepped_build`: the string automaton built by `reach` over
  `stepped` from every candidate letter, edges sorted, then
  `completions` asked of every state.  Its states are (arrow, inverse,
  matcher node) keys built from the `AhoCorasick` matchers; the
  automaton's numbered states are compared through `keys`.
- `KeyedAutomaton`: the string automaton built by `reach` with a
  successor closure over (arrow, inverse, prefix node) keys, each step
  through `prefix_matcher`, then remapped to state numbers in a second
  keyed pass, with `ends_of`, `predecessors` and `states_at` each
  computed on first use, where `StringAutomaton` numbers its keys as it
  finds them, steps the prefix tables inline, sorts once and fills every
  table in one loop over the states.
- `state_after_direct_path`: a path's state stepped along the
  automaton's edges on every call, where `generator_state` steps each
  generator's tail once and memoizes it.
- `stepped_initial_state`: a one-letter key from one matcher step,
  where the automaton now reads its `first` table; `letter_ends` of a
  key's letter, where it reads `ends_of`.
- `johnson_cycles`: Johnson's circuit search on every component,
  including those that are one simple cycle, which `component_cycles`
  now reads off directly.
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
- `antichain_straddle`, `condensed_double_zero` and `wide_mask_cover`:
  the side-part passes with one mask bit per part, numbered in part
  order: per-state antichains of minimal masks for the middle part, one
  Tarjan condensation per side part for its double-zeros, and the
  support cover on those wide masks.
- `every_cycle_census` and `every_walk_bands`: the band census and the
  bounded band enumeration verifying and canonicalizing every automaton
  cycle and every closed walk, with no skip of the rotations and the
  inverse of a band already found.
- `object_canonical_band`: a band's canonical form as the least
  `Walk.key` over a `CyclicWalk` built for every rotation of both
  orientations (`rotations`), where `canonical_band` takes the least
  letter tuple and builds one.
- `kpower_is_band`: a band as a primitive closed walk one long enough
  power of which is a string, max(3, ceil(maxgen / len) + 2) copies,
  where `is_band` rejects a one-direction word and tests the square.
- `double_zero_witness_check`: `kpower_is_band`, then
  `w.double_zero(n)` for n = 1, 2, 3, each re-validating both
  generators, where `_validate_witness` builds the n = 1 walk alone.
- `product_d_category`: the string closure D(w) of a nonempty string as
  the states of the product of the automaton with a matcher for w's
  letters that reach a node where w has occurred, where `d_category`
  steps w through the automaton and reaches both ways from its ends.
- `unpruned_finiteness`: the finiteness search over (vertex, matcher
  progress) pairs from every vertex, where `_assert_finite_dimensional`
  first peels off the vertices that reach no oriented cycle.
- `stepwise_walk_tree`: the walk tree visiting every string one Python
  step per letter, yielding its visit count with each item, where
  `_walk_tree` counts edgeless children below the window and goes round
  rings in whole turns.
- `every_site_pd_at_least_2`: the pd >= 2 verdict reading every site
  of the string, where `_StringHomology.pd_at_least_2` reads each band
  period's valley sites once and skips the repeats.
- `eligible_anchors`: a band's anchors by their definition, the band
  vertices whose out-arrows (dually in-arrows) all lie on the band,
  where `decompose` reads them off the boundary `classify` computed.
- `naturality_envelope`: the injective envelope as one solution of the
  naturality system that extends the socle matching, into injectives
  whose bases are the ideal-avoiding paths ending at each socle vertex;
  `rep` now builds the envelope as the dual of a projective cover over
  the opposite algebra.

`random_closed_walks` draws the closed walks, mostly strings, that the
band checks and the witness mutants are compared on, also over the
random monomial presentations of `conftest`.

`full_bfs`, a breadth-first search over everything its sources reach,
with `parent_letters` reading a path off its parent map, is also the
oracle of the nearest-target `bfs` that `find_doze` and
`shortest_cycle_at` use.  They run on the seeded corpora 1, 2 and 101,
on random full subquivers of their members and on random letter
sequences; the side-part passes also on corpora 1, 2, 3 and 20260809
and on connected chains of thirteen.  The construction outcomes of
random bound quivers are pinned by digest.
"""

import hashlib
import importlib
import itertools
import math
import random
from collections import Counter, deque
from functools import cache, cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cokernel, injective_envelope, random_monomial_presentation
from stringalg import exactla as la
from stringalg import fixtures, rep
from stringalg.automaton import (
    StringAutomaton,
    _mask_pairs,
    _walk_tree,
    automaton,
    band_census,
    enumerate_bands,
    enumerate_strings,
    pumping_bound,
    strings_of_length,
)
from stringalg.corpus import special_biserial_corpus, string_corpus
from stringalg.decomp import (
    Decomposition,
    Subcategory,
    _anchors,
    _straddle_support,
    _support,
    check_structure,
    d_category,
    decompose,
    support_cover_check,
)
from stringalg.doze import (
    NOT_LAURA,
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
    PreconditionError,
    SearchBudgetExceeded,
)
from stringalg.graph import (
    _circuits,
    component_cycles,
    cycle_entry,
    is_cyclic,
    reach,
    sccs,
)
from stringalg.presentation import (
    Presentation,
    Quiver,
    _assert_finite_dimensional,
    has_window,
    minimalize,
    monomial_form,
    prefix_matcher,
    validate_string_algebra,
)
from stringalg.stringhom import (
    _arrows_and_flags,
    _periodic_end,
    _string_homology,
    _StringHomology,
    conjecture_scan,
)
from stringalg.walks import (
    CyclicWalk,
    Letter,
    Walk,
    canonical_band,
    cyclic_power,
    direct,
    inverse,
    inverse_walk,
    is_band,
    is_primitive,
    is_reduced,
    is_string,
    letter_ends,
    make_cyclic,
    parse_walk,
    primitive_root,
    serialize_walk,
    walk_arrows,
    walk_end,
    walk_vertices,
)

SEEDS = (1, 2, 101)
SUBQUIVERS = 8  # random full subquivers per corpus member

automaton_module = importlib.import_module("stringalg.automaton")


@pytest.fixture(scope="module")
def corpus(corpora):
    out = []
    for seed in SEEDS:
        out += corpora(string_corpus, seed, 200)
        out += corpora(special_biserial_corpus, seed, 40)
    return [monomial_form(p) for p in out]


# --- the replaced routes ------------------------------------------------------


# Aho and Corasick (CACM 18(6), 1975): patterns are tuples of arrow ids,
# an antichain under contiguous containment, so at most one pattern ends
# at any position.  A node's failure link is a strictly shallower node,
# found in breadth-first order.
class AhoCorasick:
    """Failure-link automaton reporting completed patterns per step.

    States are integers; 0 is the root.  ``advance`` consumes one symbol
    and returns the next state with the index of the pattern ending
    exactly at the new position, or None.
    """

    def __init__(self, patterns):
        self.patterns = [tuple(p) for p in patterns]
        self._goto = [{}]
        self._fail = [0]
        self._ends = [None]
        for idx, pat in enumerate(self.patterns):
            if not pat:
                raise ValueError("empty pattern")
            node = 0
            for sym in pat:
                nxt = self._goto[node].get(sym)
                if nxt is None:
                    nxt = len(self._goto)
                    self._goto.append({})
                    self._fail.append(0)
                    self._ends.append(None)
                    self._goto[node][sym] = nxt
                node = nxt
            if self._ends[node] is not None:
                raise ValueError(f"duplicate pattern {pat!r}")
            self._ends[node] = idx
        self._hit = list(self._ends)
        queue = deque()
        for child in self._goto[0].values():
            queue.append(child)
        while queue:
            node = queue.popleft()
            fail = self._fail[node]
            if self._hit[node] is None:
                self._hit[node] = self._hit[fail]
            for sym, child in self._goto[node].items():
                f = fail
                while f and sym not in self._goto[f]:
                    f = self._fail[f]
                self._fail[child] = self._goto[f].get(sym, 0)
                queue.append(child)

    def advance(self, state, symbol):
        """Consume one symbol: (next state, index of the pattern ending
        exactly there or None)."""
        goto = self._goto
        while state and symbol not in goto[state]:
            state = self._fail[state]
        state = goto[state].get(symbol, 0)
        return state, self._hit[state]


@cache
def _matchers(gens):
    """(forward, reversed) `AhoCorasick` matchers of a generator tuple."""
    return AhoCorasick(gens), AhoCorasick([g[::-1] for g in gens])


def matcher(aut, inv):
    """The oracle matcher of an automaton's direct (inverse) runs."""
    return _matchers(aut._generators)[inv]


def state_after_direct_path(aut, names):
    """State after an oriented path read as direct letters from scratch,
    stepped along the automaton's edges; None when it is not a string."""
    s = None
    for n in names:
        s = aut.first[direct(n)] if s is None else aut.follow(s, (direct(n),))
        if s is None:
            return None
    return s


def key_letter(k):
    """The last letter of a state's (arrow, inverse, node) key."""
    return Letter(k[0], k[1])


def stepped_initial_state(aut, letter):
    """Key (arrow, inverse, node) after a one-letter walk, from one
    matcher step."""
    node, hit = matcher(aut, letter.inverse).advance(0, letter.arrow)
    if hit is not None:
        raise CorruptPresentationError("single arrow lies in the ideal")
    return (letter.arrow, letter.inverse, node)


def stepped(aut, k, letter):
    """Key k extended by one letter, from the matchers alone; None when
    the extension is not a string."""
    arrow, inv, node = k
    if letter.arrow == arrow and letter.inverse != inv:
        return None
    if letter_ends(aut.quiver, letter)[0] != letter_ends(aut.quiver, key_letter(k))[1]:
        return None
    ac = matcher(aut, letter.inverse)
    node, hit = ac.advance(node if letter.inverse == inv else 0, letter.arrow)
    return None if hit is not None else (letter.arrow, letter.inverse, node)


def completions(aut, k):
    """Direct letters that would complete a generator occurrence after
    key k, as (generator index, arrow name) pairs."""
    arrow, inv, node = k
    out = []
    for a in aut.quiver.out_arrows(letter_ends(aut.quiver, key_letter(k))[1]):
        if inv and a.name == arrow:
            continue
        _node, hit = matcher(aut, False).advance(0 if inv else node, a.name)
        if hit is not None:
            out.append((hit, a.name))
    return out


def _candidate_letters(q, k):
    v = letter_ends(q, key_letter(k))[1]
    letters = [direct(a.name) for a in q.out_arrows(v)]
    letters += [inverse(a.name) for a in q.in_arrows(v)]
    return sorted(letters)


def stepped_build(p):
    """(keys, edges, completing) of the automaton over (arrow, inverse,
    node) keys, one `stepped` per candidate letter."""
    aut = StringAutomaton(p)
    q = p.quiver
    edges = {}

    def succ(s):
        steps = (stepped(aut, s, letter) for letter in _candidate_letters(q, s))
        edges[s] = tuple(sorted(t for t in steps if t is not None))
        return edges[s]

    firsts = [stepped_initial_state(aut, f(a.name)) for a in q.arrows for f in (direct, inverse)]
    reach(firsts, succ)
    states = tuple(sorted(edges))
    return states, edges, {s: c for s in states if (c := completions(aut, s))}


class KeyedAutomaton:
    """The string automaton's tables built over (arrow, inverse, prefix
    node) keys by `reach` with a successor closure, then remapped to state
    numbers in sorted key order, with `ends_of`, `predecessors` and
    `states_at` each computed on first use in a pass of its own."""

    def __init__(self, p):
        if not p.is_monomial:
            raise PreconditionError("the string automaton needs a monomial presentation")
        self.quiver = q = p.quiver
        self._generators = gens = p.zero_paths
        self._generator_states = [None] * len(gens)
        # ends[inverse][arrow] is the vertex a letter ends at; first[letter]
        # is its one-letter key, and leaving[v] holds the one-letter keys of
        # the letters starting at v, in letter order.  A letter that changes
        # direction starts a new run, so it leads to its one-letter key; one
        # in the same direction steps the run's prefix table, advance[inverse].
        advance = (prefix_matcher(gens), prefix_matcher([g[::-1] for g in gens]))
        ends = ({a.name: a.target for a in q.arrows}, {a.name: a.source for a in q.arrows})
        first = {}
        leaving = {v: [] for v in q.vertices}
        for a in q.arrows:
            for i, v in ((False, a.source), (True, a.target)):
                node, hit = advance[i](0, a.name)
                if hit is not None:
                    raise CorruptPresentationError("single arrow lies in the ideal")
                first[Letter(a.name, i)] = k = (a.name, i, node)
                leaving[v].append(k)
        for letters in leaving.values():
            letters.sort()
        out = {}
        completing = {}

        def succ(k):
            # reach asks once per key, so this records every edge once;
            # the letters come in order, so the edges need no sort
            arrow, inv, node = k
            run = advance[inv]
            nxt = []
            completed = []
            for f in leaving[ends[inv][arrow]]:
                a, i, _node = f
                if i != inv:
                    if a != arrow:  # not the last letter's inverse
                        nxt.append(f)
                    continue
                n, hit = run(node, a)
                if hit is None:
                    nxt.append((a, i, n))
                elif not i:  # a direct letter completing a generator
                    completed.append((hit, a))
            if completed:
                completing[k] = completed
            out[k] = nxt
            return nxt

        reach(first.values(), succ)
        self.keys = keys = tuple(sorted(out))
        ids = {k: s for s, k in enumerate(keys)}
        self.states = tuple(range(len(keys)))
        self.edges = {s: tuple([ids[t] for t in out[k]]) for s, k in enumerate(keys)}
        self.completing = {ids[k]: c for k, c in sorted(completing.items())}
        self.first = {l: ids[k] for l, k in first.items()}
        # one shared Letter per (arrow, inverse): a Letter equals its tuple
        shared = {l: l for l in first}
        self.letter_of = [shared[k[:2]] for k in keys]

    @cached_property
    def ends_of(self):
        """State -> (source, target) of its last letter."""
        q = self.quiver
        return [letter_ends(q, l) for l in self.letter_of]

    @cached_property
    def predecessors(self):
        """State -> states with an edge into it."""
        rev = [[] for _k in self.keys]
        for s, ts in self.edges.items():
            for t in ts:
                rev[t].append(s)
        return rev

    @cached_property
    def states_at(self):
        """Vertex -> states whose last letter starts or ends there."""
        at = {}
        for s, (v, w) in enumerate(self.ends_of):
            at.setdefault(v, []).append(s)
            if w != v:
                at.setdefault(w, []).append(s)
        return at


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
    return Presentation(sub, [sub.path(g) for g in p.zero_paths if set(g) <= arrow_names])


def restricted_double_zero(p):
    """has_double_zero on a fresh automaton, one generator at a time."""
    aut = StringAutomaton(p)
    gens = p.zero_paths
    cyc = aut.cycle_states()
    for g in gens:
        s0 = state_after_direct_path(aut, g[1:])
        if s0 is None:
            continue
        after = reach([s0], aut.edges.__getitem__)
        from_cyc = reach(after & cyc, aut.edges.__getitem__)
        longest = _dag_longest_from(aut, s0, after - from_cyc)
        for f in after:
            limit = None if f in from_cyc else longest.get(f, -1)
            for gen_idx, _x in completions(aut, aut.keys[f]):
                if limit is None or len(gens[gen_idx]) - 1 <= limit:
                    return True
    return False


def topological_order(nodes, succ):
    """Reachable nodes, each before its successors: on a DAG every strongly
    connected component is one node, and reversed `sccs` lists each before
    the ones it reaches.  None when `cycle_entry` finds a cycle."""
    if cycle_entry(nodes, succ) is not None:
        return None
    return [v for (v,) in reversed(sccs(nodes, succ))]


def _dag_longest_from(aut, s0, dag):
    if s0 not in dag:
        return {}
    succ = lambda s: [t for t in aut.edges[s] if t in dag]
    longest = {s0: 0}
    for s in topological_order([s0], succ):
        for t in succ(s):
            if longest[s] + 1 > longest.get(t, -1):
                longest[t] = longest[s] + 1
    return longest


def full_bfs(aut, sources):
    """Deterministic BFS over every state the sources reach: the (dist,
    parent) maps."""
    dist = dict.fromkeys(sources, 0)
    parent = dict.fromkeys(sources)
    frontier = list(sources)
    while frontier:
        nxt = []
        for s in frontier:
            for t in aut.edges[s]:
                if t not in dist:
                    dist[t] = dist[s] + 1
                    parent[t] = s
                    nxt.append(t)
        frontier = nxt
    return dist, parent


def parent_letters(aut, parent, target):
    """Letters along the BFS-parent chain ending at target."""
    out = []
    while parent[target] is not None:
        out.append(aut.letter_of[target])
        target = parent[target]
    return out[::-1]


def bfs_find_doze(p):
    aut = StringAutomaton(p)
    gens = p.zero_paths
    cyc = aut.cycle_states()
    for g in gens:
        s0 = state_after_direct_path(aut, g[1:])
        if s0 is None:
            continue
        dist1, par1 = full_bfs(aut, [s0])
        for q in sorted((s for s in dist1 if s in cyc), key=lambda s: (dist1[s], s)):
            dist2, par2 = full_bfs(aut, [q])
            for f in sorted(dist2, key=lambda s: (dist2[s], s)):
                comps = completions(aut, aut.keys[f])
                if comps:
                    comps.sort(key=lambda c: (gens[c[0]], c[1]))
                    w1, path = parent_letters(aut, par1, q), parent_letters(aut, par2, f)
                    return _assemble_witness(p, aut, g, q, w1, comps[0], path)
    return None


def kpower_is_band(p, c):
    """Checking one long enough power covers every rotation window: a
    generator occurrence in the infinite periodic walk spans at most
    ceil(len(generator) / len(c)) + 1 periods."""
    if not p.is_monomial:
        raise PreconditionError("is_band needs a monomial presentation")
    if len(c) == 0 or walk_end(p.quiver, c.walk) != c.base or not is_primitive(c.letters):
        return False
    k = max(3, math.ceil(p.max_generator_length() / len(c)) + 2)
    return is_string(p, cyclic_power(p.quiver, c, k))


def double_zero_witness_check(w):
    if not kpower_is_band(w.p, w.band):
        raise CorruptPresentationError("witness band is not a band")
    for n in (1, 2, 3):
        w.double_zero(n)
    return w


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


def antichain_straddle(p, side_parts):
    """Vertices and arrows on strings not contained in a single side
    part, from per-state antichains of minimal part-masks (one bit per
    side part) of the walks ending, resp. starting, at the state."""
    aut = automaton(p)
    q = p.quiver
    arrow_mask = {}
    for i, part in enumerate(side_parts):
        for name in part.arrows:
            a = q.arrow[name]
            if a.source in part.objects and a.target in part.objects:
                arrow_mask[name] = arrow_mask.get(name, 0) | 1 << i
    masks = {s: arrow_mask.get(aut.keys[s][0], 0) for s in aut.states}

    def add(store, s, m):
        have = store[s]
        for e in have:
            if e & m == e:
                return False
        store[s] = [e for e in have if not (m & e == m)] + [m]
        return True

    def minimal_masks(starts, succ):
        store = {s: [] for s in aut.states}
        work = [(s, masks[s]) for s in starts if add(store, s, masks[s])]
        while work:
            s, m = work.pop()
            for t in succ(s):
                if add(store, t, m & masks[t]):
                    work.append((t, m & masks[t]))
        return store

    fwd = minimal_masks(aut.first.values(), aut.edges.__getitem__)
    bwd = minimal_masks(aut.states, aut.predecessors.__getitem__)
    in_some_part = set().union(*(part.objects for part in side_parts))
    objects = {v for v in q.vertices if v not in in_some_part}
    arrows = set()
    for s in aut.states:
        if any(m1 & m2 == 0 for m1 in fwd[s] for m2 in bwd[s]):
            objects.update(aut.ends_of[s])
            arrows.add(aut.keys[s][0])
    return objects, arrows


def condensed_double_zero(p, arrows):
    """Whether p has a double-zero over one set of arrows: Tarjan's
    condensation of the states whose arrow lies in the set, each
    component after every one it reaches, finds how many more letters a
    path needs to complete a generator, none on a cycle."""
    aut = automaton(p)
    gens = p.zero_paths
    starts = {}
    for g in gens:
        starts.setdefault(state_after_direct_path(aut, g[1:]), []).append(g)
    keys = aut.keys
    states = [s for s in aut.states if keys[s][0] in arrows]
    adj = {s: [t for t in aut.edges[s] if keys[t][0] in arrows] for s in states}
    need = {}
    for comp in sccs(states, adj.__getitem__):
        lacks = [
            len(gens[i]) - 1 for s in comp for i, x in aut.completing.get(s, ()) if x in arrows
        ]
        lacks += [max(need[t] - 1, 0) for s in comp for t in adj[s] if need.get(t) is not None]
        least = min(lacks, default=None)
        if least is not None and is_cyclic(comp, adj.__getitem__):
            least = 0
        need.update(dict.fromkeys(comp, least))
    return any(
        need[s] == 0 and any(all(n in arrows for n in g) for g in starts.get(s, ()))
        for s in states
    )


def wide_mask_cover(p, max_len, dec):
    """The support cover with one mask bit per part, in part order: a
    state's mask is the parts holding its arrow and the vertex it ends
    at, a first state's also the vertex it starts at."""
    aut = automaton(p)
    vertex_mask, arrow_mask = {}, {}
    for i, part in enumerate(dec.parts):
        for v in part.objects:
            vertex_mask[v] = vertex_mask.get(v, 0) | 1 << i
        for n in part.arrows:
            arrow_mask[n] = arrow_mask.get(n, 0) | 1 << i
    ends_of, keys = aut.ends_of, aut.keys
    held = {
        s: arrow_mask.get(keys[s][0], 0) & vertex_mask.get(ends_of[s][1], 0) for s in aut.states
    }
    roots = {s: vertex_mask.get(ends_of[s][0], 0) & held[s] for s in aut.first.values()}
    covered = all(vertex_mask.get(v, 0) for v in p.quiver.vertices)
    pairs = _mask_pairs(p, max_len, roots, held)
    return covered and all(m for _s, m in pairs)


def _product_nodes(aut, pat):
    """Forward-reachable (state, pattern-progress) nodes and their edges.

    Progress is a state of the pattern's matcher over letters, and None,
    absorbing, once the pattern has occurred.
    """
    ac = AhoCorasick([pat])

    def advance(pr, letter):
        if pr is None:
            return None
        pr, hit = ac.advance(pr, letter)
        return pr if hit is None else None

    inits = {(s, advance(0, letter)) for letter, s in aut.first.items()}
    letter_of = aut.letter_of
    edges = {}

    def succ(n):
        # reach asks once per node, so this records every edge once
        s, pr = n
        edges[n] = tuple((t, advance(pr, letter_of[t])) for t in aut.edges[s])
        return edges[n]

    reach(inits, succ)
    return edges


def product_d_category(p, w):
    """(objects, arrows) of D(w) for a nonempty string w: the states of
    the product nodes that reach an occurrence of w, read backwards."""
    aut = automaton(p)
    edges = _product_nodes(aut, w.letters)
    rev = {n: [] for n in edges}
    for n, succ in edges.items():
        for m in succ:
            rev[m].append(n)
    on = [s for s, _pr in reach([n for n in edges if n[1] is None], rev.__getitem__)]
    objects, arrows = _support(aut, on, walk_vertices(p.quiver, w))
    arrows.update(walk_arrows(w))
    return objects, arrows


def johnson_cycles(comps, succ):
    """Every simple cycle of the strongly connected components, each
    searched with Johnson's blocking from its first node, that node then
    removed and the rest split again."""
    todo = list(comps)
    while todo:
        comp = todo.pop()
        if len(comp) == 1:
            if is_cyclic(comp, succ):
                yield list(comp)
            continue
        members = set(comp)
        adj = {v: [w for w in succ(v) if w in members] for v in comp}
        start = comp[0]
        yield from _circuits(start, adj)
        rest = [v for v in comp if v != start]
        todo.extend(sccs(rest, lambda v: [w for w in adj[v] if w != start]))


def rotations(quiver, c):
    """All rotations of a cyclic walk, starting one at c itself."""
    letters = c.letters
    out = []
    for i in range(len(letters)):
        rot = letters[i:] + letters[:i]
        base = letter_ends(quiver, rot[0])[0]
        out.append(CyclicWalk(Walk(base, rot)))
    return out or [c]


def object_canonical_band(quiver, c):
    """Minimum over all rotations of both orientations."""
    cands = rotations(quiver, c)
    inv = make_cyclic(quiver, inverse_walk(quiver, c.walk))
    cands += rotations(quiver, inv)
    return min(cands, key=lambda r: r.walk.key())


def every_cycle_census(p):
    aut = automaton(p)
    found = set()
    for cycle in johnson_cycles(aut.cyclic_components, aut.edges.__getitem__):
        letters = [key_letter(aut.keys[s]) for s in cycle[1:] + cycle[:1]]
        root = primitive_root(letters)
        base = letter_ends(p.quiver, letters[-1])[1]
        c = make_cyclic(p.quiver, Walk(base, tuple(root)))
        if not is_band(p, c):
            raise CorruptPresentationError("automaton cycle did not yield a band")
        found.add(object_canonical_band(p.quiver, c))
    return sorted(found, key=lambda c: c.walk.key())


def every_walk_bands(p, max_len):
    q = p.quiver
    found = set()
    for base, letters in _walk_tree(p, range(1, max_len + 1)):
        if letter_ends(q, letters[-1])[1] != base:
            continue
        c = CyclicWalk(Walk(base, tuple(letters)))
        if is_band(p, c):
            found.add(object_canonical_band(q, c))
    return sorted(found, key=lambda c: c.walk.key())


def stepwise_walk_tree(p, wanted):
    """`_walk_tree` one node per Python step, yielding (base, letters,
    visits so far) and returning its visits in all."""
    top = max(wanted, default=0)
    if top < 1:
        return 0
    aut = automaton(p)
    q = p.quiver
    letter_of = aut.letter_of
    edges = aut.edges
    roots = [aut.first[f(a)] for a in sorted(q.arrow) for f in (direct, inverse)]
    stack = [(s, 1) for s in reversed(roots)]
    letters = []
    nodes = 0
    while stack:
        s, depth = stack.pop()
        del letters[depth - 1 :]
        if depth == 1:
            base = aut.ends_of[s][0]
        while True:
            nodes += 1
            if nodes > automaton_module._WALK_CAP:
                raise SearchBudgetExceeded("string enumeration exceeded the walk cap")
            letters.append(letter_of[s])
            if depth in wanted:
                yield base, letters, nodes
            nxt = edges[s]
            if depth == top or not nxt:
                break
            # follow the first child here, the others after its subtree
            depth += 1
            if len(nxt) > 1:
                stack.extend([(t, depth) for t in reversed(nxt[1:])])
            s = nxt[0]
    return nodes


# `_StringHomology.pd_at_least_2` as it was before it skipped the periodic
# stretches, verbatim, with `self` a `_StringHomology`
def every_site_pd_at_least_2(self, base, arrows, inv):
    """Some syzygy summand is not projective; `_sites` takes the same
    arguments.  A projective M(w) has no syzygy summands at all."""
    verdicts = self.verdicts
    for site in self._sites(base, arrows, inv):
        verdict = verdicts.get(site)
        if verdict is None:
            verdict = verdicts[site] = self._not_projective(site)
        if verdict:
            return True
    return False


def _outcome(check, *args):
    try:
        return check(*args)
    except SearchBudgetExceeded:
        return "budget"


def eligible_anchors(p, band, side):
    """Band vertices, sorted, whose out-arrows (dually in-arrows) all lie
    on the band."""
    q = p.quiver
    on_arrows = walk_arrows(band.walk)
    out = []
    for v in sorted(set(walk_vertices(q, band.walk))):
        incident = q.out_arrows(v) if side == "out" else q.in_arrows(v)
        if all(a.name in on_arrows for a in incident):
            out.append(v)
    return out


# --- the automaton build and is_string -----------------------------------------


def _fixtures():
    return [monomial_form(build()) for build in fixtures.ALL.values()]


def test_table_build_matches_the_stepped_build(corpus):
    completing = 0
    for p in corpus + _fixtures():
        aut = StringAutomaton(p)
        keys, edges, comps = stepped_build(p)
        assert aut.keys == keys
        assert aut.states == tuple(range(len(keys)))
        assert [tuple(aut.keys[t] for t in aut.edges[s]) for s in aut.states] == [
            edges[k] for k in keys
        ]
        assert aut.edges.keys() == set(aut.states)
        assert {aut.keys[s]: c for s, c in aut.completing.items()} == comps
        completing += len(comps)
        for s, k in enumerate(keys):
            for letter in _candidate_letters(p.quiver, k):
                t = aut.follow(s, (letter,))
                assert (None if t is None else aut.keys[t]) == stepped(aut, k, letter)
    assert completing > 100


def test_prefix_matcher_steps_like_aho_corasick(corpus500):
    """`prefix_matcher` and the `AhoCorasick` oracle give the same (node,
    hit) for every node and every symbol, one outside the alphabet
    included, on seeded random minimalized pattern sets (1-5 symbols,
    lengths 1-5, shuffled), the empty set, and the forward and reversed
    generators of the fixtures and corpus500."""
    rng = random.Random(20261022)
    cases = [()]
    for _ in range(2000):
        symbols = "abcde"[: rng.randint(1, 5)]
        pats = [tuple(rng.choices(symbols, k=rng.randint(1, 5))) for _ in range(rng.randint(1, 6))]
        pats = minimalize(pats)
        rng.shuffle(pats)
        cases.append(pats)
    for p in _fixtures() + list(corpus500):
        cases += [p.zero_paths, [g[::-1] for g in p.zero_paths]]
    steps, hits = 0, 0
    for pats in cases:
        ac, advance = AhoCorasick(pats), prefix_matcher(pats)
        symbols = sorted({x for pat in pats for x in pat}) + ["outside"]
        for node in range(len(ac._goto)):
            for x in symbols:
                got = advance(node, x)
                assert got == ac.advance(node, x), (pats, node, x)
                steps += 1
                hits += got[1] is not None
    assert steps > 50_000 and hits > 5_000, (steps, hits)


def test_state_tables_match_the_matcher_steps(corpora, corpus500):
    """The one-letter states and end vertices the automaton records,
    against one matcher step and `letter_ends` per letter and state."""
    quotients = [monomial_form(p) for p in corpora(special_biserial_corpus, 1, 200)]
    letters = 0
    for p in _fixtures() + [monomial_form(p) for p in corpus500] + quotients:
        aut = automaton(p)
        q = p.quiver
        for a in q.arrows:
            for letter in (direct(a.name), inverse(a.name)):
                assert aut.keys[aut.first[letter]] == stepped_initial_state(aut, letter)
                letters += 1
        assert len(aut.first) == 2 * len(q.arrows)
        for s in aut.states:
            assert aut.ends_of[s] == letter_ends(q, key_letter(aut.keys[s]))
    assert letters > 5000
    with pytest.raises(KeyError):
        automaton(fixtures.thirteen()).first[direct("no such arrow")]


AUTOMATON_TABLES = (
    "keys",
    "states",
    "edges",
    "completing",
    "first",
    "letter_of",
    "ends_of",
    "predecessors",
    "states_at",
)


def _in_order(table):
    """A table with its order in view: a dict as its list of items."""
    return list(table.items()) if isinstance(table, dict) else table


def test_one_pass_build_matches_the_keyed_build(corpora):
    """Every table of the one-pass build equals the keyed build's, its
    type, its order and its entries' types included (a dict compared as
    its item list), and each state's letter is the very `Letter` that
    keys `first`.  On the fixtures, every `LARGEST_DRAW` corpus (the
    special biserial ones as their J-quotients), 200 random monomial
    presentations without the string-algebra axioms, and the opposite
    of each."""
    rng = random.Random(2029)
    drawn = [random_monomial_presentation(rng) for _ in range(200)]
    instances = _fixtures() + [monomial_form(p) for p in corpora.largest()]
    instances += [p for p in drawn if p is not None]
    instances += [p.opposite() for p in instances]
    completing = 0
    for p in instances:
        got, want = StringAutomaton(p), KeyedAutomaton(p)
        for name in AUTOMATON_TABLES:
            table = getattr(got, name)
            assert type(table) is type(getattr(want, name)), name
            assert _in_order(table) == _in_order(getattr(want, name)), name
        assert all(got.letter_of[s] is l for l, s in got.first.items())
        shared = {id(l) for l in got.first}
        assert all(id(l) in shared for l in got.letter_of)
        completing += len(got.completing)
    assert len(instances) > 15_000 and completing > 30_000, (len(instances), completing)


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
            got = _double_zero_over(p, dict.fromkeys(arrows, (0,)))
            assert got == ({0} if want else set()), (p.quiver.arrows, arrows)
            agree += 1
            positive += want
    assert agree == SUBQUIVERS * len(corpus)
    assert 0 < positive < agree


def test_side_part_decisions_match_the_restricted_automaton(corpus, thirteen):
    checked = 0
    for p in corpus + [thirteen]:
        if classify(p).verdict != STRICT_LAURA_OR_TILTED:
            continue
        dec = decompose(p)
        for part in dec.side_parts:
            sub = restrict(p, part.objects, part.arrows)
            got = _double_zero_over(p, dict.fromkeys(part.arrows, (0,)))
            assert got == ({0} if restricted_double_zero(sub) else set())
            checked += 1
    assert checked > 50


def test_generator_states_match_the_matcher(corpus):
    """The memoized state after each generator's tail against (last arrow,
    direct, forward matcher node after the tail), asked twice so the memo
    is read too."""
    checked = 0
    for p in _fixtures() + corpus:
        aut = automaton(p)
        for _ in range(2):
            for i, g in enumerate(p.zero_paths):
                node = 0
                for a in g[1:]:
                    node = matcher(aut, False).advance(node, a)[0]
                s = aut.generator_state(i)
                assert aut.keys[s] == (g[-1], False, node)
                assert s == state_after_direct_path(aut, g[1:])
                assert s in aut.edges
                checked += 1
    assert checked > 2000


def test_find_doze_matches_the_bfs_route(corpus, skew6):
    found = 0
    for p in corpus + [skew6]:
        got, want = find_doze(p), bfs_find_doze(p)
        assert (got and got.serialize()) == (want and want.serialize())
        found += got is not None
    assert found > 20


def _nearest(aut, search, targets):
    """(least nearest target, the letters leading to it) in a full search."""
    dist, parent = search
    hits = [s for s in dist if s in targets]
    if not hits:
        return None
    t = min(hits, key=lambda s: (dist[s], s))
    return t, parent_letters(aut, parent, t)


def test_bounded_bfs_matches_the_full_search(corpus):
    stopped = 0
    for p in corpus:
        aut = automaton_module.automaton(p)
        back = aut.predecessors.__getitem__
        hot = aut.cycle_states() & reach(aut.completing, back)
        for s in aut.states:
            from_s = full_bfs(aut, [s])
            searches = [([s], hot), ([s], aut.completing)]
            searches += [([t], {s}) for t in aut.edges[s]]
            for sources, targets in searches:
                full = from_s if sources == [s] else full_bfs(aut, sources)
                nearest = aut.bfs(sources, targets)
                assert nearest == _nearest(aut, full, targets)
                # the search stopped before the farthest state
                dist = full[0]
                stopped += nearest is not None and dist[nearest[0]] < max(dist.values())
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


def random_closed_walks(p, rng, tries, most=12):
    """Every closed prefix of `tries` random walks of `most` letters from
    random vertices, each letter chosen, nine times in ten, among those
    that keep the walk a string: mostly strings, bands among them."""
    q = p.quiver
    span = p.max_generator_length()
    out = []
    for _ in range(tries):
        base = at = rng.choice(q.vertices)
        letters = ()
        for _ in range(most):
            options = _letters_at(q, at)
            if not options:
                break
            # a zero window ending at the new letter lies in the last `span`
            good = [l for l in options if is_string(p, Walk(base, letters[-span:] + (l,)))]
            l = rng.choice(good if good and rng.random() < 0.9 else options)
            letters += (l,)
            at = letter_ends(q, l)[1]
            if at == base:
                out.append(CyclicWalk(Walk(base, letters)))
    return out


def test_square_band_check_matches_the_k_power_route(corpus):
    """`is_band` against `kpower_is_band` on random closed walks over the
    fixtures, the corpora and random monomial presentations (loops and
    vertices of any degree), and on the rotations, inverses and squares
    of their census bands."""
    rng = random.Random(27)
    monomial = [random_monomial_presentation(rng) for _ in range(150)]
    kinds = Counter()
    for p in _fixtures() + [LOOPED] + corpus + [m for m in monomial if m is not None]:
        q = p.quiver
        walks = random_closed_walks(p, rng, 12)
        for band in band_census(p) if validate_string_algebra(p).is_valid else ():
            inv = make_cyclic(q, inverse_walk(q, band.walk))
            walks += rotations(q, band) + rotations(q, inv) + [CyclicWalk(cyclic_power(q, band, 2))]
        for c in walks:
            got = is_band(p, c)
            assert got == kpower_is_band(p, c), serialize_walk(c.walk)
            kinds["band" if got else "not a band"] += 1
            # the words the direction test alone keeps out
            one_way = len({l.inverse for l in c.letters}) == 1
            if one_way and is_string(p, cyclic_power(q, c, 2)):
                kinds["one-way square"] += 1
    assert kinds["band"] > 3000 and kinds["not a band"] > 25000, kinds
    assert kinds["one-way square"] > 50, kinds


def _random_mutant(w, rng, closed):
    """w after one to three random edits, each keeping the pieces
    composable: the band replaced by a closed walk at its base from
    `closed`, by its inverse or by its square; band copies or such a
    closed walk appended to w1, or a closed walk put before w3; rho1
    (rho2) replaced by a generator ending (starting) where it does."""
    q, gens = w.p.quiver, w.p.zero_paths
    for _ in range(rng.randint(1, 3)):
        v, band = w.band.base, w.band.letters
        loops = closed.get(v, ())
        edit = rng.randrange(7)
        if edit == 0 and loops:
            w = _replaced(w, band=rng.choice(loops))
        elif edit == 1:
            w = _replaced(w, band=CyclicWalk(inverse_walk(q, w.band.walk)))
        elif edit == 2:
            w = _replaced(w, band=CyclicWalk(Walk(v, band * 2)))
        elif edit == 3:
            w = _replaced(w, w1=Walk(w.w1.base, w.w1.letters + band * rng.randint(1, 2)))
        elif edit == 4 and loops:
            w = _replaced(w, w1=Walk(w.w1.base, w.w1.letters + rng.choice(loops).letters))
        elif edit == 5 and loops:
            w = _replaced(w, w3=Walk(v, rng.choice(loops).letters + w.w3.letters))
        elif edit == 6:
            end, start = q.arrow[w.rho1[-1]].target, q.arrow[w.rho2[0]].source
            rho1 = [g for g in gens if q.arrow[g[-1]].target == end]
            rho2 = [g for g in gens if q.arrow[g[0]].source == start]
            w = _replaced(w, rho1=rng.choice(rho1), rho2=rng.choice(rho2))
    return w


def test_witness_check_matches_the_double_zero_route_on_random_mutants(witnesses):
    """`_validate_witness` (the band's square, then n = 1) against
    `double_zero_witness_check` (the k-power band, then n = 1, 2, 3):
    the same outcome, error class and message, on random mutants of
    every witness.  Most mutants keep a band or a closed walk where the
    band was, so the comparison reaches the walk checks."""
    rng = random.Random(2027)
    outcomes = Counter()
    for w in witnesses:
        closed = {}
        for c in random_closed_walks(w.p, rng, 6):
            closed.setdefault(c.base, []).append(c)
        for _ in range(32):
            m = _random_mutant(w, rng, closed)
            got = _check_outcome(_validate_witness, m)
            assert got == _check_outcome(double_zero_witness_check, m), m.serialize()
            outcomes[got if got == "ok" else got[1].split(":")[0]] += 1
    assert sum(outcomes.values()) > 10000, outcomes
    assert outcomes["ok"] > 2000, outcomes
    for message in (
        "witness band is not a band",
        "double-zero walk is not reduced",
        "double-zero interior is not a string",
    ):
        assert outcomes[message] > 400, outcomes


# --- the finiteness check -----------------------------------------------------


def _random_bound_quiver(rng, most_vertices=4, most_arrows=6):
    """Vertices, arrows, zero and commutativity relations by name: loops
    and parallel arrows allowed, acyclic (arrows only up the vertex
    order) half of the time."""
    n = rng.randint(1, most_vertices)
    vertices = [str(i) for i in range(1, n + 1)]
    acyclic = rng.random() < 0.5
    arrows = []
    for i in range(rng.randint(0, most_arrows)):
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


# SHA-256 of the construction outcomes of the 20,000 random bound quivers
# below, recorded while acyclic quivers still skipped the finiteness search,
# which the product search alone now decides.
CONSTRUCTION_SHA256 = "f9d4feac7c2c3df4d1144bad3cec876f2d27f02a600b9834916f6a73fb4104ff"


def test_construction_outcomes_are_pinned():
    rng = random.Random(20261018)
    cases = [_random_bound_quiver(rng) for _ in range(20_000)]
    outcomes = [_construction(case) for case in cases]
    digest = hashlib.sha256("\n".join(map(repr, outcomes)).encode()).hexdigest()
    assert digest == CONSTRUCTION_SHA256
    # acyclic and cyclic quivers, with and without commutativity
    # relations, accepted, and cyclic ones rejected; loops; parallel arrows
    kinds = {(_acyclic(case), got[0], bool(case[3])) for case, got in zip(cases, outcomes)}
    assert {(a, "ok", c) for a in (True, False) for c in (True, False)} <= kinds
    assert (False, "InfiniteDimensionalError", False) in kinds
    assert any(s == t for case in cases for _n, s, t in case[1])
    assert any(len({(s, t) for _n, s, t in case[1]}) < len(case[1]) for case in cases)


def unpruned_finiteness(quiver, gens):
    """The finiteness search from every vertex, with every arrow."""
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


def _finiteness_outcome(check, quiver, gens):
    try:
        check(quiver, gens)
    except InfiniteDimensionalError as e:
        return str(e)
    return None


def test_pruned_finiteness_check_matches_the_unpruned_search(corpus500):
    """Both searches raise, or not, with the same message, on seeded
    random bound quivers (small ones and larger ones with more of their
    vertices peeled), the fixtures and corpus500.  A generator set is what
    `Presentation` passes: the zero relations and both sides of each
    commutativity relation, minimalized."""
    rng = random.Random(20261020)
    cases = []
    for most in ((4, 6),) * 6000 + ((8, 12),) * 3000:
        vertices, arrows, zeros, comms = _random_bound_quiver(rng, *most)
        gens = minimalize(list(zeros) + [side for pair in comms for side in pair])
        cases.append((Quiver(vertices, arrows), gens))
    for p in _fixtures() + list(corpus500):
        cases.append((p.quiver, p.monomial_generators()))
    kinds = Counter()
    for q, gens in cases:
        got = _finiteness_outcome(_assert_finite_dimensional, q, gens)
        assert got == _finiteness_outcome(unpruned_finiteness, q, gens), (q.arrows, gens)
        successors = lambda v: [a.target for a in q.out_arrows(v)]
        peels = any(topological_order([v], successors) is not None for v in q.vertices)
        kinds[got is not None, peels] += 1
    # raised and passed, with and without vertices peeled off
    assert min(kinds[k] for k in itertools.product((False, True), repeat=2)) > 200, kinds


# --- the walk tree ------------------------------------------------------------


def _walked(p, wanted):
    """The (base, letters) items `_walk_tree` yields, and the message of
    the error that ends it, or None."""
    items = []
    try:
        for base, letters in _walk_tree(p, wanted):
            items.append((base, tuple(letters)))
    except SearchBudgetExceeded as e:
        return items, str(e)
    return items, None


def _stepwise_walked(p, wanted):
    """(items, visits at each item, visits in all) of the stepwise walk,
    with the message of the error that ends it in place of the total."""
    walk, items, at = stepwise_walk_tree(p, wanted), [], []
    try:
        while True:
            base, letters, visits = next(walk)
            items.append((base, tuple(letters)))
            at.append(visits)
    except StopIteration as stop:
        return items, at, stop.value
    except SearchBudgetExceeded as e:
        return items, at, str(e)


def _windows(p):
    bound = pumping_bound(p)
    return [range(k, k + 1) for k in range(bound + 11)] + [
        range(3, 9),
        range(46, 47),
        range(0, 7),
        range(0),
    ]


# a window whose walk visits more strings is compared up to this cap
# only, which keeps the test to a few seconds
WINDOW_CAP = 300


def test_windowed_walk_matches_the_stepwise_walk(monkeypatch, corpora, corpus500):
    """Same items in the same order, and under a cap at the total visits,
    one below it and one below the visits at a first, middle and last
    item, the same items before the same error: the walk counts every
    string it steps over, each where the stepwise walk visits it.  On the
    fixtures, corpus500 and the J-quotients of a special biserial corpus,
    at every single length up to the pumping bound plus 10 and on a few
    wider windows.  Under a cap c the stepwise walk yields the items it
    reaches within c visits, and raises iff its total exceeds c."""
    instances = (
        _fixtures()
        + [monomial_form(p) for p in corpus500]
        + [monomial_form(p) for p in corpora(special_biserial_corpus, 1, 200)]
    )
    capped = finished = 0
    for p in instances:
        for wanted in _windows(p):
            monkeypatch.setattr(automaton_module, "_WALK_CAP", WINDOW_CAP)
            items, at, total = _stepwise_walked(p, wanted)
            if isinstance(total, str):
                assert _walked(p, wanted) == (items, total), wanted
                capped += 1
                continue
            finished += 1
            sampled = at[:1] + at[len(at) // 2 : len(at) // 2 + 1] + at[-1:]
            caps = {total, total - 1} | {n - 1 for n in sampled}
            for cap in sorted(caps - {-1}):
                monkeypatch.setattr(automaton_module, "_WALK_CAP", cap)
                want = [item for item, n in zip(items, at) if n <= cap]
                error = "string enumeration exceeded the walk cap" if total > cap else None
                assert _walked(p, wanted) == (want, error), (wanted, cap)
    assert capped > 100 and finished > 10_000


def test_long_window_scan_matches_the_stepwise_walk(monkeypatch, thirteen):
    run = lambda: (
        strings_of_length(thirteen, range(400, 401)),
        conjecture_scan(thirteen, 400, min_len=400),
    )
    got = run()
    stepwise = lambda p, wanted: ((b, l) for b, l, _n in stepwise_walk_tree(p, wanted))
    monkeypatch.setattr(automaton_module, "_walk_tree", stepwise)
    assert got == run()
    assert len(got[0]) == 12


# --- syzygy sites -------------------------------------------------------------

# a length whose walk visits more strings ends an instance's list of strings
SITE_CAP = 1000


def _strings_up_to(p, top):
    """Every string of p of length at most top, one length at a time, up
    to the first length whose walk passes SITE_CAP visits."""
    out = []
    for k in range(top + 1):
        try:
            out += strings_of_length(p, range(k, k + 1))
        except SearchBudgetExceeded:
            break
    return out


def test_period_skip_matches_the_every_site_reader(
    monkeypatch, corpora, thirteen, skew6, corpus500
):
    """pd >= 2 with the band periods skipped and read at every site agree
    on A and on the dual (the flipped flags against the reversed quiver
    and generators), on every string up to the pumping bound plus 10 of
    the fixtures that are string algebras (nine is not), corpus500 and the
    J-quotients of a special biserial corpus (up to the first length
    whose walk passes SITE_CAP visits), and on the long strings of
    thirteen at 400 and 1,600 letters and of skew6 at 200.  Also on
    `string_corpus(6, 235)[234]`, where two periods of a string can
    differ only in the letter after a valley.  The skip reads far fewer
    valley sites."""
    instances = (
        _fixtures()
        + [monomial_form(p) for p in corpus500]
        + [monomial_form(p) for p in corpora(special_biserial_corpus, 1, 200)]
        + corpora(string_corpus, 6, 235)[234:]
    )
    monkeypatch.setattr(automaton_module, "_WALK_CAP", SITE_CAP)
    cases = [
        (p, _strings_up_to(p, pumping_bound(p) + 10))
        for p in instances
        if validate_string_algebra(p).is_valid
    ]
    monkeypatch.undo()
    cases += [
        (
            thirteen,
            strings_of_length(thirteen, range(400, 401))
            + strings_of_length(thirteen, range(1600, 1601)),
        ),
        (skew6, strings_of_length(skew6, range(200, 201))),
    ]
    reads, verdicts, reader = Counter(), Counter(), ["skip"]
    valley_site = _StringHomology._valley_site

    def counted(self, arrows, inv, j):
        reads[reader[0]] += 1
        return valley_site(self, arrows, inv, j)

    monkeypatch.setattr(_StringHomology, "_valley_site", counted)
    for p, strings in cases:
        sides = _string_homology(p), _string_homology(p, dual=True)
        for w in strings:
            arrows, inv = _arrows_and_flags(w)
            for h, flags in zip(sides, (inv, bytes(not f for f in inv))):
                reader[0] = "skip"
                got = h.pd_at_least_2(w.base, arrows, flags)
                reader[0] = "every"
                assert got == every_site_pd_at_least_2(h, w.base, arrows, flags), w
                verdicts[got] += 1
    assert min(verdicts.values()) > 10_000, verdicts
    assert 5 * reads["skip"] < 3 * reads["every"], reads


def stepwise_periodic_end(arrows, inv, s, d):
    t = s
    while t < len(arrows) and arrows[t] == arrows[t - d] and inv[t] == inv[t - d]:
        t += 1
    return t


def test_periodic_end_matches_the_stepwise_scan():
    """`_periodic_end` finds where a stretch stops repeating the letters d
    before it, letter for letter: on random words of a repeated unit with
    one letter's arrow, flag or both changed (a flag alone tells a loop
    read forwards from the loop read backwards)."""
    rng = random.Random(24)
    changed = Counter()
    for _ in range(4000):
        d = rng.randint(1, 6)
        unit = [(rng.choice("abc"), rng.randint(0, 1)) for _ in range(d)]
        word = (unit * 80)[: rng.randint(d, 80)]
        if rng.random() < 0.8:
            k = rng.randrange(len(word))
            arrow, flag = word[k]
            what = rng.choice(["arrow", "flag", "both"])
            if what != "flag":
                arrow = rng.choice([a for a in "abc" if a != arrow])
            if what != "arrow":
                flag = 1 - flag
            word[k] = arrow, flag
            changed[what] += 1
        arrows, inv = tuple(a for a, _ in word), bytes(f for _, f in word)
        s = rng.randint(d, len(word))
        assert _periodic_end(arrows, inv, s, d) == stepwise_periodic_end(arrows, inv, s, d)
    assert min(changed.values()) > 500, changed


# --- support cover ------------------------------------------------------------


def _decompositions(corpus):
    """(presentation, decomposition, kind): each decomposition as it is
    and broken by a middle that lost a vertex or an arrow or by a side
    part that lost an arrow."""
    for p in corpus + [fixtures.thirteen()]:
        if classify(p).verdict != STRICT_LAURA_OR_TILTED:
            continue
        dec = decompose(p)
        yield p, dec, "intact"
        m = dec.middle
        for v in sorted(m.objects)[:2]:
            yield p, _shrunk(dec, m, objects={v}), "middle"
        for a in sorted(m.arrows)[:1]:
            yield p, _shrunk(dec, m, arrows={a}), "middle"
        for part in dec.side_parts[:1]:
            yield p, _shrunk(dec, part, arrows={min(part.arrows)}), "side"


def _shrunk(dec, part, objects=frozenset(), arrows=frozenset()):
    """dec with one of its parts missing the given objects and arrows."""
    new = Subcategory(
        part.label, part.objects - objects, part.arrows - arrows, part.anchor, part.band
    )
    swap = lambda parts: tuple(new if x is part else x for x in parts)
    middle = new if part is dec.middle else dec.middle
    return Decomposition(swap(dec.a_parts), swap(dec.b_parts), middle, dec.notes)


def test_support_cover_matches_the_enumeration(corpus):
    answers = {}
    for p, dec, kind in _decompositions(corpus):
        for n in range(-1, 9):
            got = _outcome(support_cover_check, p, n, dec)
            assert got == _outcome(enumerated_cover, p, n, dec), (n, dec)
            answers.setdefault(kind, set()).add(got)
    assert answers == {"intact": {True}, "middle": {True, False}, "side": {True, False}}


def test_support_cover_spends_the_same_budget(monkeypatch, thirteen):
    """The budget counts the (state, mask) pairs the cover visits, not
    the strings: wherever the enumeration finishes under a cap the
    answers agree, and the intact and the broken decomposition of
    thirteen raise or answer together at every cap and length."""
    dec = decompose(thirteen)
    broken = _shrunk(dec, dec.middle, objects={"7"})
    answers, enumerated = set(), set()
    for cap in (20, 50, 200, 1000):
        monkeypatch.setattr(automaton_module, "_WALK_CAP", cap)
        for n in (3, 6, 10, 40):
            got = {d: _outcome(support_cover_check, thirteen, n, d) for d in (dec, broken)}
            assert (got[dec] == "budget") == (got[broken] == "budget"), (cap, n)
            for d in (dec, broken):
                expected = _outcome(enumerated_cover, thirteen, n, d)
                if expected != "budget":
                    assert got[d] == expected, (cap, n)
                answers.add(got[d])
                enumerated.add((got[d] == "budget", expected == "budget"))
    assert answers == {True, False, "budget"}
    # the cover answered where the enumeration of the strings ran out
    assert (False, True) in enumerated


# --- side-part passes -----------------------------------------------------------

SIDE_PART_SEEDS = (1, 2, 3, 20260809)
# members of string_corpus(seed, 2000) with an arrow in two side parts
SHARED_ARROW = {1: (4, 1222, 1831), 20260809: (362, 1273)}


def _shares_an_arrow(p, dec):
    q = monomial_form(p).quiver
    held = [
        n
        for part in dec.side_parts
        for n in part.arrows
        if {q.arrow[n].source, q.arrow[n].target} <= part.objects
    ]
    return len(held) > len(set(held))


def _side_parts_agree(p, dec, lengths=(1, 3, 8)):
    """The straddle, the side parts' double-zeros and the support cover
    answer as the routes they replaced."""
    work = monomial_form(p)
    sides = dec.side_parts
    assert _straddle_support(work, sides) == antichain_straddle(work, sides)
    doubled = [part.label for part in sides if condensed_double_zero(work, part.arrows)]
    report = check_structure(p, dec)
    found = [d.split()[1] for d in report.details if d.startswith("sides_double_zero_free")]
    assert found == doubled
    for n in lengths:
        assert _outcome(support_cover_check, p, n, dec) == _outcome(wide_mask_cover, work, n, dec)


def test_side_part_passes_match_the_replaced_routes_on_the_corpora(corpora):
    checked = shared = 0
    for seed in SIDE_PART_SEEDS:
        strings = corpora(string_corpus, seed, 2000 if seed in SHARED_ARROW else 500)
        named = [strings[i] for i in SHARED_ARROW.get(seed, ())]
        for p in strings[:500] + named[1:] + corpora(special_biserial_corpus, seed, 100):
            if classify(p).verdict != STRICT_LAURA_OR_TILTED:
                continue
            dec = decompose(p)
            _side_parts_agree(p, dec)
            checked += 1
            shared += _shares_an_arrow(p, dec)
        for p in named:
            assert _shares_an_arrow(p, decompose(p))
    # the sixth, special_biserial_corpus(20260809, 100)[99], decomposes
    # since a side part is the intersection over its anchors
    assert checked > 500 and shared == 6


def test_anchors_read_off_the_boundary_match_their_definition(corpora, thirteen):
    """On every band of every StrictLauraOrTilted instance, the anchors
    read off the band's boundary are those of the definition, and its
    side part reports the least."""
    instances = [thirteen]
    for seed in (20260809, 1, 2):
        instances += corpora(string_corpus, seed, 500)
    for seed in (1, 2):
        instances += corpora(special_biserial_corpus, seed, 200)
    bands = 0
    for p in instances:
        report = classify(p)
        if report.verdict != STRICT_LAURA_OR_TILTED:
            continue
        work = monomial_form(p)
        anchors = {}
        for info in report.bands:
            side = "in" if info.boundary.entering else "out"
            anchors[info.band] = eligible_anchors(work, info.band, side)
            assert _anchors(work.quiver, info) == anchors[info.band], info.band
        for part in decompose(p).side_parts:
            assert part.anchor == anchors[part.band][0]
        bands += len(anchors)
    assert bands == 539


def _chain_decompositions():
    """Each chain of thirteens up to 64 copies, with its decomposition; a
    NotLaura chain gets its strict twin's side parts and the middle the
    straddle finds for them."""
    from tests.test_properties import NOT_LAURA_JOIN, STRICT_JOIN, chain_copies

    thirteen = fixtures.thirteen()
    for k in (1, 2, 3, 8, 64):
        strict, _ = chain_copies(thirteen, k, STRICT_JOIN)
        dec = decompose(strict)
        yield strict, dec
        loose, _ = chain_copies(thirteen, k, NOT_LAURA_JOIN)
        objects, arrows = _straddle_support(loose, dec.side_parts)
        middle = Subcategory("C", frozenset(objects), frozenset(arrows))
        yield loose, Decomposition(dec.a_parts, dec.b_parts, middle, dec.notes)


def test_side_part_passes_match_the_replaced_routes_on_the_chain():
    verdicts = set()
    for p, dec in _chain_decompositions():
        _side_parts_agree(p, dec, lengths=(1, 8))
        verdicts.add(classify(p).verdict)
    assert verdicts == {STRICT_LAURA_OR_TILTED, NOT_LAURA}


def test_side_part_passes_match_the_replaced_routes_on_altered_decompositions(corpus):
    kinds = set()
    for p, dec, kind in _decompositions(corpus):
        _side_parts_agree(p, dec)
        for part in dec.side_parts[:1]:
            _side_parts_agree(p, _shrunk(dec, part, objects={min(part.objects)}))
        kinds.add(kind)
    assert kinds == {"intact", "middle", "side"}


def test_stepped_d_category_matches_the_product_route(corpus):
    """D(w) of every nonempty string of length <= 4, both orientations,
    on the fixtures and a slice of each corpus."""
    instances = _fixtures() + corpus[:60] + corpus[240:300] + corpus[480:540]
    checked = grown = 0
    for p in instances:
        q = p.quiver
        for w in enumerate_strings(p, 4):
            if not w.letters:
                continue
            for v in (w, inverse_walk(q, w)):
                cat = d_category(p, v)
                objects, arrows = product_d_category(p, v)
                assert (cat.objects, cat.arrows) == (objects, arrows)
                checked += 1
                grown += len(arrows) > len(walk_arrows(v))
    assert checked > 5000
    assert grown > checked // 2


def test_straddle_matches_the_antichain_route_on_random_parts(corpus):
    """Random full subquivers as side parts, some sharing arrows, so some
    states carry two labels and others one."""
    rng = random.Random(11)
    shared = set()
    for p in corpus:
        q = p.quiver
        for _ in range(3):
            parts = []
            for i in range(rng.randint(1, 4)):
                objects = frozenset(v for v in q.vertices if rng.random() < 0.5)
                inside = [a.name for a in q.arrows if {a.source, a.target} <= objects]
                arrows = frozenset(n for n in inside if rng.random() < 0.9)
                parts.append(Subcategory(f"A{i + 1}", objects, arrows))
            assert _straddle_support(p, parts) == antichain_straddle(p, parts)
            held = [n for part in parts for n in part.arrows]
            shared.add(len(held) > len(set(held)))
    assert shared == {False, True}


def test_one_pass_decides_every_parts_double_zeros(corpus):
    """Random arrows in three parts, some of them in two, decided in one
    pass, against one condensation per part."""
    from tests.test_properties import NOT_LAURA_JOIN, chain_copies

    rng = random.Random(16)
    chains = [chain_copies(fixtures.thirteen(), k, NOT_LAURA_JOIN)[0] for k in (2, 4)]
    answers = set()
    for p in corpus + chains:
        names = [a.name for a in p.quiver.arrows]
        for _ in range(4):
            parts_of = {n: tuple(rng.sample(range(3), rng.choice((0, 1, 1, 2)))) for n in names}
            arrows = [{n for n, ks in parts_of.items() if i in ks} for i in range(3)]
            want = {i for i in range(3) if condensed_double_zero(p, arrows[i])}
            assert _double_zero_over(p, parts_of) == want
            answers.add(len(want))
    assert answers >= {0, 1, 2}


def test_band_searches_match_the_every_cycle_routes(corpora, corpus500):
    """The census and the bounded enumeration against the routes that
    verify every cycle, on the fixtures, corpus500 and the NotLaura draws
    of another seed, where bands may share vertices."""
    not_laura = [p for p in corpora(string_corpus, 7, 500) if classify(p).verdict == NOT_LAURA]
    instances = _fixtures() + [monomial_form(p) for p in corpus500] + not_laura
    with_bands = 0
    for p in instances:
        census = band_census(p)
        assert census == every_cycle_census(p)
        assert enumerate_bands(p, 6) == every_walk_bands(p, 6)
        with_bands += bool(census)
    assert with_bands > 100


def test_tuple_canonical_band_matches_the_object_route(corpora, corpus500):
    """`canonical_band` against `object_canonical_band` on every rotation
    of both orientations of every census band of the fixtures and of
    corpora 1, 2 and 20260809."""
    instances = _fixtures() + [
        monomial_form(p)
        for p in corpora(string_corpus, 1, 200) + corpora(string_corpus, 2, 200) + corpus500
    ]
    checked = 0
    for p in instances:
        q = p.quiver
        for band in band_census(p):
            inv = make_cyclic(q, inverse_walk(q, band.walk))
            for c in rotations(q, band) + rotations(q, inv):
                assert canonical_band(q, c) == object_canonical_band(q, c) == band
                checked += 1
    assert checked > 2000
    trivial = CyclicWalk(Walk(p.quiver.vertices[0], ()))
    assert canonical_band(p.quiver, trivial) == object_canonical_band(p.quiver, trivial)


def test_single_cycle_read_matches_johnson(corpora, corpus500):
    """`component_cycles` yields Johnson's lists, in the same order and
    rotation, on every cyclic component of the fixtures, corpus500 and
    the NotLaura draws of another seed, one simple cycle or not."""
    not_laura = [p for p in corpora(string_corpus, 7, 500) if classify(p).verdict == NOT_LAURA]
    instances = _fixtures() + [monomial_form(p) for p in corpus500] + not_laura
    simple = other = 0
    for p in instances:
        aut = automaton(p)
        succ = aut.edges.__getitem__
        comps = aut.cyclic_components
        for comp in comps:
            got = list(component_cycles([comp], succ))
            assert got == list(johnson_cycles([comp], succ))
            if len(got) == 1 and len(got[0]) == len(comp):
                simple += 1
            else:
                other += 1
        assert list(component_cycles(comps, succ)) == list(johnson_cycles(comps, succ))
    assert simple > 800
    assert other > 250


def test_band_checks_are_invariant_under_rotation_and_inversion(corpus500):
    """The property the census's skip relies on."""
    checked = 0
    for p in corpus500:
        q = p.quiver
        for band in band_census(p):
            inv = make_cyclic(q, inverse_walk(q, band.walk))
            for c in rotations(q, band) + rotations(q, inv):
                assert is_band(p, c)
                assert canonical_band(q, c) == band
                checked += 1
    assert checked > 1000


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
    null = la.kernel_basis(rows, ncols=nvars)[0] if rows else []
    other = embedding([x + y for x, y in zip(sols[0], null[0])]) if null else None
    return I, embed, other


def naturality_id_at_least_2(p, M):
    """Not injective, and the cokernel of the envelope not injective either."""
    I, embed = naturality_envelope(p, M)
    if I.total_dim == M.total_dim:
        return False
    C, _ = cokernel(embed)
    I2, _ = naturality_envelope(p, C)
    return I2.total_dim != C.total_dim


def test_envelope_solution_independence(skew6):
    M = rep.string_module(skew6, parse_walk(skew6.quiver, "x2: beta1 gamma1"))
    I, embed, other = naturality_envelope(skew6, M, second_solution=True)
    C1, _ = cokernel(embed)
    if other is not None:
        assert any(embed.blocks[v] != other.blocks[v] for v in skew6.quiver.vertices)
        C2, _ = cokernel(other)
        assert C1.dims == C2.dims


def test_duality_envelope_matches_the_naturality_solve(corpora, skew6, thirteen):
    compared = 0
    for p in [skew6, thirteen] + corpora(string_corpus, 5, 10):
        for w in enumerate_strings(p, 4):
            M = rep.string_module(p, w)
            I, embed = injective_envelope(p, M)
            J, oracle = naturality_envelope(p, M)
            assert I.dims == J.dims, w
            assert embed.is_injective(), w
            assert cokernel(embed)[0].dims == cokernel(oracle)[0].dims, w
            compared += 1
    assert compared == 315
