"""Finite automaton accepting exactly the strings of a monomial presentation.

A state is (last letter, run progress) where run progress is the
`presentation.prefix_matcher` node of the current maximal same-direction
run: its longest tail that is a prefix of a zero generator (direct run)
or of a reversed one (inverse run).  Transitions are the composable,
reduced continuations that never complete a generator, so every walk the
automaton accepts is a string and conversely.

The build is table-driven: `graph.reach` asks each (arrow, inverse,
prefix node) key once for its successors, read off per-letter end
vertices and per-vertex leaving letters.  A letter that changes
direction leads to its one-letter key; one that continues the run takes
one prefix-table step.  The states are then numbered 0…n−1 in the sorted
order of their keys, and `keys[s]` holds state s's key, so every
search breaks ties and orders its roots as it would on the keys.  The
build records, over state numbers, `first`, each letter's one-letter
state (the only prefix-table steps from scratch), `edges`, a dict from
each state to its successors, `completing`, the direct letters that would
complete a generator, and `letter_of`, each state's last letter, one
shared `Letter` per arrow and direction; `step` reads `edges`, and
callers read the tables themselves: `first[letter]` raises KeyError for
an arrow not in the quiver.  The other per-state tables are lists
computed once on first use: `ends_of`, each state's letter's (source,
target), which `states_at`, the walk tree and `decomp` read, and
`predecessors`.  `generator_state` memoizes the state after each zero
generator's tail, where the `doze` searches start.  `rings`, filled the
first time a walk's window starts at length 3 or more, holds the rings
the walk tree goes round in whole turns below the window.

Cycles in the state graph are exactly the source of bands: pumping any
cycle yields arbitrarily long strings, and the primitive root of its
letter sequence is a band.  The one condensation, `cyclic_components`,
is shared by `cycle_states`, `doze.find_doze`, `band_census`
(`graph.component_cycles` runs on it) and `exists_band`.  A band's
canonical form is its least rotation as a letter tuple, either way round.
"""

from functools import cached_property

from .errors import CorruptPresentationError, PreconditionError, SearchBudgetExceeded
from .graph import component_cycles, is_cyclic, reach, sccs
from .presentation import prefix_matcher
from .walks import (
    CyclicWalk,
    Letter,
    Walk,
    canonical_band,
    direct,
    inverse,
    is_band,
    letter_ends,
    primitive_root,
    trivial_walk,
)


class StringAutomaton:
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

    def step(self, s, letter):
        """Extend state s by one letter along its recorded edge; None when
        the extension is not a string."""
        letter_of = self.letter_of
        for t in self.edges[s]:
            if letter_of[t] == letter:
                return t
        return None

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

    @cached_property
    def rings(self):
        """Per state, how the walk tree descends from it below a window:
        None if two of its children have edges, else [lead, live, trail,
        ring, at]: its child with edges (or None), the edgeless children
        before and after that one and, on a ring (a cycle of such states
        along their live children), the ring's (letters twice over, length,
        visits at once and trailing edgeless children per turn), shared by
        its states, and where a turn's letters start from this state."""
        edges = self.edges
        steps, live_of, chased = [], {}, {}
        for s, ts in edges.items():
            live = [t for t in ts if edges[t]]
            if len(live) == 1:
                live_of[s] = t = live[0]
                j = ts.index(t)
                steps.append([j, t, len(ts) - j - 1, None, 0])
            else:
                steps.append(None if live else [len(ts), None, 0, None, 0])
        for s in live_of:  # a chain of live children ends, or comes round: a ring
            chain = []
            while s in live_of and s not in chased:
                chased[s] = chain
                chain.append(s)
                s = live_of[s]
            if chased.get(s) is chain:
                ring = chain[chain.index(s) :]
                n = len(ring)
                lead, trail = (sum([steps[t][i] for t in ring]) for i in (0, 2))
                shared = ([self.letter_of[t] for t in ring * 2], n, n + lead, trail)
                for at, t in enumerate(ring, 1):
                    steps[t][3:] = shared, at
        return steps

    def __len__(self):
        return len(self.states)

    def accepts(self, w):
        """Simulate a walk; agrees with walks.is_string by construction."""
        if not w.letters:
            return self.quiver.has_vertex(w.base)
        if letter_ends(self.quiver, w.letters[0])[0] != w.base:
            return False
        s = self.first[w.letters[0]]
        for l in w.letters[1:]:
            s = self.step(s, l)
            if s is None:
                return False
        return True

    def generator_state(self, i):
        """State after the i-th zero generator's tail (all but its first
        arrow), stepped along the edges once and memoized; the tail of a
        minimal generator is a string, so every step exists."""
        s = self._generator_states[i]
        if s is None:
            tail = self._generators[i][1:]
            s = self.first[direct(tail[0])]
            for a in tail[1:]:
                s = self.step(s, direct(a))
            self._generator_states[i] = s
        return s

    @cached_property
    def cyclic_components(self):
        """The strongly connected components that carry a cycle, in
        `graph.sccs` order: the one condensation of the automaton."""
        succ = self.edges.__getitem__
        return tuple(comp for comp in sccs(self.states, succ) if is_cyclic(comp, succ))

    def cycle_states(self):
        """States lying on some nontrivial cycle, as a fresh set."""
        return {s for comp in self.cyclic_components for s in comp}

    def bfs(self, sources, targets):
        """Deterministic BFS to the nearest targets: (the least target in
        the first layer holding one, the letters along its BFS-parent
        chain), or None when no target is reached."""
        parent = dict.fromkeys(sources)
        frontier = list(sources)
        while frontier:
            hits = [s for s in frontier if s in targets]
            if hits:
                target = s = min(hits)
                letters = []
                while parent[s] is not None:
                    letters.append(self.letter_of[s])
                    s = parent[s]
                return target, letters[::-1]
            nxt = []
            for s in frontier:
                for t in self.edges[s]:
                    if t not in parent:
                        parent[t] = s
                        nxt.append(t)
            frontier = nxt
        return None

    def shortest_cycle_at(self, q):
        """Letter sequence of a minimal cycle through q, or None."""
        cycles = []
        for s in self.edges[q]:
            found = self.bfs([s], {q})
            if found is not None:
                cycles.append([self.letter_of[s]] + found[1])
        return min(cycles, key=lambda c: (len(c), c), default=None)


def automaton(p):
    """The cached string automaton of a monomial presentation."""
    return p.cached("string_automaton", lambda: StringAutomaton(p))


def pumping_bound(p):
    """Length bound beyond which string behaviour is periodic: the state
    count plus room for a generator at each end."""
    return len(automaton(p)) + 2 * p.max_generator_length()


def exists_band(p):
    """True iff the string automaton contains a nontrivial cycle, that is
    a strongly connected component carrying one."""
    return bool(automaton(p).cyclic_components)


# Strings visited per enumeration, both orientations counted, and
# (state, mask) pairs per support cover.  It bounds the time and memory of
# `strings`, `scan` and `bands --max-len`, where the number of strings
# grows exponentially with their length, and of `check-structure`.
_WALK_CAP = 200_000

# Letters of the strings `strings` and `scan` keep, and of the walk `dozed`
# pumps: their output grows with the square of the length asked for, or
# with n, before any visit count binds.
LETTER_CAP = 1_000_000


def _walk_tree(p, wanted):
    """The nonempty strings of length in `wanted`, a range of consecutive
    lengths read at its ends, each reached once as a node of the
    automaton's walk tree, as (base, letters) pairs.  Any other container,
    or a range with a step other than 1, raises PreconditionError.

    One iterative depth-first walk down to the largest wanted length,
    following the automaton's edges.  Siblings come in letter order, so
    the strings of each length come out in `Walk.key` order.  `letters` is
    one shared list, valid only until the next item; nothing else is
    built per node.  Below the window an edgeless child is
    counted, not walked, and a ring (`StringAutomaton.rings`) is gone round
    in whole turns up to one letter short of the window.  Each string still
    counts as a visit before the same item as in a walk of every node, so
    visiting more than `_WALK_CAP` nodes raises SearchBudgetExceeded where
    that walk would.
    """
    if not isinstance(wanted, range) or wanted.step != 1:
        raise PreconditionError("string lengths must be a range of consecutive lengths")
    top = wanted[-1] if wanted else 0
    if top < 1:
        return
    aut = automaton(p)
    q = p.quiver
    letter_of = aut.letter_of
    edges = aut.edges
    # a node shallower than `short` has children shorter than the window
    short = max(wanted[0], 1) - 1
    rings = aut.rings if short > 1 else None
    roots = [aut.first[f(a)] for a in sorted(q.arrow) for f in (direct, inverse)]
    stack = [(s, 1) for s in reversed(roots)]
    letters = []
    nodes = 0
    while stack:
        s, depth = stack.pop()
        if not depth:  # s edgeless children below the window, counted as one entry
            nodes += s
            continue
        del letters[depth - 1 :]
        if depth == 1:
            base = aut.ends_of[s][0]
        while True:
            nodes += 1
            if nodes > _WALK_CAP:
                raise SearchBudgetExceeded("string enumeration exceeded the walk cap")
            letters.append(letter_of[s])
            if depth > short:
                yield base, letters
            elif depth < short and (step := rings[s]) is not None:
                lead, live, trail, ring, at = step
                if ring is not None and depth + ring[1] <= short:
                    doubled, n, visits, deferred = ring
                    k = (short - depth) // n
                    nodes += k * visits
                    if nodes > _WALK_CAP:  # before the letters grow
                        raise SearchBudgetExceeded("string enumeration exceeded the walk cap")
                    if deferred:
                        stack.append((k * deferred, 0))
                    letters.extend(doubled[at : at + n] * k)
                    depth += k * n
                if depth < short:
                    nodes += lead
                    if trail:
                        stack.append((trail, 0))
                    if live is None:
                        break
                    depth += 1
                    s = live
                    continue
            nxt = edges[s]
            if depth == top or not nxt:
                break
            # follow the first child here, the others after its subtree
            depth += 1
            if len(nxt) > 1:
                stack.extend([(t, depth) for t in reversed(nxt[1:])])
            s = nxt[0]
    if nodes > _WALK_CAP:
        raise SearchBudgetExceeded("string enumeration exceeded the walk cap")


def _mask_pairs(p, max_len, roots, held):
    """The (last state, mask) pairs of the nonempty strings of length
    <= max_len, a string's mask being `roots[first state]` ANDed with
    `held[t]` for each later state t.

    One breadth-first pass, one layer per letter, that never revisits a
    pair: a pair's continuations depend on the pair alone, so the cost is
    bounded by states x distinct masks, whatever max_len.  Visiting more
    than `_WALK_CAP` pairs raises SearchBudgetExceeded.
    """
    if max_len < 1:
        return set()
    edges = automaton(p).edges
    frontier = list(roots.items())
    seen = set(frontier)
    depth = 1
    while len(seen) <= _WALK_CAP:
        if depth == max_len or not frontier:
            return seen
        nxt = []
        for s, m in frontier:
            for t in edges[s]:
                pair = (t, m & held[t])
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
        depth += 1
    raise SearchBudgetExceeded("string enumeration exceeded the walk cap")


def _below_inverse(letters):
    """letters < the letters of the inverse walk.  They are never equal
    for a nonempty reduced walk, so this picks `canonical_string`."""
    for a, b in zip(letters, reversed(letters)):
        b = b.inverted()
        if a != b:
            return a < b
    return False


def strings_of_length(p, lengths):
    """Canonical strings whose length lies in the range `lengths` (see
    `_walk_tree`), ordered by `Walk.key`: the trivial walks when 0 is
    wanted, then one string per {w, w^-1} at each wanted length.

    Visits every string up to the largest wanted length once, in both
    orientations (see `_walk_tree`), and builds a `Walk` only for the
    strings it returns.  Below the smallest wanted length its Python
    steps follow branch points and ring turns, not letters; visits are
    counted all the same.  Raises SearchBudgetExceeded after `_WALK_CAP`
    visits, or once the strings kept hold more than `LETTER_CAP` letters.
    """
    q = p.quiver
    by_length = {}
    if 0 in lengths:
        by_length[0] = [trivial_walk(q, v) for v in sorted(q.vertices)]
    kept = 0
    for base, letters in _walk_tree(p, lengths):
        if _below_inverse(letters):
            kept += len(letters)
            if kept > LETTER_CAP:
                raise SearchBudgetExceeded(f"string enumeration exceeded {LETTER_CAP:,} letters")
            by_length.setdefault(len(letters), []).append(Walk(base, tuple(letters)))
    return [w for n in sorted(by_length) for w in by_length[n]]


def enumerate_strings(p, max_len):
    """Canonically ordered strings of length <= max_len, one per {w, w^-1};
    the trivial walks alone when max_len <= 0.  Same traversal and budget
    as `strings_of_length`."""
    return strings_of_length(p, range(max(max_len, 0) + 1))


def enumerate_bands(p, max_len):
    """Bands of length <= max_len, one per rotation/inversion class.

    Takes the closed walks of the `_walk_tree` traversal up to max_len
    and keeps the primitive ones whose powers are strings, verifying each
    band once (see `_verified_bands`).  Same budget as
    `strings_of_length`.
    """
    q = p.quiver
    closed = (
        tuple(letters)
        for base, letters in _walk_tree(p, range(1, max_len + 1))
        if letter_ends(q, letters[-1])[1] == base
    )
    return _verified_bands(p, closed)


def _verified_bands(p, words, strict=False):
    """Canonical bands, in `Walk.key` order, of the closed letter words
    that are bands; `strict` raises on a word that is not one.

    `is_band` and `canonical_band` do not change under rotation or
    inversion, so a word whose letters are a rotation of a band already
    verified, or of its inverse, is skipped: each band is verified and
    canonicalized once, however many of its rotations the words hold.
    """
    q = p.quiver
    known = set()
    found = []
    for letters in words:
        if letters in known:
            continue
        c = CyclicWalk(Walk(letter_ends(q, letters[0])[0], letters))
        if not is_band(p, c):
            if strict:
                raise CorruptPresentationError("automaton cycle did not yield a band")
            continue
        found.append(canonical_band(q, c))
        for w in (letters, tuple(l.inverted() for l in reversed(letters))):
            known.update(w[i:] + w[:i] for i in range(len(w)))
    return sorted(found, key=lambda c: c.walk.key())


_CENSUS_CAP = 200_000


def band_census(p):
    """The primitive roots of the simple cycles of the string automaton,
    as canonical bands.

    Each simple automaton cycle's letter sequence has a band as its
    primitive root.  The list holds every band whenever distinct bands
    pairwise share at most one vertex, which is always the case on
    DOZE-free presentations.  On others (the `bands` command takes any
    input) a band whose automaton cycle repeats a state can be missing:
    on a non-domestic input, where two automaton cycles pass through one
    state, the band set is infinite, and the list holds the primitive
    roots of the simple automaton cycles alone.  The automaton holds
    each band's cycle once per orientation, and each band is verified
    once (see `_verified_bands`).  Enumerating more than `_CENSUS_CAP`
    cycles raises SearchBudgetExceeded.  Computed once per presentation; every
    call returns a fresh list.  On every input without an interlaced
    double-zero in the test corpora, each cyclic component is one simple
    cycle, read off directly: Johnson's search in `component_cycles`
    serves only `bands` on input with an interlaced double-zero.
    """
    return list(p.cached("band_census", lambda: tuple(_band_census(p))))


def _band_census(p):
    aut = automaton(p)

    def roots():
        for n, cycle in enumerate(component_cycles(aut.cyclic_components, aut.edges.__getitem__)):
            if n >= _CENSUS_CAP:
                raise SearchBudgetExceeded("band census exceeded the cycle cap")
            letters = tuple(map(aut.letter_of.__getitem__, cycle))
            yield primitive_root(letters[1:] + letters[:1])

    return _verified_bands(p, roots(), strict=True)
