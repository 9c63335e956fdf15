"""Finite automaton accepting exactly the strings of a monomial presentation.

A state is (last letter, run progress) where run progress is the
multi-pattern matcher state of the current maximal same-direction run:
direct runs are matched forwards against the zero generators, inverse
runs against the reversed generators.  Transitions are the composable,
reduced continuations that never complete a generator, so every walk the
automaton accepts is a string and conversely.

Cycles in the state graph are exactly the source of bands: pumping any
cycle yields arbitrarily long strings, and the primitive root of its
letter sequence is a band.  Cycle questions (which states lie on one,
whether one exists, every simple one) go to the shared traversals in
`graph`, with `successors` as the edge relation.
"""

from collections import namedtuple
from functools import cached_property

from ._ac import AhoCorasick
from .errors import CorruptPresentationError, PreconditionError, SearchBudgetExceeded
from .graph import cycle_entry, is_cyclic, reach, sccs, simple_cycles
from .walks import (
    CyclicWalk,
    Letter,
    Walk,
    canonical_band,
    direct,
    inverse,
    is_band,
    letter_ends,
    make_cyclic,
    trivial_walk,
)


class AutoState(namedtuple("AutoState", "arrow inverse node")):
    __slots__ = ()

    @property
    def letter(self):
        return Letter(self.arrow, self.inverse)


class StringAutomaton:
    def __init__(self, p):
        if not p.is_monomial:
            raise PreconditionError("the string automaton needs a monomial presentation")
        self.quiver = p.quiver
        gens = p.zero_paths
        self.acf = AhoCorasick(gens)
        self.acr = AhoCorasick([tuple(reversed(g)) for g in gens])
        self.edges = {}

        def succ(s):
            # reach asks once per state, so this records every edge once
            steps = (self.step(s, letter) for letter in self._candidate_letters(s))
            self.edges[s] = tuple(sorted(t for t in steps if t is not None))
            return self.edges[s]

        letters = [f(a.name) for a in self.quiver.arrows for f in (direct, inverse)]
        reach([self._init(letter) for letter in letters], succ)
        self.states = tuple(sorted(self.edges))

    def _init(self, letter):
        ac = self.acr if letter.inverse else self.acf
        node = ac.step(0, letter.arrow)
        if ac.hit(node) is not None:
            raise CorruptPresentationError("single arrow lies in the ideal")
        return AutoState(letter.arrow, letter.inverse, node)

    def initial_state(self, letter):
        """State after a one-letter walk."""
        return self._init(letter)

    def state_vertex(self, s):
        return letter_ends(self.quiver, s.letter)[1]

    def _candidate_letters(self, s):
        v = self.state_vertex(s)
        letters = [direct(a.name) for a in self.quiver.out_arrows(v)]
        letters += [inverse(a.name) for a in self.quiver.in_arrows(v)]
        return sorted(letters)

    def step(self, s, letter):
        """Extend by one letter; None when the extension is not a string."""
        if letter.arrow == s.arrow and letter.inverse != s.inverse:
            return None
        sv, _ = letter_ends(self.quiver, letter)
        if sv != self.state_vertex(s):
            return None
        ac = self.acr if letter.inverse else self.acf
        node = ac.step(s.node if letter.inverse == s.inverse else 0, letter.arrow)
        if ac.hit(node) is not None:
            return None
        return AutoState(letter.arrow, letter.inverse, node)

    def successors(self, s):
        return self.edges[s]

    @cached_property
    def letter_of(self):
        """State -> its last letter."""
        return {s: s.letter for s in self.states}

    @cached_property
    def predecessors(self):
        """State -> states with an edge into it."""
        rev = {s: [] for s in self.states}
        for s in self.states:
            for t in self.edges[s]:
                rev[t].append(s)
        return rev

    @cached_property
    def states_at(self):
        """Vertex -> states whose last letter starts or ends there."""
        at = {}
        for s in self.states:
            for v in set(letter_ends(self.quiver, s.letter)):
                at.setdefault(v, []).append(s)
        return at

    def completions(self, s):
        """Direct letters that would complete a generator occurrence,
        as (generator index, arrow name) pairs."""
        v = self.state_vertex(s)
        out = []
        for a in self.quiver.out_arrows(v):
            if s.inverse and a.name == s.arrow:
                continue
            node = self.acf.step(0 if s.inverse else s.node, a.name)
            hit = self.acf.hit(node)
            if hit is not None:
                out.append((hit, a.name))
        return out

    def __len__(self):
        return len(self.states)

    def accepts(self, w):
        """Simulate a walk; agrees with walks.is_string by construction."""
        if not w.letters:
            return self.quiver.has_vertex(w.base)
        s = None
        at = w.base
        for l in w.letters:
            sv, tv = letter_ends(self.quiver, l)
            if sv != at:
                return False
            s = self._init(l) if s is None else self.step(s, l)
            if s is None:
                return False
            at = tv
        return True

    def walk_state(self, w):
        """State after consuming a nonempty string, or None."""
        s = None
        for l in w.letters:
            s = self._init(l) if s is None else self.step(s, l)
            if s is None:
                return None
        return s

    def state_after_direct_path(self, names):
        """Feed an oriented path as direct letters from scratch."""
        s = None
        for n in names:
            l = direct(n)
            s = self._init(l) if s is None else self.step(s, l)
            if s is None:
                return None
        return s

    def cycle_states(self):
        """States lying on some nontrivial cycle."""
        return {
            s
            for comp in sccs(self.states, self.successors)
            if is_cyclic(comp, self.successors)
            for s in comp
        }

    def bfs(self, sources):
        """Deterministic BFS; returns (dist, parent) maps."""
        dist = {}
        parent = {}
        frontier = list(sources)
        for s in frontier:
            dist[s] = 0
            parent[s] = None
        d = 0
        while frontier:
            nxt = []
            for s in frontier:
                for t in self.edges[s]:
                    if t not in dist:
                        dist[t] = d + 1
                        parent[t] = s
                        nxt.append(t)
            frontier = nxt
            d += 1
        return dist, parent

    def path_letters(self, parent, target):
        """Letters along the BFS parent chain ending at target."""
        out = []
        s = target
        while parent[s] is not None:
            out.append(s.letter)
            s = parent[s]
        out.reverse()
        return out

    def shortest_cycle_at(self, q):
        """Letter sequence of a minimal cycle through q, or None."""
        best = None
        for s in self.edges[q]:
            if s == q:
                cand = [s.letter]
            else:
                dist, parent = self.bfs([s])
                if q not in dist:
                    continue
                cand = [s.letter] + self.path_letters(parent, q)
            key = (len(cand), cand)
            if best is None or key < best[0]:
                best = (key, cand)
        return best[1] if best else None


def automaton(p):
    """The cached string automaton of a monomial presentation."""
    return p.cached("string_automaton", lambda: StringAutomaton(p))


def pumping_bound(p):
    """Length bound beyond which string behaviour is periodic: the state
    count plus room for a generator at each end."""
    return len(automaton(p)) + 2 * p.max_generator_length()


def exists_band(p):
    """True iff the string automaton contains a reachable nontrivial cycle."""
    aut = automaton(p)
    return cycle_entry(aut.states, aut.successors) is not None


# Strings visited per enumeration, both orientations counted.  It bounds
# the time and memory of `strings`, `scan` and the support cover where the
# number of strings grows exponentially with their length.
_WALK_CAP = 200_000


def _walk_tree(p, wanted):
    """The nonempty strings of length in `wanted`, each reached once as a
    node of the automaton's walk tree, as (base, letters) pairs.

    One iterative depth-first walk down to the largest wanted length,
    following the automaton's edges.  Siblings come in letter order, so
    the strings of each length come out in `Walk.key` order.  `letters` is
    one shared list, valid only until the next item; nothing else is
    built per node.  Visiting more than `_WALK_CAP` nodes raises
    SearchBudgetExceeded.
    """
    top = max(wanted, default=0)
    if top < 1:
        return
    aut = automaton(p)
    q = p.quiver
    letter_of = aut.letter_of
    edges = aut.edges
    roots = [aut.initial_state(f(a)) for a in sorted(q.arrow) for f in (direct, inverse)]
    stack = [(s, 1) for s in reversed(roots)]
    letters = []
    nodes = 0
    while stack:
        s, depth = stack.pop()
        del letters[depth - 1 :]
        if depth == 1:
            base = letter_ends(q, letter_of[s])[0]
        while True:
            nodes += 1
            if nodes > _WALK_CAP:
                raise SearchBudgetExceeded("string enumeration exceeded the walk cap")
            letters.append(letter_of[s])
            if depth in wanted:
                yield base, letters
            nxt = edges[s]
            if depth == top or not nxt:
                break
            # follow the first child here, the others after its subtree
            depth += 1
            if len(nxt) > 1:
                stack.extend([(t, depth) for t in reversed(nxt[1:])])
            s = nxt[0]


def _below_inverse(letters):
    """letters < the letters of the inverse walk.  They are never equal
    for a nonempty reduced walk, so this picks `canonical_string`."""
    for a, b in zip(letters, reversed(letters)):
        b = b.inverted()
        if a != b:
            return a < b
    return False


def strings_of_length(p, lengths):
    """Canonical strings whose length lies in the given set, ordered by
    `Walk.key`: the trivial walks when 0 is wanted, then one string per
    {w, w^-1} at each wanted length.

    Visits every string up to the largest wanted length once, in both
    orientations (see `_walk_tree`), and builds a `Walk` only for the
    strings it returns.  Raises SearchBudgetExceeded after `_WALK_CAP`
    visits.
    """
    wanted = set(lengths)
    q = p.quiver
    by_length = {n: [] for n in sorted(wanted)}
    if 0 in wanted:
        by_length[0] = [trivial_walk(q, v) for v in sorted(q.vertices)]
    for base, letters in _walk_tree(p, wanted):
        if _below_inverse(letters):
            by_length[len(letters)].append(Walk(base, tuple(letters)))
    return [w for ws in by_length.values() for w in ws]


def enumerate_strings(p, max_len):
    """Canonically ordered strings of length <= max_len, one per {w, w^-1};
    the trivial walks alone when max_len <= 0.  Same traversal and budget
    as `strings_of_length`."""
    return strings_of_length(p, range(max(max_len, 0) + 1))


def enumerate_bands(p, max_len):
    """Bands of length <= max_len, one per rotation/inversion class.

    Takes the closed walks of the `_walk_tree` traversal up to max_len,
    builds a walk only for those, and keeps the primitive ones whose
    powers are strings.  Same budget as `strings_of_length`.
    """
    q = p.quiver
    found = set()
    for base, letters in _walk_tree(p, range(1, max_len + 1)):
        if letter_ends(q, letters[-1])[1] != base:
            continue
        c = CyclicWalk(Walk(base, tuple(letters)))
        if is_band(p, c):
            found.add(canonical_band(q, c))
    return sorted(found, key=lambda c: c.walk.key())


_CENSUS_CAP = 200_000


def band_census(p):
    """The primitive roots of the simple cycles of the string automaton,
    as canonical bands.

    Each simple automaton cycle's letter sequence has a band as its
    primitive root.  The list holds every band whenever distinct bands
    pairwise share at most one vertex, which is always the case on
    DOZE-free presentations.  On others (the `bands` command takes any
    input) a band whose automaton cycle repeats a state can be missing.
    Enumerating more than `_CENSUS_CAP` cycles raises
    SearchBudgetExceeded.  Computed once per presentation; every call
    returns a fresh list.
    """
    return list(p.cached("band_census", lambda: tuple(_band_census(p))))


def _band_census(p):
    aut = automaton(p)
    found = set()
    for n, cycle in enumerate(simple_cycles(aut.states, aut.successors)):
        if n >= _CENSUS_CAP:
            raise SearchBudgetExceeded("band census exceeded the cycle cap")
        letters = [s.letter for s in cycle[1:]] + [cycle[0].letter]
        base = aut.state_vertex(cycle[0])
        root = _primitive_root(letters)
        c = make_cyclic(p.quiver, Walk(base, tuple(root)))
        if not is_band(p, c):
            raise CorruptPresentationError("automaton cycle did not yield a band")
        found.add(canonical_band(p.quiver, c))
    return sorted(found, key=lambda c: c.walk.key())


def _primitive_root(letters):
    n = len(letters)
    for d in range(1, n + 1):
        if n % d == 0 and letters[d:] + letters[:d] == letters:
            return letters[:d]
    return letters
