"""Finite automaton accepting exactly the strings of a monomial presentation.

A state is (last letter, run progress) where run progress is the
prefix-table node (`presentation._prefix_table`) of the current maximal
same-direction run: its longest tail that is a prefix of a zero
generator (direct run) or of a reversed one (inverse run).  Transitions are the composable,
reduced continuations that never complete a generator, so every walk the
automaton accepts is a string and conversely.

The build is one worklist pass over (arrow, inverse, prefix node) keys,
each numbered as it is first found.  A key's successors are read off
per-letter end vertices and per-vertex leaving letters: a letter that
changes direction leads to its one-letter key; one that continues the
run steps the run's prefix table inline, a dict lookup on the prefix
plus the arrow, trimmed from the front.  The keys are then sorted once,
state s being the s-th, and `keys[s]` holds state s's key, so every
search breaks ties and orders its roots as it would on the keys.  One
loop over the sorted states fills every per-state table: `edges`, a dict
from each state to its successors; `completing`, the direct letters that
would complete a generator; `letter_of`, each state's last letter, one
shared `Letter` per arrow and direction; `ends_of`, that letter's
(source, target), which the walk tree and `decomp` read; `predecessors`;
and `states_at`, the states whose letter starts or ends at each vertex.
`first` maps each letter to its one-letter state (the only prefix-table
steps from the empty run).  `follow` steps a state through letters along
`edges`, the one loop that does; callers read the other tables
themselves: `first[letter]` raises KeyError for an arrow not in the
quiver.  `generator_state` memoizes the state after each zero
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
from .graph import component_cycles, is_cyclic, sccs
from .presentation import _prefix_table
from .walks import (
    CyclicWalk,
    Letter,
    Walk,
    _below_inverse,
    canonical_band,
    direct,
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
        # tables[inverse] is the prefix table of the direct (inverse) runs.
        # Keys are numbered as they are found, the one-letter ones first
        # in letter order: key j's letter is letters[letter_no[j]], with
        # ends spans[letter_no[j]], and leaving[v] holds (arrow, inverse,
        # number) for each letter starting at v, in letter order.  A letter
        # that changes direction starts a new run, so it leads to its
        # one-letter key; one in the same direction steps the run's table.
        tables = (_prefix_table(gens), _prefix_table([g[::-1] for g in gens]))
        letters, spans, keys = [], [], []
        leaving = {v: [] for v in q.vertices}
        for name, source, target in q.arrows:
            for i, v, w in ((False, source, target), (True, target, source)):
                node, _prefix, ends = tables[i]
                n = node.get((name,), 0)
                if ends[n] is not None:
                    raise CorruptPresentationError("single arrow lies in the ideal")
                leaving[v].append((name, i, len(keys)))
                letters.append(Letter(name, i))
                spans.append((v, w))
                keys.append((name, i, n))
        for out in leaving.values():
            out.sort()
        after = [leaving[w] for _v, w in spans]
        letter_no = list(range(len(keys)))
        number = {k: j for j, k in enumerate(keys)}
        # found[j] lists key j's successors by number, in letter order
        found, completed = [], {}
        for j, (arrow, inv, n) in enumerate(keys):
            node, prefix, ends = tables[inv]
            run = prefix[n]
            nxt = []
            for a, i, f in after[letter_no[j]]:
                if i != inv:
                    if a != arrow:  # not the last letter's inverse
                        nxt.append(f)
                    continue
                seq = run + (a,)
                while (m := node.get(seq)) is None:
                    seq = seq[1:]
                if ends[m] is None:
                    t = (a, i, m)
                    if (x := number.get(t)) is None:
                        number[t] = x = len(keys)
                        keys.append(t)
                        letter_no.append(f)
                    nxt.append(x)
                elif not i:  # a direct letter completing a generator
                    completed.setdefault(j, []).append((ends[m], a))
            found.append(nxt)
        # state s is the s-th key in sorted order; one pass over the states
        # fills every table
        order = sorted(range(len(keys)), key=keys.__getitem__)
        ids = dict(zip(order, range(len(keys))))
        self.states = tuple(range(len(keys)))
        self.keys = tuple([keys[j] for j in order])
        self.first = {l: ids[j] for j, l in enumerate(letters)}
        self.edges, self.completing, self.states_at = edges, completing, at = {}, {}, {}
        self.letter_of, self.ends_of = letter_of, ends_of = [], []
        self.predecessors = rev = [[] for _k in keys]
        for s, j in enumerate(order):
            edges[s] = ts = tuple([ids[t] for t in found[j]])
            for t in ts:
                rev[t].append(s)
            if j in completed:
                completing[s] = completed[j]
            f = letter_no[j]
            letter_of.append(letters[f])
            ends_of.append(spans[f])
            v, w = spans[f]
            at.setdefault(v, []).append(s)
            if w != v:
                at.setdefault(w, []).append(s)

    def follow(self, s, letters):
        """The state after extending state s by the letters along its
        recorded edges; None as soon as one extension is not a string."""
        edges, letter_of = self.edges, self.letter_of
        for letter in letters:
            for t in edges[s]:
                if letter_of[t] == letter:
                    s = t
                    break
            else:
                return None
        return s

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
        return self.follow(self.first[w.letters[0]], w.letters[1:]) is not None

    def generator_state(self, i):
        """State after the i-th zero generator's tail (all but its first
        arrow), followed along the edges once and memoized; the tail of a
        minimal generator is a string, so every step exists."""
        s = self._generator_states[i]
        if s is None:
            tail = [direct(a) for a in self._generators[i][1:]]
            s = self._generator_states[i] = self.follow(self.first[tail[0]], tail[1:])
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
    letter_of = aut.letter_of
    edges = aut.edges
    # a node shallower than `short` has children shorter than the window
    short = max(wanted[0], 1) - 1
    rings = aut.rings if short > 1 else None
    roots = [aut.first[l] for l in sorted(aut.first)]
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
