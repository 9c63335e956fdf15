"""Side and middle decomposition of a DOZE-free string algebra.

Each band with only exiting arrows contributes a right side part A_i (the
two-sided string closures of the trivial walks at its anchor vertices,
intersected), each band with only entering arrows a left side part B_j,
and the middle part C collects the support of every string not contained
in a single side part.  A string closure, `d_category`, reads the
automaton's tables alone: it reaches both ways from the states at a
vertex, or, for a nonempty string, from the states where the string can
start and end, found by following it along the edges.
The structural consequences (fullness, no entering arrows, convexity,
unique cycle, finite middle, double-zero-free sides) are verified
mechanically, on the string automaton the classification built.  Each
side-part pass reads, per automaton state, only the side parts holding
its arrow, so it costs the states times the parts holding each: the
middle part reaches, forwards and backwards, the (state, part set) pairs
of the walks into and out of each state, one backward pass decides every
side part's double-zeros, and the support cover visits each (state, part
set) pair once.  Part sets are bitmasks as wide as the most parts at one
vertex.
"""

from ._value import Value
from .automaton import _mask_pairs, automaton, band_census
from .doze import STRICT_LAURA_OR_TILTED, _double_zero_over, classify
from .errors import CorruptPresentationError, PreconditionError
from .graph import cycle_entry, reach
from .presentation import monomial_form
from .walks import is_string, trivial_walk, walk_arrows, walk_vertices


class Subcategory(Value):
    _compare = ("label", "objects", "arrows", "anchor")
    _repr = _compare + ("band",)

    def __init__(self, label, objects, arrows, anchor=None, band=None):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "arrows", arrows)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "band", band)


class Decomposition(Value):
    _compare = ("a_parts", "b_parts", "middle", "notes")

    def __init__(self, a_parts, b_parts, middle, notes):
        object.__setattr__(self, "a_parts", a_parts)
        object.__setattr__(self, "b_parts", b_parts)
        object.__setattr__(self, "middle", middle)
        object.__setattr__(self, "notes", notes)

    @property
    def parts(self):
        return self.a_parts + self.b_parts + (self.middle,)

    @property
    def side_parts(self):
        return self.a_parts + self.b_parts


def d_category(p, w):
    """Support of all two-sided string extensions of a string.

    Objects and arrows touched by any string containing the given walk,
    computed exactly on the string automaton (finitely many states, so
    the exploration terminates even though extensions pump bands).  Such
    a string is a walk into a state of w's first letter (a head), the rest
    of w stepped from there, and a walk on from where that ends (a tail).
    """
    if not is_string(p, w):
        raise PreconditionError("d_category needs a string")
    aut = automaton(p)
    if w.letters:
        first, rest = w.letters[0], w.letters[1:]
        heads, tails = [], []
        for s, letter in enumerate(aut.letter_of):
            if letter == first and (t := aut.follow(s, rest)) is not None:
                heads.append(s)
                tails.append(t)
        on = reach(heads, aut.predecessors.__getitem__) | reach(tails, aut.edges.__getitem__)
        objects, arrows = _support(aut, on, walk_vertices(p.quiver, w))
        arrows.update(walk_arrows(w))
    else:
        touch = aut.states_at.get(w.base, ())
        on = reach(touch, aut.edges.__getitem__) | reach(touch, aut.predecessors.__getitem__)
        objects, arrows = _support(aut, on, [w.base])
    return Subcategory("D", frozenset(objects), frozenset(arrows))


def _support(aut, states, objects):
    """The given objects plus the ends and arrows of the states' letters."""
    objects, arrows = set(objects), set()
    ends_of, keys = aut.ends_of, aut.keys
    for s in states:
        objects.update(ends_of[s])
        arrows.add(keys[s][0])
    return objects, arrows


def _anchors(q, info):
    """A band's anchors, sorted: its vertices where no exiting arrow starts
    (for a band with entering arrows, where no entering arrow ends)."""
    b = info.boundary
    off = [q.arrow[a].target for a in b.entering] or [q.arrow[a].source for a in b.exiting]
    return sorted(set(walk_vertices(q, info.band.walk)).difference(off))


def _straddle_support(p, side_parts):
    """Vertices and arrows on strings not contained in a single side part.

    A string lies in one side part iff its states share a label, a side
    part holding the state's arrow with both ends.  Two `reach` passes
    collect the (state, label set) pairs of the walks from a first state
    to each state, and of those from each state on; a state is on such a
    string iff one set of each kind there meets the other in 0, which
    holds exactly when it holds for the minimal sets."""
    aut = automaton(p)
    labels = _labels(aut, side_parts)

    def along(nbrs):
        return lambda n: [(t, n[1] & labels[t]) for t in nbrs[n[0]]]

    into = {}
    for s, m in reach([(f, labels[f]) for f in aut.first.values()], along(aut.edges)):
        into.setdefault(s, []).append(m)
    on = {
        s
        for s, m in reach(list(enumerate(labels)), along(aut.predecessors))
        if any(not m & m1 for m1 in into.get(s, ()))
    }
    bare = set(p.quiver.vertices).difference(*(part.objects for part in side_parts))
    return _support(aut, on, bare)


def _labels(aut, parts):
    """State -> the bitmask of the parts holding its arrow with both ends.

    Parts sharing a vertex get different bits and the others may share
    one, so a mask is as wide as the most parts at one vertex, and masks
    of a state and its neighbours compare and meet exactly: every part in
    either holds the vertex where the two letters meet."""
    arrow, taken, held = aut.quiver.arrow, {}, {}  # taken: vertex -> bits used there
    for part in parts:
        used = 0
        for v in part.objects:
            used |= taken.get(v, 0)
        bit = ~used & (used + 1)  # the lowest bit free at every vertex of the part
        for v in part.objects:
            taken[v] = taken.get(v, 0) | bit
        for name in part.arrows:
            a = arrow.get(name)
            if a and a.source in part.objects and a.target in part.objects:
                held[name] = held.get(name, 0) | bit
    return [held.get(k[0], 0) for k in aut.keys]


def decompose(p):
    """Side parts per one-sided band plus the middle part.

    Defined exactly when classify(p) says StrictLauraOrTilted.  A band's
    anchors are read off the boundary `classify` computed (`_anchors`).
    The side part around a band is the intersection, over its anchors, of
    the anchors' two-sided string closures; where the anchors agree it is
    that closure.  The reported anchor is the least one.
    """
    report = classify(p)
    if report.verdict != STRICT_LAURA_OR_TILTED:
        raise PreconditionError(
            f"decomposition is defined for StrictLauraOrTilted inputs, got {report.verdict}"
        )
    work = monomial_form(p)
    notes = list(report.notes)
    a_parts = []
    b_parts = []
    for info in report.bands:
        bucket, prefix = (b_parts, "B") if info.boundary.entering else (a_parts, "A")
        anchors = _anchors(work.quiver, info)
        if not anchors:
            raise CorruptPresentationError(f"band {info.band} has no anchor")
        cats = [d_category(work, trivial_walk(work.quiver, v)) for v in anchors]
        objects = frozenset.intersection(*(c.objects for c in cats))
        arrows = frozenset.intersection(*(c.arrows for c in cats))
        label = f"{prefix}{len(bucket) + 1}"
        bucket.append(Subcategory(label, objects, arrows, anchor=anchors[0], band=info.band))
    objects, arrows = _straddle_support(work, a_parts + b_parts)
    middle = Subcategory("C", frozenset(objects), frozenset(arrows))
    notes.append(
        "middle part convention: a string belongs to the middle census unless "
        "its full support lies in one single side part"
    )
    dec = Decomposition(tuple(a_parts), tuple(b_parts), middle, tuple(notes))
    covered = set().union(*(part.objects for part in dec.parts))
    if covered != set(work.quiver.vertices):
        raise CorruptPresentationError("decomposition does not cover every vertex")
    return dec


class StructureReport(Value):
    _checks = (
        "full",
        "no_entry",
        "convex",
        "unique_cycle",
        "middle_finite",
        "sides_double_zero_free",
    )
    _compare = _checks + ("details",)

    def __init__(
        self, full, no_entry, convex, unique_cycle, middle_finite, sides_double_zero_free, details
    ):
        values = (full, no_entry, convex, unique_cycle, middle_finite, sides_double_zero_free)
        for name, value in zip(self._compare, values + (details,)):
            object.__setattr__(self, name, value)

    @property
    def all_pass(self):
        return all(self.as_dict().values())

    def as_dict(self):
        return {name: getattr(self, name) for name in self._checks}


def check_structure(p, decomposition=None):
    """The six structural checks on a decomposition.

    The checks run against `monomial_form(p)`, so an explicit
    decomposition can be aimed at a corrupted presentation."""
    dec = decompose(p) if decomposition is None else decomposition
    work = monomial_form(p)
    q = work.quiver
    details = []
    order = {a.name: i for i, a in enumerate(q.arrows)}

    def incident(arrows_at, part):
        """The arrows at the part's objects, in quiver order."""
        found = [a for v in part.objects if q.has_vertex(v) for a in arrows_at(v)]
        return sorted(found, key=lambda a: order[a.name])

    sides = dec.side_parts
    out_of = [incident(q.out_arrows, part) for part in sides]
    into = [incident(q.in_arrows, part) for part in sides]
    leave = [[a for a in out if a.target not in part.objects] for part, out in zip(sides, out_of)]
    enter = [[a for a in in_ if a.source not in part.objects] for part, in_ in zip(sides, into)]

    full = True
    for part, arrows in zip(sides, out_of):
        for a in arrows:
            if a.target in part.objects and a.name not in part.arrows:
                full = False
                details.append(f"full: arrow {a.name} between {part.label}-objects is missing")

    no_entry = True
    for part, arrows in zip(dec.a_parts, enter):
        for a in arrows:
            no_entry = False
            details.append(f"no_entry: arrow {a.name} enters {part.label}")
    for part, arrows in zip(dec.b_parts, leave[len(dec.a_parts) :]):
        for a in arrows:
            no_entry = False
            details.append(f"no_entry: arrow {a.name} leaves {part.label}")

    convex = True
    for i, part in enumerate(sides):
        outside = enter[i] and reach(
            [a.target for a in leave[i]],
            lambda v: [a.target for a in q.out_arrows(v) if a.target not in part.objects],
        )
        for a in enter[i]:
            if a.source in outside:
                convex = False
                details.append(f"convex: {part.label} is re-entered through {a.name}")

    unique_cycle = True
    for part in sides:
        part_arrows = sorted(
            (q.arrow[n] for n in part.arrows if n in q.arrow), key=lambda a: order[a.name]
        )
        stray = [a.name for a in part_arrows if not {a.source, a.target} <= part.objects]
        for name in stray:
            unique_cycle = False
            details.append(f"unique_cycle: {part.label} lists arrow {name} with an end outside it")
        if stray:
            continue
        # union-find: an arrow whose ends are already joined closes a cycle
        root, succ = {v: v for v in part.objects}, {v: [] for v in part.objects}
        cyclomatic = 0
        for a in part_arrows:
            r, s = a.source, a.target
            while root[r] != r:
                root[r] = r = root[root[r]]
            while root[s] != s:
                root[s] = s = root[root[s]]
            root[r] = s
            cyclomatic += r == s
            succ[a.source].append(a.target)
        if cyclomatic != 1:
            unique_cycle = False
            details.append(f"unique_cycle: {part.label} has cyclomatic number {cyclomatic}")
        if cycle_entry(sorted(part.objects), succ.__getitem__) is not None:
            unique_cycle = False
            details.append(f"unique_cycle: {part.label} contains an oriented cycle")

    middle_finite = True
    for band in band_census(work):
        support_ok = set(walk_vertices(q, band.walk)) <= dec.middle.objects and walk_arrows(
            band.walk
        ) <= dec.middle.arrows
        if support_ok:
            middle_finite = False
            details.append("middle_finite: the middle part contains a band")

    parts_of = {}
    for i, part in enumerate(sides):
        for name in part.arrows:
            parts_of[name] = parts_of.get(name, ()) + (i,)
    doubled = _double_zero_over(work, parts_of)
    sides_clean = True
    for i, part in enumerate(sides):
        if i in doubled:
            sides_clean = False
            details.append(f"sides_double_zero_free: {part.label} contains a double-zero")

    return StructureReport(
        full, no_entry, convex, unique_cycle, middle_finite, sides_clean, tuple(details)
    )


def support_cover_check(p, max_len, decomposition=None):
    """Every string of bounded length is supported inside a single part.

    Every vertex must lie in a part (the trivial walks), and no string of
    length 1..max_len may reach mask 0, a string's mask being the parts
    holding its base and every letter's arrow and end: each of them holds
    every letter with both ends, so the mask meets its states' `_labels`.
    `_mask_pairs` decides the masks on (automaton state, mask) pairs and
    runs to the end past a failure, so the visit budget is spent alike on
    every answer."""
    dec = decompose(p) if decomposition is None else decomposition
    work = monomial_form(p)
    aut = automaton(work)
    held = _labels(aut, dec.parts)
    roots = {s: held[s] for s in aut.first.values()}
    pairs = _mask_pairs(work, max_len, roots, held)
    covered = set(work.quiver.vertices) <= set().union(*(part.objects for part in dec.parts))
    return covered and all(m for _s, m in pairs)
