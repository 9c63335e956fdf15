"""Side and middle decomposition of a DOZE-free string algebra.

Each band with only exiting arrows contributes a right side part A_i (the
two-sided string closure of a trivial walk at an anchor vertex), each band
with only entering arrows a left side part B_j, and the middle part C
collects the support of every string not contained in a single side part.
The structural consequences (fullness, no entering arrows, convexity,
unique cycle, finite middle, double-zero-free sides) are verified
mechanically.
"""

from ._value import Value
from .automaton import automaton, band_census, enumerate_strings
from .doze import STRICT_LAURA_OR_TILTED, classify, has_double_zero
from .errors import CorruptPresentationError, PreconditionError
from .graph import reach, topological_order
from .presentation import Presentation, Quiver, ZeroRelation, monomial_form
from .walks import (
    direct,
    inverse,
    is_string,
    letter_ends,
    trivial_walk,
    walk_arrows,
    walk_vertices,
)


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

    def __init__(self, a_parts, b_parts, middle, notes, analyzed=None):
        object.__setattr__(self, "a_parts", a_parts)
        object.__setattr__(self, "b_parts", b_parts)
        object.__setattr__(self, "middle", middle)
        object.__setattr__(self, "notes", notes)
        object.__setattr__(self, "analyzed", analyzed)

    @property
    def parts(self):
        return self.a_parts + self.b_parts + (self.middle,)

    @property
    def side_parts(self):
        return self.a_parts + self.b_parts


def _kmp_failure(pat):
    fail = [0] * len(pat)
    k = 0
    for i in range(1, len(pat)):
        while k and pat[i] != pat[k]:
            k = fail[k - 1]
        if pat[i] == pat[k]:
            k += 1
        fail[i] = k
    return fail


def _product_nodes(aut, pat):
    """Forward-reachable (state, pattern-progress) nodes and their edges.

    Progress is a KMP match state over the pattern's letters, absorbing
    once the pattern has occurred.
    """
    fail = _kmp_failure(pat)
    K = len(pat)

    def advance(pr, letter):
        if pr == K:
            return K
        while pr and pat[pr] != letter:
            pr = fail[pr - 1]
        return pr + 1 if pat[pr] == letter else 0

    inits = {
        (aut.initial_state(letter), advance(0, letter))
        for a in aut.quiver.arrow
        for letter in (direct(a), inverse(a))
    }
    edges = {}

    def succ(n):
        # reach asks once per node, so this records every edge once
        s, pr = n
        edges[n] = tuple((t, advance(pr, t.letter)) for t in aut.successors(s))
        return edges[n]

    reach(inits, succ)
    return inits, edges, K


def d_category(p, w, label="D"):
    """Support of all two-sided string extensions of a string.

    Objects and arrows touched by any string containing the given walk,
    computed exactly on the string automaton (finitely many states, so
    the exploration terminates even though extensions pump bands).
    """
    if not is_string(p, w):
        raise PreconditionError("d_category needs a string")
    aut = automaton(p)
    q = p.quiver
    objects = {w.base}
    arrows = set()
    if w.letters:
        pat = list(w.letters)
        inits, edges, K = _product_nodes(aut, pat)
        rev = {n: [] for n in edges}
        for n, succ in edges.items():
            for m in succ:
                rev[m].append(n)
        for s, _pr in reach([n for n in edges if n[1] == K], rev.__getitem__):
            sv, tv = letter_ends(q, s.letter)
            objects.update((sv, tv))
            arrows.add(s.arrow)
        objects.update(walk_vertices(q, w))
        arrows.update(walk_arrows(w))
    else:
        touch = aut.states_at.get(w.base, ())
        fwd = reach(touch, aut.successors)
        bwd = reach(touch, aut.predecessors.__getitem__)
        for s in fwd | bwd:
            sv, tv = letter_ends(q, s.letter)
            objects.update((sv, tv))
            arrows.add(s.arrow)
    return Subcategory(label, frozenset(objects), frozenset(arrows))


def choose_anchor(p, band, side="out"):
    """Least band vertex whose out-arrows (dually in-arrows) all lie on
    the band; always exists for finite-dimensional inputs."""
    anchors = _eligible_anchors(p, band, side)
    if not anchors:
        raise CorruptPresentationError(
            f"band {band} has no {side}-anchor; presentation is corrupted"
        )
    return anchors[0]


def _eligible_anchors(p, band, side):
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


def _straddle_support(p, side_parts):
    """Vertices and arrows on strings not contained in a single side part.

    Tracks, per automaton state, the antichain of minimal part-masks of
    walks ending (resp. starting) there; a state lies on a straddling
    string iff some pair of masks meets in the empty set.
    """
    aut = automaton(p)
    q = p.quiver
    arrow_mask = {}
    for i, part in enumerate(side_parts):
        for name in part.arrows:
            a = q.arrow[name]
            if a.source in part.objects and a.target in part.objects:
                arrow_mask[name] = arrow_mask.get(name, 0) | 1 << i
    masks = {s: arrow_mask.get(s.arrow, 0) for s in aut.states}

    def add(store, s, m):
        have = store[s]
        for e in have:
            if e & m == e:
                return False
        store[s] = [e for e in have if not (m & e == m)] + [m]
        return True

    def minimal_masks(starts, succ):
        """Per state, the antichain of minimal masks of the walks that
        follow succ from a start state to it."""
        store = {s: [] for s in aut.states}
        work = [(s, masks[s]) for s in starts if add(store, s, masks[s])]
        while work:
            s, m = work.pop()
            for t in succ(s):
                if add(store, t, m & masks[t]):
                    work.append((t, m & masks[t]))
        return store

    starts = [aut.initial_state(f(a)) for a in sorted(q.arrow) for f in (direct, inverse)]
    fwd = minimal_masks(starts, aut.successors)
    bwd = minimal_masks(aut.states, aut.predecessors.__getitem__)

    in_some_part = set().union(*(part.objects for part in side_parts))
    objects = {v for v in q.vertices if v not in in_some_part}
    arrows = set()
    for s in aut.states:
        if any(m1 & m2 == 0 for m1 in fwd[s] for m2 in bwd[s]):
            sv, tv = letter_ends(q, s.letter)
            objects.update((sv, tv))
            arrows.add(s.arrow)
    return objects, arrows


def decompose(p):
    """Side parts per one-sided band plus the middle part.

    Defined exactly when classify(p) says StrictLauraOrTilted; the side
    part around a band is independent of the anchor choice, which is
    verified over every eligible anchor.
    """
    report = classify(p)
    if report.verdict != STRICT_LAURA_OR_TILTED:
        raise PreconditionError(
            f"decomposition is defined for StrictLauraOrTilted inputs, got {report.verdict}"
        )
    work = report.analyzed
    notes = list(report.notes)
    a_parts = []
    b_parts = []
    for info in report.bands:
        if info.boundary.entering:
            side, bucket, prefix = "in", b_parts, "B"
        else:
            side, bucket, prefix = "out", a_parts, "A"
        anchors = _eligible_anchors(work, info.band, side)
        if not anchors:
            raise CorruptPresentationError(f"band {info.band} has no {side}-anchor")
        cats = [d_category(work, trivial_walk(work.quiver, v)) for v in anchors]
        base = cats[0]
        if any((c.objects, c.arrows) != (base.objects, base.arrows) for c in cats[1:]):
            raise CorruptPresentationError("side part depends on the anchor choice")
        label = f"{prefix}{len(bucket) + 1}"
        bucket.append(
            Subcategory(label, base.objects, base.arrows, anchor=anchors[0], band=info.band)
        )
    objects, arrows = _straddle_support(work, a_parts + b_parts)
    middle = Subcategory("C", frozenset(objects), frozenset(arrows))
    notes.append(
        "middle part convention: a string belongs to the middle census unless "
        "its full support lies in one single side part"
    )
    dec = Decomposition(tuple(a_parts), tuple(b_parts), middle, tuple(notes), work)
    covered = set().union(*(part.objects for part in dec.parts))
    if covered != set(work.quiver.vertices):
        raise CorruptPresentationError("decomposition does not cover every vertex")
    return dec


class StructureReport(Value):
    _compare = (
        "full",
        "no_entry",
        "convex",
        "unique_cycle",
        "middle_finite",
        "sides_double_zero_free",
        "details",
    )

    def __init__(
        self, full, no_entry, convex, unique_cycle, middle_finite, sides_double_zero_free, details
    ):
        object.__setattr__(self, "full", full)
        object.__setattr__(self, "no_entry", no_entry)
        object.__setattr__(self, "convex", convex)
        object.__setattr__(self, "unique_cycle", unique_cycle)
        object.__setattr__(self, "middle_finite", middle_finite)
        object.__setattr__(self, "sides_double_zero_free", sides_double_zero_free)
        object.__setattr__(self, "details", details)

    @property
    def all_pass(self):
        return (
            self.full
            and self.no_entry
            and self.convex
            and self.unique_cycle
            and self.middle_finite
            and self.sides_double_zero_free
        )

    def as_dict(self):
        return {
            "full": self.full,
            "no_entry": self.no_entry,
            "convex": self.convex,
            "unique_cycle": self.unique_cycle,
            "middle_finite": self.middle_finite,
            "sides_double_zero_free": self.sides_double_zero_free,
        }


def _restrict(part, part_arrows, zeros_from):
    """Full subpresentation on a part: its arrows, in quiver order, and
    the zero generators all of whose arrows lie in the part.

    zeros_from maps an arrow to the zero generators starting with it.
    """
    sub = Quiver(sorted(part.objects), [(a.name, a.source, a.target) for a in part_arrows])
    rels = [
        ZeroRelation(sub.path(g))
        for a in part_arrows
        for g in zeros_from.get(a.name, ())
        if all(n in part.arrows for n in g)
    ]
    return Presentation(sub, rels)


def _with_decomposition(p, decomposition):
    """(decomposition, monomial presentation it is checked against)."""
    if decomposition is None:
        dec = decompose(p)
        return dec, dec.analyzed
    return decomposition, monomial_form(p)


def check_structure(p, decomposition=None):
    """The six structural checks on a decomposition.

    With an explicit decomposition the checks run against p itself, which
    lets tests aim a valid decomposition at a corrupted presentation."""
    dec, work = _with_decomposition(p, decomposition)
    q = work.quiver
    details = []
    order = {a.name: i for i, a in enumerate(q.arrows)}

    def incident(part, side):
        """Arrows starting (side "out") or ending ("in") at an object of
        the part, in quiver order."""
        found = [
            a
            for v in part.objects
            if q.has_vertex(v)
            for a in (q.out_arrows(v) if side == "out" else q.in_arrows(v))
        ]
        return sorted(found, key=lambda a: order[a.name])

    out_of = {part: incident(part, "out") for part in dec.side_parts}

    full = True
    for part in dec.side_parts:
        for a in out_of[part]:
            if a.target in part.objects and a.name not in part.arrows:
                full = False
                details.append(f"full: arrow {a.name} between {part.label}-objects is missing")

    no_entry = True
    for part in dec.a_parts:
        for a in incident(part, "in"):
            if a.source not in part.objects:
                no_entry = False
                details.append(f"no_entry: arrow {a.name} enters {part.label}")
    for part in dec.b_parts:
        for a in out_of[part]:
            if a.target not in part.objects:
                no_entry = False
                details.append(f"no_entry: arrow {a.name} leaves {part.label}")

    convex = True
    for part in dec.side_parts:
        leave = [a.target for a in out_of[part] if a.target not in part.objects]
        outside = reach(
            leave,
            lambda v: [a.target for a in q.out_arrows(v) if a.target not in part.objects],
        )
        for a in q.arrows:
            if a.source in outside and a.target in part.objects:
                convex = False
                details.append(f"convex: {part.label} is re-entered through {a.name}")

    unique_cycle = True
    arrows_of = {
        part: sorted((q.arrow[n] for n in part.arrows if n in q.arrow), key=lambda a: order[a.name])
        for part in dec.side_parts
    }
    for part in dec.side_parts:
        part_arrows = arrows_of[part]
        comp = {v: v for v in part.objects}

        def find(v):
            while comp[v] != v:
                comp[v] = comp[comp[v]]
                v = comp[v]
            return v

        for a in part_arrows:
            comp[find(a.source)] = find(a.target)
        ncomp = len({find(v) for v in part.objects})
        cyclomatic = len(part_arrows) - len(part.objects) + ncomp
        if cyclomatic != 1:
            unique_cycle = False
            details.append(f"unique_cycle: {part.label} has cyclomatic number {cyclomatic}")
        succ = {v: [] for v in part.objects}
        for a in part_arrows:
            succ[a.source].append(a.target)
        if topological_order(sorted(part.objects), succ.__getitem__) is None:
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

    sides_clean = True
    zeros_from = {}
    for g in work.zero_paths:
        zeros_from.setdefault(g[0], []).append(g)
    for part in dec.side_parts:
        if has_double_zero(_restrict(part, arrows_of[part], zeros_from)):
            sides_clean = False
            details.append(f"sides_double_zero_free: {part.label} contains a double-zero")

    return StructureReport(
        full, no_entry, convex, unique_cycle, middle_finite, sides_clean, tuple(details)
    )


def support_cover_check(p, max_len, decomposition=None):
    """Every string of bounded length is supported inside a single part."""
    dec, work = _with_decomposition(p, decomposition)
    q = work.quiver
    parts_at = {}
    for part in dec.parts:
        for v in part.objects:
            parts_at.setdefault(v, []).append(part)
    for w in enumerate_strings(work, max_len):
        vertices = set(walk_vertices(q, w))
        arrows = walk_arrows(w)
        # a part holding w holds its base vertex
        if not any(
            vertices <= part.objects and arrows <= part.arrows
            for part in parts_at.get(w.base, ())
        ):
            return False
    return True
