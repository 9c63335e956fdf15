"""Bound quiver presentations.

A presentation is a finite quiver together with zero relations (monomial
generators) and commutativity relations (pairs of parallel paths that are
identified).  Zero generators are minimalized on load and the presented
algebra is required to be finite dimensional: an oriented cycle all of
whose traversals avoid the ideal is rejected, by one depth-first search
over (vertex, prefix-table node) pairs at the vertices that reach an
oriented cycle; an acyclic quiver has none, and no search.
Both validators read one cached scan of the vertex-degree and
unique-continuation axioms.

`Quiver(vertices, arrows)` and `Presentation(quiver, zeros, comms)`
check their input, then build through a private builder, `_fill`:
`Quiver` checks ids, duplicates and arrow endpoints, and `Presentation`
relation lengths and the commutativity rules (`_check_commutativity`).
A relation is the `OrientedPath` that `Quiver.path` returns, which
checks composability: a zero relation is one path, a commutativity
relation a pair of parallel paths, and the constructor takes the two as
separate sequences.  `textio.parse` makes the same checks as it reads,
with line and column, and calls the same builders on arrow-id tuples.
The one check in a builder is the presentation's finite dimension, which
both routes need.  `Quiver.opposite` and `quotient_by_J` also build from
parts already checked.

Arrows are `collections.namedtuple` subclasses; paths and validation
reports are frozen `_value.Value` classes, each with its own `__init__`.
Neither `typing` nor `dataclasses` is imported: either would add to the
start-up of every `stringalg` process.
"""

from collections import namedtuple
from itertools import groupby

from ._value import Value
from .errors import (
    CorruptPresentationError,
    InfiniteDimensionalError,
    PreconditionError,
    SemanticError,
)
from .graph import cycle_entry


class Arrow(namedtuple("Arrow", "name source target")):
    __slots__ = ()


class OrientedPath(Value):
    """Nonempty composable arrow sequence, composed left to right.

    In the path (a, b) the arrow a is traversed first, so the path exists
    iff target(a) = source(b).
    """

    _compare = ("arrows", "source", "target")

    def __init__(self, arrows, source, target):
        object.__setattr__(self, "arrows", arrows)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)

    def __len__(self):
        return len(self.arrows)

    def __str__(self):
        return ".".join(self.arrows)


class Quiver:
    """Finite directed multigraph with named vertices and arrows."""

    def __init__(self, vertices, arrows):
        vertices = [str(v) for v in vertices]
        if len(set(vertices)) != len(vertices):
            raise SemanticError("duplicate vertex id")
        vset = set(vertices)
        seen = set()
        built = []
        for a in arrows:
            a = Arrow(*map(str, a))
            if a.name in seen:
                raise SemanticError(f"duplicate arrow id {a.name!r}")
            seen.add(a.name)
            if a.source not in vset:
                raise SemanticError(f"arrow {a.name!r}: unknown vertex {a.source!r}")
            if a.target not in vset:
                raise SemanticError(f"arrow {a.name!r}: unknown vertex {a.target!r}")
            built.append(a)
        self._fill(vertices, built)

    def _fill(self, vertices, arrows):
        """Build from checked parts: unique vertex ids, and `Arrow`s with
        unique names between them.  The arrows are sorted once, by name
        (unique, so the whole order), and dealt out to their ends in that
        order: every vertex's arrows come out sorted."""
        self.vertices = tuple(sorted(vertices))
        self.arrows = tuple(arrows)
        self.arrow = {a.name: a for a in arrows}
        out = {v: [] for v in self.vertices}
        into = {v: [] for v in self.vertices}
        for a in sorted(arrows):
            out[a.source].append(a)
            into[a.target].append(a)
        self._out = {v: tuple(arrs) for v, arrs in out.items()}
        self._in = {v: tuple(arrs) for v, arrs in into.items()}

    def has_vertex(self, v):
        return v in self._out

    def out_arrows(self, v):
        return self._out[v]

    def in_arrows(self, v):
        return self._in[v]

    def path(self, names):
        """Validated oriented path from a sequence of arrow ids."""
        names = tuple(names)
        if not names:
            raise SemanticError("a path needs at least one arrow")
        for n in names:
            if n not in self.arrow:
                raise SemanticError(f"unknown arrow {n!r}")
        return OrientedPath(names, *self._ends(names))

    def _ends(self, names):
        """(source, target) of a nonempty sequence of known arrow ids,
        which must compose."""
        first = prev = self.arrow[names[0]]
        for n in names[1:]:
            a = self.arrow[n]
            if prev.target != a.source:
                raise SemanticError(
                    f"path not composable at {prev.name!r}.{a.name!r}: "
                    f"{prev.name} ends at {prev.target}, {a.name} starts at {a.source}"
                )
            prev = a
        return first.source, prev.target

    def opposite(self):
        """Quiver with every arrow reversed (same names).

        Built from this validated quiver without validating or sorting
        again: arrow names are unique, so the arrows into v, sorted by
        name, reversed are the arrows out of v in the opposite, sorted."""
        out = Quiver.__new__(Quiver)
        out.vertices = self.vertices
        out.arrow = arrow = {n: Arrow(n, t, s) for n, s, t in self.arrows}
        out.arrows = tuple(arrow.values())
        out._out = {v: tuple([arrow[a.name] for a in ins]) for v, ins in self._in.items()}
        out._in = {v: tuple([arrow[a.name] for a in outs]) for v, outs in self._out.items()}
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and sorted(self.arrows) == sorted(other.arrows)
        )

    def __hash__(self):
        return hash((self.vertices, tuple(sorted(self.arrows))))


def window_index(paths):
    """Paths grouped by length, for subpath tests by window lookup."""
    index = {}
    for path in paths:
        index.setdefault(len(path), set()).add(tuple(path))
    return index


def has_window(seq, index):
    """True iff some path of the index is a contiguous subpath of the
    tuple seq.

    Costs one set lookup per window length in the index and start
    position, independent of the number of indexed paths.
    """
    n = len(seq)
    return any(
        seq[i : i + m] in group
        for m, group in index.items()
        if m <= n
        for i in range(n - m + 1)
    )


def _prefix_table(patterns):
    """(node, prefix, ends) over the prefixes of a pattern antichain of
    tuples, such as minimalized generators: node numbers each prefix in
    the order the patterns list them, 0 the empty one; prefix[n] is
    prefix n, and ends[n] the index of the pattern it spells, or None.

    A step appends an arrow to a node's prefix and trims it from the
    front until it is a prefix again: the longest suffix that can still
    grow into a pattern.  In an antichain no pattern ends inside another,
    so a step completes a pattern exactly when it lands on a whole one.
    """
    node = {(): 0}
    for pat in patterns:
        for i in range(1, len(pat) + 1):
            node.setdefault(pat[:i], len(node))
    prefix = list(node)
    ends = [None] * len(prefix)
    for i, pat in enumerate(patterns):
        ends[node[pat]] = i
    return node, prefix, ends


def prefix_matcher(patterns):
    """Step function `advance(node, arrow) -> (node, index or None)` of a
    pattern antichain's `_prefix_table`, for the finiteness check; the
    string automaton steps its two tables inline."""
    node, prefix, ends = _prefix_table(patterns)

    def advance(n, arrow):
        seq = prefix[n] + (arrow,)
        while (n := node.get(seq)) is None:
            seq = seq[1:]
        return n, ends[n]

    return advance


def minimalize(paths):
    """Drop every path that contains another one as a contiguous subpath.

    Idempotent; the result is an antichain under contiguous containment.
    Paths are taken shortest first, one length at a time, so every path a
    candidate can contain has already been decided and, if kept, indexed.
    Distinct paths of one length cannot contain each other, so a length's
    candidates are tested against the shorter kept paths alone, and the
    shortest are not tested at all.
    """
    unique = sorted(set(map(tuple, paths)))
    unique.sort(key=len)  # stable: by (length, arrows)
    kept = []
    index = {}
    for m, group in groupby(unique, len):
        new = [p for p in group if not has_window(p, index)] if index else list(group)
        if new:
            kept += new
            index[m] = set(new)
    return kept


def _assert_finite_dimensional(quiver, gens):
    """Reject oriented cycles avoiding the monomial ideal.

    Searches the (vertex, prefix-table node) graph of ideal-avoiding
    oriented paths; a cycle there means such paths are unbounded, i.e.
    the algebra is infinite dimensional.  Only the vertices that reach an
    oriented cycle of the quiver are searched: the others are peeled off
    first, each once no arrow leads from it into the vertices left.  A
    peeled vertex leads to peeled vertices alone, so the search, with
    its roots still in vertex order, re-enters its path first where the
    unpruned one would.
    """
    # left[v]: v's arrows into the vertices not peeled yet
    left = {v: len(outs) for v, outs in quiver._out.items()}
    peeled = [v for v, n in left.items() if not n]
    for v in peeled:
        for a in quiver._in[v]:
            left[a.source] -= 1
            if not left[a.source]:
                peeled.append(a.source)
    for v in peeled:
        del left[v]
    if not left:
        return
    advance = prefix_matcher(gens)

    def succ(state):
        v, node = state
        for a in quiver.out_arrows(v):
            if a.target in left:
                node2, hit = advance(node, a.name)
                if hit is None:
                    yield (a.target, node2)

    entry = cycle_entry([(x, 0) for x in quiver.vertices if x in left], succ)
    if entry is not None:
        raise InfiniteDimensionalError(
            f"ideal-avoiding oriented cycle through vertex {entry[0]!r}"
        )


def _check_commutativity(left, right, left_ends, right_ends):
    """Raise unless the arrow-id tuples left and right, paths with
    (source, target) left_ends and right_ends, are the two sides of a
    commutativity relation: each of length >= 2, parallel and distinct."""
    if len(left) < 2 or len(right) < 2:
        fault = "sides must have length >= 2"
    elif left_ends != right_ends:
        fault = "sides not parallel"
    elif left == right:
        fault = "sides not distinct"
    else:
        return
    raise SemanticError(f"commutativity {'.'.join(left)} = {'.'.join(right)}: {fault}")


class Presentation:
    """Immutable bound quiver (Q, I).

    Zero generators are minimalized; a commutativity relation one of whose
    sides already lies in the monomial ideal degenerates to a pair of zero
    relations (the two sides are then separately zero).  `zeros` is a
    sequence of `OrientedPath`s and `comms` one of pairs of them, all paths
    of `quiver`.
    """

    def __init__(self, quiver, zeros=(), comms=()):
        for p in zeros:
            if len(p) < 2:
                raise SemanticError(f"zero relation {p} has length < 2")
        for left, right in comms:
            _check_commutativity(
                left.arrows, right.arrows, (left.source, left.target), (right.source, right.target)
            )
        self._fill(quiver, [p.arrows for p in zeros], [(l.arrows, r.arrows) for l, r in comms])

    def _fill(self, quiver, zero_paths, comm_pairs):
        """Build from checked relations: arrow-id tuples that are paths of
        quiver, the zero ones of length >= 2 and the commutativity pairs
        accepted by `_check_commutativity`."""
        self.quiver = quiver
        zero_paths = list(zero_paths)
        # Degenerate commutativities: if either side is monomially zero the
        # relation is equivalent to two zero relations.  Iterate to a fixpoint
        # since newly added zeros can degrade further commutativities.
        while True:
            mins = minimalize(zero_paths)
            index = window_index(mins)
            keep = []
            changed = False
            for l, r in comm_pairs:
                if has_window(l, index) or has_window(r, index):
                    zero_paths.extend([l, r])
                    changed = True
                else:
                    keep.append((l, r))
            comm_pairs = keep
            if not changed:
                break
        # minimalize returns its paths sorted by (length, arrows)
        self._zero_paths = tuple(mins)
        self._comm_pairs = tuple(sorted(tuple(sorted([l, r])) for l, r in comm_pairs))
        # the last pass indexed exactly the final zero generators
        self._cache = {"zero_index": index}
        _assert_finite_dimensional(quiver, self.monomial_generators())

    @classmethod
    def build(cls, vertices, arrows, zeros=(), comms=()):
        """Convenience constructor from raw ids."""
        q = Quiver(vertices, arrows)
        return cls(q, [q.path(z) for z in zeros], [(q.path(l), q.path(r)) for l, r in comms])

    @property
    def zero_paths(self):
        return self._zero_paths

    @property
    def comm_pairs(self):
        return self._comm_pairs

    @property
    def is_monomial(self):
        return not self._comm_pairs

    def monomial_generators(self):
        """Zero generators plus both sides of every commutativity relation,
        minimalized: the generators of the J-quotient's ideal."""
        return self.cached("monomial_generators", self._monomial_generators)

    def _monomial_generators(self):
        if not self._comm_pairs:
            return self._zero_paths
        gens = list(self._zero_paths)
        for l, r in self._comm_pairs:
            gens.extend([l, r])
        return tuple(minimalize(gens))

    def max_generator_length(self):
        return self.cached(
            "max_generator_length",
            lambda: max((len(g) for g in self.monomial_generators()), default=0),
        )

    def zero_index(self):
        """The zero generators as a `window_index`."""
        return self.cached("zero_index", lambda: window_index(self._zero_paths))

    def opposite(self):
        """Presentation over the opposite quiver (paths reversed)."""
        q = self.quiver.opposite()
        zeros = [q.path(p[::-1]) for p in self._zero_paths]
        comms = [(q.path(l[::-1]), q.path(r[::-1])) for l, r in self._comm_pairs]
        return Presentation(q, zeros, comms)

    def cached(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def __eq__(self, other):
        return (
            isinstance(other, Presentation)
            and self.quiver == other.quiver
            and self._zero_paths == other._zero_paths
            and self._comm_pairs == other._comm_pairs
        )

    def __hash__(self):
        return hash((self.quiver, self._zero_paths, self._comm_pairs))


def path_in_ideal(p, path):
    """Monomial ideal membership: true iff some zero generator is a
    contiguous subpath.

    Consultation is rejected when a commutativity relation could affect
    the answer, i.e. when the path contains a commutativity side; callers
    must pass to the J-quotient first.
    """
    arrows = path.arrows if isinstance(path, OrientedPath) else tuple(path)
    sides = p.cached(
        "comm_side_index", lambda: window_index(s for pair in p.comm_pairs for s in pair)
    )
    if has_window(arrows, sides):
        raise PreconditionError(
            "membership depends on a commutativity relation; quotient by J first"
        )
    return has_window(arrows, p.zero_index())


class Violation(Value):
    _compare = ("condition", "site", "kind", "detail")

    def __init__(self, condition, site, kind, detail):
        object.__setattr__(self, "condition", condition)
        object.__setattr__(self, "site", site)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "detail", detail)


class ValidationReport(Value):
    _compare = ("violations",)

    def __init__(self, violations):
        object.__setattr__(self, "violations", violations)

    @property
    def is_valid(self):
        return not self.violations

    def by_condition(self, k):
        return tuple(v for v in self.violations if v.condition == k)


def _axiom_violations(p):
    """Violations of the vertex-degree and unique-continuation axioms, a
    tuple scanned once per presentation.

    Two-path ideal membership is decided against zero generators alone; in
    special biserial normal form a commutativity side never makes a further
    two-path vanish, so this is exact for the presentations we accept.
    """
    return p.cached("axiom_violations", lambda: _scan_axioms(p))


def _scan_axioms(p):
    q = p.quiver
    zero = p.zero_index().get(2, ())
    out = []
    for v in q.vertices:
        ins = q._in[v]
        outs = q._out[v]
        if len(ins) > 2:
            out.append(Violation(1, v, "in", tuple(a.name for a in ins)))
        if len(outs) > 2:
            out.append(Violation(1, v, "out", tuple(a.name for a in outs)))
    # an arrow has two live successors only where its target has two
    # out-arrows, and two live predecessors only where its source has two
    # in-arrows
    for a in q.arrows:
        outs = q._out[a.target]
        if len(outs) > 1:
            succ = [b.name for b in outs if (a.name, b.name) not in zero]
            if len(succ) > 1:
                out.append(Violation(2, a.name, "successors", tuple(succ)))
        ins = q._in[a.source]
        if len(ins) > 1:
            pred = [b.name for b in ins if (b.name, a.name) not in zero]
            if len(pred) > 1:
                out.append(Violation(2, a.name, "predecessors", tuple(pred)))
    return tuple(out)


def validate_string_algebra(p):
    """Check the three string algebra axioms; violations are data."""
    out = list(_axiom_violations(p))
    for l, r in p.comm_pairs:
        out.append(Violation(3, ".".join(l), "commutativity", (".".join(l), ".".join(r))))
    return ValidationReport(tuple(out))


def validate_special_biserial(p):
    """Like validate_string_algebra but the ideal may be non-monomial."""
    return ValidationReport(_axiom_violations(p))


def quotient_by_J(p):
    """Quotient by the ideal generated by commutativity-relation paths.

    The result is monomial: both sides of every commutativity relation
    become zero generators, re-minimalized.  Requires a special biserial
    input and always yields a string algebra presentation.
    """
    if not validate_special_biserial(p).is_valid:
        raise PreconditionError("quotient_by_J requires a special biserial presentation")
    if p.is_monomial:
        return p
    # p's construction checked these generators on this quiver (paths,
    # minimality, finite dimension), so they are not checked again
    out = Presentation.__new__(Presentation)
    out.quiver, out._zero_paths = p.quiver, p.monomial_generators()
    out._comm_pairs, out._cache = (), {}
    report = validate_string_algebra(out)
    if not report.is_valid:
        raise CorruptPresentationError(f"J-quotient is not a string algebra: {report}")
    return out


def monomial_form(p):
    """The monomial presentation the walk-based analyses run on: p itself
    when it is monomial, else its J-quotient, computed once per
    presentation (with `quotient_by_J`'s precondition).

    A monomial p is returned uncached: storing p in its own cache would
    make every presentation a reference cycle.
    """
    if p.is_monomial:
        return p
    return p.cached("monomial_form", lambda: quotient_by_J(p))
