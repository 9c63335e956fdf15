"""Double-zeros, interlaced double-zeros, and the laura classifier.

A double-zero is a reduced walk of the shape rho1 . middle . rho2 where
both zero generators are traversed forwards and the interior (the walk
minus its outermost arrow at each end) is a string.  An interlaced
double-zero (DOZE) additionally factors the middle as w1 . band . w3;
pumping the band then produces double-zeros of every power, which is
what kills laura-ness.

The exact decisions run on the string automaton.  A witness exists iff
some state reachable from a just-consumed generator lies on a cycle and
can reach a generator-completing step, which one backward pass from the
completing states decides; a double-zero exists iff some generator's
start reaches a completion far enough on, which one pass over the
strongly connected components decides.  The brute-force enumerator is
kept deliberately naive (no automaton) so the two can act as independent
oracles for each other; both check their witness with `_validate_witness`.

Double-zeros, witnesses and reports are frozen `_value.Value` classes
with their own `__init__` rather than dataclasses, which would cost
every `stringalg` process the `dataclasses` import and a generated
source per class.  The analyzed presentation a report carries is left
out of its equality, hash and repr.
"""

from ._value import Value
from .automaton import automaton, band_census
from .errors import (
    CorruptPresentationError,
    PreconditionError,
    SearchBudgetExceeded,
)
from .graph import reach
from .presentation import (
    _contains_subpath,
    monomial_form,
    validate_special_biserial,
    validate_string_algebra,
)
from .walks import (
    BandBoundary,
    CyclicWalk,
    Walk,
    band_boundary,
    concat_walks,
    cyclic_power,
    direct,
    inverse,
    is_band,
    is_reduced,
    is_string,
    letter_ends,
    make_cyclic,
    primitive_root,
    serialize_walk,
    walk_arrows,
    walk_vertices,
)

FINITE_TYPE = "FiniteType"
QUASI_TILTED_CANONICAL = "QuasiTiltedCanonical"
STRICT_LAURA_OR_TILTED = "StrictLauraOrTilted"
HEREDITARY_SINGLE_BAND = "HereditarySingleBand"
NOT_LAURA = "NotLaura"


def generator_walk(quiver, names):
    """A zero generator read forwards, as a walk of direct letters."""
    path = quiver.path(names)
    return Walk(path.source, tuple(direct(n) for n in names))


class DoubleZero(Value):
    _compare = ("rho1", "middle", "rho2", "whole")

    def __init__(self, rho1, middle, rho2, whole):
        object.__setattr__(self, "rho1", rho1)
        object.__setattr__(self, "middle", middle)
        object.__setattr__(self, "rho2", rho2)
        object.__setattr__(self, "whole", whole)

    def __len__(self):
        return len(self.whole.letters)


def make_double_zero(p, rho1, middle, rho2):
    """Validated double-zero; raises on any broken invariant."""
    rho1, rho2 = tuple(rho1), tuple(rho2)
    gens = set(p.zero_paths)
    if rho1 not in gens or rho2 not in gens:
        raise CorruptPresentationError("double-zero ends must be zero generators")
    q = p.quiver
    whole = concat_walks(q, generator_walk(q, rho1), middle, generator_walk(q, rho2))
    _check_whole(p, whole)
    return DoubleZero(rho1, middle, rho2, whole)


def _check_whole(p, whole):
    """Raise unless the walk is reduced and its interior a string."""
    if not is_reduced(whole):
        raise CorruptPresentationError("double-zero walk is not reduced")
    interior = Walk(letter_ends(p.quiver, whole.letters[0])[1], whole.letters[1:-1])
    if not is_string(p, interior):
        raise CorruptPresentationError("double-zero interior is not a string")


class DozeWitness(Value):
    """Factorization rho1 . w1 . band^n . w3 . rho2 certifying non-laura."""

    _compare = ("p", "rho1", "w1", "band", "w3", "rho2")
    _repr = _compare[1:]

    def __init__(self, p, rho1, w1, band, w3, rho2):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rho1", rho1)
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "band", band)
        object.__setattr__(self, "w3", w3)
        object.__setattr__(self, "rho2", rho2)

    def assembled(self, n):
        q = self.p.quiver
        return concat_walks(
            q,
            generator_walk(q, self.rho1),
            self.w1,
            cyclic_power(q, self.band, n),
            self.w3,
            generator_walk(q, self.rho2),
        )

    def double_zero(self, n):
        q = self.p.quiver
        middle = concat_walks(q, self.w1, cyclic_power(q, self.band, n), self.w3)
        return make_double_zero(self.p, self.rho1, middle, self.rho2)

    def pumps_cleanly_at(self, n):
        """Whether assembled(n) still satisfies the double-zero invariants.

        True for every n >= 1; can legitimately fail at n = 0 when
        deleting the band merges two runs across a generator.
        """
        try:
            self.double_zero(n)
            return True
        except CorruptPresentationError:
            return False

    def serialize(self):
        return (
            f"doze: rho1={'.'.join(self.rho1)} w1=[{serialize_walk(self.w1)}] "
            f"band=[{serialize_walk(self.band.walk)}] w3=[{serialize_walk(self.w3)}] "
            f"rho2={'.'.join(self.rho2)}"
        )


def _validate_witness(w):
    """Raise unless the band is a band and rho1 . w1 . band^n . w3 . rho2
    is a double-zero for n = 1, 2, 3: the checks and messages of
    `w.double_zero(n)`, in its order, with each walk built once."""
    p, q = w.p, w.p.quiver
    if not is_band(p, w.band):
        raise CorruptPresentationError("witness band is not a band")
    # the chain w1 . band . w3 first, as double_zero(1) meets it
    concat_walks(q, w.w1, w.band.walk, w.w3)
    gens = set(p.zero_paths)
    if w.rho1 not in gens or w.rho2 not in gens:
        raise CorruptPresentationError("double-zero ends must be zero generators")
    g1, g2 = generator_walk(q, w.rho1), generator_walk(q, w.rho2)
    for n in (1, 2, 3):
        _check_whole(p, concat_walks(q, g1, w.w1, cyclic_power(q, w.band, n), w.w3, g2))
    return w


def _gen_as_suffix(gens, run):
    for g in gens:
        if len(g) <= len(run) and tuple(run[-len(g):]) == g:
            return g
    return None


def _gen_as_prefix(gens, run):
    for g in gens:
        if len(g) <= len(run) and tuple(run[: len(g)]) == g:
            return g
    return None


def find_double_zeros(p, max_len, node_budget=None):
    """All double-zeros of total length <= max_len, canonical order.

    Deduplicated up to inversion: both generators are traversed forwards
    along the returned walks, which picks one member of each {w, w^-1}
    class.  Naive extension search on purpose; see the module docstring.
    """
    if not p.is_monomial:
        raise PreconditionError("find_double_zeros needs a monomial presentation")
    q = p.quiver
    gens = p.zero_paths
    results = []
    budget = [node_budget]

    def spend():
        if budget[0] is None:
            return
        budget[0] -= 1
        if budget[0] < 0:
            raise SearchBudgetExceeded("double-zero enumeration budget exhausted")

    for g in gens:
        l = len(g)
        if l + 2 > max_len:
            continue
        if any(_contains_subpath(tuple(g[1:]), h) for h in gens):
            raise CorruptPresentationError("generators are not minimal")
        seed = [direct(a) for a in g]
        arr = q.arrow[g[-1]]
        # Depth-first with an explicit stack (walks can be far longer than
        # the recursion limit); children are pushed in reverse so they are
        # visited in candidate order.
        stack = [(seed, arr.target, False, list(g[1:]), 0)]
        while stack:
            letters, vertex, tail_inv, tail, depth = stack.pop()
            spend()
            last = letters[-1]
            total = len(letters)
            # completion: a direct letter finishing a generator occurrence
            # that is disjoint from rho1 (depth >= len(gen) - 1)
            if not last.inverse and total + 1 <= max_len:
                for a in q.out_arrows(vertex):
                    hit = _gen_as_suffix(gens, tail + [a.name])
                    if hit is not None and depth >= len(hit) - 1:
                        full = letters + [direct(a.name)]
                        mid_letters = full[l : len(full) - len(hit)]
                        middle = Walk(arr.target, tuple(mid_letters))
                        results.append(make_double_zero(p, g, middle, hit))
            if total + 2 > max_len:
                continue
            cands = [direct(a.name) for a in q.out_arrows(vertex)]
            cands += [inverse(a.name) for a in q.in_arrows(vertex)]
            cands.sort()
            children = []
            for m in cands:
                if m.arrow == last.arrow and m.inverse != last.inverse:
                    continue
                if m.inverse == tail_inv:
                    run = tail + [m.arrow] if not m.inverse else [m.arrow] + tail
                    check = _gen_as_prefix if m.inverse else _gen_as_suffix
                    if check(gens, run) is not None:
                        continue
                else:
                    run = [m.arrow]
                nv = letter_ends(q, m)[1]
                children.append((letters + [m], nv, m.inverse, run, depth + 1))
            stack.extend(reversed(children))
    results.sort(key=lambda dz: dz.whole.key())
    return results


def has_double_zero(p):
    """Exact decision, not length-bounded; see `_double_zero_over`."""
    if not p.is_monomial:
        raise PreconditionError("has_double_zero needs a monomial presentation")
    return bool(_double_zero_over(p, dict.fromkeys(p.quiver.arrow, (0,))))


def _double_zero_over(p, parts_of):
    """The parts holding a double-zero over their own arrows, read off p's
    own string automaton; `parts_of` maps an arrow to the parts it lies in.

    The states whose arrow lies in part k, with the edges between them,
    carry the automaton of the full subpresentation on the part.  need[s,
    k] is how many more letters a path from s in part k needs before it
    completes some rho2 disjoint from rho1 (len(rho2) - 1 in all), unset
    if it completes none; on a cycle it needs none.  One backward pass
    from the completing states lowers need[s, k] to max(need[t, k] - 1, 0)
    along each edge s -> t in part k, each pair at most once per letter
    of the longest generator.  g starts a double-zero in part k iff the
    state after g[1:] needs none there."""
    aut = automaton(p)
    keys = aut.keys
    gens = p.zero_paths
    need = {}
    for s, done in aut.completing.items():
        for k in parts_of.get(keys[s][0], ()):
            lacks = [len(gens[i]) - 1 for i, x in done if k in parts_of.get(x, ())]
            if lacks:
                need[s, k] = min(lacks)
    work = list(need)
    while work:
        t, k = work.pop()
        least = max(need[t, k] - 1, 0)
        for s in aut.predecessors[t]:
            if k in parts_of.get(keys[s][0], ()) and need.get((s, k), least + 1) > least:
                need[s, k] = least
                work.append((s, k))
    return {
        k
        for i, g in enumerate(gens)
        for k in parts_of.get(g[0], ())
        if all(k in parts_of.get(n, ()) for n in g)
        and need.get((aut.generator_state(i), k)) == 0
    }


def find_doze(p):
    """Exact DOZE search; returns a validated witness or None.

    Existence is equivalent to: some state q reachable from a freshly
    consumed generator lies on an automaton cycle and can reach a
    generator-completing step; the first generator whose start leads to
    such a q, the nearest q (least on ties) and the nearest completion
    from q give the witness; each search stops at its first layer holding
    a target.  The witness band is the primitive root of a minimal cycle
    at q; w3 absorbs extra band copies whenever the closing generator
    would otherwise overlap the band.  The witness pumps: its band is a
    band and every power n >= 1 gives a double-zero (checked for 1, 2, 3).
    """
    if not p.is_monomial:
        raise PreconditionError("find_doze needs a monomial presentation")
    aut = automaton(p)
    gens = p.zero_paths
    cyc = aut.cycle_states()
    if not cyc:
        return None
    back = aut.predecessors.__getitem__
    completing = aut.completing
    hot = cyc & reach(completing, back)
    leads = reach(hot, back)
    for i, g in enumerate(gens):
        s0 = aut.generator_state(i)
        if s0 not in leads:
            continue
        dist1, par1 = aut.bfs([s0], hot)
        q = min((s for s in dist1 if s in hot), key=lambda s: (dist1[s], s))
        dist2, par2 = aut.bfs([q], completing)
        f = min((s for s in dist2 if s in completing), key=lambda s: (dist2[s], s))
        comps = sorted(completing[f], key=lambda c: (gens[c[0]], c[1]))
        return _assemble_witness(p, aut, g, q, par1, (f, comps[0]), par2)
    return None


def _assemble_witness(p, aut, g, q, par1, target, par2):
    quiver = p.quiver
    f, (gen_idx, xarrow) = target
    g2 = p.zero_paths[gen_idx]
    cycle_letters = aut.shortest_cycle_at(q)
    root = list(primitive_root(cycle_letters))
    s = q
    for l in root:
        s = aut.step(s, l)
    if s != q:
        raise CorruptPresentationError("primitive root does not stabilize its state")
    # the root starts with a letter leaving q, at q's end vertex
    band = make_cyclic(quiver, Walk(letter_ends(quiver, root[0])[0], tuple(root)))
    path = aut.path_letters(par2, f)
    m = len(g2)
    pad = 0
    while len(path) + pad * len(root) < m - 1:
        pad += 1
    tail = root * pad + path + [direct(xarrow)]
    rho2_letters = tail[len(tail) - m :]
    w3_letters = tail[: len(tail) - m]
    if any(l.inverse for l in rho2_letters) or tuple(l.arrow for l in rho2_letters) != g2:
        raise CorruptPresentationError("generator completion is inconsistent")
    rho1_end = quiver.arrow[g[-1]].target
    w1 = Walk(rho1_end, tuple(aut.path_letters(par1, q)))
    w3 = Walk(band.base, tuple(w3_letters))
    return _validate_witness(DozeWitness(p, g, w1, band, w3, g2))


def find_doze_bruteforce(p, max_len, node_budget=None):
    """Independent oracle: factor enumerated double-zeros through a band.

    Tests every contiguous cyclic segment of each middle; first witness
    in canonical order wins.
    """
    q = p.quiver
    for dz in find_double_zeros(p, max_len, node_budget):
        mid = dz.middle
        verts = walk_vertices(q, mid)
        n = len(mid.letters)
        for i in range(n):
            for j in range(i + 1, n + 1):
                if verts[i] != verts[j]:
                    continue
                c = CyclicWalk(Walk(verts[i], mid.letters[i:j]))
                if not is_band(p, c):
                    continue
                w1 = Walk(mid.base, mid.letters[:i])
                w3 = Walk(verts[j], mid.letters[j:])
                return _validate_witness(DozeWitness(p, dz.rho1, w1, c, w3, dz.rho2))
    return None


class BandInfo(Value):
    _compare = ("band", "boundary")

    def __init__(self, band, boundary):
        object.__setattr__(self, "band", band)
        object.__setattr__(self, "boundary", boundary)


class ClassificationReport(Value):
    _compare = ("verdict", "evidence", "bands", "notes")

    def __init__(self, verdict, evidence, bands, notes, analyzed=None):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "evidence", evidence)
        object.__setattr__(self, "bands", bands)
        object.__setattr__(self, "notes", notes)
        object.__setattr__(self, "analyzed", analyzed)


def classify(p):
    """Laura classification of a string or special biserial presentation.

    Special biserial inputs are analyzed on their J-quotient, where being
    laura is equivalent; the note records this.  The verdict NotLaura
    always carries a witness, and conversely.  Computed once per
    presentation; the report is immutable.
    """
    return p.cached("classify", lambda: _classify(p))


def _classify(p):
    notes = []
    if validate_string_algebra(p).is_valid:
        work = p
    else:
        if not validate_special_biserial(p).is_valid:
            raise PreconditionError(
                "classification needs a string or special biserial presentation"
            )
        work = monomial_form(p)
        notes.append(
            "special biserial input: verdict computed on the J-quotient, "
            "where being laura is equivalent"
        )
    witness = find_doze(work)
    if witness is not None:
        notes.append("band census omitted: only complete without interlaced double-zeros")
        return ClassificationReport(NOT_LAURA, witness, (), tuple(notes), work)
    census = band_census(work)
    infos = tuple(BandInfo(b, band_boundary(work, b)) for b in census)
    if not census:
        return ClassificationReport(FINITE_TYPE, None, infos, tuple(notes), work)
    if len(census) == 1 and not infos[0].boundary.entering and not infos[0].boundary.exiting:
        b = census[0]
        covers = walk_arrows(b.walk) == set(work.quiver.arrow) and set(
            walk_vertices(work.quiver, b.walk)
        ) == set(work.quiver.vertices)
        if covers:
            return ClassificationReport(
                HEREDITARY_SINGLE_BAND, None, infos, tuple(notes), work
            )
        notes.append("boundary-free band does not cover the quiver (disconnected input)")
    if any(i.boundary.entering and i.boundary.exiting for i in infos):
        return ClassificationReport(QUASI_TILTED_CANONICAL, None, infos, tuple(notes), work)
    return ClassificationReport(STRICT_LAURA_OR_TILTED, None, infos, tuple(notes), work)
