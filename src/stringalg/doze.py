"""Double-zeros, interlaced double-zeros, and the laura classifier.

A double-zero is a reduced walk of the shape rho1 . middle . rho2 where
both zero generators are traversed forwards and the interior (the walk
minus its outermost arrow at each end) is a string.  An interlaced
double-zero (DOZE) additionally factors the middle as w1 . band . w3;
pumping the band then produces double-zeros of every power, which is
what kills laura-ness.  One check certifies every power: the presented
algebra is finite dimensional (so is its J-quotient), so no band runs
in one direction, and each same-direction run of the pumped walk meets
at most one junction between band copies.  Every run and letter pair of
a power n >= 2 then already occurs in the n = 1 walk or in band . band
(the run lemma; see `walks.is_band` and `_validate_witness`).

The exact decisions run on the string automaton.  A witness exists iff
some state reachable from a just-consumed generator lies on a cycle and
can reach a generator-completing step, which one backward pass from the
completing states decides; a double-zero exists iff some generator's
start reaches a completion far enough on, which one backward `reach`
over (state, letters still needed) pairs decides.  The brute-force
enumerator is kept deliberately naive so the two can act as independent
oracles for each other: it extends walks letter by letter and matches
each run's ends against the zero generators through `p.zero_index()`,
with no automaton.  Both check their witness with `_validate_witness`.

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
    """A zero generator read forwards, as a walk of direct letters; names
    must be a path of quiver, which is not checked again."""
    return Walk(quiver.arrow[names[0]].source, tuple(direct(n) for n in names))


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
    index = p.zero_index()
    if rho1 not in index.get(len(rho1), ()) or rho2 not in index.get(len(rho2), ()):
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

    def _middle(self, n):
        q = self.p.quiver
        return concat_walks(q, self.w1, cyclic_power(q, self.band, n), self.w3)

    def assembled(self, n):
        """The walk rho1 . w1 . band^n . w3 . rho2 of a certified witness."""
        q = self.p.quiver
        return concat_walks(
            q, generator_walk(q, self.rho1), self._middle(n), generator_walk(q, self.rho2)
        )

    def double_zero(self, n):
        return make_double_zero(self.p, self.rho1, self._middle(n), self.rho2)

    def pumps_cleanly_at(self, n):
        """Whether assembled(n) still satisfies the double-zero invariants.

        True for every n >= 1 on a validated witness, which certifies
        them all by the run lemma (`_validate_witness`); can
        legitimately fail at n = 0 when deleting the band merges two
        runs over a generator.
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
    is a double-zero for every n >= 1: the band test, then
    `w.double_zero(1)`, whose chain, generator and walk checks raise the
    errors of every other power in the same order.

    By the run lemma (`walks.is_band`) a band mixes directions, so each
    same-direction run of u . band^n . v meets at most one junction
    between copies: a run reaching into u or v ends inside the copy next
    to it, as in the n = 1 walk, and every other run, letter pair and
    junction lies in band . band, which `is_band` checked.  So n = 1
    decides every n >= 1; the premise is that the presentation is finite
    dimensional, as every `Presentation` is.
    """
    if not is_band(w.p, w.band):
        raise CorruptPresentationError("witness band is not a band")
    w.double_zero(1)
    return w


def _zero_generator(index, run, at_start=False):
    """The zero generator that ends the run of arrows (starts it, with
    `at_start`), or None, looked up in a `zero_index`: the generators are
    an antichain, so at most one does."""
    for m, group in index.items():
        window = tuple(run[:m] if at_start else run[-m:])
        if window in group:
            return window
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
    index = p.zero_index()
    results = []
    visits = 0
    for g in p.zero_paths:
        l = len(g)
        if l + 2 > max_len:
            continue
        seed = [direct(a) for a in g]
        arr = q.arrow[g[-1]]
        # Depth-first with an explicit stack (walks can be far longer than
        # the recursion limit); children are pushed in reverse so they are
        # visited in candidate order.
        stack = [(seed, arr.target, False, list(g[1:]), 0)]
        while stack:
            letters, vertex, tail_inv, tail, depth = stack.pop()
            visits += 1
            if node_budget is not None and visits > node_budget:
                raise SearchBudgetExceeded("double-zero enumeration budget exhausted")
            last = letters[-1]
            total = len(letters)
            # completion: a direct letter finishing a generator occurrence
            # that is disjoint from rho1 (depth >= len(gen) - 1)
            if not last.inverse and total + 1 <= max_len:
                for a in q.out_arrows(vertex):
                    hit = _zero_generator(index, tail + [a.name])
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
                    if _zero_generator(index, run, m.inverse) is not None:
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
    carry the automaton of the full subpresentation on the part.  A
    double-zero needs its rho2, disjoint from rho1, to complete at least
    len(rho2) - 1 letters after rho1's end.  One `reach` runs backward
    over (state, part, letters still needed) triples: it starts at (f, k,
    len(rho2) - 1) for each step from a state f completing rho2 in part
    k, and steps from (t, k, n) to (s, k, max(n - 1, 0)) for each
    predecessor s of t whose arrow lies in part k, so it visits each
    (state, part) pair at most once per letter of the longest generator.
    g starts a double-zero in part k iff every arrow of g lies in part k
    and the triple (state after g[1:], k, 0) is reached."""
    aut = automaton(p)
    keys = aut.keys
    gens = p.zero_paths

    def back(node):
        t, k, n = node
        n = max(n - 1, 0)
        return [(s, k, n) for s in aut.predecessors[t] if k in parts_of.get(keys[s][0], ())]

    ends = [
        (f, k, len(gens[i]) - 1)
        for f, done in aut.completing.items()
        for k in parts_of.get(keys[f][0], ())
        for i, x in done
        if k in parts_of.get(x, ())
    ]
    reached = reach(ends, back)
    return {
        k
        for i, g in enumerate(gens)
        for k in parts_of.get(g[0], ())
        if all(k in parts_of.get(n, ()) for n in g)
        and (aut.generator_state(i), k, 0) in reached
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
    band and every power n >= 1 gives a double-zero, which
    `_validate_witness` certifies from n = 1 and band . band.
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
        q, w1_letters = aut.bfs([s0], hot)
        f, path = aut.bfs([q], completing)
        completion = min(completing[f], key=lambda c: (gens[c[0]], c[1]))
        return _assemble_witness(p, aut, g, q, w1_letters, completion, path)
    return None


def _assemble_witness(p, aut, g, q, w1_letters, completion, path):
    """The witness from rho1 = g, the letters w1 from g's end to the cycle
    state q, and the letters `path` from q to a state that the step
    `completion` = (generator index, arrow) completes."""
    quiver = p.quiver
    gen_idx, xarrow = completion
    g2 = p.zero_paths[gen_idx]
    cycle_letters = aut.shortest_cycle_at(q)
    root = list(primitive_root(cycle_letters))
    if aut.follow(q, root) != q:
        raise CorruptPresentationError("primitive root does not stabilize its state")
    # the root starts with a letter leaving q, at q's end vertex
    band = make_cyclic(quiver, Walk(letter_ends(quiver, root[0])[0], tuple(root)))
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
    w1 = Walk(rho1_end, tuple(w1_letters))
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
    """`analyzed` is `monomial_form` of the classified presentation; no
    `stringalg` code reads it, and it stays only for the benchmark's
    corpus oracle, which reads it off the cached report."""

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
