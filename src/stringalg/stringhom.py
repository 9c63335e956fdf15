"""String modules over a string algebra, read off the string.

The string module M(w) has one basis vector per vertex passage of w and,
per letter, one entry 1 oriented by the letter's direction;
`string_entries` reads its dimension vector and those entries straight
off the walk.  Its homology is read off the string too: the projective
cover (`string_cover`), the first syzygy (`string_syzygy`) and the pd >= 2
/ id >= 2 thresholds (`string_pd_at_least_2`, `string_id_at_least_2`),
each in time linear in the string's length, with no linear algebra.
`conjecture_scan` counts the strings whose modules pass both thresholds,
and `dozed_string` is the string of a pumped DOZE witness.

Nothing here builds a matrix.  The matrix route in `rep` is the general
homology route and this module's test oracle; `conjecture_scan` imports
it only for a monomial presentation that is not a string algebra.
"""

from ._value import Value
from .automaton import strings_of_length
from .errors import DozedStringAnomaly, PreconditionError
from .presentation import has_window, validate_string_algebra, window_index
from .walks import Walk, direct, inverse, is_string, walk_vertices


def string_entries(p, w):
    """(dims, entries) of the string module M(w): the nonzero dimensions
    by vertex, and per arrow with a letter in w its sorted (row, col, 1)
    entries, arrows in name order.  Passage i is the basis vector numbered
    by how many earlier passages share its vertex; a letter maps the
    passage at its source end to the one at its target end."""
    if not is_string(p, w):
        raise PreconditionError("string_module needs a string")
    dims, index = {}, []
    for v in walk_vertices(p.quiver, w):
        index.append(dims.get(v, 0))
        dims[v] = index[-1] + 1
    entries = {}
    for i, (arrow, inv) in enumerate(w.letters):
        src, tgt = (i + 1, i) if inv else (i, i + 1)
        entries.setdefault(arrow, []).append((index[tgt], index[src], 1))
    return (
        {v: dims[v] for v in sorted(dims)},
        {a: sorted(entries[a]) for a in sorted(entries)},
    )


def dozed_string(witness, n):
    """The pumped walk minus two outermost arrows at each end."""
    assembled = witness.assembled(n)
    verts = walk_vertices(witness.p.quiver, assembled)
    return Walk(verts[2], assembled.letters[2:-2])


def dozed_module_string(p, witness, n):
    """`dozed_string`, failing loudly when it is not a string (possible
    only at n = 0, when removing the band merges two runs over a
    generator)."""
    w = dozed_string(witness, n)
    if not is_string(p, w):
        raise DozedStringAnomaly(
            f"pumped walk at power {n} is not a string; "
            "the witness factorization needs manual review",
            walk=w,
        )
    return w


# --- homology ------------------------------------------------------------------
#
# Over a monomial string algebra the projective cover of M(w) is one P(x)
# per peak of w, and the first syzygy is a direct sum of string modules
# with a single top each: one per valley and one per end of w
# (Butler-Ringel, Comm. Algebra 15, 1987; Huisgen-Zimmermann, Manuscripta
# Math. 70, 1991).  A summand with top t is projective iff its dimension
# is dim P(t).  The matrix route in `rep` stays the reference for all of it.
#
# Reading w left to right, a direct letter descends and an inverse letter
# ascends: passage i is a peak when no letter next to it points into it,
# and a valley when both letters next to it do.
#
# A summand depends only on its site: the vertex it hangs from and, for
# each descent into that vertex, the window of its last
# keep = max_generator_length() - 1 arrows, since no longer suffix can
# complete a generator.  `_StringHomology._sites` finds the sites by
# scanning at most keep letters back or forward from each valley and end.
# There are finitely many sites per algebra, and `pd_at_least_2` memoizes
# one verdict per site, so a scan decides each site once however many
# strings share it.
#
# The injective side is read on A too.  D M(w) is the string module over
# A^op of w with every letter's direction flipped, and A^op has the
# reversed quiver and generators, so a dual `_StringHomology` built from
# those reads the flipped flags; no A^op presentation is built.


def _require_string_algebra(p, what):
    if not validate_string_algebra(p).is_valid:
        raise PreconditionError(f"{what} needs a string algebra presentation")


class _StringHomology:
    """The lookups the combinatorial route needs, fetched once: the quiver,
    the zero-generator index and keep, how many trailing arrows can still
    complete a generator (0 without generators), plus the memos of dim
    P(x) and of each site's verdict.  Holds no reference to the
    presentation, which caches it."""

    def __init__(self, quiver, index, keep):
        self.quiver = quiver
        self.index = index
        self.keep = keep
        self.dims = {}
        self.verdicts = {}

    def continuation(self, head, at, first=None):
        """The maximal path u from vertex `at` with head.u outside the ideal;
        head is a nonzero path ending at `at` and u starts with `first` when
        given.  Unique continuation leaves at most one arrow per step, and
        only the last max_generator_length() arrows can complete a
        generator."""
        q, index, keep = self.quiver, self.index, self.keep
        tail = tuple(head[-keep:]) if keep > 0 else ()
        choices = (q.arrow[first],) if first is not None else q.out_arrows(at)
        u = []
        while True:
            for a in choices:
                window = tail + (a.name,)
                if not has_window(window, index):
                    break
            else:
                return tuple(u)
            u.append(a.name)
            tail = window[-keep:] if keep > 0 else ()
            choices = q.out_arrows(a.target)

    def projective_dim(self, x):
        """dim P(x): the trivial path plus, per out-arrow c of x, the maximal
        nonzero path starting with c."""
        if x not in self.dims:
            self.dims[x] = 1 + sum(
                len(self.continuation((), x, a.name)) for a in self.quiver.out_arrows(x)
            )
        return self.dims[x]

    def _sites(self, base, arrows, inv):
        """The syzygy summand sites of the walk from `base` with these arrow
        names (a tuple) and inverse flags, in summand order: the j = 0 end,
        the j = n end, then the valleys left to right.

        An end site is (head window, vertex, first arrow): the window of
        the descent reaching the end, or () and one site per out-arrow the
        walk does not use at a peak end.  A valley site is
        ((left window, right window), vertex).
        """
        q, keep = self.quiver, self.keep
        if not arrows:
            for a in q.out_arrows(base):
                yield (), base, a.name
            return
        n = len(arrows)
        for a, head in (
            (q.arrow[arrows[0]], _windows(arrows, inv, 0, keep)[1] if inv[0] else None),
            (q.arrow[arrows[-1]], None if inv[-1] else _windows(arrows, inv, n, keep)[0]),
        ):
            if head is not None:
                yield head, a.target, None
            else:
                for b in q.out_arrows(a.source):
                    if b != a:
                        yield (), a.source, b.name
        arrow = q.arrow
        for j in range(1, n):
            if inv[j] and not inv[j - 1]:
                yield _windows(arrows, inv, j, keep), arrow[arrows[j]].target

    def _summand(self, site):
        """(top, C_L, C_R) of the summand M(C_L^-1 C_R) at a site, with C_L
        and C_R paths from top; None at an end with nothing to continue."""
        if len(site) == 3:
            head, at, first = site
            u = self.continuation(head, at, first)
            return (self.quiver.arrow[u[0]].target, (), u[1:]) if u else None
        (left, right), v = site
        return v, self.continuation(left, v), self.continuation(right, v)

    def _not_projective(self, site):
        s = self._summand(site)
        return s is not None and 1 + len(s[1]) + len(s[2]) != self.projective_dim(s[0])

    def pd_at_least_2(self, base, arrows, inv):
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


def _windows(arrows, inv, j, keep):
    """The windows of the descents into passage j: the last `keep` arrows
    of the direct run ending there and of the inverse run starting there,
    each read as a path into j.  The backward scan stops at index 0 rather
    than wrap round to the last letter."""
    i, stop = j, (j - keep if j > keep else 0)
    while i > stop and not inv[i - 1]:
        i -= 1
    n = len(arrows)
    k, stop = j, (j + keep if j + keep < n else n)
    while k < stop and inv[k]:
        k += 1
    return arrows[i:j], arrows[j:k][::-1]


def _string_homology(p, dual=False):
    """The `_StringHomology` of p or, with dual=True, of its opposite
    algebra, built from the reversed quiver and zero generators."""

    def make():
        keep = max(p.max_generator_length() - 1, 0)
        if dual:
            index = window_index(g[::-1] for g in p.zero_paths)
            return _StringHomology(p.quiver.opposite(), index, keep)
        return _StringHomology(p.quiver, p.zero_index(), keep)

    return p.cached(("string_homology", dual), make)


def _arrows_and_flags(w):
    """(arrow names, inverse flags) of a walk's letters, as tuples."""
    return tuple(zip(*w.letters)) or ((), ())


def _is_peak(letters, i):
    return (i == 0 or letters[i - 1].inverse) and (i == len(letters) or not letters[i].inverse)


def string_cover(p, w):
    """The tops of the projective cover of the string module M(w), one
    vertex per peak of w, read off the string (w must be a string)."""
    _require_string_algebra(p, "string_cover")
    verts = walk_vertices(p.quiver, w)
    return tuple(v for i, v in enumerate(verts) if _is_peak(w.letters, i))


def string_syzygy(p, w):
    """The first syzygy of M(w) as the strings of its direct summands, each
    with a single top.

    A valley v_j of w with descents D_L, D_R into it gives M(C_L^-1 C_R),
    where C_X is the maximal path with D_X.C_X nonzero.  An end of w gives
    M(u[1:]) based at target(u[0]), where u is the maximal nonzero
    continuation of the descent reaching that end, or, at a peak end, the
    maximal nonzero path along an out-arrow w does not use there.
    """
    _require_string_algebra(p, "string_syzygy")
    q = p.quiver
    homology = _string_homology(p)
    out = []
    for site in homology._sites(w.base, *_arrows_and_flags(w)):
        summand = homology._summand(site)
        if summand is None:
            continue
        top, left, right = summand
        base = q.arrow[left[-1]].target if left else top
        body = tuple(inverse(a) for a in reversed(left)) + tuple(direct(a) for a in right)
        out.append(Walk(base, body))
    return tuple(out)


def string_pd_at_least_2(p, w):
    """pd M(w) >= 2, without linear algebra: some syzygy summand is not
    projective.  A projective M(w) has no syzygy summands at all."""
    _require_string_algebra(p, "string_pd_at_least_2")
    return _string_homology(p).pd_at_least_2(w.base, *_arrows_and_flags(w))


def string_id_at_least_2(p, w):
    """id M(w) >= 2 as pd >= 2 of D M(w) over the opposite algebra: the
    string of w with every letter's direction flipped, read against the
    reversed quiver and generators."""
    _require_string_algebra(p, "string_id_at_least_2")
    arrows, inv = _arrows_and_flags(w)
    return _string_homology(p, dual=True).pd_at_least_2(w.base, arrows, [not f for f in inv])


class ScanResult(Value):
    _compare = ("count_both_ge2", "witnesses")

    def __init__(self, count_both_ge2, witnesses):
        object.__setattr__(self, "count_both_ge2", count_both_ge2)
        object.__setattr__(self, "witnesses", witnesses)


def conjecture_scan(p, max_len, min_len=0):
    """Canonical strings of bounded length whose modules have projective
    and injective dimension both at least two.

    Over a string algebra both tests are read off the string
    (`string_pd_at_least_2`, `string_id_at_least_2`), which is exact and
    builds no matrix.  Other monomial presentations take the matrix route
    in `rep`: `string_module`, `pd_at_least_2` and `id_at_least_2`.
    """
    if not p.is_monomial:
        raise PreconditionError("conjecture_scan needs a monomial presentation")
    if validate_string_algebra(p).is_valid:
        pd = _string_homology(p).pd_at_least_2
        pd_op = _string_homology(p, dual=True).pd_at_least_2

        def both(w):
            arrows, inv = _arrows_and_flags(w)
            return pd(w.base, arrows, inv) and pd_op(w.base, arrows, [not f for f in inv])
    else:
        from . import rep

        def both(w):
            M = rep.string_module(p, w)
            return rep.pd_at_least_2(p, M) and rep.id_at_least_2(p, M)

    # strings_of_length lists the strings in Walk.key order
    witnesses = tuple(w for w in strings_of_length(p, range(min_len, max_len + 1)) if both(w))
    return ScanResult(len(witnesses), witnesses)
