"""Exact quiver representations over the rationals.

String modules, indecomposable projectives and injectives, radical and
socle series, projective covers and injective envelopes, the syzygy-based
pd >= 2 / id >= 2 tests, the pumped module family of a DOZE witness, and
the scan for modules with both homological dimensions at least two.

Two routes compute the homology of a string module.  The general route
builds the representation and works with 0/1 integer matrices and exact
rational solves; nothing there depends on a characteristic.  Its
projectives and injectives have the paths outside the ideal as bases,
which is right only for a monomial presentation, so any other is
refused with PreconditionError (pass to the J-quotient first).  Over a
string algebra, the combinatorial route (`string_cover`, `string_syzygy`,
`string_pd_at_least_2`, `string_id_at_least_2`) reads the projective
cover and the first syzygy off the string in time linear in its length,
with no linear algebra; it is just as exact, and `conjecture_scan` uses it
whenever it applies.  The general route is its test oracle.
"""

from . import exactla as la
from ._value import Value
from .automaton import strings_of_length
from .errors import CorruptPresentationError, DozedStringAnomaly, PreconditionError
from .presentation import has_window, validate_string_algebra
from .walks import Walk, direct, inverse, is_string, walk_vertices


class Representation:
    """Vector spaces per vertex, matrices per arrow.

    maps[a] has shape dims[target(a)] x dims[source(a)] and acts on
    column vectors; every zero generator's composite must vanish.
    """

    def __init__(self, p, dims, maps, check=True):
        self.p = p
        q = p.quiver
        self.dims = {v: int(dims.get(v, 0)) for v in q.vertices}
        self.maps = {}
        for a in q.arrows:
            m = maps.get(a.name)
            if m is None:
                m = la.zeros(self.dims[a.target], self.dims[a.source])
            if len(m) != self.dims[a.target] or (
                m and len(m[0]) != self.dims[a.source]
            ):
                raise CorruptPresentationError(f"map for {a.name} has the wrong shape")
            self.maps[a.name] = m
        if check:
            self._check_relations()

    def _check_relations(self):
        for g in self.p.zero_paths:
            m = self.path_matrix(g)
            if any(any(row) for row in m):
                raise CorruptPresentationError(
                    f"composite along zero generator {'.'.join(g)} does not vanish"
                )

    def path_matrix(self, names):
        """Composite matrix of an oriented path, first arrow applied first."""
        q = self.p.quiver
        start = self.dims[q.arrow[names[0]].source]
        m = la.identity(start)
        for n in names:
            m = la.matmul(self.maps[n], m, ncols=start)
        return m

    @property
    def total_dim(self):
        return sum(self.dims.values())

    def dimension_vector(self):
        return dict(self.dims)

    def __repr__(self):
        vec = {v: d for v, d in sorted(self.dims.items()) if d}
        return f"Representation(dim={self.total_dim}, {vec})"


class ModuleMap:
    """Per-vertex blocks commuting with every arrow matrix."""

    def __init__(self, source, target, blocks, check=True):
        self.source = source
        self.target = target
        q = source.p.quiver
        self.blocks = {}
        for v in q.vertices:
            b = blocks.get(v)
            if b is None:
                b = la.zeros(target.dims[v], source.dims[v])
            self.blocks[v] = b
        if check:
            self._check_natural()

    def _check_natural(self):
        q = self.source.p.quiver
        for a in q.arrows:
            n = self.source.dims[a.source]
            left = la.matmul(self.target.maps[a.name], self.blocks[a.source], ncols=n)
            right = la.matmul(self.blocks[a.target], self.source.maps[a.name], ncols=n)
            if left != right:
                raise CorruptPresentationError(f"map not natural at arrow {a.name}")

    def is_injective(self):
        return all(
            la.rank(b) == self.source.dims[v] for v, b in self.blocks.items()
        )

    def is_surjective(self):
        return all(
            la.rank(b) == self.target.dims[v] for v, b in self.blocks.items()
        )


def zero_representation(p):
    return Representation(p, {}, {}, check=False)


def simple_module(p, x):
    return Representation(p, {x: 1}, {}, check=False)


def string_module(p, w):
    """One basis vector per vertex passage; each letter contributes an
    identity entry oriented by its direction."""
    if not is_string(p, w):
        raise PreconditionError("string_module needs a string")
    q = p.quiver
    verts = walk_vertices(q, w)
    index = {}
    dims = {}
    for i, v in enumerate(verts):
        index[i] = (v, dims.get(v, 0))
        dims[v] = dims.get(v, 0) + 1
    maps = {
        a.name: la.zeros(dims.get(a.target, 0), dims.get(a.source, 0))
        for a in q.arrows
    }
    for i, letter in enumerate(w.letters):
        if letter.inverse:
            _, src = index[i + 1]
            _, tgt = index[i]
        else:
            _, src = index[i]
            _, tgt = index[i + 1]
        maps[letter.arrow][tgt][src] = 1
    return Representation(p, dims, maps)


def _ideal_avoiding_paths(p, x, forward):
    """Ideal-avoiding oriented paths starting (forward) or ending at x,
    each with its far end vertex, sorted by length then arrow names.

    They are a basis of P(x) or I(x) only when the ideal is monomial; a
    commutativity relation would identify two of them, so it is refused.
    """
    if not p.is_monomial:
        kind = "projective" if forward else "injective"
        raise PreconditionError(f"{kind} needs a monomial presentation")
    q = p.quiver
    index = p.zero_index()
    out = []
    stack = [((), x)]
    while stack:
        path, v = stack.pop()
        out.append((path, v))
        for a in q.out_arrows(v) if forward else q.in_arrows(v):
            new = path + (a.name,) if forward else (a.name,) + path
            if not has_window(new, index):
                stack.append((new, a.target if forward else a.source))
    return sorted(out, key=lambda t: (len(t[0]), t[0]))


def _projective_data(p, x):
    paths = _ideal_avoiding_paths(p, x, forward=True)
    basis = {}
    index = {}
    for path, v in paths:
        index[path] = (v, len(basis.setdefault(v, [])))
        basis[v].append(path)
    dims = {v: len(b) for v, b in basis.items()}
    q = p.quiver
    maps = {a.name: la.zeros(dims.get(a.target, 0), dims.get(a.source, 0)) for a in q.arrows}
    for path, v in paths:
        for a in q.out_arrows(v):
            new = path + (a.name,)
            if new in index:
                maps[a.name][index[new][1]][index[path][1]] = 1
    rep = Representation(p, dims, maps)
    return rep, basis


def _injective_data(p, x):
    paths = _ideal_avoiding_paths(p, x, forward=False)
    basis = {}
    index = {}
    for path, v in paths:
        index[path] = (v, len(basis.setdefault(v, [])))
        basis[v].append(path)
    dims = {v: len(b) for v, b in basis.items()}
    q = p.quiver
    maps = {a.name: la.zeros(dims.get(a.target, 0), dims.get(a.source, 0)) for a in q.arrows}
    for path, v in paths:
        # the arrow action chops the first arrow off a path ending at x
        if path:
            maps[path[0]][index[path[1:]][1]][index[path][1]] = 1
    rep = Representation(p, dims, maps)
    return rep, basis


def projective(p, x):
    """Indecomposable projective with top S_x."""
    return p.cached(("projective", x), lambda: _projective_data(p, x))[0]


def injective(p, x):
    """Indecomposable injective with socle S_x."""
    return p.cached(("injective", x), lambda: _injective_data(p, x))[0]


def _sub_representation(M, vectors):
    """(subrep, inclusion) spanned by per-vertex column lists."""
    p = M.p
    q = p.quiver
    dims = {v: len(vectors.get(v, [])) for v in q.vertices}
    incl_blocks = {}
    for v in q.vertices:
        cols = vectors.get(v, [])
        incl_blocks[v] = (
            [[c[i] for c in cols] for i in range(M.dims[v])] if cols else la.zeros(M.dims[v], 0)
        )
    maps = {}
    for a in q.arrows:
        src_cols = vectors.get(a.source, [])
        images = [la.matvec(M.maps[a.name], c) for c in src_cols]
        tgt = incl_blocks[a.target]
        sol = la.solve_matrix(tgt, images, ncols=dims[a.target])
        if sol is None:
            raise CorruptPresentationError("sub-representation is not arrow-closed")
        maps[a.name] = (
            [[sol[j][i] for j in range(len(sol))] for i in range(dims[a.target])]
            if sol
            else la.zeros(dims[a.target], 0)
        )
    sub = Representation(p, dims, maps)
    return sub, ModuleMap(sub, M, incl_blocks)


def _quotient_representation(M, vectors):
    """(quotient, projection) by the subspace spanned per vertex."""
    p = M.p
    q = p.quiver
    proj_blocks = {}
    qdims = {}
    for v in q.vertices:
        n = M.dims[v]
        cols = vectors.get(v, [])
        k = len(la.independent_columns(
            [[c[i] for c in cols] for i in range(n)] if cols else la.zeros(n, 0),
            ncols=len(cols),
        ))
        stacked = [[c[i] for c in cols] + row for i, row in enumerate(la.identity(n))]
        chosen = la.independent_columns(stacked, ncols=len(cols) + n)
        free = [j - len(cols) for j in chosen if j >= len(cols)]
        qdims[v] = n - k
        if len(free) != qdims[v]:
            raise CorruptPresentationError("quotient basis extraction failed")
        basis_cols = [
            [c[i] for i in range(n)] for c in cols
        ] + [[1 if i == j else 0 for i in range(n)] for j in free]
        full = [[basis_cols[j][i] for j in range(len(basis_cols))] for i in range(n)]
        coords = la.solve_matrix(full, la.identity(n), ncols=len(basis_cols))
        if coords is None:
            raise CorruptPresentationError("quotient coordinates failed")
        proj_blocks[v] = [
            [coords[e][len(cols) + r] for e in range(n)] for r in range(qdims[v])
        ]
    maps = {}
    for a in q.arrows:
        src_free = proj_blocks[a.source]
        n_src = M.dims[a.source]
        lift_cols = []
        if qdims[a.source]:
            sol = la.solve_matrix(proj_blocks[a.source], la.identity(qdims[a.source]), ncols=n_src)
            if sol is None:
                raise CorruptPresentationError("quotient lift failed")
            lift_cols = sol
        mat = la.zeros(qdims[a.target], qdims[a.source])
        for j, lift in enumerate(lift_cols):
            img = la.matvec(M.maps[a.name], lift)
            down = la.matvec(proj_blocks[a.target], img)
            for i, val in enumerate(down):
                mat[i][j] = val
        maps[a.name] = mat
    quot = Representation(p, qdims, maps)
    return quot, ModuleMap(M, quot, proj_blocks)


def _radical_basis(M):
    """Per vertex, a column basis of the sum of all arrow images."""
    q = M.p.quiver
    vectors = {}
    for v in q.vertices:
        cols = []
        for a in q.in_arrows(v):
            mat = M.maps[a.name]
            for j in range(M.dims[a.source]):
                col = [mat[i][j] for i in range(M.dims[v])]
                if any(col):
                    cols.append(col)
        vectors[v] = la.column_space_basis(cols)
    return vectors


def radical(M):
    """(rad M, inclusion): the sum of all arrow images."""
    return _sub_representation(M, _radical_basis(M))


def top(M):
    """(top M, projection): M modulo its radical."""
    return _quotient_representation(M, _radical_basis(M))


def socle(M):
    """(soc M, inclusion): the joint kernel of all outgoing arrows."""
    q = M.p.quiver
    vectors = {}
    for v in q.vertices:
        stacked = []
        for a in q.out_arrows(v):
            stacked.extend(M.maps[a.name])
        if stacked:
            vectors[v] = la.kernel_basis(stacked, ncols=M.dims[v])
        else:
            vectors[v] = [
                [1 if i == j else 0 for i in range(M.dims[v])] for j in range(M.dims[v])
            ]
    return _sub_representation(M, vectors)


def kernel(f):
    """(ker f, inclusion) of a module map."""
    M = f.source
    vectors = {
        v: la.kernel_basis(f.blocks[v], ncols=M.dims[v]) for v in M.p.quiver.vertices
    }
    return _sub_representation(M, vectors)


def cokernel(f):
    """(coker f, projection) of a module map."""
    N = f.target
    vectors = {}
    for v in N.p.quiver.vertices:
        b = f.blocks[v]
        cols = [[b[i][j] for i in range(len(b))] for j in range(f.source.dims[v])]
        vectors[v] = la.column_space_basis(cols)
    return _quotient_representation(N, vectors)


def projective_cover(p, M):
    """(P, cover) with P the direct sum of one projective per top basis
    vector and cover the lift of the top identification."""
    T, proj = top(M)
    summands = []
    for v in sorted(p.quiver.vertices):
        t = T.dims[v]
        if not t:
            continue
        lifts = la.solve_matrix(proj.blocks[v], la.identity(t), ncols=M.dims[v])
        if lifts is None:
            raise CorruptPresentationError("top lift failed")
        for i in range(t):
            summands.append((v, lifts[i]))
    return _assemble_cover(p, M, summands)


def _assemble_cover(p, M, summands):
    q = p.quiver
    dims = {v: 0 for v in q.vertices}
    offsets = []
    bases = []
    for v, _lift in summands:
        _, basis = p.cached(("projective", v), lambda v=v: _projective_data(p, v))
        bases.append(basis)
        offsets.append({w: dims[w] for w in q.vertices})
        for w, paths in basis.items():
            dims[w] += len(paths)
    maps = {a.name: la.zeros(dims[a.target], dims[a.source]) for a in q.arrows}
    blocks = {v: la.zeros(M.dims[v], dims[v]) for v in q.vertices}
    for k, (v, lift) in enumerate(summands):
        basis = bases[k]
        index = {}
        for w, paths in basis.items():
            for i, path in enumerate(paths):
                index[path] = (w, offsets[k][w] + i)
        for w, paths in basis.items():
            for i, path in enumerate(paths):
                col = offsets[k][w] + i
                vec = list(lift)
                for n in path:
                    vec = la.matvec(M.maps[n], vec)
                for r, val in enumerate(vec):
                    blocks[w][r][col] = val
                for a in q.out_arrows(w):
                    new = path + (a.name,)
                    if new in index:
                        maps[a.name][index[new][1]][col] = 1
    P = Representation(p, dims, maps)
    cover = ModuleMap(P, M, blocks)
    if not cover.is_surjective():
        raise CorruptPresentationError("projective cover is not surjective")
    return P, cover


def injective_envelope(p, M, second_solution=False):
    """(I, embedding) with I the direct sum of one injective per socle
    basis vector.

    The embedding is any solution of the naturality system that extends
    the socle matching; its kernel meets the socle trivially, so it is
    injective.  With second_solution=True a third value is returned: a
    different solution when the system is underdetermined, else None
    (cokernel dimensions do not depend on the choice; a test asserts it).
    """
    S, incl = socle(M)
    summands = []
    for v in sorted(p.quiver.vertices):
        for j in range(S.dims[v]):
            col = [incl.blocks[v][i][j] for i in range(M.dims[v])]
            summands.append((v, col))
    q = p.quiver
    dims = {v: 0 for v in q.vertices}
    socle_rows = []
    bases = []
    offsets = []
    for v, _vec in summands:
        _, basis = p.cached(("injective", v), lambda v=v: _injective_data(p, v))
        bases.append(basis)
        offsets.append({w: dims[w] for w in q.vertices})
        socle_rows.append(dims[v] + basis[v].index(()))
        for w, paths in basis.items():
            dims[w] += len(paths)
    maps = {a.name: la.zeros(dims[a.target], dims[a.source]) for a in q.arrows}
    for k, (v, _vec) in enumerate(summands):
        basis = bases[k]
        index = {}
        for w, paths in basis.items():
            for i, path in enumerate(paths):
                index[path] = offsets[k][w] + i
        for w, paths in basis.items():
            for i, path in enumerate(paths):
                if path:
                    maps[path[0]][index[path[1:]]][index[path]] = 1
    I = Representation(p, dims, maps)

    var_offset = {}
    nvars = 0
    for v in q.vertices:
        var_offset[v] = nvars
        nvars += I.dims[v] * M.dims[v]

    def var(v, r, c):
        return var_offset[v] + r * M.dims[v] + c

    rows = []
    rhs = []
    # naturality: f_t . M_a = I_a . f_s for every arrow a
    for a in q.arrows:
        s, t = a.source, a.target
        for r in range(I.dims[t]):
            for c in range(M.dims[s]):
                row = [0] * nvars
                for k2 in range(M.dims[t]):
                    if M.maps[a.name][k2][c]:
                        row[var(t, r, k2)] += M.maps[a.name][k2][c]
                for k2 in range(I.dims[s]):
                    if I.maps[a.name][r][k2]:
                        row[var(s, k2, c)] -= I.maps[a.name][r][k2]
                if any(row):
                    rows.append(row)
                    rhs.append(0)
    # socle matching: f_v sends the k-th socle vector to the k-th
    # summand's socle line
    for k, (v, vec) in enumerate(summands):
        for r in range(I.dims[v]):
            row = [0] * nvars
            for c in range(M.dims[v]):
                if vec[c]:
                    row[var(v, r, c)] = vec[c]
            rows.append(row)
            rhs.append(1 if r == socle_rows[k] else 0)

    sol = la.solve(rows, rhs) if rows else []
    if sol is None:
        raise CorruptPresentationError("injective envelope system is inconsistent")
    sol = list(sol) + [0] * (nvars - len(sol))

    def blocks_of(values):
        blocks = {}
        for v in q.vertices:
            b = la.zeros(I.dims[v], M.dims[v])
            for r in range(I.dims[v]):
                for c in range(M.dims[v]):
                    b[r][c] = values[var(v, r, c)]
            blocks[v] = b
        return blocks

    embed = ModuleMap(M, I, blocks_of(sol))
    if not embed.is_injective():
        raise CorruptPresentationError("injective envelope embedding is not injective")
    if not second_solution:
        return I, embed
    null = la.kernel_basis(rows, ncols=nvars) if rows else []
    other = None
    if null:
        alt = [s + n for s, n in zip(sol, null[0])]
        other = ModuleMap(M, I, blocks_of(alt))
    return I, embed, other


def syzygy(p, M):
    """Kernel of the projective cover."""
    _P, cover = projective_cover(p, M)
    K, _ = kernel(cover)
    return K


def cosyzygy(p, M):
    """Cokernel of the injective envelope."""
    _I, embed = injective_envelope(p, M)
    C, _ = cokernel(embed)
    return C


def is_projective_module(p, M):
    P, _ = projective_cover(p, M)
    return P.total_dim == M.total_dim


def is_injective_module(p, M):
    I, _ = injective_envelope(p, M)
    return I.total_dim == M.total_dim


def pd_at_least_2(p, M):
    """Not projective, and the first syzygy is not projective either."""
    P, cover = projective_cover(p, M)
    if P.total_dim == M.total_dim:
        return False
    K, _ = kernel(cover)
    P2, _ = projective_cover(p, K)
    return P2.total_dim != K.total_dim


def id_at_least_2(p, M):
    """Not injective, and the first cosyzygy is not injective either."""
    I, embed = injective_envelope(p, M)
    if I.total_dim == M.total_dim:
        return False
    C, _ = cokernel(embed)
    I2, _ = injective_envelope(p, C)
    return I2.total_dim != C.total_dim


def dual_module(p, M):
    """The dual representation over the opposite presentation."""
    pop = p.cached("opposite", p.opposite)
    maps = {}
    for a in p.quiver.arrows:
        m = M.maps[a.name]
        rows, cols = M.dims[a.target], M.dims[a.source]
        maps[a.name] = [[m[i][j] for i in range(rows)] for j in range(cols)]
    return Representation(pop, dict(M.dims), maps)


def id_at_least_2_dual(p, M):
    """Same verdict as id_at_least_2, computed as pd >= 2 of the dual
    module over the opposite algebra (cheaper; no linear solve)."""
    pop = p.cached("opposite", p.opposite)
    return pd_at_least_2(pop, dual_module(p, M))


def dozed_string(witness, n):
    """The pumped walk minus two outermost arrows at each end."""
    assembled = witness.assembled(n)
    q = witness.p.quiver
    verts = walk_vertices(q, assembled)
    letters = assembled.letters[2:-2]
    return Walk(verts[2], letters)


def dozed_module(p, witness, n):
    """String module of the power-n pumped walk; fails loudly when the
    trimmed walk is not a string (possible only at n = 0, when removing
    the band merges two runs across a generator)."""
    w = dozed_string(witness, n)
    if not is_string(p, w):
        raise DozedStringAnomaly(
            f"pumped walk at power {n} is not a string; "
            "the witness factorization needs manual review",
            walk=w,
        )
    return string_module(p, w)


# --- string modules over a string algebra, read off the string ----------------
#
# Over a monomial string algebra the projective cover of M(w) is one P(x)
# per peak of w, and the first syzygy is a direct sum of string modules
# with a single top each: one per valley and one per end of w
# (Butler-Ringel, Comm. Algebra 15, 1987; Huisgen-Zimmermann, Manuscripta
# Math. 70, 1991).  A summand with top t is projective iff its dimension
# is dim P(t).  The exact route above stays the reference for all of it.
#
# Reading w left to right, a direct letter descends and an inverse letter
# ascends: passage i is a peak when no letter next to it points into it,
# and a valley when both letters next to it do.


def _is_string_algebra(p):
    return p.cached("is_string_algebra", lambda: validate_string_algebra(p).is_valid)


def _require_string_algebra(p, what):
    if not _is_string_algebra(p):
        raise PreconditionError(f"{what} needs a string algebra presentation")


class _StringHomology:
    """The presentation's lookups the combinatorial route needs, fetched
    once: the quiver, the zero-generator index and how many trailing
    arrows can still complete a generator.  Holds no reference to the
    presentation, which caches it."""

    def __init__(self, p):
        self.quiver = p.quiver
        self.index = p.zero_index()
        self.keep = p.max_generator_length() - 1
        self.dims = {}

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

    def syzygy_summands(self, w):
        """(top, C_L, C_R) per direct summand M(C_L^-1 C_R) of the first
        syzygy of M(w), with C_L and C_R paths from top."""
        q = self.quiver
        letters = w.letters
        n = len(letters)
        verts = walk_vertices(q, w)
        # an end gives the continuation of the descent reaching it or, at a
        # peak, the branch of P(x) along each out-arrow w does not use there
        ends = []
        for j in sorted({0, n}):
            if _is_peak(letters, j):
                used = {letters[k].arrow for k in (j - 1, j) if 0 <= k < n}
                ends += [((), verts[j], a.name) for a in q.out_arrows(verts[j]) if a.name not in used]
            elif j == 0:
                ends.append((_descent_from_right(letters, 0), verts[0], None))
            else:
                ends.append((_descent_from_left(letters, n), verts[n], None))
        for head, at, first in ends:
            u = self.continuation(head, at, first)
            if u:
                yield q.arrow[u[0]].target, (), u[1:]
        for j in range(1, n):
            if not letters[j - 1].inverse and letters[j].inverse:
                v = verts[j]
                left = self.continuation(_descent_from_left(letters, j), v)
                right = self.continuation(_descent_from_right(letters, j), v)
                yield v, left, right

    def pd_at_least_2(self, w):
        """Some syzygy summand of M(w) is not projective.  A projective
        M(w) has no syzygy summands at all."""
        return any(
            1 + len(left) + len(right) != self.projective_dim(top)
            for top, left, right in self.syzygy_summands(w)
        )


def _string_homology(p):
    return p.cached("string_homology", lambda: _StringHomology(p))


def _opposite_string(w):
    """The string of D M(w) over the opposite algebra: every letter's
    direction flipped."""
    return Walk(w.base, tuple(l.inverted() for l in w.letters))


def _is_peak(letters, i):
    return (i == 0 or letters[i - 1].inverse) and (i == len(letters) or not letters[i].inverse)


def _descent_from_left(letters, j):
    """The direct run ending at passage j, as an oriented path."""
    i = j
    while i > 0 and not letters[i - 1].inverse:
        i -= 1
    return tuple(l.arrow for l in letters[i:j])


def _descent_from_right(letters, j):
    """The inverse run starting at passage j, as an oriented path."""
    i = j
    while i < len(letters) and letters[i].inverse:
        i += 1
    return tuple(l.arrow for l in reversed(letters[j:i]))


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
    out = []
    for top, left, right in _string_homology(p).syzygy_summands(w):
        base = q.arrow[left[-1]].target if left else top
        body = tuple(inverse(a) for a in reversed(left)) + tuple(direct(a) for a in right)
        out.append(Walk(base, body))
    return tuple(out)


def string_pd_at_least_2(p, w):
    """pd M(w) >= 2, without linear algebra: some syzygy summand is not
    projective.  A projective M(w) has no syzygy summands at all."""
    _require_string_algebra(p, "string_pd_at_least_2")
    return _string_homology(p).pd_at_least_2(w)


def string_id_at_least_2(p, w):
    """id M(w) >= 2 as pd >= 2 over the opposite algebra: D M(w) is the
    string module of w with every letter's direction flipped."""
    _require_string_algebra(p, "string_id_at_least_2")
    pop = p.cached("opposite", p.opposite)
    return string_pd_at_least_2(pop, _opposite_string(w))


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
    builds no matrix.  Other monomial presentations take the exact
    linear-algebra route: `string_module`, `pd_at_least_2` and, for the
    injective side, `id_at_least_2_dual` through the opposite algebra.
    """
    if not p.is_monomial:
        raise PreconditionError("conjecture_scan needs a monomial presentation")
    if _is_string_algebra(p):
        # checked once here; the opposite of a string algebra is one too
        pd = _string_homology(p).pd_at_least_2
        pd_op = _string_homology(p.cached("opposite", p.opposite)).pd_at_least_2

        def both(w):
            return pd(w) and pd_op(_opposite_string(w))
    else:

        def both(w):
            M = string_module(p, w)
            return pd_at_least_2(p, M) and id_at_least_2_dual(p, M)

    # strings_of_length lists the strings in Walk.key order
    witnesses = tuple(w for w in strings_of_length(p, range(min_len, max_len + 1)) if both(w))
    return ScanResult(len(witnesses), witnesses)


def rep_to_sparse(M):
    """Dimension vector plus sparse (row, col, value) triples per arrow."""
    entries = {}
    for name, mat in sorted(M.maps.items()):
        triples = []
        for i, row in enumerate(mat):
            for j, val in enumerate(row):
                if val:
                    triples.append([i, j, int(val) if val == int(val) else str(val)])
        if triples:
            entries[name] = triples
    return {"dims": {v: d for v, d in sorted(M.dims.items()) if d}, "maps": entries}
