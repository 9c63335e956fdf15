"""Exact quiver representations over the rationals: the matrix route.

Representations, module maps, indecomposable projectives and injectives,
radical and socle series, kernels and cokernels, projective covers and
injective envelopes, syzygies and the pd >= 2 / id >= 2 tests, and the
pumped module family of a DOZE witness.  Everything works with 0/1
integer matrices and exact rational elimination; nothing depends on a
characteristic.  The projectives have the paths outside the ideal as
bases, which is right only for a monomial presentation, so any other is
refused with PreconditionError (pass to the J-quotient first).

Quotients, tops, cokernels and covers come from one echelon form per
vertex (`exactla.complement`): a quotient's basis is the unit vectors
the subspace leaves free, and the projective cover is one projective per
top basis vector, lifted into M as that unit vector (Assem-Simson-
Skowronski I, I.5).  Sub-modules are read off the same echelon forms
(`exactla.span`, `exactla.kernel_basis`): their bases are the identity at
known coordinates, so an arrow's matrix is its images' entries there.

The injective side is built by duality: D = Hom(-, k) sends injective
A-modules to projective A^op-modules (Assem-Simson-Skowronski I, I.5), so
I(x) is D P_{A^op}(x), the injective envelope of M is the dual of the
projective cover of D M over A^op, and id M >= 2 is pd D M >= 2.

This is the general homology route.  Over a string algebra `stringhom`
reads the same answers off the string with no matrix, and this route is
its test oracle.
"""

from . import exactla as la
from .errors import CorruptPresentationError, PreconditionError
from .graph import reach
from .presentation import has_window
from .stringhom import dozed_module_string, string_entries

# `rep.conjecture_scan` stays a name: perfbench/workloads.py calls it
from .stringhom import conjecture_scan


class Representation:
    """Vector spaces per vertex, matrices per arrow.

    maps[a] has shape dims[target(a)] x dims[source(a)] and acts on
    column vectors; every zero generator's composite must vanish.
    """

    def __init__(self, p, dims, maps):
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
        start = self.dims[self.p.quiver.arrow[names[0]].source]
        m = self.maps[names[0]]
        for n in names[1:]:
            m = la.matmul(self.maps[n], m, ncols=start)
        return m

    @property
    def total_dim(self):
        return sum(self.dims.values())

    def __repr__(self):
        vec = {v: d for v, d in sorted(self.dims.items()) if d}
        return f"Representation(dim={self.total_dim}, {vec})"


class ModuleMap:
    """Per-vertex blocks commuting with every arrow matrix."""

    def __init__(self, source, target, blocks):
        self.source = source
        self.target = target
        q = source.p.quiver
        self.blocks = {}
        for v in q.vertices:
            b = blocks.get(v)
            if b is None:
                b = la.zeros(target.dims[v], source.dims[v])
            self.blocks[v] = b
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


def string_module(p, w):
    """M(w) as matrices: the dense form of `string_entries`."""
    dims, entries = string_entries(p, w)
    maps = {}
    for a, triples in entries.items():
        arrow = p.quiver.arrow[a]
        m = maps[a] = la.zeros(dims[arrow.target], dims[arrow.source])
        for row, col, value in triples:
            m[row][col] = value
    return Representation(p, dims, maps)


def _projective_data(p, x):
    return p.cached(("projective", x), lambda: _build_projective(p, x))


def _build_projective(p, x):
    """(P(x), basis): basis maps each vertex to the ideal-avoiding paths
    from x ending there, sorted by length then arrow names.

    They are a basis of P(x) only when the ideal is monomial; a
    commutativity relation would identify two of them, so it is refused.
    """
    if not p.is_monomial:
        raise PreconditionError("projective needs a monomial presentation")
    q = p.quiver
    zero = p.zero_index()

    def succ(node):
        path, v = node
        for a in q.out_arrows(v):
            new = path + (a.name,)
            if not has_window(new, zero):
                yield new, a.target

    paths = sorted(reach([((), x)], succ), key=lambda t: (len(t[0]), t[0]))
    basis = {}
    index = {}
    for path, v in paths:
        index[path] = len(basis.setdefault(v, []))
        basis[v].append(path)
    dims = {v: len(b) for v, b in basis.items()}
    maps = {a.name: la.zeros(dims.get(a.target, 0), dims.get(a.source, 0)) for a in q.arrows}
    for path, v in paths:
        for a in q.out_arrows(v):
            new = path + (a.name,)
            if new in index:
                maps[a.name][index[new]][index[path]] = 1
    return Representation(p, dims, maps), basis


def projective(p, x):
    """Indecomposable projective with top S_x."""
    return _projective_data(p, x)[0]


def _sub_representation(M, spans):
    """(subrep, inclusion) spanned per vertex by (basis, coords), a basis
    that is the identity at the coordinates `coords`.  An arrow's matrix is
    its images of the source's basis read at the target's coordinates, and
    each image must equal its recomposition from those entries."""
    q = M.p.quiver
    incl = {v: _transposed(spans[v][0], M.dims[v]) for v in q.vertices}
    maps = {}
    for a in q.arrows:
        d = len(spans[a.source][0])
        images = la.matmul(M.maps[a.name], incl[a.source], ncols=d)
        maps[a.name] = [images[t] for t in spans[a.target][1]]
        if la.matmul(incl[a.target], maps[a.name], ncols=d) != images:
            raise CorruptPresentationError("sub-representation is not arrow-closed")
    sub = Representation(M.p, {v: len(basis) for v, (basis, _) in spans.items()}, maps)
    return sub, ModuleMap(sub, M, incl)


def _quotient_representation(M, vectors):
    """(quotient, projection) by the subspace spanned per vertex.  Its
    basis is the images of the unit vectors `complement` leaves free, so
    an arrow's matrix is the projection after the arrow, restricted to the
    source's free columns."""
    q = M.p.quiver
    split = {v: la.complement(vectors[v], M.dims[v]) for v in q.vertices}
    maps = {}
    for a in q.arrows:
        free = split[a.source][0]
        image = la.matmul(split[a.target][1], M.maps[a.name], ncols=M.dims[a.source])
        maps[a.name] = [[row[j] for j in free] for row in image]
    quot = Representation(M.p, {v: len(free) for v, (free, _) in split.items()}, maps)
    return quot, ModuleMap(M, quot, {v: proj for v, (_, proj) in split.items()})


def _arrow_images(M):
    """Per vertex, the nonzero columns of the arrows into it: they span
    the radical there."""
    q = M.p.quiver
    images = {}
    for v in q.vertices:
        images[v] = cols = []
        for a in q.in_arrows(v):
            cols.extend(c for c in _transposed(M.maps[a.name], M.dims[a.source]) if any(c))
    return images


def radical(M):
    """(rad M, inclusion): the sum of all arrow images."""
    spans = {v: la.span(cols, M.dims[v]) for v, cols in _arrow_images(M).items()}
    return _sub_representation(M, spans)


def top(M):
    """(top M, projection): M modulo its radical."""
    return _quotient_representation(M, _arrow_images(M))


def socle(M):
    """(soc M, inclusion): the joint kernel of all outgoing arrows."""
    q = M.p.quiver
    spans = {}
    for v in q.vertices:
        stacked = [row for a in q.out_arrows(v) for row in M.maps[a.name]]
        spans[v] = la.kernel_basis(stacked, ncols=M.dims[v])
    return _sub_representation(M, spans)


def kernel(f):
    """(ker f, inclusion) of a module map."""
    M = f.source
    spans = {v: la.kernel_basis(f.blocks[v], ncols=M.dims[v]) for v in M.p.quiver.vertices}
    return _sub_representation(M, spans)


def cokernel(f):
    """(coker f, projection) of a module map."""
    vectors = {v: _transposed(b, f.source.dims[v]) for v, b in f.blocks.items()}
    return _quotient_representation(f.target, vectors)


def projective_cover(p, M):
    """(P, cover): one projective P(v) per top basis vector, which is the
    unit vector at a coordinate of M_v the radical leaves free; the cover
    sends each path from v to that vector's image along it."""
    q = p.quiver
    images = _arrow_images(M)
    tops = [(v, f) for v in sorted(q.vertices) for f in la.complement(images[v], M.dims[v])[0]]
    data = [_projective_data(p, v) for v, _ in tops]
    P, offsets = _direct_sum(p, [R for R, _ in data])
    blocks = {v: la.zeros(M.dims[v], P.dims[v]) for v in q.vertices}
    for (v, f), (_, basis), at in zip(tops, data, offsets):
        for w, paths in basis.items():
            for i, path in enumerate(paths):
                vec = [int(r == f) for r in range(M.dims[v])]
                for n in path:
                    vec = la.matvec(M.maps[n], vec)
                for r, val in enumerate(vec):
                    blocks[w][r][at[w] + i] = val
    cover = ModuleMap(P, M, blocks)
    if not cover.is_surjective():
        raise CorruptPresentationError("projective cover is not surjective")
    return P, cover


def _direct_sum(p, parts):
    """The block-diagonal direct sum of the representations in parts, and
    each one's first index per vertex."""
    q = p.quiver
    dims = {v: 0 for v in q.vertices}
    offsets = []
    for R in parts:
        offsets.append(dict(dims))
        for v, d in R.dims.items():
            dims[v] += d
    maps = {a.name: la.zeros(dims[a.target], dims[a.source]) for a in q.arrows}
    for R, at in zip(parts, offsets):
        for a in q.arrows:
            for i, row in enumerate(R.maps[a.name]):
                for j, val in enumerate(row):
                    if val:
                        maps[a.name][at[a.target] + i][at[a.source] + j] = val
    return Representation(p, dims, maps), offsets


def _opposite(p):
    """A^op, cached on p: the injective side is built there by duality."""
    if not p.is_monomial:
        raise PreconditionError("injective needs a monomial presentation")
    return p.cached("opposite", p.opposite)


def _transposed(m, ncols):
    return [[row[j] for row in m] for j in range(ncols)]


def dual(M, onto):
    """D M = Hom(M, k), landing on `onto`, the opposite of M's presentation:
    every arrow's matrix transposed.  Passing the presentation back lands a
    module dualized from A^op on A itself, with no copy of A built."""
    q = M.p.quiver
    maps = {a.name: _transposed(M.maps[a.name], M.dims[a.source]) for a in q.arrows}
    return Representation(onto, dict(M.dims), maps)


def injective(p, x):
    """Indecomposable injective with socle S_x: D P_{A^op}(x)."""
    return dual(projective(_opposite(p), x), p)


def injective_envelope(p, M):
    """(I, embedding): the dual of the projective cover P -> D M over A^op.
    D sends projective A^op-modules to injective A-modules and the
    surjective cover to an injective embedding M = D D M -> D P."""
    pop = _opposite(p)
    P, cover = projective_cover(pop, dual(M, pop))
    I = dual(P, p)
    blocks = {v: _transposed(b, P.dims[v]) for v, b in cover.blocks.items()}
    return I, ModuleMap(M, I, blocks)


def syzygy(p, M):
    """Kernel of the projective cover."""
    _P, cover = projective_cover(p, M)
    K, _ = kernel(cover)
    return K


def pd_at_least_2(p, M):
    """Not projective, and the first syzygy is not projective either."""
    P, cover = projective_cover(p, M)
    if P.total_dim == M.total_dim:
        return False
    K, _ = kernel(cover)
    P2, _ = projective_cover(p, K)
    return P2.total_dim != K.total_dim


def id_at_least_2(p, M):
    """id M >= 2 as pd >= 2 of D M over the opposite algebra."""
    pop = _opposite(p)
    return pd_at_least_2(pop, dual(M, pop))


id_at_least_2_dual = id_at_least_2


def dozed_module(p, witness, n):
    """String module of the power-n pumped walk (`dozed_module_string`)."""
    return string_module(p, dozed_module_string(p, witness, n))
