"""Exact linear algebra over the rationals.

Matrices are lists of rows; entries are ints or fractions.Fraction and
all arithmetic is exact.  Everything here is desk-scale: dimensions stay
in the low hundreds, so straightforward Gaussian elimination with
zero-skipping is plenty.

The subspace bases come out of one echelon form each and are the
identity at known coordinates: `kernel_basis` at the free columns,
`span` at the pivot coordinates.  A vector of the subspace is read in
such a basis by its entries at those coordinates, with no solve.
"""

from fractions import Fraction


def zeros(nrows, ncols):
    return [[0] * ncols for _ in range(nrows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def matmul(a, b, ncols=None):
    """a @ b.  ncols pins the column count of b when b has no rows, which
    the nested-list representation cannot carry."""
    if a and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    nr, nk = len(a), len(b)
    nc = len(b[0]) if b else (ncols or 0)
    out = zeros(nr, nc)
    for i in range(nr):
        arow = a[i]
        orow = out[i]
        for k in range(nk):
            x = arow[k]
            if x:
                brow = b[k]
                for j in range(nc):
                    if brow[j]:
                        orow[j] += x * brow[j]
    return out


def matvec(a, v):
    return [sum(x * y for x, y in zip(row, v) if x and y) for row in a]


def rref(a, ncols=None):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    rows = [list(r) for r in a]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        if piv != 1:
            inv = Fraction(1, 1) / piv
            rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(a):
    return len(rref(a)[1])


def kernel_basis(a, ncols=None):
    """(basis, free): a basis of the right kernel, one vector per free
    column, 1 at its own free column and 0 at the others, so a kernel
    vector's coordinates are its entries at `free`.  Entries stay ints
    where the elimination divided by nothing."""
    if ncols is None:
        ncols = len(a[0]) if a else 0
    rows, pivots = rref(a, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][f]
        basis.append(v)
    return basis, free


def solve_matrix(a, b_cols, ncols=None):
    """Columns solving a @ x = b for each b in b_cols; None if any is
    inconsistent.  One elimination for all right-hand sides."""
    if ncols is None:
        ncols = len(a[0]) if a else 0
    k = len(b_cols)
    nrows = len(a)
    aug = [list(a[i]) + [bc[i] for bc in b_cols] for i in range(nrows)]
    rows, pivots = rref(aug, ncols)
    for row in rows[len(pivots):]:
        if any(row[ncols + j] for j in range(k)):
            return None
    out = []
    for j in range(k):
        x = [Fraction(0)] * ncols
        for r, pc in enumerate(pivots):
            x[pc] = Fraction(rows[r][ncols + j])
        out.append(x)
    return out


def span(cols, n):
    """(basis, coords): a basis of the span of cols in k^n that is the
    identity at the coordinates `coords`, so a vector of the span is the
    combination of the basis with its own entries there.

    One rref of the columns with their coordinates read right to left, so
    each reduced row has its last nonzero at a pivot coordinate t, with a
    1 there and 0 at every other pivot.
    """
    rows, pivots = rref([c[::-1] for c in cols], n)
    return [row[::-1] for row in rows[: len(pivots)]], [n - 1 - c for c in pivots]


def complement(cols, n):
    """Split k^n into the span of cols and the coordinates outside it.

    Returns (free, proj): `free` is every coordinate but the pivot
    coordinates of `span`, the unit vectors a leftmost extension of a
    basis of the span picks, and `proj` (one row per free coordinate)
    projects k^n onto them along the span: the identity on `free`, and
    -row_t at each pivot t.
    """
    basis, coords = span(cols, n)
    pivot_rows = dict(zip(coords, basis))
    free = [i for i in range(n) if i not in pivot_rows]
    proj = [
        [-pivot_rows[i][f] if i in pivot_rows else int(i == f) for i in range(n)]
        for f in free
    ]
    return free, proj
