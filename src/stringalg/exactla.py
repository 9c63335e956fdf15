"""Exact linear algebra over the rationals.

Matrices are lists of rows; entries are ints or fractions.Fraction and
all arithmetic is exact.  Everything here is desk-scale: dimensions stay
in the low hundreds, so straightforward Gaussian elimination with
zero-skipping is plenty.
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
    if a and b and len(a[0]) != len(b):
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
    """Basis of the right kernel, one vector per free column."""
    if ncols is None:
        ncols = len(a[0]) if a else 0
    rows, pivots = rref(a, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -Fraction(rows[r][free])
        basis.append(v)
    return basis


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


def independent_columns(a, ncols=None):
    """Indices of a maximal independent subset of columns (leftmost)."""
    return rref(a, ncols)[1]


def column_space_basis(cols):
    """Subset of the given columns forming a basis of their span."""
    if not cols:
        return []
    mat = [[col[i] for col in cols] for i in range(len(cols[0]))]
    keep = independent_columns(mat, len(cols))
    return [cols[i] for i in keep]
