import random
from fractions import Fraction

import pytest

from stringalg import exactla as la


def test_rref_identity():
    rows, pivots = la.rref([[1, 0], [0, 1]])
    assert rows == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_rref_with_fractions():
    rows, pivots = la.rref([[2, 4], [1, 3]])
    assert pivots == [0, 1]
    assert rows[0] == [1, 0]
    assert rows[1] == [0, 1]


def test_rank():
    assert la.rank([[1, 2], [2, 4]]) == 1
    assert la.rank([[1, 2], [3, 4]]) == 2
    assert la.rank(la.zeros(3, 2)) == 0
    assert la.rank([]) == 0


def test_kernel_basis():
    ker, free = la.kernel_basis([[1, 2], [2, 4]])
    assert ker == [[-2, 1]] and free == [1]
    assert all(type(x) is int for x in ker[0])
    assert la.kernel_basis([[1, 0], [0, 1]]) == ([], [])
    assert la.kernel_basis([], ncols=3) == (la.identity(3), [0, 1, 2])
    ker, free = la.kernel_basis([[2, 1]])
    assert ker == [[Fraction(-1, 2), 1]] and free == [1]


def test_kernel_vectors_annihilate():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    ker, free = la.kernel_basis(m)
    for v in ker:
        assert la.matvec(m, v) == [0, 0, 0]
    assert [[v[f] for f in free] for v in ker] == la.identity(len(free))


def test_solve_matrix_batches():
    sols = la.solve_matrix([[1, 0], [1, 1]], [[1, 2], [0, 3]])
    assert sols == [[1, 1], [0, 3]]
    assert la.solve_matrix([[1, 1], [1, 1]], [[0, 1]]) is None


def test_matmul_keeps_empty_shapes():
    a = la.zeros(1, 0)
    b = la.zeros(0, 1)
    assert la.matmul(a, b, ncols=1) == [[0]]
    assert la.matmul([[1, 2]], [[3], [4]]) == [[11]]
    with pytest.raises(ValueError, match="shape mismatch"):
        la.matmul([[1]], [], ncols=2)


def _column_sets():
    """Seeded small integer column sets: dependent and zero columns, no
    columns at all, and n = 0."""
    rng = random.Random(20261018)
    yield [], 0
    yield [[], []], 0
    yield [], 3
    yield [[0, 0, 0]], 3
    for _ in range(300):
        n = rng.randint(0, 6)
        cols = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(rng.randint(0, 5))]
        if cols and rng.random() < 0.5:
            a, b = rng.choice(cols), rng.choice(cols)
            cols.append([rng.randint(-2, 2) * x + y for x, y in zip(a, b)])
        yield cols, n


def test_complement_projects_onto_the_leftmost_free_coordinates():
    for cols, n in _column_sets():
        free, proj = la.complement(cols, n)
        mat = [[c[i] for c in cols] for i in range(n)]
        rank = la.rank(mat) if cols else 0
        pivots = [i for i in range(n) if i not in free]
        assert sorted(free + pivots) == list(range(n)) and len(free) == n - rank
        assert len(proj) == len(free) and all(len(row) == n for row in proj)
        for c in cols:
            assert la.matvec(proj, c) == [0] * len(free)
        assert [[row[j] for j in free] for row in proj] == la.identity(len(free))
        stacked = [[c[i] for c in cols] + row for i, row in enumerate(la.identity(n))]
        chosen = la.rref(stacked, ncols=len(cols) + n)[1]
        assert free == [j - len(cols) for j in chosen if j >= len(cols)], (cols, n)


def test_span_is_the_identity_at_its_coordinates():
    for cols, n in _column_sets():
        basis, coords = la.span(cols, n)
        mat = [[c[i] for c in cols] for i in range(n)]
        assert len(basis) == len(coords) == (la.rank(mat) if cols else 0)
        assert [[b[t] for t in coords] for b in basis] == la.identity(len(coords))
        for c in cols:
            recomposed = [sum(c[t] * b[i] for t, b in zip(coords, basis)) for i in range(n)]
            assert recomposed == c, (cols, n)
