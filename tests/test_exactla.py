from fractions import Fraction

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
    ker = la.kernel_basis([[1, 2], [2, 4]])
    assert len(ker) == 1
    assert ker[0] == [Fraction(-2), Fraction(1)]
    assert la.kernel_basis([[1, 0], [0, 1]]) == []
    assert len(la.kernel_basis([], ncols=3)) == 3


def test_kernel_vectors_annihilate():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    for v in la.kernel_basis(m):
        assert la.matvec(m, v) == [0, 0, 0]


def test_solve_matrix_batches():
    sols = la.solve_matrix([[1, 0], [1, 1]], [[1, 2], [0, 3]])
    assert sols == [[1, 1], [0, 3]]
    assert la.solve_matrix([[1, 1], [1, 1]], [[0, 1]]) is None


def test_matmul_keeps_empty_shapes():
    a = la.zeros(1, 0)
    b = la.zeros(0, 1)
    assert la.matmul(a, b, ncols=1) == [[0]]
    assert la.matmul([[1, 2]], [[3], [4]]) == [[11]]


def test_independent_columns_prefers_leftmost():
    m = [[1, 2, 1], [0, 0, 1]]
    assert la.independent_columns(m) == [0, 2]


def test_column_space_basis():
    cols = [[1, 0], [2, 0], [0, 1]]
    basis = la.column_space_basis(cols)
    assert basis == [[1, 0], [0, 1]]
    assert la.column_space_basis([]) == []
