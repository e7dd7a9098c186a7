import random

from singcat.fields import QQ, GF
from singcat.linalg import Matrix, rank, rref, kernel_basis, solve


def from_int_rows(field, rows):
    return Matrix(field, [[field.from_int(x) for x in r] for r in rows])


def mul_vec(m, v):
    F = m.field
    out = []
    for r in m.rows:
        s = F.zero()
        for a, b in zip(r, v):
            s = F.add(s, F.mul(a, b))
        out.append(s)
    return out


def test_identity_rank():
    m = Matrix.identity(QQ, 3)
    assert rank(m) == 3


def test_zero_matrix_kernel():
    m = Matrix.zero(QQ, 2, 3)
    k = kernel_basis(m)
    assert k.ncols == 3
    assert rank(k) == 3


def test_proportional_rows_rank_one():
    m = from_int_rows(QQ, [[1, 2], [2, 4]])
    assert rank(m) == 1


def test_rank_nullity_randomized():
    rng = random.Random(11)
    F = GF(7)
    for _ in range(30):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = Matrix(F, [[F.from_int(rng.randint(0, 6)) for _ in range(nc)] for _ in range(nr)])
        k = kernel_basis(m)
        assert rank(m) + k.ncols == nc
        # every kernel column is annihilated
        for j in range(k.ncols):
            assert all(F.is_zero(x) for x in mul_vec(m, k.col(j)))


def test_rref_is_reduced():
    m = from_int_rows(QQ, [[2, 4, 6], [1, 3, 5]])
    r, pivots = rref(m)
    for i, c in enumerate(pivots):
        assert r.rows[i][c] == QQ.one()
        for ii in range(r.nrows):
            if ii != i:
                assert QQ.is_zero(r.rows[ii][c])


def test_solve():
    m = from_int_rows(QQ, [[1, 1], [1, -1]])
    x = solve(m, [QQ.from_int(3), QQ.from_int(1)])
    assert x == [QQ.from_int(2), QQ.from_int(1)]
    m2 = from_int_rows(QQ, [[1, 1], [1, 1]])
    assert solve(m2, [QQ.from_int(0), QQ.from_int(1)]) is None
