"""Matrix factorizations: construction, shift, Knoerrer doubling, stable homs."""

import random

import pytest

from singcat.fields import QQ
from singcat.poly import PolyRing
from singcat.quotient import parse_ring
from singcat.modules import FPModule, find_unit
from singcat.matfac import (MatrixFactorization, MFError, mf_check, mf_shift,
                            knorrer, mf_from_module, mf_stable_hom,
                            reduce_trivial_blocks)
from singcat.homs import stable_hom
from singcat import models


def test_mf_check_examples():
    S = PolyRing(QQ, ["z"])
    z = S.gen("z")
    assert mf_check(S, [[z]], [[z]], z * z)
    assert not mf_check(S, [[z]], [[z]], z * z * z)
    S4 = PolyRing(QQ, ["x", "y", "z", "w"])
    A = [[S4.parse("x"), S4.parse("-w")], [S4.parse("z"), S4.parse("y")]]
    B = [[S4.parse("y"), S4.parse("w")], [S4.parse("-z"), S4.parse("x")]]
    assert mf_check(S4, A, B, S4.parse("x*y+z*w"))
    with pytest.raises(MFError):
        mf_check(S4, A, [[S4.parse("y")]], S4.parse("x*y+z*w"))


def test_mf_from_point_module():
    A = models.dual_numbers()
    V1 = models.point_module(A)
    X = mf_from_module(V1)
    assert X.size == 1
    assert X.A == [[A.parse("z")]] and X.B == [[A.parse("z")]]


def test_mf_from_branch_modules():
    B = models.node_curve()
    Mz = models.branch_module_z(B)
    X = mf_from_module(Mz)
    assert X.size == 1
    # coker(A mod f) = B/(w): A = [w], B = [z]
    assert X.A == [[B.parse("w")]] and X.B == [[B.parse("z")]]


def test_mf_from_cone_ideal():
    C = models.cone_ring()
    L1 = models.cone_L1(C)
    X = mf_from_module(L1)
    assert X.size == 2
    assert X.is_valid()
    # cokernel presentation matches the module
    M = X.module()
    assert stable_hom(M, M).dim == 1


def test_mf_from_module_makes_a_truncated_pruning_build(monkeypatch):
    from singcat import modgb
    builds = []
    real_init = modgb.SubmoduleGB.__init__

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        builds.append((self.npos, self.bound))

    C = models.cone_ring()
    L1 = models.cone_L1(C)
    monkeypatch.setattr(modgb.SubmoduleGB, "__init__", counting_init)
    X = mf_from_module(L1)
    assert X.size == 2
    # the pruning build of relations and f*I, truncated at the degree of
    # f*e_i (generators of degree 1), then the full build that lifts f*I
    assert builds == [(2, 3), (2, None)]


def test_mf_from_free_is_zero_object():
    A = models.dual_numbers()
    free = FPModule.free(A, 1)
    X = mf_from_module(free)
    assert X.size == 0
    Y = mf_from_module(models.point_module(A))
    assert mf_stable_hom(X, Y) == (0, 0)


def test_shift_involution_and_direct_sum():
    A = models.dual_numbers()
    X = mf_from_module(models.point_module(A))
    assert mf_shift(mf_shift(X)).A == X.A
    XX = X.direct_sum(X)
    assert XX.size == 2 and XX.is_valid()
    Z = MatrixFactorization.zero(X.ring, X.f)
    assert X.direct_sum(Z).size == X.size


def test_knorrer_block_shape():
    A = models.dual_numbers()
    X = mf_from_module(models.point_module(A))
    K = knorrer(X, "x", "y")
    assert K.size == 2
    assert K.is_valid()
    S2 = K.ring
    assert K.f == S2.parse("z^2+x*y")
    with pytest.raises(MFError):
        knorrer(X, "z", "y")


def test_stable_hom_dual_numbers():
    A = models.dual_numbers()
    X = mf_from_module(models.point_module(A))
    assert mf_stable_hom(X, X) == (1, 1)


def test_stable_hom_node_branches():
    B = models.node_curve()
    Xz = mf_from_module(models.branch_module_z(B))
    Xw = mf_from_module(models.branch_module_w(B))
    assert mf_stable_hom(Xz, Xz) == (1, 0)
    assert mf_stable_hom(Xz, Xw) == (0, 1)
    assert mf_stable_hom(Xw, Xz) == (0, 1)


def test_shift_swaps_parity():
    B = models.node_curve()
    Xz = mf_from_module(models.branch_module_z(B))
    Xw = mf_from_module(models.branch_module_w(B))
    for X, Y in [(Xz, Xz), (Xz, Xw)]:
        e, o = mf_stable_hom(X, Y)
        assert mf_stable_hom(X, mf_shift(Y)) == (o, e)
        assert mf_stable_hom(mf_shift(X), mf_shift(Y)) == (e, o)


def test_knorrer_preserves_dims_x0_to_x2():
    A = models.dual_numbers()
    X = mf_from_module(models.point_module(A))
    K = knorrer(X, "x", "y")
    assert mf_stable_hom(K, K) == mf_stable_hom(X, X) == (1, 1)


def test_knorrer_preserves_dims_x1_to_x3():
    B = models.node_curve()
    Xz = mf_from_module(models.branch_module_z(B))
    Xw = mf_from_module(models.branch_module_w(B))
    Kz = knorrer(Xz, "x", "y")
    Kw = knorrer(Xw, "x", "y")
    assert mf_stable_hom(Kz, Kz) == (1, 0)
    assert mf_stable_hom(Kz, Kw) == (0, 1)
    assert mf_stable_hom(Kw, Kz) == (0, 1)


def test_knorrer_x2_generator_matches_plane_module():
    # the doubled point-module factorization presents the same object as the
    # rank-one reflexive module (x, z) on xy + z^2 = 0
    A = models.dual_numbers()
    K = knorrer(mf_from_module(models.point_module(A)), "x", "y")
    R2 = parse_ring("Q[z,x,y]/(z^2+x*y)")
    OL = FPModule.from_submodule(R2, [[R2.parse("x")], [R2.parse("z")]],
                                 ambient_rank=1, ambient_degrees=[0])
    X2 = mf_from_module(OL)
    assert X2.ring == K.ring and X2.f == K.f
    assert mf_stable_hom(K, X2) == (1, 1)
    assert mf_stable_hom(X2, K) == (1, 1)


def test_knorrer_x3_generator_matches_cone_module():
    # the doubled branch factorization presents the plane module (x, w):
    # even part of its stable Hom against (x, w) is 1, against (x, z) it is
    # the shifted relation, odd part 1
    B = models.node_curve()
    Kz = knorrer(mf_from_module(models.branch_module_z(B)), "x", "y")
    R = parse_ring("Q[z,w,x,y]/(z*w+x*y)")
    plane_xw = FPModule.from_submodule(R, [[R.parse("x")], [R.parse("w")]],
                                       ambient_rank=1, ambient_degrees=[0])
    plane_xz = FPModule.from_submodule(R, [[R.parse("x")], [R.parse("z")]],
                                       ambient_rank=1, ambient_degrees=[0])
    Xw = mf_from_module(plane_xw)
    Xz = mf_from_module(plane_xz)
    assert Xw.ring == Kz.ring and Xw.f == Kz.f
    assert mf_stable_hom(Kz, Xw) == (1, 0)
    assert mf_stable_hom(Xw, Kz) == (1, 0)
    assert mf_stable_hom(Kz, Xz) == (0, 1)


def test_y1_factorization_and_knorrer_to_y3():
    C = models.nonsplit_curve()
    Cp = models.normalization_module(C)
    X = mf_from_module(Cp)
    assert X.size == 2 and X.is_valid()
    assert mf_stable_hom(X, X) == (2, 2)
    K = knorrer(X, "x", "y")
    assert mf_stable_hom(K, K) == (2, 2)


def test_non_isolated_potential_raises():
    # z^2 over Q[z,w] is singular along a line: stable homs are infinite
    S = PolyRing(QQ, ["z", "w"])
    z = S.gen("z")
    X = MatrixFactorization(S, z * z, [[z]], [[z]])
    with pytest.raises(MFError):
        mf_stable_hom(X, X)


def test_consistency_with_module_side():
    B = models.node_curve()
    Mz = models.branch_module_z(B)
    Mw = models.branch_module_w(B)
    for M, N in [(Mz, Mz), (Mz, Mw), (Mw, Mz)]:
        even, _odd = mf_stable_hom(mf_from_module(M), mf_from_module(N))
        assert even == stable_hom(M, N).dim


def test_consistency_with_ext_parity_on_the_cone():
    # even/odd stable dims match the stabilized Ext parity pattern of the
    # rank-one modules: self (1,0), cross (0,1); even part equals the
    # module-side stable Hom dimension
    C = models.cone_ring()
    L1, L2 = models.cone_L1(C), models.cone_L2(C)
    X1, X2 = mf_from_module(L1), mf_from_module(L2)
    assert mf_stable_hom(X1, X1) == (1, 0)
    assert mf_stable_hom(X2, X2) == (1, 0)
    assert mf_stable_hom(X1, X2) == (0, 1)
    assert mf_stable_hom(X2, X1) == (0, 1)
    for M, N, X, Y in [(L1, L1, X1, X1), (L1, L2, X1, X2)]:
        assert mf_stable_hom(X, Y)[0] == stable_hom(M, N).dim


def test_reduce_trivial_blocks_returns_its_input_when_nothing_splits():
    S = PolyRing(QQ, ["z"])
    z, one, zero = S.gen("z"), S.one(), S.zero()
    X = MatrixFactorization(S, z * z, [[z]], [[z]])
    assert reduce_trivial_blocks(X) is X
    # a trivial (1, f) block splits off, and the smaller pair is checked
    Y = MatrixFactorization(S, z * z, [[z, zero], [zero, one]],
                            [[z, zero], [zero, z * z]])
    Z = reduce_trivial_blocks(Y)
    assert Z is not Y and Z.size == 1 and Z.A == [[z]] and Z.B == [[z]]


def _mirrored_reduction(X):
    """Reference reduction: clear row i and column j of one factor around
    its unit at (i, j), repeat each row and column operation on the other
    factor, then drop the block from both."""
    ring = X.ring
    A = [list(row) for row in X.A]
    B = [list(row) for row in X.B]

    def eliminate(M, other, i, j):
        inv = ring.const(ring.field.inv(M[i][j].constant_coeff()))
        n = len(M)
        for k in range(n):
            c = M[k][j] * inv
            if k == i or c.is_zero():
                continue
            for t in range(n):
                M[k][t] = M[k][t] - c * M[i][t]
            for t in range(n):
                other[t][i] = other[t][i] + c * other[t][k]
        for t in range(n):
            c = M[i][t] * inv
            if t == j or c.is_zero():
                continue
            for k in range(n):
                M[k][t] = M[k][t] - M[k][j] * c
            for k in range(n):
                other[j][k] = other[j][k] + c * other[t][k]

    def drop(M, i, j):
        return [[p for t, p in enumerate(row) if t != j]
                for k, row in enumerate(M) if k != i]

    while True:
        if (hit := find_unit(B)) is not None:
            i, j = hit
            eliminate(B, A, i, j)
            B, A = drop(B, i, j), drop(A, j, i)
        elif (hit := find_unit(A)) is not None:
            i, j = hit
            eliminate(A, B, i, j)
            A, B = drop(A, i, j), drop(B, j, i)
        else:
            return A, B


def _matmul(S, M, N):
    return [[sum((M[a][k] * N[k][b] for k in range(len(N))), S.zero())
             for b in range(len(N[0]))] for a in range(len(M))]


def _graded_automorphism(rng, S, degrees):
    """(P, P^-1) for P a product of elementary matrices I + c*e_ab with c
    of degree degrees[b] - degrees[a], either 0 (a nonzero constant) or 1
    (a constant times a variable), so P keeps those row degrees."""
    n = len(degrees)

    def identity():
        return [[S.one() if a == b else S.zero() for b in range(n)] for a in range(n)]

    P, P_inv = identity(), identity()
    pairs = [(a, b) for a in range(n) for b in range(n)
             if a != b and degrees[b] - degrees[a] in (0, 1)]
    for _ in range(rng.randint(n, 2 * n)):
        a, b = rng.choice(pairs)
        c = S.const(S.field.from_int(rng.choice([-2, -1, 1, 2, 3])))
        if degrees[b] > degrees[a]:
            c = c * rng.choice(S.gens())
        E, E_inv = identity(), identity()
        E[a][b], E_inv[a][b] = c, -c
        P, P_inv = _matmul(S, P, E), _matmul(S, E_inv, P_inv)
    return P, P_inv


@pytest.mark.parametrize("field", ["Q", "F32003"])
def test_reduce_trivial_blocks_on_conjugated_block_sums(field):
    # P.diag(X, blocks).Q and Q^-1.diag(Y, blocks').P^-1 for the node pair
    # (X, Y), with 0-3 blocks each of (1, f) and (f, 1).  P and Q keep the
    # grading (X from degree 1 to 0), so the units left after conjugating
    # are exactly the constants, and the reduction ends at the minimal size.
    S = parse_ring(f"{field}[x,y,z,w]").ambient
    x, y, z, w = S.gens()
    f = x * y + z * w
    X, Y = [[x, -w], [z, y]], [[y, w], [-z, x]]
    base = MatrixFactorization(S, f, X, Y)
    want = mf_stable_hom(base, base)
    rng = random.Random(29)
    splits = 0
    for trial in range(20):
        # (A entry, B entry, row degree, column degree) of each block
        blocks = ([(S.one(), f, d, d) for d in rng.choices([0, 1], k=rng.randint(0, 3))]
                  + [(f, S.one(), d, d + 2)
                     for d in rng.choices([-1, 0], k=rng.randint(0, 3))])
        rng.shuffle(blocks)
        n = 2 + len(blocks)
        DA = [X[a] + [S.zero()] * (n - 2) if a < 2 else [S.zero()] * n for a in range(n)]
        DB = [Y[a] + [S.zero()] * (n - 2) if a < 2 else [S.zero()] * n for a in range(n)]
        for k, (u, v, _r, _c) in enumerate(blocks, 2):
            DA[k][k], DB[k][k] = u, v
        P, P_inv = _graded_automorphism(rng, S, [0, 0] + [b[2] for b in blocks])
        Q, Q_inv = _graded_automorphism(rng, S, [1, 1] + [b[3] for b in blocks])
        big = MatrixFactorization(S, f, _matmul(S, _matmul(S, P, DA), Q),
                                  _matmul(S, _matmul(S, Q_inv, DB), P_inv))
        Z = reduce_trivial_blocks(big)
        assert (Z.A, Z.B) == _mirrored_reduction(big), trial
        assert find_unit(Z.A) is None and find_unit(Z.B) is None, trial
        assert Z.size == 2 and Z.is_valid(), trial
        assert mf_stable_hom(Z, Z) == want, trial
        splits += Z is not big
    assert splits >= 15, splits


def test_a_block_trivial_only_after_localizing_stays():
    # P.diag(X, 1, f).Q and Q^-1.diag(Y, f, 1).P^-1 for the node pair (X, Y)
    # with the ungraded P = I + (x+1)*e_20 and Q = I + 2y*e_02: conjugating
    # leaves the entry 2x^2y + 2xy + 1 of A, a unit at the origin but not a
    # constant, so find_unit splits off only the (f, 1) block.  The smaller
    # pair is still a factorization of the same object.
    S = parse_ring("Q[x,y,z,w]").ambient
    x, y, z, w = S.gens()
    one, zero = S.one(), S.zero()
    f = x * y + z * w
    X, Y = [[x, -w], [z, y]], [[y, w], [-z, x]]
    want = mf_stable_hom(MatrixFactorization(S, f, X, Y),
                         MatrixFactorization(S, f, X, Y))

    def padded(M, u, v):
        return [M[0] + [zero, zero], M[1] + [zero, zero],
                [zero, zero, u, zero], [zero, zero, zero, v]]

    def elementary(a, b, c):
        E = [[one if r == t else zero for t in range(4)] for r in range(4)]
        E[a][b] = c
        return E

    two = S.const(S.field.from_int(2))
    P, P_inv = elementary(2, 0, x + one), elementary(2, 0, -(x + one))
    Q, Q_inv = elementary(0, 2, two * y), elementary(0, 2, -(two * y))
    big = MatrixFactorization(S, f,
                              _matmul(S, _matmul(S, P, padded(X, one, f)), Q),
                              _matmul(S, _matmul(S, Q_inv, padded(Y, f, one)),
                                      P_inv))
    assert two * x * x * y + two * x * y + one in (p for row in big.A
                                                   for p in row)
    Z = reduce_trivial_blocks(big)
    assert Z.size == 3 and find_unit(Z.A) is None and find_unit(Z.B) is None
    assert Z.is_valid()
    assert mf_stable_hom(Z, Z) == want


def test_claims_build_each_factorization_once(monkeypatch):
    from singcat import manifest
    calls = []
    real = manifest.mf_from_module

    def counting(M):
        calls.append(M)
        return real(M)

    monkeypatch.setattr(manifest, "mf_from_module", counting)
    for cid in ("x1-stable-homs", "x3-knorrer"):
        calls.clear()
        claim = manifest.run_claims(cid=cid)["claims"][0]
        assert claim["verdict"] == "pass"
        assert len(calls) == len({id(M) for M in calls})
