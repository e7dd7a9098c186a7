"""Matrix factorizations: construction, shift, Knoerrer doubling, stable homs."""

import pytest

from singcat.fields import QQ
from singcat.poly import PolyRing
from singcat.quotient import parse_ring
from singcat.modules import FPModule
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
