"""FPModule presentations and free resolutions."""

from singcat.quotient import parse_ring
from singcat.modules import FPModule


def cone_ring():
    return parse_ring("Q[x,y,z,w]/(x*y+z*w)")


def test_residue_field_resolution_over_dual_numbers():
    # A = Q[z]/(z^2), V1 = A/(z): every differential is [z], periodic at once
    A = parse_ring("Q[z]/(z^2)")
    V1 = FPModule.cyclic(A, [A.parse("z")])
    res = V1.resolve(6)
    assert res.verify_complex()
    for p in range(1, 7):
        cols = res.differential(p)
        assert len(cols) == 1 and cols[0] == [A.parse("z")]
    assert res.periodic_from == 1


def test_alternating_resolution_over_node_curve():
    # B = Q[z,w]/(zw), M_z = B/(w): differentials alternate [w], [z]
    B = parse_ring("Q[z,w]/(z*w)")
    Mz = FPModule.cyclic(B, [B.parse("w")])
    res = Mz.resolve(6)
    assert res.verify_complex()
    assert res.differential(1) == [[B.parse("w")]]
    assert res.differential(2) == [[B.parse("z")]]
    assert res.differential(3) == [[B.parse("w")]]
    assert res.periodic_from == 1


def test_free_module_resolution_trivial():
    A = parse_ring("Q[z]/(z^2)")
    F = FPModule.free(A, 2)
    res = F.resolve(3)
    assert res.differential(1) == []
    assert res.ranks[1] == 0


def test_cone_ideal_presentation_and_resolution():
    C = cone_ring()
    # I1 = (x, z) as a module on two generators
    I1 = FPModule.from_submodule(C, [[C.parse("x")], [C.parse("z")]],
                                 ambient_rank=1, ambient_degrees=[0])
    assert I1.ngens == 2
    assert len(I1.relations) == 2
    res = I1.resolve(8)
    assert res.verify_complex()
    # Eisenbud 2-periodicity: ranks stabilize at 2
    assert res.ranks[1:] == [2] * 8
    assert res.periodic_from is not None


def test_k_dim_finite_and_infinite():
    B = parse_ring("Q[z,w]/(z*w)")
    k = FPModule.cyclic(B, [B.parse("z"), B.parse("w")])
    assert k.k_dim() == 1
    fat = FPModule.cyclic(B, [B.parse("z^2"), B.parse("w^2"), B.parse("z*w")])
    assert fat.k_dim() == 3  # 1, z, w
    Mz = FPModule.cyclic(B, [B.parse("w")])
    assert Mz.k_dim() is None


def test_graded_dims_of_cone_ideal():
    C = cone_ring()
    I1 = FPModule.from_submodule(C, [[C.parse("x")], [C.parse("z")]],
                                 ambient_rank=1, ambient_degrees=[0])
    assert I1.is_graded()
    # degree-1 piece of (x,z) is spanned by x, z; degree 2 by x^2,xz,z^2,xy,xw,zy(=?)...
    assert I1.graded_dim(1) == 2
    # dimensions of (x,z)_d match the cone ring count minus non-ideal part:
    # R_d has dim (d+1)^2; (x,z)_d = R_d - dim(R/(x,z))_d = (d+1)^2 - (d+1)
    for d in range(1, 4):
        assert I1.graded_dim(d) == (d + 1) ** 2 - (d + 1)


def test_periodic_tail_lifts_to_factorization():
    from singcat import models
    corpus = [
        models.point_module(models.dual_numbers()),
        models.branch_module_z(models.node_curve()),
        models.cone_L1(cone_ring()),
    ]
    for M in corpus:
        res = M.resolve(8)
        assert res.periodic_from is not None
        assert res.periodic_pair_is_factorization()


def test_syzygies_helper():
    from singcat.modules import syzygies
    C = cone_ring()
    cols = [[C.parse("x")], [C.parse("z")]]
    syz = syzygies(C, cols)
    assert syz
    for a, b in syz:
        assert C.is_zero(C.parse("x") * a + C.parse("z") * b)


def test_direct_sum():
    B = parse_ring("Q[z,w]/(z*w)")
    k = FPModule.cyclic(B, [B.parse("z"), B.parse("w")])
    kk = k.direct_sum(k)
    assert kk.ngens == 2
    assert kk.k_dim() == 2


def test_modules_over_the_field_itself():
    # over Q[] every position of a free module carries exactly the monomial 1
    from singcat.homs import ext_dims, hom_space
    R = parse_ring("Q[]")
    k2, k3 = FPModule.free(R, 2), FPModule.free(R, 3)
    assert k2.k_dim() == 2
    assert hom_space(k2, k2).dim == 4
    assert ext_dims(k2, k3, 0) == {0: 6}


def test_prune_keeps_earliest_irredundant_columns():
    from singcat.modules import _prune_columns
    R = parse_ring("Q[x,y]")
    x, y = R.parse("x"), R.parse("y")
    for cols in ([[x], [R.parse("x^2")], [y], [R.parse("x*y")]],
                 [[R.parse("x^2")], [x], [y]]):
        assert _prune_columns(R, cols, 1) == [[x], [y]]
