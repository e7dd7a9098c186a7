"""Randomized and structural property suites across the toolkit."""

import random

from singcat import models
from singcat.fields import GF, QQ
from singcat.poly import PolyRing
from singcat.modules import FPModule
from singcat.homs import ext_dims, stable_hom, hom_space
from singcat.matfac import mf_from_module, mf_shift, mf_stable_hom
from singcat.modgb import groebner_basis
from singcat.toric import (TDivisor, canonical_divisor, cohomology,
                           fan_library, intersect_curve)

from test_findim import unit_acts_trivially
from test_homs import bases_are_morphisms


def test_polynomial_ring_axioms_random():
    rng = random.Random(2024)
    R = PolyRing(GF(31), ["x", "y", "z"])

    def rand_poly():
        out = R.zero()
        for _ in range(rng.randint(1, 5)):
            mon = tuple(rng.randint(0, 3) for _ in range(3))
            out = out + R.monomial(mon, R.field.from_int(rng.randint(0, 30)))
        return out

    for _ in range(30):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_resolutions_compose_to_zero_everywhere():
    A = models.dual_numbers()
    B = models.node_curve()
    C = models.cone_ring()
    corpus = [
        models.point_module(A),
        models.branch_module_z(B),
        models.branch_module_w(B),
        models.cone_L1(C),
        models.cone_L2(C),
        models.normalization_module(models.nonsplit_curve()),
    ]
    for M in corpus:
        assert M.resolve(6).verify_complex()


def _shuffled_presentation(M, rng):
    """Permute generators and relation columns: an isomorphic presentation."""
    g = M.ngens
    perm = list(range(g))
    rng.shuffle(perm)
    cols = [[col[perm[i]] for i in range(g)] for col in M.relations]
    rng.shuffle(cols)
    degs = None
    if M.gen_degrees is not None:
        degs = tuple(M.gen_degrees[perm[i]] for i in range(g))
    return FPModule(M.ring, g, cols, degs)


def test_ext_invariance_under_presentation_shuffle():
    rng = random.Random(77)
    C = models.cone_ring()
    L1, L2 = models.cone_L1(C), models.cone_L2(C)
    base = ext_dims(L1, L2, 3, p_min=1)
    for _ in range(10):
        M = _shuffled_presentation(L1, rng)
        N = _shuffled_presentation(L2, rng)
        assert ext_dims(M, N, 3, p_min=1) == base
    B = models.node_curve()
    Mz = models.branch_module_z(B)
    base2 = ext_dims(Mz, Mz, 3, p_min=1)
    for _ in range(10):
        M = _shuffled_presentation(Mz, rng)
        assert ext_dims(M, M, 3, p_min=1) == base2


def test_stable_hom_kills_frees_in_both_slots():
    C = models.cone_ring()
    L1 = models.cone_L1(C)
    free = FPModule.free(C, 2, degrees=(0, 1))
    assert stable_hom(free, L1).dim == 0
    assert stable_hom(L1, free).dim == 0


def test_ext_two_periodicity_over_hypersurfaces():
    # dims at p and p+2 agree from degree dim(ring)+1 upward
    C = models.cone_ring()
    pairs = [(models.cone_L1(C), models.cone_L1(C)),
             (models.cone_L1(C), models.cone_L2(C))]
    for M, N in pairs:
        dims = ext_dims(M, N, 8, p_min=4)
        for p in (4, 5, 6):
            assert dims[p] == dims[p + 2]
    A = models.dual_numbers()
    V1 = models.point_module(A)
    dims = ext_dims(V1, V1, 6, p_min=2)
    for p in (2, 3, 4):
        assert dims[p] == dims[p + 2]


def test_mf_shift_involution_and_parity_swap_corpus():
    B = models.node_curve()
    C = models.nonsplit_curve()
    corpus = [mf_from_module(models.branch_module_z(B)),
              mf_from_module(models.branch_module_w(B)),
              mf_from_module(models.normalization_module(C))]
    for X in corpus:
        assert mf_shift(mf_shift(X)).A == X.A
    for X in corpus[:2]:
        for Y in corpus[:2]:
            e, o = mf_stable_hom(X, Y)
            assert mf_stable_hom(X, mf_shift(Y)) == (o, e)


def test_toric_serre_duality_corpus():
    rng = random.Random(123)
    for name in ["P2", "P3", "blowupP3_2pts"]:
        fan, _d, _w = fan_library(name)
        K = canonical_divisor(fan)
        for _ in range(4):
            D = TDivisor(fan, [rng.randint(-2, 2) for _ in fan.rays])
            assert cohomology(fan, D) == tuple(reversed(cohomology(fan, K - D)))


def test_toric_class_invariance_corpus():
    rng = random.Random(321)
    fan, div, _ = fan_library("blowupP3_2pts")
    D = div["H"].scale(-2) + div["E1"] + div["E2"]
    base = cohomology(fan, D)
    for _ in range(20):
        m = [rng.randint(-2, 2) for _ in range(3)]
        shift = TDivisor(fan, [sum(a * b for a, b in zip(m, u)) for u in fan.rays])
        assert cohomology(fan, D + shift) == base


def test_intersection_linearity():
    fan, div, walls = fan_library("blowupP3_2pts")
    rng = random.Random(55)
    for _ in range(10):
        D1 = TDivisor(fan, [rng.randint(-3, 3) for _ in fan.rays])
        D2 = TDivisor(fan, [rng.randint(-3, 3) for _ in fan.rays])
        s = intersect_curve(D1, walls["l"], fan) + intersect_curve(D2, walls["l"], fan)
        assert intersect_curve(D1 + D2, walls["l"], fan) == s


def test_groebner_canonical_under_shuffle_five_rings():
    rng = random.Random(8)
    R = PolyRing(QQ, ["x", "y", "z"])
    gens = [R.parse(s) for s in
            ["x^2*y-z^2", "y^2-x*z", "x*z^2-y*z", "z^3-x*y"]]
    baseline = [repr(g) for g in groebner_basis(gens)]
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert [repr(g) for g in groebner_basis(shuffled)] == baseline


def test_every_constructed_algebra_is_associative_and_unital():
    algebras = []
    A = models.dual_numbers()
    algebras.append(stable_hom(models.point_module(A),
                               models.point_module(A)).algebra())
    Cns = models.nonsplit_curve()
    Cp = models.normalization_module(Cns)
    algebras.append(stable_hom(Cp, Cp).algebra())
    B = models.node_surface()
    algebras.append(models.truncated_node_algebra(B, 2))
    from singcat.ncdef import SimpleCollection, run
    rep = run(SimpleCollection([models.node_point_module(B)]), max_iter=3)
    algebras.append(rep.algebra())
    for alg in algebras:
        assert alg.is_associative()
        assert unit_acts_trivially(alg)


def test_report_determinism():
    from singcat.sodcheck import run_blowup_vanishing_manifest
    assert run_blowup_vanishing_manifest() == run_blowup_vanishing_manifest()


def test_hom_basis_elements_are_morphisms():
    C = models.cone_ring()
    L1, L2 = models.cone_L1(C), models.cone_L2(C)
    for M, N in [(L1, L1), (L1, L2)]:
        sp = hom_space(M, N)
        assert bases_are_morphisms(sp)
