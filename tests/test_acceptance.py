"""Acceptance gate: one test per criterion, exact expectations, one printed
pass/fail line each.  Run with -s to see the lines and timings."""

import time
from contextlib import contextmanager

import pytest

from singcat import models
from singcat.fields import QQ
from singcat.findim import algebra_idempotents
from singcat.homs import (ext_dims, ext_space, hom_space, stable_hom,
                          fiber_generators, yoneda_extension)
from singcat.matfac import knorrer, mf_from_module, mf_stable_hom
from singcat.modules import FPModule
from singcat.ncdef import SimpleCollection, flatness_filtration_check, run
from singcat.quotient import parse_ring
from singcat.sodcheck import (blowup_collections, check_exceptional,
                              check_orthogonal_to_deformation,
                              run_blowup_vanishing_manifest,
                              verify_odp_hypotheses)
from singcat.toric import cohomology, fan_library, intersect_curve, weil_is_cartier


@contextmanager
def criterion(number, label):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label} ({time.time() - start:.1f}s)")


def test_criterion_1_stable_hom_suite():
    with criterion(1, "stable Hom suite on the three curve models"):
        A = models.dual_numbers()
        V1 = models.point_module(A)
        assert stable_hom(V1, V1).dim == 1

        B = models.node_curve()
        Mz, Mw = models.branch_module_z(B), models.branch_module_w(B)
        assert stable_hom(Mz, Mw).dim == 0
        assert stable_hom(Mz, Mz).dim == 1

        C = models.nonsplit_curve()
        Cp = models.normalization_module(C)
        S = stable_hom(Cp, Cp)
        assert S.dim == 2
        alg = S.algebra()
        assert alg.is_associative() and alg.is_commutative()
        # multiplication by t satisfies t^2 = -1 in the stable algebra
        tmat = [[C.zero(), C.one()], [C.parse("-z-1"), C.zero()]]
        tco = S.coords(tmat)
        assert alg.eq(alg.mul(tco, tco), alg.scale(QQ.from_int(-1), alg.unit))
        # z * id factors through the free cover
        zid = [[C.parse("z"), C.zero()], [C.zero(), C.parse("z")]]
        assert all(QQ.is_zero(c) for c in S.coords(zid))
        # idempotent census: 2 over Q, 4 over F5
        assert len(algebra_idempotents(alg)) == 2
        C5 = models.nonsplit_curve("F5")
        S5 = stable_hom(models.normalization_module(C5),
                        models.normalization_module(C5))
        assert len(algebra_idempotents(S5.algebra())) == 4


def test_criterion_2_knorrer_periodicity():
    with criterion(2, "dimension pairs preserved under the doubling functor"):
        A = models.dual_numbers()
        X0 = mf_from_module(models.point_module(A))
        X2 = knorrer(X0, "x", "y")
        assert X0.is_valid() and X2.is_valid()
        assert mf_stable_hom(X0, X0) == mf_stable_hom(X2, X2) == (1, 1)

        B = models.node_curve()
        Mz = mf_from_module(models.branch_module_z(B))
        Mw = mf_from_module(models.branch_module_w(B))
        Kz, Kw = knorrer(Mz, "x", "y"), knorrer(Mw, "x", "y")
        for K in (Kz, Kw):
            assert K.is_valid()
        assert mf_stable_hom(Kz, Kz) == mf_stable_hom(Mz, Mz) == (1, 0)
        assert mf_stable_hom(Kz, Kw) == mf_stable_hom(Mz, Mw) == (0, 1)
        assert mf_stable_hom(Kw, Kz) == mf_stable_hom(Mw, Mz) == (0, 1)


def test_criterion_3_ext_table_and_extensions():
    with criterion(3, "rank-one Ext table and the two rank-two extensions"):
        C = models.cone_ring()
        L1, L2 = models.cone_L1(C), models.cone_L2(C)
        self_dims = ext_dims(L1, L1, 6, p_min=1)
        cross_dims = ext_dims(L1, L2, 6, p_min=1)
        assert [self_dims[p] for p in range(1, 7)] == [0, 1, 0, 1, 0, 1]
        assert [cross_dims[p] for p in range(1, 7)] == [1, 0, 1, 0, 1, 0]
        assert ext_dims(L2, L2, 6, p_min=1) == self_dims
        assert ext_dims(L2, L1, 6, p_min=1) == cross_dims
        for p in range(4, 5):
            assert self_dims[p] == self_dims[p + 2]
            assert cross_dims[p] == cross_dims[p + 2]
        # extensions: vanishing higher Ext at the local model
        for (quot, sub) in [(L1, L2), (L2, L1)]:
            space = ext_space(quot, sub, 1)
            items = space.basis_items()
            assert len(items) == 1
            ext = yoneda_extension(space.item_matrix(items[0]), sub, quot,
                                   require_nontrivial=True)
            assert ext.verify_exact()
            G = ext.E
            assert ext_dims(G, L1, 3, p_min=1) == {1: 0, 2: 0, 3: 0}
            assert ext_dims(G, L2, 3, p_min=1) == {1: 0, 2: 0, 3: 0}
        # Hom dims (1,0)/(0,1) on the projective model
        P = models.projective_cone_ring()
        L1p, L2p = models.cone_L1(P), models.cone_L2(P)
        for (quot, sub, hom_pattern) in [(L1p, L2p, (1, 0)), (L2p, L1p, (0, 1))]:
            space = ext_space(quot, sub, 1)
            items = space.basis_items(graded_degree=0)
            assert len(items) == 1
            G = yoneda_extension(space.item_matrix(items[0]), sub, quot,
                                 require_nontrivial=True).E
            assert (hom_space(G, L1p).dim, hom_space(G, L2p).dim) == hom_pattern


def test_criterion_4_deformation_conclusions():
    with criterion(4, "the cone pair terminates with the 4-dim algebra"):
        P = models.projective_cone_ring()
        coll = SimpleCollection([models.cone_L1(P), models.cone_L2(P)])
        rep = run(coll, max_iter=8)
        assert rep.outcome == "terminated"
        assert rep.final_step == 1
        assert rep.dim_r_trajectory == [2, 4]
        alg = rep.algebra()
        assert alg.dim == 4
        state = rep.final_state
        idem = state.block_idempotents()
        # block dimension pattern of (k kt; kt k): every corner is a line
        for a in range(2):
            for b in range(2):
                basis = [[QQ.one() if s == t else QQ.zero() for t in range(4)]
                         for s in range(4)]
                corner = [alg.mul(idem[a], alg.mul(v, idem[b])) for v in basis]
                assert alg.subspace_dim(corner) == 1
        rad = alg.radical()
        assert len(rad) == 2
        assert alg.subspace_dim([alg.mul(a, b) for a in rad for b in rad]) == 0
        ok, detail = flatness_filtration_check(state)
        assert ok, detail
        assert detail["multiplicities"] == [2, 2]
        # fresh self-extension vanishing of F in degree zero
        for p in (1, 2, 3):
            for Fi in state.components:
                for Fj in state.components:
                    assert ext_space(Fi, Fj, p).graded_dim(0) == 0


def test_criterion_5_blowup_cohomology_manifest():
    with criterion(5, "the full vanishing manifest on the two-point blow-up"):
        results = run_blowup_vanishing_manifest()
        assert len(results) >= 20
        bad = [r for r in results if not r["pass"]]
        assert not bad, bad
        fan, _w, _e, _f, (D1, D2) = blowup_collections()
        assert cohomology(fan, D2 - D1) == (0, 1, 0, 0)


def test_criterion_6_exceptional_collections():
    with criterion(6, "the 8-object and 5-object collections verify"):
        fan, _w, eight, five, (D1, D2) = blowup_collections()
        rep8 = check_exceptional(fan, [d for _n, d in eight],
                                 [n for n, _d in eight])
        assert rep8["exceptional"], rep8["witnesses"]
        rep5 = check_exceptional(fan, [d for _n, d in five],
                                 [n for n, _d in five])
        assert rep5["strong"], rep5["strong_witnesses"]
        orth = check_orthogonal_to_deformation(fan, [d for _n, d in five],
                                               [D1, D2])
        assert orth["pass"] and len(orth["rows"]) == 10


def test_criterion_7_intersection_numbers():
    with criterion(7, "intersection numbers and the Cartier census"):
        fan, div, walls = fan_library("blowupP3_2pts")
        from singcat.toric import divisor_from_combo
        D1 = divisor_from_combo(div, {"H": -1, "E1": 1, "E2": 1})
        D2 = div["E1"].scale(-1)
        assert intersect_curve(D1, walls["l"], fan) == 1
        assert intersect_curve(D2, walls["l"], fan) == -1
        rfan, rdiv, rwalls = fan_library("coneP1xP1_smallres")
        assert intersect_curve(rdiv["O(0,1)"], rwalls["C"], rfan) == 1
        assert intersect_curve(rdiv["O(1,0)"], rwalls["C"], rfan) == -1
        pfan, pdiv, _ = fan_library("coneP1xP1_projective")
        for a in range(-3, 4):
            for b in range(-3, 4):
                D = pdiv["O(1,0)"].scale(a) + pdiv["O(0,1)"].scale(b)
                assert weil_is_cartier(pfan, D) == (a == b)


def test_criterion_8_node_non_termination():
    with criterion(8, "the node point never terminates; truncation tower"):
        B = models.node_surface()
        coll = SimpleCollection([models.node_point_module(B)])
        rep = run(coll, max_iter=5)
        assert rep.outcome == "non-terminated"
        assert rep.dim_r_trajectory == [1, 3, 5, 7, 9]
        for n in range(1, 5):
            state = rep.states[n]
            alg = state.algebra()
            oracle = models.truncated_node_algebra(B, n)
            block = state.hom_blocks()[(0, 0)]
            g = state.components[0].ngens

            def mult(name):
                p = B.parse(name)
                return [[p if r == c else B.zero() for r in range(g)]
                        for c in range(g)]

            x_img = block.coords(mult("x"))
            y_img = block.coords(mult("y"))
            images = [list(alg.unit)]
            acc = list(alg.unit)
            for _ in range(n):
                acc = alg.mul(acc, x_img)
                images.append(list(acc))
            acc = list(alg.unit)
            for _ in range(n):
                acc = alg.mul(acc, y_img)
                images.append(list(acc))
            assert oracle.verify_isomorphism(alg, images), f"step {n}"


def test_criterion_9_fiber_generator_counts():
    with criterion(9, "the power modules need m+1 generators at the vertex"):
        C = models.cone_ring()
        origin = [C.parse(v) for v in ["x", "y", "z", "w"]]
        for m in range(1, 5):
            M = models.cone_power_ideal(C, m)
            assert fiber_generators(M, origin) == m + 1


def test_criterion_10_property_suites():
    with criterion(10, "resolution, shuffle, duality, and parity properties"):
        import random
        rng = random.Random(99)
        # complexes compose to zero
        C = models.cone_ring()
        for M in [models.cone_L1(C), models.cone_L2(C)]:
            assert M.resolve(6).verify_complex()
        # Ext invariance under 20 presentation shuffles
        L1, L2 = models.cone_L1(C), models.cone_L2(C)
        base = ext_dims(L1, L2, 3, p_min=1)
        for _ in range(20):
            g = L1.ngens
            perm = list(range(g))
            rng.shuffle(perm)
            cols = [[col[perm[i]] for i in range(g)] for col in L1.relations]
            rng.shuffle(cols)
            degs = tuple(L1.gen_degrees[perm[i]] for i in range(g))
            M = FPModule(C, g, cols, degs)
            assert ext_dims(M, L2, 3, p_min=1) == base
        # Serre duality and class invariance
        from singcat.toric import TDivisor, canonical_divisor
        fan, div, _ = fan_library("blowupP3_2pts")
        K = canonical_divisor(fan)
        for _ in range(3):
            D = TDivisor(fan, [rng.randint(-2, 2) for _ in fan.rays])
            assert cohomology(fan, D) == tuple(reversed(cohomology(fan, K - D)))
        D = div["H"].scale(-1)
        base_h = cohomology(fan, D)
        for _ in range(5):
            m = [rng.randint(-2, 2) for _ in range(3)]
            shift = TDivisor(fan, [sum(a * b for a, b in zip(m, u))
                                   for u in fan.rays])
            assert cohomology(fan, D + shift) == base_h
        # shift involution and parity swap
        B = models.node_curve()
        Xz = mf_from_module(models.branch_module_z(B))
        Xw = mf_from_module(models.branch_module_w(B))
        from singcat.matfac import mf_shift
        assert mf_shift(mf_shift(Xz)).A == Xz.A
        e, o = mf_stable_hom(Xz, Xw)
        assert mf_stable_hom(Xz, mf_shift(Xw)) == (o, e)
