"""Deformation iteration: the cone collection terminates with the
4-dimensional algebra, the node point runs forever through truncations."""

import time

import pytest

from singcat import models
from singcat.findim import AlgebraError
from singcat.homs import hom_space, stable_hom, structure_constants
from singcat.modules import FPModule
from singcat.ncdef import (SimpleCollection, DeformationError, simple_check,
                           initial_state, deform_step, run,
                           flatness_filtration_check)


def cone_collection(field="Q"):
    P = models.projective_cone_ring(field)
    return SimpleCollection([models.cone_L1(P), models.cone_L2(P)])


def test_simple_check_cone_pair():
    P = models.projective_cone_ring()
    ok, matrix = simple_check([models.cone_L1(P), models.cone_L2(P)])
    assert ok
    assert matrix == [[1, 0], [0, 1]]


def test_simple_check_rejects_duplicate():
    P = models.projective_cone_ring()
    L1 = models.cone_L1(P)
    ok, matrix = simple_check([L1, L1])
    assert not ok
    assert matrix[0][1] == 1
    with pytest.raises(DeformationError):
        SimpleCollection([L1, L1])


def test_fixed_point_for_rigid_module():
    # a free rank-1 module has End = k and Ext^1 = 0: terminated at step 0
    C = models.cone_ring()
    free = FPModule.free(C, 1, degrees=(0,))
    rep = run(SimpleCollection([free]), max_iter=4)
    assert rep.outcome == "terminated"
    assert rep.final_step == 0
    assert rep.dim_r_trajectory == [1]
    assert rep.algebra().dim == 1


def test_cone_run_terminates_with_four_dimensional_algebra():
    rep = run(cone_collection(), max_iter=8)
    assert rep.outcome == "terminated"
    assert rep.final_step == 1
    assert rep.dim_r_trajectory == [2, 4]
    alg = rep.algebra()
    assert alg.dim == 4
    assert alg.is_associative() and alg.unit_acts_trivially()
    # radical-square-zero with two arrows between the idempotents
    rad = alg.radical()
    assert len(rad) == 2
    assert alg.subspace_dim(alg.multiply_subspaces(rad, rad)) == 0
    ok, detail = flatness_filtration_check(rep.final_state)
    assert ok, detail
    assert detail["multiplicities"] == [2, 2]


def test_cone_step_filtration_matches_odp_extensions():
    state = initial_state(cone_collection())
    dims = state.ext1_dims()
    assert dims == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    nxt = deform_step(state)
    # F1 gains an L2 factor, F2 gains an L1 factor
    assert nxt.filtrations[0] == [(0, 0), (1, 1)]
    assert nxt.filtrations[1] == [(0, 1), (1, 0)]
    assert nxt.components[0].ngens == 4
    assert nxt.is_terminated()


def node_collection():
    B = models.node_surface()
    return B, SimpleCollection([models.node_point_module(B)])


def test_node_point_does_not_terminate():
    B, coll = node_collection()
    rep = run(coll, max_iter=5)
    assert rep.outcome == "non-terminated"
    assert rep.final_step == 5
    assert rep.dim_r_trajectory == [1, 3, 5, 7, 9]


def test_dim_r_equals_filtration_length_everywhere():
    B, coll = node_collection()
    rep = run(coll, max_iter=4)
    for state in rep.states:
        assert state.dim_R() == state.filtration_length()
    rep2 = run(cone_collection(), max_iter=8)
    for state in rep2.states:
        assert state.dim_R() == state.filtration_length()


def multiplication_images(state, B, n):
    """Images of the truncation basis 1, x..x^n, y..y^n inside End(F_n)."""
    alg = state.algebra()
    block = state.hom_blocks()[(0, 0)]
    g = state.components[0].ngens

    def mult_matrix(name):
        p = B.parse(name)
        return [[p if a == b else B.zero() for a in range(g)] for b in range(g)]

    x_img = block.coords(mult_matrix("x"))
    y_img = block.coords(mult_matrix("y"))
    images = [list(alg.unit)]
    acc = list(alg.unit)
    for _ in range(n):
        acc = alg.mul(acc, x_img)
        images.append(list(acc))
    acc = list(alg.unit)
    for _ in range(n):
        acc = alg.mul(acc, y_img)
        images.append(list(acc))
    return images


def test_node_tower_matches_truncation_oracle():
    B, coll = node_collection()
    rep = run(coll, max_iter=4)
    for n in range(1, 4):
        state = rep.states[n]
        alg = state.algebra()
        oracle = models.truncated_node_algebra(B, n)
        assert alg.dim == oracle.dim == 2 * n + 1
        images = multiplication_images(state, B, n)
        assert oracle.verify_isomorphism(alg, images)
        ok, detail = flatness_filtration_check(state)
        assert ok, detail


def test_corrupted_filtration_fails_flatness():
    rep = run(cone_collection(), max_iter=8)
    state = rep.final_state
    state.filtrations[0] = state.filtrations[0][:-1]  # drop a factor
    ok, _detail = flatness_filtration_check(state)
    assert not ok


@pytest.mark.parametrize("field", ["Q", "F3"])
def test_cone_radical_layers(field):
    rep = run(cone_collection(field), max_iter=8)
    ok, detail = flatness_filtration_check(rep.final_state)
    assert ok, detail
    assert detail["radical_layers"] == [2, 2]


def test_flatness_check_refuses_the_trace_radical_over_f2():
    # the trace form vanishes in characteristic 2, so the "radical" is all
    # of A and its powers never shrink; the layer loop used to run forever
    rep = run(cone_collection("F2"), max_iter=8)
    assert rep.outcome == "terminated" and rep.algebra().dim == 4
    start = time.perf_counter()
    with pytest.raises(AlgebraError, match=r"over F2 \(dim A = 4\)"):
        flatness_filtration_check(rep.final_state)
    assert time.perf_counter() - start < 1


# -- the shared structure-constant builder -----------------------------------


def reference_table(blocks, r):
    """The table by the double loop: for every ordered pair of basis maps,
    compose the matrices entry by entry and take coordinates in the target
    block; also the coordinate vectors of the block identities."""
    ring = blocks[(0, 0)].M.ring
    zero = ring.field.zero()
    layout = [(i, j, k) for i in range(r) for j in range(r)
              for k in range(blocks[(i, j)].dim)]

    def placed(i, j, coords):
        vec = [zero] * len(layout)
        for k, c in enumerate(coords):
            vec[layout.index((i, j, k))] = c
        return vec

    table = []
    for (i1, j1, k1) in layout:
        phi = blocks[(i1, j1)].basis_matrices()[k1]
        row = []
        for (i2, j2, k2) in layout:
            if j1 != i2:
                row.append([zero] * len(layout))
                continue
            psi = blocks[(i2, j2)].basis_matrices()[k2]
            # column c of phi o psi is the sum over b of psi[c][b] * phi[b]
            comp = []
            for psi_col in psi:
                col = [ring.zero()] * len(phi[0])
                for coeff, phi_col in zip(psi_col, phi):
                    col = [a + coeff * p for a, p in zip(col, phi_col)]
                comp.append([ring.normal_form(p) for p in col])
            row.append(placed(i1, j2, blocks[(i1, j2)].coords(comp)))
        table.append(row)
    idents = []
    for i in range(r):
        g = blocks[(i, i)].M.ngens
        ident = [[ring.one() if a == b else ring.zero() for a in range(g)]
                 for b in range(g)]
        idents.append(placed(i, i, blocks[(i, i)].coords(ident)))
    return layout, table, idents


def assert_state_matches_reference(state):
    r = len(state.collection)
    layout, table, idents = reference_table(state.hom_blocks(), r)
    assert structure_constants(state.hom_blocks(), r) == (layout, table, idents)
    alg = state.algebra()
    assert alg.mult_table == table
    assert state.block_idempotents() == idents
    one = alg.zero_vec()
    for e in idents:
        one = alg.add(one, e)
    assert alg.unit == one


def test_builder_matches_double_loop_on_the_cone_pair():
    state = run(cone_collection(), max_iter=8).final_state
    assert len(state.collection) == 2 and state.dim_R() == 4
    assert_state_matches_reference(state)


def test_builder_matches_double_loop_on_the_node_tower():
    _B, coll = node_collection()
    rep = run(coll, max_iter=4)
    for n in range(1, 4):
        assert_state_matches_reference(rep.states[n])


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_builder_matches_double_loop_on_the_y1_stable_end(field):
    C = models.nonsplit_curve(field)
    Cp = models.normalization_module(C)
    S = stable_hom(Cp, Cp)
    _layout, table, (ident,) = reference_table({(0, 0): S}, 1)
    alg = S.algebra()
    assert alg.dim == 2
    assert alg.mult_table == table
    assert alg.unit == ident


def test_builder_matches_double_loop_on_a_noncommutative_end():
    # over k[z]/(z^2): F_0 = k and F_1 = k (+) A, whose End is not
    # commutative (k -> A -> k is zero, A -> k -> A is multiplication by z)
    A = models.dual_numbers()
    k = FPModule.cyclic(A, [A.parse("z")])
    kA = FPModule(A, 2, [[A.parse("z"), A.zero()]])
    End = hom_space(kA, kA)
    _layout, table, (ident,) = reference_table({(0, 0): End}, 1)
    alg = End.algebra()
    assert alg.dim == 5 and not alg.is_commutative()
    assert alg.mult_table == table and alg.unit == ident
    F = [k, kA]
    blocks = {(i, j): hom_space(F[j], F[i]) for i in range(2) for j in range(2)}
    assert structure_constants(blocks, 2) == reference_table(blocks, 2)


def test_one_member_state_zero_is_the_hom_algebra():
    B = models.node_surface()
    L = models.node_point_module(B)
    state = initial_state(SimpleCollection([L]))
    alg = state.algebra()
    hom_alg = hom_space(L, L).algebra()
    assert alg.mult_table == hom_alg.mult_table
    assert alg.unit == hom_alg.unit


def test_block_idempotents_before_the_algebra():
    state = deform_step(initial_state(cone_collection()))
    idem = state.block_idempotents()
    alg = state.algebra()
    assert len(idem) == 2
    for a, e in enumerate(idem):
        for b, f in enumerate(idem):
            assert alg.eq(alg.mul(e, f), e if a == b else alg.zero_vec())
    assert alg.eq(alg.add(idem[0], idem[1]), alg.unit)


def test_state_zero_takes_the_collections_hom_spaces(monkeypatch):
    from singcat.modgb import SubmoduleGB
    coll = cone_collection()
    assert coll.mode == "graded0"
    state = initial_state(coll)
    builds = []
    real_init = SubmoduleGB.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(SubmoduleGB, "__init__", counting_init)
    alg = state.algebra()
    assert builds == []
    blocks = state.hom_blocks()
    assert all(blocks[(i, j)] is coll.homs[(j, i)]
               for i in range(2) for j in range(2))
    # every block built again in the collection's mode gives the same table
    fresh = {(i, j): hom_space(coll.modules[j], coll.modules[i], mode=coll.mode)
             for i in range(2) for j in range(2)}
    layout, table, idents = reference_table(fresh, 2)
    assert alg.mult_table == table and alg.dim == 2
    assert state.block_idempotents() == idents
