"""Deformation iteration: the cone collection terminates with the
4-dimensional algebra, the node point runs forever through truncations."""

import time

import pytest

from singcat import models
from singcat.findim import AlgebraError
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
