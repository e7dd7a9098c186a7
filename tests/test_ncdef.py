"""Deformation iteration: the cone collection terminates with the
4-dimensional algebra, the node point runs forever through truncations."""

import time

import pytest

from singcat import models, ncdef
from singcat.findim import AlgebraError
from singcat.homs import ext_space, hom_space, stable_hom, structure_constants
from singcat.modules import FPModule
from singcat.ncdef import (SimpleCollection, DeformationError, simple_check,
                           initial_state, deform_step, run,
                           flatness_filtration_check)

from test_findim import is_commutative, sparse_products, unit_acts_trivially
from test_homs import extension_is_exact


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
    assert alg.is_associative() and unit_acts_trivially(alg)
    # radical-square-zero with two arrows between the idempotents
    rad = alg.radical()
    assert len(rad) == 2
    assert alg.subspace_dim([alg.mul(a, b) for a in rad for b in rad]) == 0
    ok, detail = flatness_filtration_check(rep.final_state)
    assert ok, detail
    assert detail["multiplicities"] == [2, 2]


@pytest.mark.parametrize("field", ["Q", "F32003"])
def test_a_relation_zero_modulo_the_ideal_leaves_the_run_unchanged(field):
    # x*y+z*w is zero in the ring, so both collections hold the same module
    P = models.projective_cone_ring(field)
    x, z, f = P.parse("x"), P.parse("z"), P.parse("x*y+z*w")
    plain, padded = (run(SimpleCollection([FPModule.cyclic(P, gens)]), max_iter=3)
                     for gens in ([x, z], [x, z, f]))
    assert padded.dim_r_trajectory == plain.dim_r_trajectory == [1, 2, 3]
    assert padded.algebra().mult_table == plain.algebra().mult_table


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


@pytest.mark.parametrize("field", ["Q", "F32003"])
def test_node_components_are_cyclic(field):
    # F_n = B/(x^(n+1), y^(n+1)): the copies' generators all drop
    B = models.node_surface(field)
    state = initial_state(SimpleCollection([models.node_point_module(B)]))
    for n in range(1, 7):
        state = deform_step(state)
        E = state.components[0]
        assert (E.ngens, E.relations, E.gen_degrees) == \
            (1, [[B.parse(f"x^{n + 1}")], [B.parse(f"y^{n + 1}")]], (0,)), n


def test_cone_components_keep_their_presentation():
    coll = cone_collection()
    step1 = deform_step(initial_state(coll))
    for M in coll.modules + step1.components:
        assert M.minimal_presentation() is M
    assert [E.ngens for E in step1.components] == [4, 4]


def test_dim_r_equals_filtration_length_everywhere():
    B, coll = node_collection()
    rep = run(coll, max_iter=4)
    for state in rep.states:
        assert state.dim_R() == sum(len(f) for f in state.filtrations)
    rep2 = run(cone_collection(), max_iter=8)
    for state in rep2.states:
        assert state.dim_R() == sum(len(f) for f in state.filtrations)


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


def test_flatness_check_at_tower_depth_eight():
    # the radical powers must stay bases: as lists of all products they
    # grow as |rad|^k, past any memory at this depth
    _B, coll = node_collection()
    state = run(coll, max_iter=9).final_state
    assert state.algebra().dim == 17
    start = time.perf_counter()
    ok, detail = flatness_filtration_check(state)
    assert time.perf_counter() - start < 1
    assert ok, detail
    assert detail["radical_layers"] == [1, 2, 2, 2, 2, 2, 2, 2, 2]


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

    mats = {key: [space.msq.item_matrix(it) for it in space.basis]
            for key, space in blocks.items()}
    table = []
    for (i1, j1, k1) in layout:
        phi = mats[(i1, j1)][k1]
        row = []
        for (i2, j2, k2) in layout:
            if j1 != i2:
                row.append([zero] * len(layout))
                continue
            psi = mats[(i2, j2)][k2]
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


def assert_builder_matches(blocks, r, reference):
    """The builder emits the nonzero entries of the reference table as
    sparse rows, and the same layout and block identities."""
    layout, table, idents = reference
    F = blocks[(0, 0)].M.ring.field
    assert structure_constants(blocks, r) == (layout, sparse_products(F, table),
                                              idents)


def assert_state_matches_reference(state):
    r = len(state.collection)
    layout, table, idents = reference_table(state.hom_blocks(), r)
    assert_builder_matches(state.hom_blocks(), r, (layout, table, idents))
    alg = state.algebra()
    assert alg.mult_table == table
    assert state.block_idempotents() == idents
    one = alg.zero_vec()
    for e in idents:
        one = alg.add(one, e)
    assert alg.unit == one


def test_builder_matches_double_loop_on_the_cone_pair():
    # mode graded0: the products are read from bases truncated at degree 0
    for field in ("Q", "F32003"):
        rep = run(cone_collection(field), max_iter=8)
        assert rep.final_state.collection.mode == "graded0"
        assert len(rep.final_state.collection) == 2
        assert rep.dim_r_trajectory[-1] == 4
        for state in rep.states:
            assert_state_matches_reference(state)


def test_builder_matches_double_loop_on_the_node_tower():
    for field in ("Q", "F32003"):
        B = models.node_surface(field)
        state = initial_state(SimpleCollection([models.node_point_module(B)]))
        for n in range(1, 13):
            state = deform_step(state)
            assert state.dim_R() == 2 * n + 1
            assert_state_matches_reference(state)


def two_generator_modules(B, n):
    """B/(x^(n+1), y^(n+1)) on two generators g = x g', g' with the
    redundant relation y g, and the sum B/(x^2, y^2) (+) B/(x^(n+2),
    y^(n+2)) with the redundant relation x^3 g."""
    one, zero = B.one(), B.zero()
    glued = FPModule(B, 2, [[-one, B.parse("x")],
                            [zero, B.parse(f"x^{n + 1}")],
                            [zero, B.parse(f"y^{n + 1}")],
                            [B.parse("y"), zero]], (1, 0))
    summed = FPModule(B, 2, [[B.parse("x^2"), zero], [B.parse("y^2"), zero],
                             [zero, B.parse(f"x^{n + 2}")],
                             [zero, B.parse(f"y^{n + 2}")],
                             [B.parse("x^3"), zero]], (0, 0))
    return glued, summed


@pytest.mark.parametrize("field", ["Q", "F32003"])
def test_builder_matches_double_loop_on_two_generator_presentations(field):
    # blocks whose Hom spaces are spanned by several generators U, with
    # basis maps x^m U_a on more than one of them; on the glued
    # presentation some x_v x^m U_c off the staircase is a nonzero class
    B = models.node_surface(field)
    for n in range(1, 4):
        glued, summed = two_generator_modules(B, n)
        cyclic = FPModule.cyclic(B, [B.parse(f"x^{n + 1}"),
                                     B.parse(f"y^{n + 1}")], degree=0)
        End = hom_space(summed, summed)
        assert len({a for a, _m in End.basis}) >= 2
        assert End.dim == 3 + 3 + 4 + 2 * n + 3  # the four Hom blocks
        for F in ([glued], [summed], [cyclic, glued], [glued, summed]):
            r = len(F)
            blocks = {(i, j): hom_space(F[j], F[i])
                      for i in range(r) for j in range(r)}
            assert all(len(b.msq.U) >= 2 for (i, j), b in blocks.items()
                       if F[j] is not cyclic)
            assert_builder_matches(blocks, r, reference_table(blocks, r))
        # in degree zero a product x^m U_a o U'_b is walked up from the
        # degree of U_a o U'_b, below 0, through classes of no basis item
        shifted = FPModule(B, 1, cyclic.relations, (1,))
        F = [cyclic, glued, shifted]
        blocks = {(i, j): hom_space(F[j], F[i], mode="graded0")
                  for i in range(3) for j in range(3)}
        assert {m for _a, m in blocks[(0, 2)].basis} == {(1, 0), (0, 1)}
        assert_builder_matches(blocks, 3, reference_table(blocks, 3))


def test_certificates_per_node_level_grow_with_dim_r(monkeypatch):
    # one certificate per generator product, block identity and product
    # x_v x^m U_c off the staircase: about dim R per level, not dim R^2
    from singcat.homs import MatrixSubquotient
    calls = []
    real = MatrixSubquotient._certificate

    def counting(self, vec):
        calls.append(1)
        return real(self, vec)

    monkeypatch.setattr(MatrixSubquotient, "_certificate", counting)
    _B, coll = node_collection()
    state = initial_state(coll)
    for n in range(1, 21):
        state = deform_step(state)
        calls.clear()
        dim = state.dim_R()
        assert len(calls) <= 2 * dim, (n, dim, len(calls))


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
    assert alg.dim == 5 and not is_commutative(alg)
    assert alg.mult_table == table and alg.unit == ident
    F = [k, kA]
    blocks = {(i, j): hom_space(F[j], F[i]) for i in range(2) for j in range(2)}
    assert_builder_matches(blocks, 2, reference_table(blocks, 2))


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


def count_builds(monkeypatch):
    """A list that gains one entry per SubmoduleGB build from now on."""
    from singcat.modgb import SubmoduleGB
    builds = []
    real_init = SubmoduleGB.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(SubmoduleGB, "__init__", counting_init)
    return builds


@pytest.mark.parametrize("model", ["cone", "node"])
def test_state_zero_builds_nothing(model, monkeypatch):
    coll = cone_collection() if model == "cone" else node_collection()[1]
    state = initial_state(coll)
    builds = count_builds(monkeypatch)
    ext = state.ext1_spaces()
    alg = state.algebra()
    assert builds == []
    assert all(ext[key] == coll.ext1[key] for key in coll.ext1)
    assert alg.dim == len(coll)
    # the same spaces built afresh give the same basis items
    fresh = {(i, j): ext_space(Li, Lj, 1)
             for i, Li in enumerate(coll.modules)
             for j, Lj in enumerate(coll.modules)}
    for key, space in fresh.items():
        items = (space.basis_items(graded_degree=0) if coll.mode == "graded0"
                 else space.basis_items())
        assert ext[key][1] == items, key


def test_collection_reads_finite_homs_in_degree_zero(monkeypatch):
    # the two branches of zw = 0: End(B/(w)) = k[z] is infinite, so the
    # collection is graded0, while Hom(B/(w), B/(z)) = 0 lands on 'full'
    B = models.node_curve()
    members = [models.branch_module_z(B), models.branch_module_w(B)]
    assert [[hom_space(a, b).mode for b in members] for a in members] == \
        [["graded0", "full"], ["full", "graded0"]]
    coll = SimpleCollection(members)
    assert coll.mode == "graded0"
    assert all(h.mode == "graded0" for h in coll.homs.values())
    assert [[coll.homs[(i, j)].dim for j in range(2)] for i in range(2)] == \
        [[1, 0], [0, 1]]
    builds = count_builds(monkeypatch)
    rep = run(coll, max_iter=3)
    assert builds == []
    assert (rep.outcome, rep.dim_r_trajectory) == ("terminated", [2])


# -- the universal extension against the hand-laid presentation -------------


def reference_extension(state, i):
    """The universal extension of F^(i) laid out by hand: F's generators
    first, columns [rel F ; -cocycles], then the relations of each added L_j
    after F's generators, each copy twisted by minus the internal degree of
    its class.  None when no class is added."""
    coll = state.collection
    ring = coll.ring
    F = state.components[i]
    additions = []  # (j, cocycle matrix, class degree)
    for j in range(len(coll)):
        space, items = state.ext1_spaces()[(i, j)]
        for it in items:
            delta = None
            if coll.graded:
                idx, mon = it
                delta = space.gen_degrees()[idx] + ring.ambient.weighted_deg(mon)
            additions.append((j, space.item_matrix(it), delta))
    if not additions:
        return None
    gE = F.ngens + sum(coll.modules[j].ngens for j, _c, _d in additions)
    cols = []
    for l, relcol in enumerate(F.relations):
        col = [ring.normal_form(p) for p in relcol]
        for j, cocycle, _d in additions:
            col += [ring.normal_form(-p) for p in cocycle[l]]
        cols.append(col)
    offset = F.ngens
    for j, _c, _d in additions:
        L = coll.modules[j]
        for relcol in L.relations:
            col = [ring.zero()] * gE
            for t, p in enumerate(relcol):
                col[offset + t] = p
            cols.append(col)
        offset += L.ngens
    degrees = None
    if coll.graded:
        degrees = tuple(F.gen_degrees)
        for j, _c, delta in additions:
            degrees += tuple(d - delta for d in coll.modules[j].gen_degrees)
    return FPModule(ring, gE, cols, degrees)


@pytest.mark.parametrize("field", ["Q", "F32003"])
@pytest.mark.parametrize("model", ["cone", "node"])
def test_universal_extension_matches_the_hand_laid_reference(field, model,
                                                             monkeypatch):
    if model == "cone":
        coll = cone_collection(field)
    else:
        coll = SimpleCollection(
            [models.node_point_module(models.node_surface(field))])
    built = []
    real_yoneda = ncdef.yoneda_extension

    def recording(*args):
        built.append(real_yoneda(*args))
        return built[-1]

    monkeypatch.setattr(ncdef, "yoneda_extension", recording)
    state, steps = initial_state(coll), 0
    while steps < 4 and not state.is_terminated():
        before = len(built)
        nxt = deform_step(state)
        new = iter(built[before:])
        for i, F in enumerate(state.components):
            ref, E = reference_extension(state, i), nxt.components[i]
            if ref is None:
                assert E is F
                continue
            ext = next(new)
            assert ext.B is F
            assert (ext.E.ngens, ext.E.relations, ext.E.gen_degrees) == \
                (ref.ngens, ref.relations, ref.gen_degrees), (steps, i)
            if model == "cone":
                assert ext.E is E
            else:  # the node's extensions drop the copies' generators
                least = ext.E.minimal_presentation()
                assert least is not ext.E
                assert (E.ngens, E.relations, E.gen_degrees) == \
                    (least.ngens, least.relations, least.gen_degrees)
        assert next(new, None) is None
        state, steps = nxt, steps + 1
    assert steps == (1 if model == "cone" else 4)
    assert built and all(extension_is_exact(ext) for ext in built)
