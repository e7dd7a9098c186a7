"""Hom/Ext/stable Hom against worked examples over the small rings."""

import pytest

from singcat import homs
from singcat.quotient import parse_ring
from singcat.modules import FPModule
from singcat.poly import Polynomial
from singcat.homs import (hom_space, stable_hom, ext_dims, ext_space,
                          yoneda_extension, is_mcm, fiber_generators,
                          HomError, InfiniteDimensionError)
from singcat.modgb import SubmoduleGB, vec_add_into


from singcat.homs import ext_is_zero
from singcat.models import cone_ring, cone_L1, cone_L2, projective_cone_ring


# -- stable Hom over the three curve/point rings -----------------------------


def test_stable_end_v1_is_k():
    A = parse_ring("Q[z]/(z^2)")
    V1 = FPModule.cyclic(A, [A.parse("z")])
    S = stable_hom(V1, V1)
    assert S.dim == 1
    alg = S.algebra()
    assert alg.dim == 1
    assert alg.is_associative() and alg.unit_acts_trivially()


def test_stable_hom_mz_mw_vanishes():
    B = parse_ring("Q[z,w]/(z*w)")
    Mz = FPModule.cyclic(B, [B.parse("w")])
    Mw = FPModule.cyclic(B, [B.parse("z")])
    assert stable_hom(Mz, Mw).dim == 0
    assert stable_hom(Mw, Mz).dim == 0
    assert stable_hom(Mz, Mz).dim == 1


def test_algebra_needs_equal_source_and_target():
    B = parse_ring("Q[z,w]/(z*w)")
    Mz = FPModule.cyclic(B, [B.parse("w")])
    Mw = FPModule.cyclic(B, [B.parse("z")])
    with pytest.raises(HomError, match="equal source and target"):
        stable_hom(Mz, Mw).algebra()


def test_stable_hom_vanishes_on_frees():
    B = parse_ring("Q[z,w]/(z*w)")
    Mz = FPModule.cyclic(B, [B.parse("w")])
    free = FPModule.free(B, 1)
    assert stable_hom(free, Mz).dim == 0
    assert stable_hom(Mz, free).dim == 0
    assert stable_hom(free, free).dim == 0


def test_stable_end_of_normalization_is_kt_mod_t2_plus_1():
    from singcat.models import nonsplit_curve, normalization_module
    C = nonsplit_curve()
    Cp = normalization_module(C)
    S = stable_hom(Cp, Cp)
    assert S.dim == 2
    alg = S.algebra()
    assert alg.is_associative() and alg.is_commutative()
    # multiplication by z factors through the free cover, so z*id = 0 stably
    zid = [[C.parse("z"), C.zero()], [C.zero(), C.parse("z")]]
    assert all(C.field.is_zero(c) for c in S.coords(zid))
    # multiplication by t: 1 -> t, t -> t^2 = -z - 1
    tmat = [[C.zero(), C.one()], [C.parse("-z-1"), C.zero()]]
    tco = S.coords(tmat)
    # t^2 + 1 = 0 in the stable algebra
    t2 = alg.mul(tco, tco)
    minus_one = alg.scale(C.field.from_int(-1), alg.unit)
    assert alg.eq(t2, minus_one)


# -- graded degree-0 Hom on the cone ----------------------------------------


def test_cone_hom_degree_zero_dims():
    # the simple-collection test: pairwise degree-0 Hom dims are delta_{ij},
    # on both the affine local model and the projective cone model
    for R in (cone_ring(), projective_cone_ring()):
        L1, L2 = cone_L1(R), cone_L2(R)
        assert hom_space(L1, L2).dim == 0
        assert hom_space(L2, L1).dim == 0
        assert hom_space(L1, L1).dim == 1
        assert hom_space(L2, L2).dim == 1


def test_free_rank_one_end_is_constants():
    C = cone_ring()
    free = FPModule.free(C, 1, degrees=(0,))
    H = hom_space(free, free)
    assert H.mode == "graded0"
    assert H.dim == 1


def test_infinite_hom_without_grading_raises():
    C = parse_ring("Q[z,w]/(z*w)")
    free = FPModule.free(C, 1)  # no degree labels
    with pytest.raises(InfiniteDimensionError):
        hom_space(free, free)


def test_module_mode_presentation():
    # End of a branch module is the branch ring itself: an infinite-rank
    # k-space presented as a cyclic module
    B = parse_ring("Q[z,w]/(z*w)")
    Mz = FPModule.cyclic(B, [B.parse("w")])
    H = hom_space(Mz, Mz, mode="module")
    pres = H.presentation()
    assert pres.k_dim() is None
    with pytest.raises(Exception):
        H.dim  # module mode carries no k-basis


def test_hom_is_ext_zero():
    # Hom(M, N) is the p = 0 case of Ext: the same generators U, the same
    # null generators V, and so the same dimension
    from singcat.models import node_curve, branch_module_z, branch_module_w
    B = node_curve()
    C = cone_ring()
    modes = set()
    for pair in ((branch_module_z(B), branch_module_w(B)),
                 (cone_L1(C), cone_L2(C))):
        for M in pair:
            for N in pair:
                H = hom_space(M, N)
                E = ext_space(M, N, 0)
                assert H.msq.U == E.U
                assert H.msq.V == E.V
                if H.mode == "full":
                    assert H.dim == E.dim()
                else:
                    assert H.mode == "graded0"
                    assert H.dim == E.graded_dim(0)
                modes.add(H.mode)
    assert modes == {"full", "graded0"}


# -- Ext ---------------------------------------------------------------------


def test_ext_k_k_over_dual_numbers():
    A = parse_ring("Q[z]/(z^2)")
    k = FPModule.cyclic(A, [A.parse("z")])
    dims = ext_dims(k, k, 4, p_min=1)
    assert dims == {1: 1, 2: 1, 3: 1, 4: 1}
    # negative degrees are refused, not read from the end of the resolution
    with pytest.raises(HomError, match=r"Ext\^-2"):
        ext_dims(k, k, 2, p_min=-2)
    with pytest.raises(HomError, match=r"Ext\^-1"):
        ext_space(k, k, -1)


def test_ext_dims_refuses_an_empty_range():
    A = parse_ring("Q[z]/(z^2)")
    k = FPModule.cyclic(A, [A.parse("z")])
    assert ext_dims(k, k, 2, p_min=2) == {2: 1}
    with pytest.raises(HomError, match="empty Ext degree range"):
        ext_dims(k, k, 1, p_min=3)


def test_ext_of_free_vanishes():
    C = cone_ring()
    free = FPModule.free(C, 1, degrees=(0,))
    I1 = cone_L1(C)
    dims = ext_dims(free, I1, 3, p_min=1)
    assert dims == {1: 0, 2: 0, 3: 0}


def test_ext_node_residue_field():
    B = parse_ring("Q[x,y]/(x*y)")
    k = FPModule.cyclic(B, [B.parse("x"), B.parse("y")])
    dims = ext_dims(k, k, 2, p_min=0)
    assert dims[0] == 1
    assert dims[1] == 2  # two deformation directions of the node point
    assert dims[2] == 2


def test_cone_ext_table_lemma_rows():
    # self-Ext dims alternate 0,1,0,1..; cross-Ext dims alternate 1,0,1,0..
    C = cone_ring()
    L1, L2 = cone_L1(C), cone_L2(C)
    self_dims = ext_dims(L1, L1, 6, p_min=1)
    cross_dims = ext_dims(L1, L2, 6, p_min=1)
    assert self_dims == {1: 0, 2: 1, 3: 0, 4: 1, 5: 0, 6: 1}
    assert cross_dims == {1: 1, 2: 0, 3: 1, 4: 0, 5: 1, 6: 0}
    # swap symmetry is checked, not assumed
    assert ext_dims(L2, L2, 6, p_min=1) == self_dims
    assert ext_dims(L2, L1, 6, p_min=1) == cross_dims


def test_ext_dims_reuse_on_periodic_resolutions_matches_ext_space():
    # ext_dims reuses Ext^(p-2) past the periodic point; ext_space builds
    # every subquotient, on separately built modules
    from singcat.models import branch_module_w, branch_module_z, node_curve

    def cone_pair():
        C = cone_ring()
        return cone_L1(C), cone_L2(C)

    def node_pair():
        B = node_curve()
        return branch_module_z(B), branch_module_w(B)

    for build in (cone_pair, node_pair):
        for i, j in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            M, N = build()[i], build()[j]
            assert M.resolve(7).periodic_from is not None
            M2, N2 = build()[i], build()[j]
            ref = {p: ext_space(M2, N2, p).dim() for p in range(7)}
            # ext_dims computes its own cocycles, not the reference's
            homs._COCYCLES.clear()
            # Hom may be infinite-dimensional over k; ext_dims then starts at 1
            p_min = 0 if ref[0] is not None else 1
            assert ext_dims(M, N, 6, p_min=p_min) == \
                {p: d for p, d in ref.items() if p >= p_min}


# -- Yoneda extensions --------------------------------------------------------


def test_split_extension():
    B = parse_ring("Q[z,w]/(z*w)")
    Mz = FPModule.cyclic(B, [B.parse("w")])
    Mw = FPModule.cyclic(B, [B.parse("z")])
    zero_cocycle = [[B.zero()] for _ in Mw.relations]
    ext = yoneda_extension(zero_cocycle, Mz, Mw)
    assert ext.verify_exact()
    direct = Mz.direct_sum(Mw)
    # split extension: presentation matches the direct sum after reordering
    assert ext.E.ngens == direct.ngens
    assert stable_hom(ext.E, ext.E).dim == stable_hom(direct, direct).dim


def test_nontrivial_flag_rejects_zero_class():
    B = parse_ring("Q[z,w]/(z*w)")
    Mz = FPModule.cyclic(B, [B.parse("w")])
    Mw = FPModule.cyclic(B, [B.parse("z")])
    zero_cocycle = [[B.zero()] for _ in Mw.relations]
    with pytest.raises(Exception):
        yoneda_extension(zero_cocycle, Mz, Mw, require_nontrivial=True)


def make_extension(quotient, sub, graded=True):
    """Extension 0 -> sub -> E -> quotient -> 0 along the generator of
    Ext^1(quotient, sub): the degree-0 generator in graded mode, else the
    generator of the total (finite-dimensional) space."""
    space = ext_space(quotient, sub, 1)
    items = space.basis_items(graded_degree=0 if graded else None)
    assert len(items) == 1
    cocycle = space.item_matrix(items[0])
    return yoneda_extension(cocycle, sub, quotient, require_nontrivial=True)


def test_g1_on_projective_model():
    # global statements: Hom dims (1, 0) and degree-0 Ext^{>0}(G1, L_j) = 0
    P = projective_cone_ring()
    L1, L2 = cone_L1(P), cone_L2(P)
    ext = make_extension(L1, L2)
    assert ext.verify_exact()
    G1 = ext.E
    assert hom_space(G1, L1).dim == 1
    assert hom_space(G1, L2).dim == 0
    for p in (1, 2, 3):
        assert ext_space(G1, L1, p).graded_dim(0) == 0
        assert ext_space(G1, L2, p).graded_dim(0) == 0


def test_g2_on_projective_model():
    P = projective_cone_ring()
    L1, L2 = cone_L1(P), cone_L2(P)
    ext = make_extension(L2, L1)
    assert ext.verify_exact()
    G2 = ext.E
    assert hom_space(G2, L2).dim == 1
    assert hom_space(G2, L1).dim == 0
    for p in (1, 2, 3):
        assert ext_space(G2, L1, p).graded_dim(0) == 0
        assert ext_space(G2, L2, p).graded_dim(0) == 0


def test_g1_affine_total_ext_dims():
    # at the local model the extension is built from the total Ext^1
    # generator and its higher Ext against both rank-1 modules vanishes
    C = cone_ring()
    L1, L2 = cone_L1(C), cone_L2(C)
    ext = make_extension(L1, L2, graded=False)
    assert ext.verify_exact()
    G1 = ext.E
    assert ext_dims(G1, L1, 3, p_min=1) == {1: 0, 2: 0, 3: 0}
    assert ext_dims(G1, L2, 3, p_min=1) == {1: 0, 2: 0, 3: 0}


# -- MCM and fiber generators --------------------------------------------------


def test_is_mcm_on_cone_modules():
    C = cone_ring()
    I1 = cone_L1(C)
    ok, witness = is_mcm(I1)
    assert ok and witness is None
    # structure sheaf of the plane {x = w = 0}: a torsion module, not MCM
    OL = FPModule.cyclic(C, [C.parse("x"), C.parse("w")], degree=0)
    ok, witness = is_mcm(OL)
    assert not ok
    free = FPModule.free(C, 1, degrees=(0,))
    assert is_mcm(free) == (True, None)


def test_fiber_generator_counts():
    C = cone_ring()
    origin = [C.parse(v) for v in ["x", "y", "z", "w"]]
    for m in range(1, 5):
        gens = [f"x^{m}"] + [f"x^{m-j}*z^{j}" for j in range(1, m)] + [f"z^{m}"]
        gens = [g.replace("^1*", "*") for g in gens]
        M = FPModule.from_submodule(C, [[C.parse(g)] for g in gens],
                                    ambient_rank=1, ambient_degrees=[0])
        assert fiber_generators(M, origin) == m + 1
    free = FPModule.free(C, 3, degrees=(0, 0, 0))
    assert fiber_generators(free, origin) == 3


# -- one Groebner basis per subquotient ----------------------------------------


def _reference_gb(msq):
    """The presentation basis built by a second Buchberger run: the
    syzygies of U read from big_gb plus the ideal pads, over len(U)
    positions."""
    return SubmoduleGB(msq.ring.ambient, len(msq.U), msq.big_gb().syzygies(),
                       pad_polys=msq.ring.gb, tracked=0)


def _assert_matches_reference(msq):
    big, ref = msq.big_gb(), _reference_gb(msq)
    npos = big.npos
    tag_block = [((p - npos, m), {(q - npos, mm): c for (q, mm), c in v.items()})
                 for (p, m), v in big.basis if p >= npos]
    assert tag_block == ref.basis
    assert msq.dim() == ref.quotient_dim()
    graded = msq.row_degrees is not None and msq.col_degrees is not None
    if graded:
        degs = msq.gen_degrees()
        assert msq.graded_dim(0) == ref.quotient_graded_dim(0, degs)
        assert msq.basis_items(0) == ref._staircase(0, ref.npos, 0, degs)
    if msq.dim() is None:
        with pytest.raises(ValueError, match="infinite staircase"):
            msq.basis_items()
        items = msq.basis_items(0) if graded else []
    else:
        items = msq.basis_items()
        assert items == ref._staircase(0, ref.npos)
    F = msq.ring.field
    # a combination with distinct coefficients reads them back
    coeffs = [F.from_int(k + 1) for k in range(len(items))]
    vec = {}
    for c, it in zip(coeffs, items):
        vec_add_into(F, vec, msq.item_vec(it), c, (0,) * msq.ring.ambient.nvars)
    assert msq.coords(vec, items) == coeffs
    if msq.dim() is None:
        return
    # multiples of the basis: the certificate is already reduced modulo
    # the syzygies, so the second build's normal form leaves it unchanged
    for idx, mon in items:
        for i in range(msq.ring.ambient.nvars):
            shifted = tuple(e + (i == k) for k, e in enumerate(mon))
            vec = msq.item_vec((idx, shifted))
            _nf, cert = big.normal_form(vec, with_cert=True)
            assert ref.normal_form(cert) == cert
            assert msq.coords(vec, items) == [cert.get(it, F.zero())
                                              for it in items]


def test_subquotient_staircase_matches_second_build(monkeypatch):
    from singcat import matfac
    from singcat.matfac import knorrer, mf_from_module, mf_stable_hom
    from singcat.models import node_curve, branch_module_z, branch_module_w
    spaces = []
    B, C = node_curve(), cone_ring()
    for pair in ((branch_module_z(B), branch_module_w(B)),
                 (cone_L1(C), cone_L2(C))):
        for M in pair:
            for N in pair:
                spaces.append(hom_space(M, N, mode="module").msq)
                spaces.append(ext_space(M, N, 1))
                spaces.append(stable_hom(M, N).msq)
    # a free target: V is empty, so the ideal pads alone cut the space
    A = parse_ring("Q[z]/(z^2)")
    k, free = FPModule.cyclic(A, [A.parse("z")]), FPModule.free(A, 1)
    spaces.extend(ext_space(k, free, p) for p in (0, 1, 2))
    spaces.append(hom_space(cone_L1(C), FPModule.free(C, 1, degrees=(0,))).msq)
    P = projective_cone_ring()
    L1, L2 = cone_L1(P), cone_L2(P)
    for M in (L1, L2):
        for N in (L1, L2):
            for p in (0, 1, 2):
                spaces.append(ext_space(M, N, p))
    # matrix factorization homology over the free ring: no pads
    made = []

    class Recording(matfac.MatrixSubquotient):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(matfac, "MatrixSubquotient", Recording)
    Kz = knorrer(mf_from_module(branch_module_z(B)), "x", "y")
    Kw = knorrer(mf_from_module(branch_module_w(B)), "x", "y")
    assert mf_stable_hom(Kz, Kw) == (0, 1)
    assert made and all(not msq.ring.gb for msq in made)
    spaces.extend(made)
    nonempty = [msq for msq in spaces if msq.U]
    assert len(nonempty) >= 30
    for msq in nonempty:
        _assert_matches_reference(msq)


def test_subquotient_builds_one_groebner_basis(monkeypatch):
    C = cone_ring()
    msq = ext_space(cone_L1(C), cone_L2(C), 1)
    builds = []
    real_init = SubmoduleGB.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args[1] if len(args) > 1 else kwargs.get("npos"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(SubmoduleGB, "__init__", counting_init)
    assert msq.dim() == 1
    items = msq.basis_items()
    assert msq.coords(msq.item_vec(items[0]), items) == [C.field.one()]
    assert builds == [msq.nrows * msq.ncols]


# -- cocycle modules, once per content ------------------------------------------


def _count_builds(monkeypatch):
    builds = []
    real_init = SubmoduleGB.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args[1] if len(args) > 1 else kwargs.get("npos"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(SubmoduleGB, "__init__", counting_init)
    return builds


def test_cocycles_are_built_once_for_content_equal_modules(monkeypatch):
    C, C2 = cone_ring(), cone_ring()
    L1, L2, L1b, L2b = cone_L1(C), cone_L2(C), cone_L1(C2), cone_L2(C2)
    builds = _count_builds(monkeypatch)
    first = hom_space(L1, L2)
    # the cocycle build, then the subquotient's basis
    assert len(builds) == 2
    # separately built modules with the same content: only the basis
    second = hom_space(L1b, L2b)
    assert len(builds) == 3
    assert second.msq.U == first.msq.U and second.dim == first.dim
    assert len(homs._COCYCLES) == 1


def test_cocycles_over_two_fields_share_no_entry(monkeypatch):
    # Hom(coker(x, y), R) is spanned by (y, -x): the same input, with the
    # same integer coefficients, over Q and over F_32003, where -1 is 32002
    builds = _count_builds(monkeypatch)
    U = {}
    for name in ("Q", "F32003"):
        A = parse_ring(f"{name}[x,y]")
        M = FPModule(A, 2, [[A.parse("x"), A.parse("y")]])
        before = len(builds)
        U[name] = hom_space(M, FPModule.free(A, 1), mode="module").msq.U
        assert len(builds) - before == 1
    assert U == {"Q": [{(0, (0, 1)): 1, (1, (1, 0)): -1}],
                 "F32003": [{(0, (0, 1)): 1, (1, (1, 0)): 32002}]}
    assert len(homs._COCYCLES) == 2


def _recompute_every_entry():
    """Each remembered cocycle module, and the same input computed again
    with nothing remembered."""
    saved = dict(homs._COCYCLES)
    homs._COCYCLES.clear()
    for key, kept in saved.items():
        ring, h, r, d_next, relations = key

        def columns(cols):
            return [[Polynomial(ring.ambient, dict(terms)) for terms in col]
                    for col in cols]

        yield kept, homs._cocycles(ring, h, r, columns(d_next), columns(relations))


def test_remembered_cocycles_equal_a_recomputation():
    C = cone_ring()
    L1, L2 = cone_L1(C), cone_L2(C)
    for M in (L1, L2):
        assert hom_space(M, M).algebra().dim == 1
        assert stable_hom(M, M).algebra().dim == 1
        for N in (L1, L2):
            hom_space(M, N, mode="module").presentation()
            ext_dims(M, N, 4, p_min=1)
    A = parse_ring("Q[z]/(z^2)")
    k = FPModule.cyclic(A, [A.parse("z")])
    assert hom_space(k, k).algebra().dim == 1
    assert ext_dims(k, k, 3) == {0: 1, 1: 1, 2: 1, 3: 1}
    assert len(homs._COCYCLES) >= 10
    pairs = list(_recompute_every_entry())
    assert len(pairs) >= 10
    for kept, fresh in pairs:
        assert kept == fresh
