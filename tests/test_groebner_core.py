"""Groebner engine: ideal bases, normal forms, membership, syzygies."""

import random

from singcat.fields import QQ, GF
from singcat.poly import PolyRing
from singcat.modgb import (SubmoduleGB, groebner_basis, poly_normal_form,
                           vec_from_polys, vec_to_polys)
from singcat.quotient import QuotientRing, parse_ring


def test_gb_spair_example():
    # S-polynomial of (x^2, x*y+y^2) reduces to y^3 by hand:
    #   y*(x^2) - x*(x*y+y^2) = -x*y^2 -> + y*(x*y+y^2) = y^3
    R = PolyRing(QQ, ["x", "y"])
    gb = groebner_basis([R.parse("x^2"), R.parse("x*y+y^2")])
    expect = {repr(R.parse("x^2")), repr(R.parse("x*y+y^2")), repr(R.parse("y^3"))}
    assert {repr(g) for g in gb} == expect


def test_gb_principal_ideal():
    R = PolyRing(QQ, ["x"])
    assert groebner_basis([R.parse("x")]) == [R.parse("x")]


def test_gb_single_irreducible():
    R = PolyRing(QQ, ["x", "y", "z", "w"])
    assert groebner_basis([R.parse("x*y+z*w")]) == [R.parse("x*y+z*w")]


def test_gb_canonical_under_input_shuffle():
    R = PolyRing(QQ, ["x", "y", "z"])
    gens = [R.parse(s) for s in ["x*y-z", "y*z-x", "x*z-y", "x^2-y^2"]]
    rng = random.Random(3)
    base = None
    for _ in range(6):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        gb = groebner_basis(shuffled)
        rep = [repr(g) for g in gb]
        if base is None:
            base = rep
        assert rep == base
    # ideal membership of each input generator
    for g in gens:
        assert poly_normal_form(g, base_gb(R, gens)).is_zero()


def base_gb(R, gens):
    return groebner_basis(gens)


def test_normal_form_idempotent():
    R = PolyRing(QQ, ["x", "y"])
    gb = groebner_basis([R.parse("x^2-y"), R.parse("y^2-1")])
    p = R.parse("x^5+x*y^3")
    nf = poly_normal_form(p, gb)
    assert poly_normal_form(nf, gb) == nf
    assert poly_normal_form(p - nf, gb).is_zero()


def test_koszul_syzygy():
    R = PolyRing(QQ, ["x", "y"])
    cols = [vec_from_polys([R.parse("x")]), vec_from_polys([R.parse("y")])]
    gb = SubmoduleGB(R, 1, cols)
    syz = gb.syzygies()
    # the syzygy module of (x, y) is generated by (y, -x)
    assert len(syz) == 1
    s = vec_to_polys(R, syz[0], 2)
    assert [repr(p) for p in s] == ["y", "-x"] or [repr(p) for p in s] == ["-y", "x"]


def test_syzygy_over_hypersurface_quotient():
    # over A = Q[z]/(z^2): the syzygy of [z] is (z)
    A = parse_ring("Q[z]/(z^2)")
    cols = [vec_from_polys([A.parse("z")])]
    gb = SubmoduleGB(A.ambient, 1, cols, pad_polys=A.gb)
    syz = gb.syzygies()
    polys = [vec_to_polys(A.ambient, s, 1)[0] for s in syz]
    assert A.parse("z") in polys
    # M*S = 0 holds in A for every syzygy
    for s in polys:
        assert A.is_zero(s * A.parse("z"))


def test_syzygy_cone_ring_oracle():
    # columns (x, z) over Q[x,y,z,w]/(x*y+z*w): oracle asserts M*S = 0 mod the ideal
    C = parse_ring("Q[x,y,z,w]/(x*y+z*w)")
    R = C.ambient
    cols = [vec_from_polys([R.parse("x")]), vec_from_polys([R.parse("z")])]
    gb = SubmoduleGB(R, 1, cols, pad_polys=C.gb)
    syz = gb.syzygies()
    assert syz
    for s in syz:
        a, b = vec_to_polys(R, s, 2)
        assert C.is_zero(R.parse("x") * a + R.parse("z") * b)
    # the Koszul pair (z, -x) and the equation pair (y, w) lie in the syzygy span
    span = SubmoduleGB(R, 2, syz, pad_polys=C.gb)
    for pair in [("z", "-x"), ("y", "w")]:
        v = vec_from_polys([R.parse(pair[0]), R.parse(pair[1])])
        assert span.contains(v)


def test_padded_module_bases_are_reduced(monkeypatch):
    # every basis built while resolving the cone and node presentations and
    # computing Homs between them: graph-module bases padded by the ideal
    from singcat import models
    from singcat.homs import hom_space
    from singcat.poly import mon_divides
    built = []
    init = SubmoduleGB.__init__

    def recording_init(self, *args, **kw):
        init(self, *args, **kw)
        built.append(self)

    monkeypatch.setattr(SubmoduleGB, "__init__", recording_init)
    C, N, B = models.cone_ring(), models.node_surface(), models.node_curve()
    L1, L2 = models.cone_L1(C), models.cone_L2(C)
    for M in (L1, L2, models.cone_power_ideal(C, 3),
              models.node_point_module(N), models.branch_module_z(B)):
        M.resolve(3)
    hom_space(L1, L2, mode="graded0")
    hom_space(models.node_point_module(N), models.node_point_module(N))
    padded = [gb for gb in built if gb.pads]
    assert len(padded) > 30
    for gb in padded:
        leads = [lead for lead, _v in gb.basis]
        for lead, v in gb.basis:
            assert v[lead] == gb.field.one() and max(v, key=gb._key) == lead
            for t in v:
                # a lead divides only its own lead term
                divisors = [l2 for l2 in leads if l2[0] == t[0] and mon_divides(l2[1], t[1])]
                assert divisors == ([lead] if t == lead else []), (lead, t)


def test_membership_certificate():
    R = PolyRing(QQ, ["x", "y"])
    g1 = R.parse("x^2-y")
    g2 = R.parse("y^2-1")
    gb = SubmoduleGB(R, 1, [vec_from_polys([g1]), vec_from_polys([g2])])
    target = g1 * R.parse("y") + g2 * R.parse("x^2+1")
    nf, cert = gb.normal_form(vec_from_polys([target]), with_cert=True)
    assert not nf
    c = vec_to_polys(R, cert, 2)
    assert c[0] * g1 + c[1] * g2 == target


def test_quotient_dim_staircase():
    R = PolyRing(QQ, ["x", "y"])
    gb = SubmoduleGB(R, 1, [vec_from_polys([R.parse(s)]) for s in ["x^2", "y^3", "x*y"]])
    # basis 1, x, y, y^2
    assert gb.quotient_dim() == 4
    gb2 = SubmoduleGB(R, 1, [vec_from_polys([R.parse("x*y")])])
    assert gb2.quotient_dim() is None


def test_graded_dim_counts():
    R = PolyRing(QQ, ["x", "y"])
    gb = SubmoduleGB(R, 1, [vec_from_polys([R.parse("x*y")])])
    # k[x,y]/(xy) in degree d>0 has dim 2 (x^d and y^d), degree 0 dim 1
    assert gb.quotient_graded_dim(0, [0]) == 1
    for d in range(1, 5):
        assert gb.quotient_graded_dim(d, [0]) == 2


def test_ring_parse():
    A = parse_ring("F5[x,y]")
    assert A.ambient.field.name == "F5"
    B = parse_ring("Q[z,w]/(z*w)")
    assert B.hypersurface
    assert B.is_zero(B.parse("z*w"))
    C = parse_ring("Q[x,y,z,w]/(x*y+z*w)")
    assert C.normal_form(C.parse("x*y")) == C.normal_form(C.parse("-z*w"))
