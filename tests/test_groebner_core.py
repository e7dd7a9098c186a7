"""Groebner engine: ideal bases, normal forms, membership, syzygies."""

import random
from fractions import Fraction

import pytest

from singcat.errors import InvariantError
from singcat.fields import QQ, GF, RationalField
from singcat.poly import PolyRing, Polynomial, mon_divides
from singcat.modgb import (ExponentBoundError, PolyReducer, SubmoduleGB,
                           groebner_basis, packing, vec_from_polys,
                           vec_to_polys)
from singcat.quotient import QuotientRing, parse_ring

from test_poly import lead_monomial


def mon_div(a, b):
    """The monomial a / b, for b dividing a."""
    return tuple(x - y for x, y in zip(a, b))


def quotient_graded_dim(gb, degree, pos_degrees):
    """dim_k of the degree-`degree` piece of S^npos / span, e_i of degree
    pos_degrees[i]; its standard monomials, so infinite staircases count."""
    return len(gb._staircase(0, gb.npos, degree, pos_degrees))


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
        assert PolyReducer(R, base_gb(R, gens)).normal_form(g).is_zero()


def base_gb(R, gens):
    return groebner_basis(gens)


def test_normal_form_idempotent():
    R = PolyRing(QQ, ["x", "y"])
    gb = groebner_basis([R.parse("x^2-y"), R.parse("y^2-1")])
    p = R.parse("x^5+x*y^3")
    red = PolyReducer(R, gb)
    nf = red.normal_form(p)
    assert red.normal_form(nf) == nf
    assert red.normal_form(p - nf).is_zero()


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
        M.resolve(4)
    hom_space(L1, L2, mode="graded0")
    hom_space(models.node_point_module(N), models.node_point_module(N))
    padded = [gb for gb in built if gb.pads]
    assert len(padded) > 30
    for gb in padded:
        ok = gb.ring.order_key
        leads = [lead for lead, _v in gb.basis]
        for lead, v in gb.basis:
            # the lead is the largest term: the smallest under the ascending key
            assert v[lead] == gb.field.one()
            assert min(v, key=lambda t: (t[0], ok(t[1]))) == lead
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
    assert quotient_graded_dim(gb, 0, [0]) == 1
    for d in range(1, 5):
        assert quotient_graded_dim(gb, d, [0]) == 2


def test_ring_parse():
    A = parse_ring("F5[x,y]")
    assert A.ambient.field.name == "F5"
    B = parse_ring("Q[z,w]/(z*w)")
    assert B.hypersurface
    assert B.is_zero(B.parse("z*w"))
    C = parse_ring("Q[x,y,z,w]/(x*y+z*w)")
    assert C.normal_form(C.parse("x*y")) == C.normal_form(C.parse("-z*w"))


def test_lex_groebner_basis_known_answers():
    # Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 3 sec. 1:
    # the reduced lex basis of three quadrics, x > y > z
    R = PolyRing(QQ, ["x", "y", "z"], order="lex")
    gens = [R.parse(s) for s in ["x^2+y+z-1", "x+y^2+z-1", "x+y+z^2-1"]]
    assert [repr(g) for g in groebner_basis(gens)] == [
        "x+y+z^2-1", "y^2-y-z^2+z", "y*z^2+1/2*z^4-1/2*z^2",
        "z^6-4*z^4+4*z^3-z^2"]
    # eliminating t from (t^2, t^3) leaves the cusp x^3 - y^2; asked of a
    # grevlex ring through the order argument
    S = PolyRing(QQ, ["t", "x", "y"])
    gens = [S.parse("x-t^2"), S.parse("y-t^3")]
    gb = groebner_basis(gens, order="lex")
    assert [repr(g) for g in gb] == ["t^2-x", "t*x-y", "t*y-x^2", "x^3-y^2"]
    assert [lead_monomial(g) for g in gb] == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 3, 0)]
    assert [repr(g) for g in groebner_basis(gens)] == ["t^2-x", "t*x-y", "x^2-t*y"]


def vec_add_into(F, out, v, c, mon):
    """Reference add loop on unpacked terms: out += c * x^mon * v."""
    for (p, m), a in v.items():
        key = (p, tuple(x + y for x, y in zip(m, mon)))
        s = F.add(out.get(key, F.zero()), F.mul(c, a))
        if F.is_zero(s):
            out.pop(key, None)
        else:
            out[key] = s


# Reference reducer: a scan for the largest term at every step, under
# descending order keys, with its own add loop.
_DESCENDING_KEYS = {
    "grevlex": lambda m: (sum(m), tuple(-e for e in reversed(m))),
    "lex": lambda m: m,
}


def _reference_reduce(F, order, v, by_pos):
    dkey = _DESCENDING_KEYS[order]
    work = dict(v)
    result = {}
    while work:
        lead = max(work, key=lambda t: (-t[0], dkey(t[1])))
        p, m = lead
        for blead, g in by_pos.get(p, ()):
            if mon_divides(blead[1], m):
                c = F.neg(F.div(work[lead], g[blead]))
                shift = mon_div(m, blead[1])
                for (q, gm), a in g.items():
                    key = (q, tuple(x + y for x, y in zip(gm, shift)))
                    s = F.add(work.get(key, F.zero()), F.mul(c, a))
                    if F.is_zero(s):
                        work.pop(key, None)
                    else:
                        work[key] = s
                break
        else:
            result[lead] = work.pop(lead)
    return result


def _random_vec(rng, F, nvars, npos, nterms, max_deg, dens=None):
    """Random terms with coefficients in -9..9, or in -9..9 over one of
    `dens` when given."""
    v = {}
    for _ in range(nterms):
        m = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        c = F.from_int(rng.randint(-9, 9)) if dens is None else \
            F.from_fraction(rng.randint(-9, 9), rng.choice(dens))
        if not F.is_zero(c):
            v[(rng.randrange(npos), m)] = c
    return v


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "F32003"])
@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_heap_reducer_matches_max_scan_reference(field, order):
    rng = random.Random(11)
    R = PolyRing(field, ["x", "y", "z"], order=order)
    dkey = _DESCENDING_KEYS[order]
    # over Q, fractions too: non-monic reducers divide by their leads
    dens = (1, 1, 2, 3, 4) if field == QQ else None
    checked = fractions = 0
    for trial in range(12):
        npos = rng.randint(1, 3)
        gens = [_random_vec(rng, field, 3, npos, rng.randint(1, 4), 2, dens)
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if g]
        if trial % 2:
            # a reduced basis: the reducers met in Buchberger and normal forms
            by_pos = {}
            for lead, g in SubmoduleGB(R, npos, gens).basis:
                by_pos.setdefault(lead[0], []).append((lead, g))
        else:
            # arbitrary reducers, each indexed by its largest term
            by_pos = {}
            for g in gens:
                lead = max(g, key=lambda t: (-t[0], dkey(t[1])))
                by_pos.setdefault(lead[0], []).append((lead, g))
        pk = packing(R.nvars, R.order)
        index = {p: [pk.reducer(pk.term(*lead), pk.pack(g))
                     for lead, g in group] for p, group in by_pos.items()}
        for _ in range(5):
            v = _random_vec(rng, field, 3, npos, rng.randint(0, 8), 4, dens)
            got = pk.unpack(pk.reduce(field, pk.pack(v), index))
            want = _reference_reduce(field, order, v, by_pos)
            assert list(got.items()) == list(want.items())
            checked += bool(want)
            if field == QQ:
                assert all(_canonical_q(c) for c in got.values())
                fractions += any(type(c) is Fraction for c in got.values())
    assert checked > 20
    assert field != QQ or fractions > 10


def _canonical_q(c):
    """Whether c is an element of Q as the engine stores one: an int when
    it is integral, a Fraction otherwise, never a float."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def test_untracked_build_refuses_syzygies_and_certificates():
    R = PolyRing(QQ, ["x", "y"])
    gb = SubmoduleGB(R, 1, [vec_from_polys([R.parse("x")]),
                            vec_from_polys([R.parse("y")])], tracked=0)
    assert gb.contains(vec_from_polys([R.parse("x*y")]))
    with pytest.raises(InvariantError, match="tracks no generator.*tracked=0"):
        gb.syzygies()
    with pytest.raises(InvariantError, match="tracks no generator.*tracked=0"):
        gb.normal_form(vec_from_polys([R.parse("x*y")]), with_cert=True)


def _full_graph_reference(R, npos, gens, pads):
    """The graph module built by hand: a tag position npos + j on every
    generator and on every pad f*e_p, in a build that tracks nothing."""
    one, unit = R.field.one(), (0,) * R.nvars
    rows = [dict(g) for g in gens]
    rows += [{(p, m): c for m, c in f.terms.items()}
             for f in pads for p in range(npos)]
    for j, row in enumerate(rows):
        row[(npos + j, unit)] = one
    return SubmoduleGB(R, npos + len(rows), rows, tracked=0)


def _combination(F, rng, nvars, vecs):
    """A random combination of vecs with polynomial coefficients."""
    out = {}
    for v in vecs:
        for _ in range(rng.randint(0, 2)):
            mon = tuple(rng.randint(0, 1) for _ in range(nvars))
            c = F.from_int(rng.randint(-5, 5))
            if not F.is_zero(c):
                vec_add_into(F, out, v, c, mon)
    return out


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "F32003"])
@pytest.mark.parametrize("padded", [False, True], ids=["no_pads", "pads"])
def test_tracked_build_matches_full_graph_module(field, padded):
    # Tagging only the first k generators and no pad must give the full
    # graph module's basis with the later tag coordinates cut away: its
    # syzygy heads, certificates, normal forms and main-block basis.
    rng = random.Random(29)
    R = PolyRing(field, ["x", "y", "z"])
    F = field
    checked = members = syzygies = 0
    for _trial in range(30):
        npos = rng.randint(1, 2)
        gens = [_random_vec(rng, F, 3, npos, rng.randint(1, 3), 1)
                for _ in range(rng.randint(1, 4))]
        gens = [g for g in gens if g]
        pads = []
        if padded:
            pads = [vec_to_polys(R, _random_vec(rng, F, 3, 1, 2, 1), 1)[0]]
            pads = [f for f in pads if not f.is_zero()]
        pad_vecs = [vec_from_polys([None] * p + [f]) for f in pads
                    for p in range(npos)]
        ref = _full_graph_reference(R, npos, gens, pads)
        probes = [_combination(F, rng, 3, gens + pad_vecs) for _ in range(4)]
        probes += [_random_vec(rng, F, 3, npos, 3, 3) for _ in range(2)]
        for k in range(len(gens) + 1):
            gb = SubmoduleGB(R, npos, gens, pad_polys=pads, tracked=k)
            cut = npos + k
            assert gb.basis == [
                (lead, {t: c for t, c in v.items() if t[0] < cut})
                for lead, v in ref.basis if lead[0] < cut]
            heads = [{(p - npos, m): c for (p, m), c in v.items()
                      if npos <= p < cut} for lead, v in ref.basis
                     if lead[0] >= npos]
            heads = [h for h in heads if h]
            if k:
                assert gb.syzygies() == heads
                syzygies += len(heads)
            else:
                assert heads == []
                with pytest.raises(InvariantError):
                    gb.syzygies()
            rest = SubmoduleGB(R, npos, gens[k:], pad_polys=pads, tracked=0)
            for v in probes:
                red = ref.normal_form(v)
                nf = {t: c for t, c in red.items() if t[0] < npos}
                assert gb.normal_form(v) == nf
                if not k:
                    continue
                cert = {(p - npos, m): F.neg(c) for (p, m), c in red.items()
                        if npos <= p < cut}
                assert gb.normal_form(v, with_cert=True) == (nf, cert)
                # v - nf - sum cert_j gens_j lies in span(untracked, pads)
                left = dict(v)
                vec_add_into(F, left, nf, F.from_int(-1), (0, 0, 0))
                for (j, m), c in cert.items():
                    vec_add_into(F, left, gens[j], F.neg(c), m)
                assert rest.contains(left)
                members += not nf
                checked += 1
    assert checked > 300 and members > 250 and syzygies > 80


# -- the two coefficient kernels ----------------------------------------------------


class _MethodQ(RationalField):
    """Q under a class of its own: the engine takes its native Q kernel only
    for the class RationalField itself, so this field's builds go through
    the Field method calls, as over F_p and K[i]."""


def _typed(v):
    """v with each coefficient paired with its type."""
    return {t: (c, type(c)) for t, c in v.items()}


def _homogeneous_vec(rng, pos_degs, d, nterms, F=QQ):
    """Up to nterms terms of degree d over x, y, z when position p has
    degree pos_degs[p], with coefficients in F."""
    v = {}
    for _ in range(nterms):
        p = rng.randrange(len(pos_degs))
        if d < pos_degs[p]:
            continue
        a = rng.randint(0, d - pos_degs[p])
        b = rng.randint(0, d - pos_degs[p] - a)
        c = F.from_fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
        if not F.is_zero(c):
            v[(p, (a, b, d - pos_degs[p] - a - b))] = c
    return v


def _kernel_outputs(R, npos, gens, pads, probes, tracked, degrees, bound):
    """The basis leads of one build over R, then its basis vectors,
    syzygies and normal forms (with certificates when tracked), every
    coefficient paired with its type."""
    gb = SubmoduleGB(R, npos, gens, pad_polys=[Polynomial(R, f) for f in pads],
                     tracked=tracked, degrees=degrees, bound=bound)
    assert gb.bound == bound
    vecs = [v for _lead, v in gb.basis]
    if tracked:
        vecs += gb.syzygies()
        for v in probes:
            vecs += gb.normal_form(v, with_cert=True)
    else:
        vecs += [gb.normal_form(v) for v in probes]
    return [lead for lead, _v in gb.basis], [_typed(v) for v in vecs]


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_native_q_kernel_matches_the_method_kernel(order, monkeypatch):
    # The same seeded inputs built over QQ and over _MethodQ: tagged,
    # partly tagged and untagged, padded, truncated and full builds agree
    # in every output, coefficient types included.
    rng = random.Random(53)
    cases = []
    for _trial in range(16):
        npos = rng.randint(1, 2)
        pos_degs = [rng.randint(0, 1) for _ in range(npos)]
        gen_degs = [rng.randint(1, 2) for _ in range(rng.randint(2, 4))]
        gens = [_homogeneous_vec(rng, pos_degs, d, 3) for d in gen_degs]
        keep = [j for j, g in enumerate(gens) if g]
        gens, gen_degs = [gens[j] for j in keep], [gen_degs[j] for j in keep]
        pad = {(1, 1, 0): QQ.from_fraction(rng.randint(1, 3), 2),
               (0, 0, 2): -1}
        probes = [_homogeneous_vec(rng, pos_degs, d, 4)
                  for d in (1, 2, 3, 3)]
        for g, d in zip(gens, gen_degs):
            probes.append({(p, (m[0] + 3 - d, m[1], m[2])): c
                           for (p, m), c in g.items()})
        for tracked, pads, bound in ((len(gens), [], None),
                                     (rng.randint(0, len(gens)), [pad], None),
                                     (len(gens), [pad], 3),
                                     (0, [], 3)):
            degrees = pos_degs + gen_degs[:tracked]
            cases.append((npos, gens, pads, probes, tracked, degrees, bound))
    # the engine's own calls of RationalField.add, by the class of the field
    adds = {RationalField: 0, _MethodQ: 0}
    add = RationalField.add

    def counted_add(self, a, b):
        adds[type(self)] += 1
        return add(self, a, b)

    monkeypatch.setattr(RationalField, "add", counted_add)
    outputs = {}
    for F in (QQ, _MethodQ()):
        R = PolyRing(F, ["x", "y", "z"], order=order)
        outputs[type(F)] = [_kernel_outputs(R, *case) for case in cases]
    native, method = outputs[RationalField], outputs[_MethodQ]
    assert adds[RationalField] == 0 and adds[_MethodQ] > 1000
    assert native == method
    coeffs = [c for _leads, vecs in native for v in vecs
              for c, _type in v.values()]
    assert all(_canonical_q(c) for c in coeffs)
    assert sum(type(c) is Fraction for c in coeffs) > 1000


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "F32003"])
@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_truncated_build_is_the_low_degree_part_of_the_full_build(field,
                                                                  order):
    # A build truncated at D runs degree by degree and interreduces by
    # lookup; the full build of the same input reduces a minimal basis.
    # Tagged, partly tagged and untagged, padded and not, the truncated
    # basis, leads and syzygies are those of the full build in degree <= D.
    rng = random.Random(67)
    R = PolyRing(field, ["x", "y", "z"], order=order)
    pad = Polynomial(R, {(1, 1, 0): field.from_int(2),
                         (0, 0, 2): field.from_int(-1)})
    checked = cut = syzygies = 0
    for _trial in range(10):
        npos = rng.randint(1, 2)
        pos_degs = [rng.randint(0, 1) for _ in range(npos)]
        gen_degs = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        gens = [_homogeneous_vec(rng, pos_degs, d, 3, field)
                for d in gen_degs]
        keep = [j for j, g in enumerate(gens) if g]
        gens, gen_degs = [gens[j] for j in keep], [gen_degs[j] for j in keep]
        for tracked in (len(gens), rng.randint(0, len(gens)), 0):
            for pads in ([], [pad]):
                degrees = pos_degs + gen_degs[:tracked]
                full = SubmoduleGB(R, npos, gens, pad_polys=pads,
                                   tracked=tracked)
                degree = {lead: R.weighted_deg(lead[1]) + degrees[lead[0]]
                          for lead, _v in full.basis}
                for D in range(0, 6):
                    gb = SubmoduleGB(R, npos, gens, pad_polys=pads,
                                     tracked=tracked, degrees=degrees,
                                     bound=D)
                    assert gb.bound == D
                    low = [(lead, v) for lead, v in full.basis
                           if degree[lead] <= D]
                    assert gb.basis == low
                    count = npos + tracked
                    assert gb.leads(0, count) == tuple(
                        tuple(lead[1] for lead, _v in low if lead[0] == p)
                        for p in range(count))
                    if tracked:
                        tags = [lead for lead, _v in full.basis
                                if lead[0] >= npos]
                        assert gb.syzygies() == [
                            s for s, lead in zip(full.syzygies(), tags)
                            if degree[lead] <= D]
                        syzygies += len(gb.syzygies())
                    checked += 1
                    cut += len(low) < len(full.basis)
    assert checked == 360 and cut > 200 and syzygies > 150


# -- packed terms ----------------------------------------------------------------


@pytest.mark.parametrize("order,weighted", [("grevlex", False), ("lex", False),
                                            ("grevlex", True)],
                         ids=["grevlex", "lex", "weighted"])
def test_packed_terms_agree_with_the_order_keys(order, weighted):
    rng = random.Random(41)
    checked = divisible = 0
    for nvars in range(6):
        names = [f"x{i}" for i in range(nvars)]
        weights = [rng.randint(1, 4) for _ in names] if weighted else None
        R = PolyRing(QQ, names, order=order, weights=weights)
        pk = packing(R.nvars, R.order)
        top = pk.bound - 1
        # small exponents, equal ones and the largest allowed
        choices = [0, 0, 1, 2, 3, top - 1, top]
        mons = {tuple(rng.choice(choices) for _ in names) for _ in range(60)}
        mons = sorted(mons)
        assert (sorted(mons, key=pk.code.__getitem__)
                == sorted(mons, key=R.order_key))
        terms = [(rng.randrange(3), m) for m in mons]
        assert (sorted(terms, key=lambda t: pk.term(*t))
                == sorted(terms, key=lambda t: (t[0], R.order_key(t[1]))))
        assert all(pk.unpack_term(pk.term(*t)) == t for t in terms)
        for a in mons:
            # a product that reaches the largest allowed exponent
            b = tuple(rng.choice([0, min(1, top - e), top - e]) for e in a)
            ab = tuple(x + y for x, y in zip(a, b))
            assert pk.code[ab] - pk.unit == \
                (pk.code[a] - pk.unit) + (pk.code[b] - pk.unit)
            for c in (ab, b, rng.choice(mons)):
                p = rng.randrange(3)
                got = pk.divides(pk.term(p, a), pk.term(p, c))
                assert got == mon_divides(a, c), (a, c)
                divisible += got
                checked += 1
    assert checked > 500 and divisible > 150


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "F32003"])
def test_exponents_at_the_packing_bound_are_refused(field):
    R = PolyRing(field, ["x", "y"])
    bound = packing(R.nvars, R.order).bound
    x, y = R.gens()
    top = bound - 1
    assert groebner_basis([x ** top + y]) == [x ** top + y]
    # on input: a generator, and a polynomial to normal-form
    with pytest.raises(ExponentBoundError,
                       match=f"exponent {bound} .*bound {bound}"):
        groebner_basis([x ** bound + y])
    with pytest.raises(ExponentBoundError,
                       match=f"exponent {bound} .*bound {bound}"):
        PolyReducer(R, groebner_basis([x * y])).normal_form(y ** bound)
    # mid-build: the S-pair y*(x^top + y^top) - x^(top-1)*(x*y) = y^bound
    with pytest.raises(ExponentBoundError,
                       match=f"exponent {bound}, at or above the packing "
                             f"bound {bound}"):
        groebner_basis([x ** top + y ** top, x * y])
    # and in lex, where the packed exponents are negated
    with pytest.raises(ExponentBoundError, match=f"exponent {bound},"):
        groebner_basis([x ** top + y ** top, x * y], order="lex")
