"""Degree-truncated Groebner bases: a build truncated at D agrees with the
full build in every degree <= D, refuses every question above D, and an
inhomogeneous build is never truncated.  The last test checks Buchberger's
criterion, and that the basis is reduced, on every build of a cone-pair
run, truncated and full, with a reducer of its own, trusting nothing of
the engine but its `basis`."""

import random

import pytest

from singcat import homs
from singcat.errors import InvariantError
from singcat.homs import ext_space, hom_space
from singcat.modgb import SubmoduleGB
from singcat.models import cone_L1, cone_L2, projective_cone_ring
from singcat.modules import FPModule
from singcat.ncdef import SimpleCollection, run
from singcat.poly import Memo, Polynomial, mon_divides, mon_lcm

from test_groebner_core import mon_div

FIELDS = ["Q", "F32003"]


def _term_degree(ring, degrees):
    deg = Memo(ring.weighted_deg)
    return lambda t: deg[t[1]] + degrees[t[0]]


def _cone_pair(field):
    """L1, L2 and the components F1, F2 of the cone-pair run over `field`."""
    P = projective_cone_ring(field)
    coll = SimpleCollection([cone_L1(P), cone_L2(P)])
    return P, list(coll.modules) + run(coll).final_state.components


def _random_graded_module(rng, P):
    """coker of one or two homogeneous relation columns on one or two
    generators of degree 0 or 1, over the projective cone ring."""
    ngens = rng.randint(1, 2)
    degrees = [rng.randint(0, 1) for _ in range(ngens)]
    cols = []
    for _ in range(rng.randint(1, 2)):
        top = rng.randint(2, 3)
        col = []
        for d in degrees:
            terms = {m: P.field.from_int(rng.randint(-2, 2))
                     for m in rng.sample(_monomials(P.ambient.nvars, top - d),
                                         2)}
            col.append(P.normal_form(Polynomial(P.ambient, {
                m: c for m, c in terms.items() if not P.field.is_zero(c)})))
        if any(not p.is_zero() for p in col):
            cols.append(col)
    return FPModule(P, ngens, cols, degrees)


def _monomials(nvars, d):
    if nvars == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d + 1)
            for rest in _monomials(nvars - 1, d - e)]


def _full_counts(M, N, p, degrees):
    """Degree-d dimensions of Ext^p(M, N) read from full bases: a fresh
    subquotient whose generators are read in every degree first."""
    homs._COCYCLES.clear()
    msq = ext_space(M, N, p)
    msq.U
    return {d: len(msq.basis_items(d)) for d in degrees}, msq


# -- the engine ------------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS)
def test_truncated_build_is_the_low_part_of_the_full_build(field):
    # random homogeneous generators over the projective cone ambient, with
    # its ideal as pads and random position degrees: the truncated basis is
    # the full basis cut at D, and every count up to D agrees
    rng = random.Random(71)
    P = projective_cone_ring(field)
    S, F = P.ambient, P.field
    checked = truncated = 0
    for _trial in range(12):
        npos = rng.randint(1, 3)
        ngens = rng.randint(2, 4)
        tracked = rng.randint(0, ngens)
        main = [rng.randint(-1, 1) for _ in range(npos)]
        gens, tags = [], []
        for _ in range(ngens):
            d = rng.randint(1, 3)
            g = {}
            for _ in range(rng.randint(1, 3)):
                p = rng.randrange(npos)
                if d - main[p] < 0:
                    continue
                m = rng.choice(_monomials(S.nvars, d - main[p]))
                c = F.from_int(rng.randint(-3, 3))
                if not F.is_zero(c):
                    g[(p, m)] = c
            gens.append(g)
            tags.append(d)
        degrees = main + tags[:tracked]
        full = SubmoduleGB(S, npos, gens, pad_polys=P.gb, tracked=tracked)
        degree = _term_degree(S, degrees)
        for D in range(0, 5):
            gb = SubmoduleGB(S, npos, gens, pad_polys=P.gb, tracked=tracked,
                             degrees=degrees, bound=D)
            assert gb.bound == D
            assert gb.basis == [(lead, v) for lead, v in full.basis
                                if degree(lead) <= D]
            for d in range(-1, D + 1):
                assert (gb.quotient_graded_dim(d, main)
                        == full.quotient_graded_dim(d, main))
                if tracked:
                    assert (gb.tracked_staircase(d, tags[:tracked])
                            == full.tracked_staircase(d, tags[:tracked]))
                checked += 1
            truncated += len(gb.basis) < len(full.basis)
    assert checked > 200 and truncated > 10


@pytest.mark.parametrize("field", FIELDS)
def test_truncated_build_refuses_questions_above_its_bound(field):
    P = projective_cone_ring(field)
    S = P.ambient
    x, y = P.parse("x"), P.parse("y")
    gens = [{(0, m): c for m, c in f.terms.items()} for f in (x, y * y)]
    gb = SubmoduleGB(S, 1, gens, pad_polys=P.gb, degrees=[0, 1, 2], bound=1)
    assert gb.bound == 1
    assert gb.quotient_graded_dim(1, [0]) == 4  # y, z, w, u
    with pytest.raises(InvariantError, match=r"degree 2 .*truncated at "
                                             r"degree D = 1"):
        gb.quotient_graded_dim(2, [0])
    with pytest.raises(InvariantError, match=r"every degree .*D = 1"):
        gb.quotient_dim()
    with pytest.raises(InvariantError, match=r"every degree .*D = 1"):
        gb.tracked_staircase()
    with pytest.raises(InvariantError, match=r"normal form in degree 2 .*"
                                             r"D = 1"):
        gb.normal_form(gens[1])
    # degree 1 and below are answered, certificates included
    nf, cert = gb.normal_form({(0, (1, 0, 0, 0, 0)): P.field.one()},
                              with_cert=True)
    assert not nf and cert == {(0, (0, 0, 0, 0, 0)): P.field.one()}
    # the subquotient: a basis read in degree 0 refuses every question
    # that reads a basis above it, while a count reads afresh
    L1, L2 = cone_L1(P), cone_L2(P)
    space = ext_space(L1, L2, 1)
    assert len(space.basis_items(graded_degree=0)) == 1
    for ask in (space.dim, lambda: space.basis_items(graded_degree=1),
                lambda: space.basis_items()):
        with pytest.raises(InvariantError, match=r"read up to degree D = 0"):
            ask()
    want, _msq = _full_counts(L1, L2, 1, [1])
    assert space.graded_dim(1) == want[1]
    graded0 = hom_space(L1, L1, mode="graded0")
    with pytest.raises(InvariantError, match=r"every degree .*D = 0"):
        graded0.presentation()


@pytest.mark.parametrize("field", FIELDS)
def test_inhomogeneous_input_is_built_in_full(field):
    P = projective_cone_ring(field)
    S = P.ambient
    f = P.parse("x + y^2")
    gens = [{(0, m): c for m, c in f.terms.items()},
            {(0, m): c for m, c in P.parse("z").terms.items()}]
    full = SubmoduleGB(S, 1, gens, pad_polys=P.gb)
    gb = SubmoduleGB(S, 1, gens, pad_polys=P.gb, degrees=[0, 1, 1], bound=0)
    assert gb.bound is None and gb.basis == full.basis
    assert gb.quotient_dim() == full.quotient_dim()
    # a module with degrees and an inhomogeneous relation: its cocycle
    # build keeps a full record, whose homogeneous cocycles the degree-zero
    # question cuts at degree 0
    M = FPModule.cyclic(P, [f, P.parse("z")])
    N = FPModule.cyclic(P, [P.parse("z"), P.parse("w")])
    H = hom_space(M, N, mode="graded0")
    assert homs._COCYCLES and all(rec[3] is None and rec[4] is None
                                  for rec in homs._COCYCLES.values())
    homs._COCYCLES.clear()
    full = hom_space(M, N, mode="module").msq
    assert len(full.U) == 3
    assert H.msq.U == [u for u, d in zip(full.U, full.gen_degrees()) if d <= 0]
    assert H.dim == len(full.basis_items(0))


# -- Hom and Ext on the cone pair and random graded modules ---------------------


@pytest.mark.parametrize("field", FIELDS)
def test_cone_pair_truncated_dimensions_equal_full_ones(field):
    # Hom and Ext^1..3 among L1, L2, F1, F2: the counts and bases read
    # through truncated builds equal those of full builds in every degree
    # up to the one asked, and U is the degree-<=D subsequence of full U
    _P, modules = _cone_pair(field)
    nonzero = 0
    for M in modules:
        for N in modules:
            for p in range(4):
                low = range(-2, 2)
                want, full = _full_counts(M, N, p, low)
                homs._COCYCLES.clear()
                msq = ext_space(M, N, p)
                # highest degree first: one record up to it serves the rest
                got = {d: msq.graded_dim(d) for d in reversed(low)}
                assert got == want, (M, N, p)
                bounded = ext_space(M, N, p)
                items = bounded.basis_items(graded_degree=1)
                assert len(items) == want[1]
                full_degrees = full.gen_degrees()
                assert bounded.U == [u for u, d in zip(full.U, full_degrees)
                                     if d <= 1]
                nonzero += sum(v != 0 for v in want.values())
    assert nonzero >= 20


@pytest.mark.parametrize("field", FIELDS)
def test_random_graded_presentations(field):
    rng = random.Random(5)
    P = projective_cone_ring(field)
    compared = 0
    for _trial in range(6):
        M, N = _random_graded_module(rng, P), _random_graded_module(rng, P)
        for p in range(3):
            low = range(-2, 3)
            want, _full = _full_counts(M, N, p, low)
            homs._COCYCLES.clear()
            msq = ext_space(M, N, p)
            assert {d: msq.graded_dim(d) for d in reversed(low)} == want
            homs._COCYCLES.clear()
            H = ext_space(M, N, p)
            assert len(H.basis_items(graded_degree=0)) == want[0]
            compared += 1
    assert compared == 18


# -- Buchberger's criterion, checked without the engine -----------------------


def _reduce_to_zero(F, order_key, basis, v):
    """Whether v reduces to zero modulo `basis`, a list of (lead, vector)
    with monic leads, the lead the largest term in the position-over-term
    order: the smallest (position, order key)."""
    work = dict(v)
    by_pos = {}
    for lead, g in basis:
        by_pos.setdefault(lead[0], []).append((lead, g))
    while work:
        t = min(work, key=lambda s: (s[0], order_key(s[1])))
        for lead, g in by_pos.get(t[0], ()):
            if mon_divides(lead[1], t[1]):
                c, shift = F.neg(work[t]), mon_div(t[1], lead[1])
                for (q, m), a in g.items():
                    key = (q, tuple(x + y for x, y in zip(m, shift)))
                    s = F.add(work.get(key, F.zero()), F.mul(c, a))
                    if F.is_zero(s):
                        work.pop(key, None)
                    else:
                        work[key] = s
                break
        else:
            return False
    return True


def _spair(F, g, lead_g, h, lead_h, lcm):
    out = {}
    for vec, lead, sign in ((g, lead_g, F.one()), (h, lead_h, F.neg(F.one()))):
        shift = mon_div(lcm, lead[1])
        for (q, m), a in vec.items():
            key = (q, tuple(x + y for x, y in zip(m, shift)))
            s = F.add(out.get(key, F.zero()), F.mul(sign, a))
            if F.is_zero(s):
                out.pop(key, None)
            else:
                out[key] = s
    return out


def _assert_reduced(basis):
    """A reduced basis: at each position, the only lead that divides a term
    of a basis element is that element's own lead, dividing its lead."""
    leads = {}
    for lead, _v in basis:
        leads.setdefault(lead[0], []).append(lead[1])
    for lead, v in basis:
        for t in v:
            divisors = [m for m in leads.get(t[0], ()) if mon_divides(m, t[1])]
            assert divisors == ([lead[1]] if t == lead else []), (lead, t)


def test_truncated_builds_of_a_cone_pair_run_meet_buchberger(monkeypatch):
    # every build of the run, truncated or full: its basis is reduced, and
    # every input and S-pair (of degree <= D when truncated at D) reduces
    # to zero modulo it
    builds = []
    real_init = SubmoduleGB.__init__

    def recording(self, ring, npos, gens, pad_polys=(), tracked=None,
                  degrees=None, bound=None):
        gens = list(gens)
        real_init(self, ring, npos, gens, pad_polys, tracked, degrees, bound)
        builds.append((self, gens))

    monkeypatch.setattr(SubmoduleGB, "__init__", recording)
    P = projective_cone_ring("Q")
    coll = SimpleCollection([cone_L1(P), cone_L2(P)])
    state = run(coll).final_state
    for Fa in state.components:
        for G in state.components + coll.modules:
            for p in (3, 2, 1):
                ext_space(Fa, G, p).graded_dim(0)
            hom_space(Fa, G, mode="graded0")
    checked = {True: [0, 0, 0], False: [0, 0, 0]}  # builds, inputs, pairs
    for gb, gens in builds:
        F, ring, D, npos = gb.field, gb.ring, gb.bound, gb.npos
        truncated = D is not None
        if truncated:
            degree = _term_degree(ring, gb.degrees)
        basis = gb.basis
        assert all(v[lead] == F.one() for lead, v in basis)
        _assert_reduced(basis)
        # every input (of degree <= D): the generators with their tags,
        # then the pads in each position
        graph = [dict(g) for g in gens]
        for j in range(gb.tracked):
            graph[j][(npos + j, (0,) * ring.nvars)] = F.one()
        graph += [{(p, m): c for m, c in f.terms.items()}
                  for f in gb.pads for p in range(npos)]
        count = checked[truncated]
        count[0] += 1
        for v in graph:
            if v and (not truncated or degree(next(iter(v))) <= D):
                assert _reduce_to_zero(F, ring.order_key, basis, v)
                count[1] += 1
        # every S-pair (of degree <= D)
        for a, (lead_g, g) in enumerate(basis):
            for lead_h, h in basis[:a]:
                if lead_g[0] != lead_h[0]:
                    continue
                lcm = mon_lcm(lead_g[1], lead_h[1])
                if truncated and degree((lead_g[0], lcm)) > D:
                    continue
                assert _reduce_to_zero(F, ring.order_key, basis,
                                       _spair(F, g, lead_g, h, lead_h, lcm))
                count[2] += 1
    builds_t, inputs_t, pairs_t = checked[True]
    builds_f, inputs_f, pairs_f = checked[False]
    assert builds_t >= 20 and pairs_t > 200 and inputs_t > 200
    assert builds_f >= 15 and pairs_f > 50 and inputs_f > 100
