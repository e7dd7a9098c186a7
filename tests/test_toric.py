"""Fans, divisors, cohomology, intersection numbers, class groups."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd
from operator import mul

import pytest

from singcat import toric
from singcat.errors import InvariantError
from singcat.fields import QQ
from singcat.linalg import Matrix, kernel_basis, rank, solve
from singcat.toric import (Fan, TDivisor, ToricError, fan_library, cohomology,
                           intersect_curve, class_group, weil_is_cartier,
                           canonical_divisor, divisor_from_combo, _cech_profile,
                           fm_eliminate, fm_feasible)

from test_linalg import from_int_rows

LIBRARY = ["P2", "P1xP1", "P3", "blowupP3_1pt", "blowupP3_2pts",
           "coneP1xP1_projective", "coneP1xP1_smallres"]


def test_library_shapes():
    fan, div, _ = fan_library("P2")
    assert len(fan.rays) == 3 and len(fan.max_cones) == 3
    fan, div, walls = fan_library("blowupP3_2pts")
    assert len(fan.rays) == 6 and len(fan.max_cones) == 8
    fan, div, _ = fan_library("coneP1xP1_projective")
    assert len(fan.rays) == 5
    assert max(len(c) for c in fan.max_cones) == 4  # one non-simplicial cone
    fan, div, walls = fan_library("coneP1xP1_smallres")
    assert len(fan.rays) == 5 and len(fan.max_cones) == 6
    assert "C" in walls


def test_all_library_fans_complete():
    for name in ["P2", "P1xP1", "P3", "blowupP3_1pt", "blowupP3_2pts",
                 "coneP1xP1_projective", "coneP1xP1_smallres"]:
        fan, _d, _w = fan_library(name)
        assert fan.is_complete(), name


def test_unknown_fan_name():
    with pytest.raises(ToricError):
        fan_library("P4")


def test_incomplete_fan_rejected():
    affine = Fan(2, [(1, 0), (0, 1)], [(0, 1)], "quadrant")
    assert not affine.is_complete()
    with pytest.raises(ToricError):
        cohomology(affine, TDivisor(affine, [0, 0]))


def test_fan_with_no_cones_is_not_complete():
    # an empty `all` used to count it complete, and cohomology then failed
    # on an empty max()
    empty = Fan(2, [(1, 0), (0, 1), (-1, -1)], [], "no cones")
    assert not empty.is_complete()
    with pytest.raises(ToricError, match="complete fan"):
        cohomology(empty, TDivisor(empty, [0, 0, 0]))


def test_winding_fan_is_not_a_fan():
    # five 2-cones winding twice around the origin: every ray sits on
    # exactly two cones, but (0, 1) and (2, 3) overlap
    fan = Fan(2, [(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)],
              [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    with pytest.raises(ToricError) as err:
        cohomology(fan, TDivisor(fan, [0] * 5))
    assert "(0, 1)" in str(err.value) and "(2, 3)" in str(err.value)


P2_RAYS = [(1, 0), (0, 1), (-1, -1)]
P2_CONES = [(0, 1), (1, 2), (0, 2)]


@pytest.mark.parametrize("coeffs", [[1.5, 0, 0], [Fraction(3, 2), 0, 0],
                                    [1.0, 0, 0], [True, 0, 0], 5, "100"],
                         ids=["float", "fraction", "integral-float", "bool",
                              "number", "string"])
def test_divisor_refuses_what_is_not_a_list_of_integers(coeffs):
    # int() used to truncate: [1.5, 0, 0] was computed as O(1)
    fan = Fan(2, P2_RAYS, P2_CONES, "P2")
    with pytest.raises(ToricError, match="divisor"):
        TDivisor(fan, coeffs)


@pytest.mark.parametrize("rays", [
    [(1, 0), (0, 1), (-1.7, -1)],
    [(1, 0), (0, 1), (Fraction(-1), -1)],
    [(1, 0), (0, 1), 7],
], ids=["float", "fraction", "number"])
def test_fan_refuses_a_ray_that_is_not_integral(rays):
    # int(-1.7) == -1 used to turn this ray into the ray of P2
    with pytest.raises(ToricError, match="ray"):
        Fan(2, rays, P2_CONES, "P2?")


@pytest.mark.parametrize("cones, match", [
    ([(0, 1), (1, 2), (0, 5)], "distinct rays among 0..2"),
    ([(0, 1), (1, -1), (0, 2)], "distinct rays among 0..2"),
    ([(0, 1), (1, 1), (0, 2)], "distinct rays among 0..2"),
    ([(0, 1), (1, 2.0), (0, 2)], "not a list of integers"),
    ([(0, 1), (1, 2), 0], "not a list of integers"),
], ids=["past-the-end", "negative", "repeat", "float", "number"])
def test_fan_refuses_bad_cone_indices(cones, match):
    # index 5 used to raise IndexError; -1 wrapped to the last ray
    with pytest.raises(ToricError, match=match):
        Fan(2, P2_RAYS, cones, "P2?")


def test_profile_above_the_rank_is_an_invariant_failure(monkeypatch):
    # with every coboundary rank 0, the square cone's four negative rays
    # give a class in degree 4 > rank 3; a fresh fan, since cohomology
    # queries on the shared library fan may already hold this profile
    fan, _div, _walls = toric._fan_library_build("coneP1xP1_projective")
    monkeypatch.setattr(toric, "_echelon", lambda rows: (rows, []))
    with pytest.raises(InvariantError, match="cohomology above the rank"):
        _cech_profile(fan, frozenset())


def test_rank_one_fans():
    p1 = Fan(1, [(1,), (-1,)], [(0,), (1,)], "P1")
    assert p1.is_complete()
    for a in range(-3, 4):
        assert cohomology(p1, TDivisor(p1, [a, 0])) == (max(a + 1, 0), max(-a - 1, 0))
    assert not Fan(1, [(1,)], [(0,)], "half-line").is_complete()


def _nerve_cech_profile(fan, plus_rays):
    """Reference: the Cech complex of the maximal-cone cover, in which a set
    of cones is active when every ray of their common face is in plus_rays."""
    t = len(fan.max_cones)
    levels = []
    for p in range(t):
        active = [sub for sub in combinations(range(t), p + 1)
                  if set.intersection(*(set(fan.max_cones[i]) for i in sub))
                  <= plus_rays]
        levels.append({sub: k for k, sub in enumerate(active)})
    ranks = []
    for src, tgt in zip(levels, levels[1:]):
        rows = [[0] * len(src) for _ in tgt]
        for sub, col in src.items():
            for extra in set(range(t)) - set(sub):
                bigger = tuple(sorted(sub + (extra,)))
                if bigger in tgt:
                    rows[tgt[bigger]][col] += (-1) ** bigger.index(extra)
        ranks.append(rank(from_int_rows(QQ, rows)) if src and tgt else 0)
    ranks.append(0)
    out = [len(levels[p]) - ranks[p] - (ranks[p - 1] if p else 0)
           for p in range(t)]
    out += [0] * (fan.rank + 1 - len(out))
    assert not any(out[fan.rank + 1:])
    return tuple(out[:fan.rank + 1])


def test_profile_matches_nerve_cech_complex():
    # every sign pattern, realised by a character or not; blowupP3_2pts
    # (2^8 nerve simplices) is left to the acceptance rows
    for name in ["P2", "P1xP1", "P3", "blowupP3_1pt",
                 "coneP1xP1_projective", "coneP1xP1_smallres"]:
        fan, _d, _w = fan_library(name)
        s = len(fan.rays)
        for mask in range(1 << s):
            plus = frozenset(i for i in range(s) if mask >> i & 1)
            assert _cech_profile(fan, plus) == _nerve_cech_profile(fan, plus), \
                (name, sorted(plus))


def test_profile_of_every_sign_pattern():
    # cohomology looks a profile up before it tests the chamber, so every
    # pattern, realised by a character or not, must have a sound profile
    for name in LIBRARY:
        fan, _d, _w = toric._fan_library_build(name)
        s = len(fan.rays)
        for mask in range(1 << s):
            plus = frozenset(i for i in range(s) if mask >> i & 1)
            assert len(_cech_profile(fan, plus)) == fan.rank + 1, \
                (name, sorted(plus))


def fm_interval(constraints, nvars, var):
    """Reference: (lo, hi) bounds of x_var over the polyhedron from one
    elimination per coordinate; None means unbounded, (1, 0) empty."""
    order = [var] + [i for i in range(nvars) if i != var]
    permuted = [([c[i] for i in order], r) for c, r in constraints]
    out = fm_eliminate(permuted, 1)
    lo, hi = None, None
    feasible_ok = True
    for c, r in out:
        a = c[0]
        if a > 0:
            b = Fraction(r, a)
            lo = b if lo is None else max(lo, b)
        elif a < 0:
            b = Fraction(r, a)
            hi = b if hi is None else min(hi, b)
        else:
            if r > 0:
                feasible_ok = False
    if not feasible_ok:
        return Fraction(1), Fraction(0)  # empty
    return lo, hi


def _box_scan_cohomology(fan, D, widest):
    """Reference: test every sign pattern for feasibility first, then count
    a nonzero-profile chamber by checking every constraint at every lattice
    point of its box.  widest[p] records the largest count of a chamber
    contributing to degree p."""
    s = len(fan.rays)
    total = [0] * (fan.rank + 1)
    for mask in range(1 << s):
        plus = frozenset(i for i in range(s) if mask >> i & 1)
        cons = [(list(u), -a) if i in plus else ([-x for x in u], a + 1)
                for i, (u, a) in enumerate(zip(fan.rays, D.coeffs))]
        if not fm_feasible(cons, fan.rank):
            continue
        profile = _cech_profile(fan, plus)
        if not any(profile):
            continue
        ranges = [range(ceil(lo), floor(hi) + 1) for lo, hi in
                  (fm_interval(cons, fan.rank, v) for v in range(fan.rank))]
        count = sum(1 for m in product(*ranges)
                    if all(sum(a * b for a, b in zip(c, m)) >= r
                           for c, r in cons))
        for p, h in enumerate(profile):
            total[p] += count * h
            if h:
                widest[p] = max(widest[p], count)
    return tuple(total)


def test_column_count_matches_box_scan(monkeypatch):
    # each coordinate's range is the integer part of its real interval, so
    # every value the count fixes satisfies the rows that bound it; a range
    # rounded outwards would only add values with no points above them.
    # Each range that _count_points takes from _coordinate_range is checked
    # at both ends, which checks every value in it, since the rows are
    # linear; the closed-form count of the last coordinate meets the box scan
    coordinate_range = toric._coordinate_range

    def tight(lower, upper, head):
        lo, hi = coordinate_range(lower, upper, head)
        for x in ((lo, hi) if lo <= hi else ()):
            for c, a, r in lower + upper:
                assert sum(map(mul, c, head)) + a * x >= r, \
                    (lower, upper, head, x)
        return lo, hi

    monkeypatch.setattr(toric, "_coordinate_range", tight)
    rng = random.Random(7)
    fans = [fan_library(name)[0] for name in LIBRARY]
    fans.append(Fan(1, [(1,), (-1,)], [(0,), (1,)], "P1"))
    # weighted projective spaces, whose rays end in -3 and -2, so that the
    # column bounds need real floor and ceiling divisions
    fans.append(Fan(2, [(1, 0), (0, 1), (-2, -3)],
                    [(0, 1), (1, 2), (0, 2)], "P(3,2,1)"))
    fans.append(Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)],
                    list(combinations(range(4), 3)), "P(1,1,2,1)"))
    # its -3 sits in the middle coordinate, so the ranges of x_1 given x_0
    # need real floor and ceiling divisions too
    fans.append(Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -3, -2)],
                    list(combinations(range(4), 3)), "P(1,1,3,2)"))
    widest = {}
    for fan in fans:
        w = widest.setdefault(fan.rank, [0] * (fan.rank + 1))
        for _ in range(8):
            D = TDivisor(fan, [rng.randint(-4, 4) for _ in fan.rays])
            assert cohomology(fan, D) == _box_scan_cohomology(fan, D, w), \
                (fan.name, D)
    # the samples reach chambers of several points in every degree
    assert all(c >= 2 for w in widest.values() for c in w), widest


def test_second_query_reads_no_profile(monkeypatch):
    fan, div, _w = toric._fan_library_build("blowupP3_2pts")
    first = cohomology(fan, div["H"])
    calls = []
    profile = toric._cech_profile
    monkeypatch.setattr(toric, "_cech_profile",
                        lambda f, plus: calls.append(plus) or profile(f, plus))
    assert cohomology(fan, div["H"]) == first == (4, 0, 0, 0)
    assert cohomology(fan, div["E1"] - div["E2"]) == (0, 0, 0, 0)
    assert calls == []


def test_later_queries_run_no_elimination(monkeypatch):
    # the projections depend only on the fan and the sign pattern, so only
    # the first query on a fan eliminates
    fan, div, _w = toric._fan_library_build("blowupP3_2pts")
    calls = []
    eliminate = toric.fm_eliminate
    monkeypatch.setattr(toric, "fm_eliminate",
                        lambda *args: calls.append(args) or eliminate(*args))
    assert cohomology(fan, div["H"]) == (4, 0, 0, 0)
    assert calls
    calls.clear()
    assert cohomology(fan, div["H"] - div["E1"]) == (3, 0, 0, 0)
    assert cohomology(fan, div["H"] - div["E1"].scale(2) - div["E2"]) == \
        (0, 1, 0, 0)
    assert calls == []


def _textbook_elimination(constraints, nvars):
    """Reference: integer Fourier-Motzkin that keeps every combination and
    no history; the rows before each elimination, x_(nvars-1) first, then
    the fully projected rows."""
    out = []
    rows = constraints
    for k in range(nvars - 1, -1, -1):
        out.append(rows)
        rows = [(c[:k], r) for c, r in rows if c[k] == 0] + [
            ([-cn[k] * a + cp[k] * b for a, b in zip(cp[:k], cn[:k])],
             -cn[k] * rp + cp[k] * rn)
            for cp, rp in rows if cp[k] > 0 for cn, rn in rows if cn[k] < 0]
    return out + [rows]


def _bounds(projections):
    """`_count_points`' bounds from the rows before each elimination."""
    return [([(c[:k], c[k], r) for c, r in level if c[k] > 0],
             [(c[:k], c[k], r) for c, r in level if c[k] < 0])
            for k, level in enumerate(reversed(projections))]


def test_symbolic_projections_match_integer_elimination():
    # each pattern's projections, eliminated once with symbolic right-hand
    # sides folded with the pattern's signs, evaluated at seeded divisor
    # coefficients a, against the rows with right-hand sides r (-a for a
    # ray in the pattern, a + 1 otherwise) eliminated by fm_eliminate and
    # by the textbook reference, which shares no code with it
    rng = random.Random(3)
    fans = [toric._fan_library_build(name)[0] for name in LIBRARY]
    fans.append(Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -3, -2)],
                    list(combinations(range(4), 3)), "P(1,1,3,2)"))
    counts = set()
    for fan in fans:
        for plus, _profile, feasibility, levels in toric._nonzero_patterns(fan):
            rows = [list(u) if p else [-x for x in u]
                    for u, p in zip(fan.rays, plus)]
            for _ in range(16):
                a = [rng.randint(-4, 4) for _ in rows]
                r = [-x if p else x + 1 for x, p in zip(a, plus)]
                cons = list(zip(rows, r))
                direct = []
                feasible = fm_feasible(cons, fan.rank, direct)
                textbook = _textbook_elimination(cons, fan.rank)
                assert feasible == all(x <= 0 for _c, x in textbook[-1])
                assert feasible == all(sum(map(mul, w, a)) + k <= 0
                                       for w, k in feasibility), (fan.name, a)
                if not feasible:
                    counts.add(None)
                    continue
                symbolic = [([(c, b, sum(map(mul, w, a)) + k)
                              for c, b, w, k in lo],
                             [(c, b, sum(map(mul, w, a)) + k)
                              for c, b, w, k in up])
                            for lo, up in levels]
                count = toric._count_points(symbolic)
                assert count == toric._count_points(_bounds(direct)) == \
                    toric._count_points(_bounds(textbook[:-1])), (fan.name, a)
                counts.add(min(count, 2))
    # the samples meet infeasible, single-point and larger chambers
    assert {None, 1, 2} <= counts, counts


@pytest.mark.parametrize("fan", [
    Fan(1, [(1,)], [(0,)], "half-line"),
    Fan(2, [(1, 0), (0, 1)], [(0, 1)], "quadrant"),
    Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)], "P2 minus a cone"),
], ids=lambda fan: fan.name)
@pytest.mark.parametrize("a", [0, 3, -2])
def test_unbounded_chamber_is_refused(fan, a):
    # skip the completeness test, so that the chamber test meets a
    # nonzero-profile chamber the cones leave unbounded
    fan._complete = True
    with pytest.raises(ToricError, match="unbounded chamber with nonzero "
                                         "cohomology"):
        cohomology(fan, TDivisor(fan, [a] * len(fan.rays)))


def test_fourier_motzkin_is_exact():
    cons = [([1, 2, -1], 3), ([-1, 1, 2], -4), ([2, -3, 1], 5),
            ([0, -1, -3], 7), ([3, 1, 1], -2)]
    for keep in range(3):
        out = fm_eliminate(cons, keep)
        assert out and all(type(r) is int for _c, r in out), keep
    # 2x >= 1 and -3x >= -2: exact fractional bounds
    assert fm_interval([([2], 1), ([-3], -2)], 1, 0) == \
        (Fraction(1, 2), Fraction(2, 3))
    # y >= 1 and -y >= 0 leave no x at all: the (1, 0) sentinel
    assert fm_interval([([0, 1], 1), ([0, -1], 0)], 2, 0) == \
        (Fraction(1), Fraction(0))


def test_structure_sheaf_cohomology():
    for name in ["P2", "P1xP1", "P3", "blowupP3_1pt", "blowupP3_2pts",
                 "coneP1xP1_projective", "coneP1xP1_smallres"]:
        fan, _d, _w = fan_library(name)
        zero = TDivisor(fan, [0] * len(fan.rays))
        expect = tuple([1] + [0] * fan.rank)
        assert cohomology(fan, zero) == expect, name


def test_p2_line_bundles():
    fan, div, _ = fan_library("P2")
    H = div["H"]
    assert cohomology(fan, H.scale(-3)) == (0, 0, 1)  # canonical class
    assert cohomology(fan, H.scale(-1)) == (0, 0, 0)
    assert cohomology(fan, H.scale(-2)) == (0, 0, 0)
    for d in range(0, 4):
        h = cohomology(fan, H.scale(d))
        assert h == ((d + 1) * (d + 2) // 2, 0, 0)


def test_p1xp1_kunneth_oracle():
    fan, div, _ = fan_library("P1xP1")

    def h_p1(d):
        return (max(d + 1, 0), max(-d - 1, 0))

    for a in range(-3, 4):
        for b in range(-3, 4):
            D = div["H1"].scale(a) + div["H2"].scale(b)
            got = cohomology(fan, D)
            ha, hb = h_p1(a), h_p1(b)
            want = tuple(sum(ha[i] * hb[p - i] for i in range(p + 1) if i <= 1 and p - i <= 1)
                         for p in range(3))
            assert got == want, (a, b, got, want)


def test_serre_duality_on_smooth_fans():
    cases = {
        "P2": [[1, 0, 0], [2, -1, 0], [-2, 1, 1]],
        "P3": [[1, 0, 0, 0], [-2, 1, 0, 1]],
        "blowupP3_2pts": [[0, 0, 0, 1, 0, 1], [0, 0, 0, 1, -1, 0], [1, -1, 0, 0, 1, -1]],
    }
    for name, coeff_lists in cases.items():
        fan, _d, _w = fan_library(name)
        K = canonical_divisor(fan)
        for coeffs in coeff_lists:
            D = TDivisor(fan, coeffs)
            hd = cohomology(fan, D)
            hk = cohomology(fan, K - D)
            assert hd == tuple(reversed(hk)), (name, coeffs)


def test_cohomology_depends_only_on_class():
    import random
    rng = random.Random(5)
    fan, div, _ = fan_library("blowupP3_2pts")
    D = div["H"].scale(-1) + div["E1"] + div["E2"]
    base = cohomology(fan, D)
    for _ in range(20):
        m = [rng.randint(-2, 2) for _ in range(3)]
        principal = TDivisor(fan, [sum(mi * ui for mi, ui in zip(m, u))
                                   for u in fan.rays])
        assert cohomology(fan, D + principal) == base


def test_hyperplane_meets_line_once():
    fan, div, walls = fan_library("P3")
    assert intersect_curve(div["H"], walls["line"], fan) == 1


def test_blowup_intersections():
    fan, div, walls = fan_library("blowupP3_2pts")
    D1 = divisor_from_combo(div, {"H": -1, "E1": 1, "E2": 1})
    D2 = div["E1"].scale(-1)
    assert intersect_curve(D1, walls["l"], fan) == 1
    assert intersect_curve(D2, walls["l"], fan) == -1
    # linearity in D
    D3 = D1 + D2
    assert intersect_curve(D3, walls["l"], fan) == 0
    assert intersect_curve(div["H"], walls["l"], fan) == 1


def test_smallres_flopping_curve():
    fan, div, walls = fan_library("coneP1xP1_smallres")
    assert intersect_curve(div["O(0,1)"], walls["C"], fan) == 1
    assert intersect_curve(div["O(1,0)"], walls["C"], fan) == -1


def test_contracting_the_flopping_curve_gives_the_projective_cone():
    # the cone over the quadric surface: the square cone over rays 0..3 and
    # the four cones on the ray at infinity
    fan, _div, walls = fan_library("coneP1xP1_smallres")
    X = toric.contract_wall(fan, walls["C"])
    assert X.rays == [(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1), (0, 0, -1)]
    assert set(X.max_cones) == {(0, 1, 2, 3), (0, 1, 4), (1, 2, 4), (2, 3, 4),
                                (0, 3, 4)}
    assert X.is_complete()


def test_contract_wall_refuses_what_is_not_a_double_point_wall():
    fan, _div, _walls = fan_library("blowupP3_2pts")
    # u0 and v1 are opposite rays: no cone holds both
    with pytest.raises(ToricError, match="not a wall"):
        toric.contract_wall(fan, (3, 4))
    # a wall of two smooth cones whose rays do not satisfy the relation
    fan, _div, walls = fan_library("P3")
    with pytest.raises(ToricError, match=r"not a \(-1,-1\) wall"):
        toric.contract_wall(fan, walls["line"])
    fan, _div, _walls = fan_library("P2")
    with pytest.raises(ToricError, match=r"not a \(-1,-1\) wall"):
        toric.contract_wall(fan, (0,))


@pytest.mark.parametrize("name, curve", [("blowupP3_2pts", "l"),
                                         ("coneP1xP1_smallres", "C")])
def test_cohomology_on_the_contraction_agrees_with_the_resolution(name, curve):
    # pi: Y -> X contracts a (-1,-1) curve and keeps every ray, so
    # pi_* O_Y(D) = O_X(D): h^0 always agrees, and every h^p does when
    # D has degree >= -1 on the curve, where R^1 pi_* O_Y(D) vanishes
    fan, _div, walls = fan_library(name)
    X = toric.contract_wall(fan, walls[curve])
    rng = random.Random(19)
    differ = 0
    for _ in range(300):
        coeffs = [rng.randint(-3, 3) for _ in fan.rays]
        up = cohomology(fan, TDivisor(fan, coeffs))
        down = cohomology(X, TDivisor(X, coeffs))
        assert down[0] == up[0], coeffs
        if intersect_curve(TDivisor(fan, coeffs), walls[curve], fan) >= -1:
            assert down == up, coeffs
        differ += down != up
    assert differ  # X is not Y: the curve was contracted


def test_wall_smoothness_guard():
    fan, div, walls = fan_library("coneP1xP1_projective")
    # the projective cone has no wall inside the non-simplicial cone
    D = div["O(1,0)"]
    for wall in fan.walls():
        owners = fan.walls()[wall]
        if any(len(fan.max_cones[i]) != fan.rank for i in owners):
            with pytest.raises(ToricError):
                intersect_curve(D, wall, fan)


def test_class_groups():
    fan, _d, _w = fan_library("P2")
    cg = class_group(fan)
    assert cg.free_rank == 1 and not cg.torsion
    fan, _d, _w = fan_library("coneP1xP1_projective")
    cg = class_group(fan)
    assert cg.free_rank == 2 and not cg.torsion
    fan, _d, _w = fan_library("blowupP3_2pts")
    cg = class_group(fan)
    assert cg.free_rank == 3 and not cg.torsion


def test_class_of_respects_linear_equivalence():
    fan, div, _ = fan_library("coneP1xP1_projective")
    cg = class_group(fan)
    # D_a ~ D_c and D_b ~ D_d; the hyperplane D_inf ~ D_a + D_b
    Da = TDivisor(fan, [1, 0, 0, 0, 0])
    Dc = TDivisor(fan, [0, 0, 1, 0, 0])
    Db = TDivisor(fan, [0, 1, 0, 0, 0])
    Dd = TDivisor(fan, [0, 0, 0, 1, 0])
    Dinf = TDivisor(fan, [0, 0, 0, 0, 1])
    assert cg.class_of(Da) == cg.class_of(Dc)
    assert cg.class_of(Db) == cg.class_of(Dd)
    assert cg.class_of(Dinf) == cg.class_of(Da + Db)
    assert cg.class_of(Da) != cg.class_of(Db)


def test_weil_vs_cartier_on_the_cone():
    fan, div, _ = fan_library("coneP1xP1_projective")
    for a in range(-3, 4):
        for b in range(-3, 4):
            D = div["O(1,0)"].scale(a) + div["O(0,1)"].scale(b)
            assert weil_is_cartier(fan, D) == (a == b), (a, b)


def test_smooth_fans_are_factorial():
    for name in ["P2", "P3", "blowupP3_2pts"]:
        fan, div, _ = fan_library(name)
        import random
        rng = random.Random(9)
        for _ in range(8):
            D = TDivisor(fan, [rng.randint(-3, 3) for _ in fan.rays])
            assert weil_is_cartier(fan, D)


def test_blowup_vanishing_sampler():
    # a few rows of the 7.2 lists; the full manifest lives in the
    # verification module
    fan, div, _ = fan_library("blowupP3_2pts")
    combo = lambda h, e1, e2: divisor_from_combo(div, {"H": h, "E1": e1, "E2": e2})
    assert cohomology(fan, combo(0, 1, -1)) == (0, 0, 0, 0)      # E1 - E2
    assert cohomology(fan, combo(-4, 3, 2)) == (0, 0, 0, 0)      # -4H+3E1+2E2
    assert cohomology(fan, combo(1, -2, -1)) == (0, 1, 0, 0)     # H-2E1-E2
    assert cohomology(fan, combo(1, -1, 0)) == (3, 0, 0, 0)      # H-E1
    assert cohomology(fan, combo(1, 0, 0)) == (4, 0, 0, 0)       # H
    assert cohomology(fan, combo(-3, 1, 1)) == (0, 0, 0, 0)      # -3H+E1+E2


def test_cone_fan_rank_one_vanishing():
    # the projective cone carries the reflexive O(a,b): the two vanishing
    # lists, plus O(-1,-1) and O(-2,-2) with all cohomology zero
    fan, div, _ = fan_library("coneP1xP1_projective")
    combo = lambda a, b: div["O(1,0)"].scale(a) + div["O(0,1)"].scale(b)
    for (a, b) in [(-1, 0), (-2, 0), (-1, 1), (0, -1), (0, -2), (1, -1),
                   (-1, -1), (-2, -2)]:
        assert cohomology(fan, combo(a, b)) == (0, 0, 0, 0), (a, b)
    assert cohomology(fan, combo(0, 1)) == (2, 0, 0, 0)
    # the cone is nondegenerate in P^4: five hyperplane sections
    assert cohomology(fan, combo(1, 1)) == (5, 0, 0, 0)


# ---------------------------------------------------------------------------
# the integer kernels against the rational constructions they replace


P1132 = Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -3, -2)],
            list(combinations(range(4), 3)), "P(1,1,3,2)")


def test_integer_rank_matches_rational_rank():
    rng = random.Random(11)
    shapes = ([(1, n) for n in range(1, 7)] + [(n, 1) for n in range(1, 7)]
              + [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(240)])
    deficient = 0
    for nr, nc in shapes:
        rows = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        kind = rng.randrange(4)
        if kind == 1:
            rows[rng.randrange(nr)] = [0] * nc
        elif kind == 2:
            j = rng.randrange(nc)
            for row in rows:
                row[j] = 0
        elif kind == 3 and nr >= 3:
            # a row that is an integer combination of two others
            i, j, k = rng.sample(range(nr), 3)
            s, t = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[i] = [s * x + t * y for x, y in zip(rows[j], rows[k])]
        echelon, pivots = toric._echelon(rows)
        want = rank(from_int_rows(QQ, rows))
        assert len(pivots) == want, rows
        deficient += want < min(nr, nc)
        # each free column gives a kernel vector read off the echelon form
        d = echelon[len(pivots) - 1][pivots[-1]] if pivots else 1
        for f in set(range(nc)).difference(pivots):
            x = [0] * nc
            x[f] = d
            for row, pc in zip(echelon, pivots):
                x[pc] = -row[f]
            assert all(sum(map(mul, row, x)) == 0 for row in rows), (rows, x)
    assert deficient >= 50, deficient


def _fraction_facets(fan, cone):
    """Reference: the rational kernel of each set of rank - 1 rays, scaled
    to a primitive normal, as the facets were built over Q."""
    pts = [fan.rays[i] for i in cone]
    facets, seen = [], set()
    for sub in combinations(range(len(pts)), fan.rank - 1):
        rows = [[Fraction(x) for x in pts[i]] for i in sub]
        ker = (kernel_basis(Matrix(QQ, rows)) if rows
               else Matrix.identity(QQ, fan.rank))
        if ker.ncols != 1:
            continue
        n = [ker.rows[i][0] for i in range(fan.rank)]
        den = 1
        for v in n:
            den = den * v.denominator // gcd(den, v.denominator)
        n = [int(v * den) for v in n]
        g = gcd(*n)
        n = tuple(v // g for v in n)
        for cand in (n, tuple(-v for v in n)):
            vals = [sum(map(mul, cand, p)) for p in pts]
            if cand not in seen and all(v >= 0 for v in vals):
                seen.add(cand)
                facets.append(tuple(i for i, v in zip(cone, vals) if v == 0))
    return facets


def test_facets_match_the_rational_construction():
    fans = [toric._fan_library_build(name)[0] for name in LIBRARY] + [P1132]
    for fan in fans:
        for cone in fan.max_cones:
            assert fan._facets[cone] == _fraction_facets(fan, cone), \
                (fan.name, cone)


def _fraction_weil_is_cartier(fan, D):
    """Reference: one rational solve per cone, then an integrality test."""
    for cone in fan.max_cones:
        rows = [[Fraction(x) for x in fan.rays[i]] for i in cone]
        sol = solve(Matrix(QQ, rows), [Fraction(-D.coeffs[i]) for i in cone])
        if sol is None or any(x.denominator != 1 for x in sol):
            return False
    return True


def test_cartier_test_matches_the_rational_solve():
    # the projective cone's square cone is not simplicial, and P(1,1,3,2)
    # has cones of index 2 and 3, so both answers occur
    rng = random.Random(13)
    fans = [toric._fan_library_build(name)[0] for name in LIBRARY] + [P1132]
    seen = set()
    for fan in fans:
        for _ in range(24):
            D = TDivisor(fan, [rng.randint(-4, 4) for _ in fan.rays])
            got = weil_is_cartier(fan, D)
            assert got == _fraction_weil_is_cartier(fan, D), (fan.name, D)
            seen.add((fan.name in ("coneP1xP1_projective", "P(1,1,3,2)"), got))
    assert seen == {(False, True), (True, True), (True, False)}, seen


def _fraction_intersection(fan, D, wall):
    """Reference: u_a + u_b = sum alpha u over the wall, solved over Q."""
    ca, cb = (fan.max_cones[i] for i in fan.walls()[wall])
    extra_a = [i for i in ca if i not in wall][0]
    extra_b = [i for i in cb if i not in wall][0]
    rhs = [Fraction(x + y) for x, y in zip(fan.rays[extra_a],
                                           fan.rays[extra_b])]
    mat = Matrix(QQ, [[Fraction(fan.rays[i][k]) for i in wall]
                      for k in range(fan.rank)])
    alpha = solve(mat, rhs)
    val = D.coeffs[extra_a] + D.coeffs[extra_b] - sum(
        x * D.coeffs[i] for x, i in zip(alpha, wall))
    assert val.denominator == 1
    return int(val)


def test_intersections_match_the_rational_solve():
    # every named wall, with each prime divisor and seeded divisors
    rng = random.Random(17)
    named = 0
    for name in LIBRARY:
        fan, _div, walls = toric._fan_library_build(name)
        for wall in walls.values():
            named += 1
            unit = [TDivisor(fan, [int(i == j) for j in range(len(fan.rays))])
                    for i in range(len(fan.rays))]
            seeded = [TDivisor(fan, [rng.randint(-4, 4) for _ in fan.rays])
                      for _ in range(8)]
            for D in unit + seeded:
                assert intersect_curve(D, wall, fan) == \
                    _fraction_intersection(fan, D, wall), (name, wall, D)
    assert named == 3


def test_toric_kernels_make_no_rational_operation(monkeypatch):
    # the first query on a fresh fan computes all 64 profiles and
    # eliminates every chamber; with one Cartier test and one intersection
    # number, none of it may touch the rational field
    ops = []
    field = type(QQ)
    for name in ("from_int", "is_zero", "add", "sub", "mul", "div", "inv",
                 "neg"):
        method = getattr(field, name)
        monkeypatch.setattr(field, name, lambda self, *args, _m=method,
                            _n=name: ops.append(_n) or _m(self, *args))
    fan, div, walls = toric._fan_library_build("blowupP3_2pts")
    assert cohomology(fan, div["H"]) == (4, 0, 0, 0)
    assert len(fan._profile_memo) == 64
    assert weil_is_cartier(fan, div["H"] - div["E1"])
    assert intersect_curve(div["H"], walls["l"], fan) == 1
    assert ops == []
    # the counter does see a rational operation
    QQ.add(QQ.one(), QQ.one())
    assert ops == ["add"]


def test_divisor_arithmetic_equals_checked_construction():
    # sums, differences and multiples are built without a second check of
    # their integer coefficients; each equals the checked construction
    rng = random.Random(43)
    for name in LIBRARY:
        fan = fan_library(name)[0]
        for _ in range(10):
            a = [rng.randint(-5, 5) for _ in fan.rays]
            b = [rng.randint(-5, 5) for _ in fan.rays]
            n = rng.randint(-4, 4)
            D, E = TDivisor(fan, a), TDivisor(fan, b)
            for got, want in ((D + E, [x + y for x, y in zip(a, b)]),
                              (D - E, [x - y for x, y in zip(a, b)]),
                              (D.scale(n), [n * x for x in a])):
                ref = TDivisor(fan, want)
                assert type(got) is TDivisor and got.fan is fan
                assert got.coeffs == ref.coeffs
                assert all(type(c) is int for c in got.coeffs)
                assert cohomology(fan, got) == cohomology(fan, ref)
    # the constructor and scale still refuse anything but integers
    fan = fan_library("P2")[0]
    for bad in ([1, 2, 0.5], [1, Fraction(1, 2), 0], [True, 0, 0], (1, "2", 0),
                "123"):
        with pytest.raises(ToricError, match="not a list of integers"):
            TDivisor(fan, bad)
    D = TDivisor(fan, [1, 0, 0])
    for bad in (0.5, Fraction(2), True, "2"):
        with pytest.raises(ToricError, match="scale factor"):
            D.scale(bad)
    with pytest.raises(ToricError, match="different fans"):
        D + TDivisor(fan_library("P1xP1")[0], [0, 0, 0, 0])
