import random

import pytest

from singcat.fields import QQ, GF
from singcat.poly import PolyRing, ParseError


def lead_monomial(p):
    """The leading monomial of a nonzero polynomial in its ring's order."""
    return min(p.terms, key=p.ring.order_key)


def ring_xy(field=QQ, order="grevlex"):
    return PolyRing(field, ["x", "y"], order=order)


def test_difference_of_squares():
    R = ring_xy()
    x, y = R.gens()
    assert (x + y) * (x - y) == x * x - y * y


def test_cancellation():
    R = PolyRing(QQ, ["x", "y", "z", "w"])
    p = R.parse("x*y+z*w") + R.parse("-z*w")
    assert p == R.parse("x*y")


def test_mod5_coefficient_wrap():
    R = ring_xy(GF(5))
    p = R.parse("2*x") * R.parse("3*x")
    assert p == R.parse("x^2")


def test_parse_rationals_and_powers():
    R = ring_xy()
    p = R.parse("1/2*x^2 - 3*y + 4")
    x, y = R.gens()
    half = QQ.from_fraction(1, 2)
    q = (x * x).scale(half) - y.scale(QQ.from_int(3)) + R.from_int(4)
    assert p == q


def test_parse_errors_are_positioned():
    R = ring_xy()
    with pytest.raises(ParseError):
        R.parse("x + q")
    with pytest.raises(ParseError):
        R.parse("x + ")


def test_grevlex_vs_lex_leading_term():
    # x^2 vs x*y^2: lex prefers x^2, grevlex prefers the higher degree term
    Rg = ring_xy(order="grevlex")
    p = Rg.parse("x^2 + x*y^2")
    assert lead_monomial(p) == (1, 2)
    Rl = ring_xy(order="lex")
    p = Rl.parse("x^2 + x*y^2")
    assert lead_monomial(p) == (2, 0)


def test_grevlex_ties():
    # standard grevlex on x>y>z sorts degree 2 as x^2 > xy > y^2 > xz > yz > z^2
    R = PolyRing(QQ, ["x", "y", "z"])
    assert lead_monomial(R.parse("x*z + y^2")) == (0, 2, 0)
    assert lead_monomial(R.parse("x*y + y^2")) == (1, 1, 0)
    assert lead_monomial(R.parse("x*z + y*z")) == (1, 0, 1)


def test_ring_and_distributivity_randomized():
    rng = random.Random(7)
    R = PolyRing(GF(13), ["x", "y", "z"])

    def rand_poly():
        out = R.zero()
        for _ in range(rng.randint(1, 4)):
            mon = tuple(rng.randint(0, 2) for _ in range(3))
            out = out + R.monomial(mon, R.field.from_int(rng.randint(0, 12)))
        return out

    for _ in range(40):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_substitute_and_map_to():
    R = ring_xy()
    S = PolyRing(QQ, ["x", "y", "u"])
    p = R.parse("x^2+y")
    assert p.map_to(S) == S.parse("x^2+y")
    q = p.substitute({"x": R.parse("y")})
    assert q == R.parse("y^2+y")


def test_repr_round_trip():
    R = PolyRing(QQ, ["x", "y", "z", "w"])
    for s in ["x*y+z*w", "x^2-2*y+1/3", "-x+w^3"]:
        p = R.parse(s)
        assert R.parse(repr(p)) == p
