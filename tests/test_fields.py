from fractions import Fraction

import pytest

from singcat.fields import QQ, GF, QuadraticExtension, FieldError, field_by_name


def test_rational_basics():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.mul(Fraction(2, 3), Fraction(3, 2)) == 1
    assert QQ.inv(Fraction(-4)) == Fraction(-1, 4)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


Q_SAMPLES = [0, 1, -1, 2, -6, Fraction(0), Fraction(3), Fraction(1, 2),
             Fraction(-2, 3), Fraction(6, 3), Fraction(7, 5)]


def _is_exact_rational(x):
    if isinstance(x, Fraction):
        return x.denominator != 1
    return type(x) is int


def test_rational_results_are_exact():
    # integral results are ints, the others Fractions, never floats
    for a in Q_SAMPLES:
        assert _is_exact_rational(QQ.neg(QQ.add(a, 0)))
        if a != 0:
            assert _is_exact_rational(QQ.inv(a))
        for b in Q_SAMPLES:
            assert _is_exact_rational(QQ.add(a, b))
            assert _is_exact_rational(QQ.mul(a, b))
            if b != 0:
                q = QQ.div(a, b)
                assert _is_exact_rational(q)
                assert q == Fraction(a) / Fraction(b)


def test_rational_normal_forms():
    assert QQ.zero() == 0 and type(QQ.zero()) is int
    assert QQ.one() == 1 and type(QQ.one()) is int
    assert type(QQ.from_int(4)) is int
    assert QQ.from_fraction(6, 3) == 2 and type(QQ.from_fraction(6, 3)) is int
    assert QQ.from_fraction(3, 6) == Fraction(1, 2)
    assert QQ.mul(Fraction(1, 2), 2) == 1 and type(QQ.mul(Fraction(1, 2), 2)) is int
    assert type(QQ.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert QQ.inv(-1) == -1 and type(QQ.inv(Fraction(-1, 3))) is int
    assert QQ.inv(Fraction(-1, 3)) == -3
    assert QQ.inv(2) == Fraction(1, 2)
    assert QQ.div(1, 3) == Fraction(1, 3) and type(QQ.div(6, -3)) is int
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        QQ.div(Fraction(1, 2), Fraction(0))


def test_prime_field_arithmetic():
    F5 = GF(5)
    assert F5.mul(2, 3) == 1
    assert F5.add(4, 4) == 3
    assert F5.inv(4) == 4
    assert F5.neg(1) == 4
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)


def test_prime_field_rejects_composites():
    with pytest.raises(FieldError):
        GF(6)
    with pytest.raises(FieldError):
        GF(1)


def test_field_axioms_sampled():
    F7 = GF(7)
    elts = list(range(7))
    for a in elts:
        for b in elts:
            assert F7.add(a, b) == F7.add(b, a)
            assert F7.mul(a, b) == F7.mul(b, a)
            if b != 0:
                assert F7.mul(F7.div(a, b), b) == a


def test_quadratic_extension_over_q():
    K = QuadraticExtension(QQ)
    i = K.i()
    assert K.mul(i, i) == K.neg(K.one())
    x = (Fraction(1, 2), Fraction(3))
    assert K.mul(x, K.inv(x)) == K.one()


def test_quadratic_extension_refused_when_sqrt_exists():
    # -1 is a square mod 5, so F5[i] is not a field
    with pytest.raises(FieldError):
        QuadraticExtension(GF(5))
    QuadraticExtension(GF(7))  # 7 = 3 mod 4 is fine


def test_field_by_name():
    assert field_by_name("Q") is QQ
    assert field_by_name("F5") == GF(5)
    assert field_by_name("Q[i]") == QuadraticExtension(QQ)
