"""Exact coefficient fields: Q, prime fields F_p, and a quadratic extension K[i].

Field objects operate on raw element values so that polynomials and
matrices can store plain values: an element of Q is an int when it is
integral and a Fraction otherwise, an element of F_p is an int, and an
element of K[i] is a pair.  All arithmetic is exact, Q included: no
operation returns a float.  Division by zero raises ZeroDivisionError.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """Base interface. Element values are immutable and hashable."""

    name = "?"

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def to_str(self, a) -> str:
        return str(a)

    def __repr__(self):
        return self.name


def _rational(x):
    """x as an element of Q: its numerator if it is an integral Fraction."""
    if x.__class__ is int or x.denominator != 1:
        return x
    return x.numerator


class RationalField(Field):
    """Q.  Integral elements are ints, so that the common case of integer
    coefficients never builds a Fraction; the others are Fractions."""

    name = "Q"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return _rational(Fraction(n))

    def from_fraction(self, num, den=1):
        return _rational(Fraction(num, den))

    def add(self, a, b):
        return _rational(a + b)

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return _rational(a * b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in Q")
        num, den = a.numerator, a.denominator
        if num == 1 or num == -1:
            return num * den
        return Fraction(den, num)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        if a.__class__ is int and b.__class__ is int:
            q, r = divmod(a, b)
            if r == 0:
                return q
        return _rational(Fraction(a, b))

    def is_zero(self, a):
        return a == 0

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    """F_p for a prime p < 2**31."""

    def __init__(self, p: int):
        if not (2 <= p < 2**31) or not _is_prime(p):
            raise FieldError(f"{p} is not a prime in the supported range")
        self.p = p
        self.name = f"F{p}"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, num, den=1):
        return self.div(num % self.p, den % self.p)

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def has_sqrt_minus_one(self) -> bool:
        return self.p == 2 or self.p % 4 == 1

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


class QuadraticExtension(Field):
    """K[i] with i**2 = -1 over a base field K in which -1 is not a square.

    Element values are pairs (a, b) representing a + b*i.  Provided for
    idempotent analysis of algebras like k[t]/(t^2+1) over Q.
    """

    def __init__(self, base: Field):
        if isinstance(base, PrimeField) and base.has_sqrt_minus_one():
            raise FieldError(f"-1 is already a square in {base.name}")
        if isinstance(base, QuadraticExtension):
            raise FieldError("iterated quadratic extensions are not supported")
        self.base = base
        self.name = f"{base.name}[i]"

    def zero(self):
        return (self.base.zero(), self.base.zero())

    def one(self):
        return (self.base.one(), self.base.zero())

    def i(self):
        return (self.base.zero(), self.base.one())

    def from_int(self, n):
        return (self.base.from_int(n), self.base.zero())

    def add(self, x, y):
        return (self.base.add(x[0], y[0]), self.base.add(x[1], y[1]))

    def neg(self, x):
        return (self.base.neg(x[0]), self.base.neg(x[1]))

    def mul(self, x, y):
        K = self.base
        # (a+bi)(c+di) = (ac-bd) + (ad+bc)i
        return (
            K.sub(K.mul(x[0], y[0]), K.mul(x[1], y[1])),
            K.add(K.mul(x[0], y[1]), K.mul(x[1], y[0])),
        )

    def inv(self, x):
        K = self.base
        n = K.add(K.mul(x[0], x[0]), K.mul(x[1], x[1]))
        if K.is_zero(n):
            raise ZeroDivisionError(f"division by zero in {self.name}")
        ninv = K.inv(n)
        return (K.mul(x[0], ninv), K.neg(K.mul(x[1], ninv)))

    def is_zero(self, x):
        return self.base.is_zero(x[0]) and self.base.is_zero(x[1])

    def to_str(self, x):
        a, b = x
        if self.base.is_zero(b):
            return self.base.to_str(a)
        if self.base.is_zero(a):
            return f"{self.base.to_str(b)}*i"
        return f"{self.base.to_str(a)}+{self.base.to_str(b)}*i"

    def __eq__(self, other):
        return isinstance(other, QuadraticExtension) and other.base == self.base

    def __hash__(self):
        return hash(("quad", self.base))


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_by_name(name: str) -> Field:
    """Resolve 'Q', 'Fp' (e.g. 'F5'), or 'Q[i]' style names."""
    name = name.strip()
    if name == "Q":
        return QQ
    if name.endswith("[i]"):
        return QuadraticExtension(field_by_name(name[:-3]))
    if name.startswith("F") and name[1:].isdigit():
        return GF(int(name[1:]))
    raise FieldError(f"unknown field name: {name!r}")
