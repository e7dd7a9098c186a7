"""Multivariate polynomials over an exact field, with grevlex/lex orders.

Monomials are exponent tuples.  A polynomial is a mapping monomial -> nonzero
coefficient together with its ambient ring.  Term order is a property of the
ring and is used for leading-term queries and printing.  Order keys are
ascending: a smaller key is a larger monomial, so the leading term is the
`min` under the key and a heap pops terms largest first.  Each ring
computes the order key and the weighted degree of a monomial once and keeps
them: `ring.order_key(m)` and `ring.weighted_deg(m)` are dict lookups after
the first call.
"""

from __future__ import annotations

import operator
from typing import Iterable

from .fields import Field

Monomial = tuple


def mon_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.add, a, b))


def mon_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(operator.le, a, b))


def mon_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def grevlex_key(m: Monomial):
    # higher degree first; between equal degrees, the monomial with the
    # smaller entry at the last place where the two differ
    return (-sum(m), m[::-1])


def lex_key(m: Monomial):
    return tuple(map(operator.neg, m))


ORDER_KEYS = {"grevlex": grevlex_key, "lex": lex_key}


class Memo(dict):
    """key -> fn(key), each computed on first lookup."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class PolyRing:
    """Polynomial ring k[x_1..x_n] with a monomial order and grading weights."""

    def __init__(self, field: Field, variables: Iterable[str], order: str = "grevlex",
                 weights: Iterable[int] | None = None):
        self.field = field
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        if order not in ORDER_KEYS:
            raise ValueError(f"unknown monomial order {order!r}")
        self.order = order
        self.order_key = Memo(ORDER_KEYS[order]).__getitem__
        self.weights = tuple(weights) if weights is not None else (1,) * len(self.variables)
        if len(self.weights) != len(self.variables):
            raise ValueError("weight vector arity mismatch")
        w = self.weights
        self.weighted_deg = Memo(lambda m: sum(map(operator.mul, m, w))).__getitem__

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: self.field.one()})

    def const(self, c) -> "Polynomial":
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def from_int(self, n: int) -> "Polynomial":
        return self.const(self.field.from_int(n))

    def gen(self, name: str) -> "Polynomial":
        i = self.variables.index(name)
        mon = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {mon: self.field.one()})

    def gens(self):
        return [self.gen(v) for v in self.variables]

    def monomial(self, exps: Monomial, coeff=None) -> "Polynomial":
        c = coeff if coeff is not None else self.field.one()
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, {tuple(exps): c})

    def with_order(self, order: str) -> "PolyRing":
        return PolyRing(self.field, self.variables, order, self.weights)

    def extend(self, new_vars: Iterable[str]) -> "PolyRing":
        """The ring with new_vars appended, each of weight 1."""
        nv = tuple(new_vars)
        return PolyRing(self.field, self.variables + nv, self.order, self.weights + (1,) * len(nv))

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(self, text)

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and other.field == self.field
                and other.variables == self.variables and other.order == self.order
                and other.weights == self.weights)

    def __hash__(self):
        return hash((self.field, self.variables, self.order, self.weights))

    def __repr__(self):
        return f"{self.field.name}[{','.join(self.variables)}]"


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms  # monomial -> nonzero coefficient

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ValueError("mismatched ambient rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        F = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                s = F.add(out[m], c)
                if F.is_zero(s):
                    del out[m]
                else:
                    out[m] = s
            else:
                out[m] = c
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        F = self.ring.field
        return Polynomial(self.ring, {m: F.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        F = self.ring.field
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mon_mul(m1, m2)
                c = F.mul(c1, c2)
                if m in out:
                    s = F.add(out[m], c)
                    if F.is_zero(s):
                        del out[m]
                    else:
                        out[m] = s
                else:
                    out[m] = c
        return Polynomial(self.ring, out)

    def scale(self, c) -> "Polynomial":
        F = self.ring.field
        if F.is_zero(c):
            return self.ring.zero()
        return Polynomial(self.ring, {m: F.mul(c, v) for m, v in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def total_deg(self) -> int:
        if self.is_zero():
            return -1
        return max(sum(m) for m in self.terms)

    def constant_coeff(self):
        return self.terms.get((0,) * self.ring.nvars, self.ring.field.zero())

    def substitute(self, values: dict) -> "Polynomial":
        """Substitute ring elements (Polynomial) for the named variables."""
        R = self.ring
        out = R.zero()
        for m, c in self.terms.items():
            part = R.const(c)
            for i, e in enumerate(m):
                if e == 0:
                    continue
                name = R.variables[i]
                base = values.get(name, R.gen(name))
                part = part * base**e
            out = out + part
        return out

    def map_to(self, target: PolyRing) -> "Polynomial":
        """Reinterpret in another ring over the same field by variable name."""
        positions = {i: target.variables.index(v)
                     for i, v in enumerate(self.ring.variables)}
        out: dict = {}
        for m, c in self.terms.items():
            nm = [0] * target.nvars
            for i, e in enumerate(m):
                nm[positions[i]] += e
            out[tuple(nm)] = c
        return Polynomial(target, out)

    def sorted_terms(self):
        key = self.ring.order_key
        return sorted(self.terms.items(), key=lambda t: key(t[0]))

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and other.ring == self.ring
                and other.terms == self.terms)

    def __repr__(self):
        if self.is_zero():
            return "0"
        F = self.ring.field
        parts = []
        for m, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.ring.variables, m) if e
            )
            cs = F.to_str(c)
            if mono:
                if cs == "1":
                    s = mono
                elif cs == "-1":
                    s = f"-{mono}"
                else:
                    s = f"{cs}*{mono}"
            else:
                s = cs
            parts.append(s)
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out


# ---------------------------------------------------------------------------
# parsing


class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch in "+-*^()/":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, ring: PolyRing, text: str):
        self.ring = ring
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind=None):
        tok = self.tokens[self.k]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.k += 1
        return tok

    def parse_expr(self) -> Polynomial:
        sign = 1
        while self.peek()[0] in "+-":
            if self.take()[0] == "-":
                sign = -sign
        out = self.parse_term()
        if sign < 0:
            out = -out
        while self.peek()[0] in "+-":
            op = self.take()[0]
            term = self.parse_term()
            out = out + term if op == "+" else out - term
        return out

    def parse_term(self) -> Polynomial:
        out = self.parse_factor()
        while self.peek()[0] == "*":
            self.take()
            out = out * self.parse_factor()
        return out

    def parse_factor(self) -> Polynomial:
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.take()
            neg = False
            if self.peek()[0] == "-":
                raise ParseError("negative exponent", self.peek()[2])
            e = int(self.take("int")[1])
            base = base**e
        return base

    def parse_atom(self) -> Polynomial:
        tok = self.peek()
        if tok[0] == "(":
            self.take()
            inner = self.parse_expr()
            self.take(")")
            return inner
        if tok[0] == "-":
            self.take()
            return -self.parse_atom()
        if tok[0] == "int":
            self.take()
            num = int(tok[1])
            # rational coefficient a/b
            if self.peek()[0] == "/" and self.tokens[self.k + 1][0] == "int":
                self.take()
                den = int(self.take("int")[1])
                if den == 0:
                    raise ParseError("zero denominator", tok[2])
                return self.ring.const(self._coeff(num, den))
            return self.ring.const(self._coeff(num, 1))
        if tok[0] == "name":
            self.take()
            if tok[1] not in self.ring.variables:
                raise ParseError(f"unknown variable {tok[1]!r}", tok[2])
            return self.ring.gen(tok[1])
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])

    def _coeff(self, num: int, den: int):
        F = self.ring.field
        if hasattr(F, "from_fraction"):
            return F.from_fraction(num, den)
        return F.div(F.from_int(num), F.from_int(den))


def parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    p = _Parser(ring, text)
    out = p.parse_expr()
    tok = p.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return out
