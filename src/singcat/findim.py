"""Finite-dimensional associative algebras given by structure constants,
with exact idempotent search.

Each nonzero product of basis elements is a sparse row, and every routine
visits the nonzero products only; mult_table is a dense view for reports.
There is one radical routine: radical() is the kernel of the trace form,
read straight from the table, and radical_layers() gives its layers.

Idempotents are solutions of the quadratic system e*e = e on a basis ansatz.
The system always defines a smooth (hence reduced) scheme, so when it is
zero-dimensional a lex Groebner basis plus exact root extraction enumerates
every idempotent defined over the coefficient field.  Over K[i] the search
restricts scalars to the base field first.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd

from .fields import Field, QQ, PrimeField, QuadraticExtension
from .linalg import Matrix, kernel_basis
from .poly import PolyRing, Polynomial
from .modgb import groebner_basis


class AlgebraError(ValueError):
    pass


class FiniteDimAlgebra:
    """Associative unital algebra: labels, sparse products, unit.  products[i]
    maps j to basis_i * basis_j as (k, coefficient) pairs, nonzero, by
    ascending k, zero products absent; vectors are dense lists at the API."""

    def __init__(self, field: Field, labels, products, unit):
        self.field = field
        self.labels = list(labels)
        self.dim = n = len(self.labels)
        self.products = [dict(prods) for prods in products]
        self.unit = list(unit)
        if (len(self.products) != n or len(self.unit) != n
                or any(not 0 <= j < n or any(not 0 <= k < n for k, _c in row)
                       for prods in self.products for j, row in prods.items())):
            raise AlgebraError("structure constant table has wrong shape")

    @property
    def mult_table(self):
        """The dense view, for reports: mult_table[i][j] = basis_i * basis_j."""
        return [[self._dense(prods.get(j, ())) for j in range(self.dim)]
                for prods in self.products]

    @functools.cached_property
    def basis(self):
        """The coefficient vectors of the basis elements."""
        return [self._dense([(i, self.field.one())]) for i in range(self.dim)]

    # -- arithmetic on coefficient vectors ------------------------------------

    def zero_vec(self):
        return [self.field.zero()] * self.dim

    def add(self, a, b):
        return [self.field.add(x, y) for x, y in zip(a, b)]

    def scale(self, c, a):
        return [self.field.mul(c, x) for x in a]

    def mul(self, a, b):
        F = self.field
        v, out = self._sparse(b), {}
        for x, prods in zip(a, self.products):
            if not F.is_zero(x):
                for j, row in prods.items():
                    if j in v:
                        self._add_multiple(out, F.mul(x, v[j]), row)
        return self._dense(out.items())

    def eq(self, a, b):
        F = self.field
        return all(x == y or F.is_zero(F.sub(x, y)) for x, y in zip(a, b))

    def _sparse(self, vec):
        is_zero = self.field.is_zero
        return {k: c for k, c in enumerate(vec) if not is_zero(c)}

    def _dense(self, pairs):
        out = self.zero_vec()
        for k, c in pairs:
            out[k] = c
        return out

    def _add_multiple(self, out, c, pairs):
        """out += c * (the sparse vector of the pairs), in place."""
        F = self.field
        for k, s in pairs:
            t = F.mul(c, s)
            out[k] = F.add(out[k], t) if k in out else t

    def _product(self, u, v):
        """u * v for sparse vectors, visiting only the nonzero products."""
        F = self.field
        out = {}
        for i, a in u.items():
            for j, row in self.products[i].items():
                if j in v:
                    self._add_multiple(out, F.mul(a, v[j]), row)
        return {k: c for k, c in out.items() if not F.is_zero(c)}

    def _same(self, u, v):
        F, zero = self.field, self.field.zero()
        return all(u.get(k) == v.get(k)
                   or F.is_zero(F.sub(u.get(k, zero), v.get(k, zero)))
                   for k in u.keys() | v.keys())

    def is_associative(self) -> bool:
        one, P = self.field.one(), self.products
        return all(self._same(self._product(dict(P[i].get(j, ())), {l: one}),
                              self._product({i: one}, dict(P[j].get(l, ()))))
                   for i, j, l in itertools.product(range(self.dim), repeat=3))

    def radical(self):
        """Basis (list of coefficient vectors) of the Jacobson radical.

        Uses the trace-form kernel, valid in characteristic zero; over F_p
        this is the radical of the trace form and is only used for report
        purposes on algebras where it agrees.  The form is read from the
        table: tr L_k = sum_j c_kj^j and T_ij = sum_k c_ij^k tr L_k.
        """
        F = self.field
        total = functools.partial(functools.reduce, F.add)
        traces = [total((c for j, row in prods.items() for m, c in row if m == j),
                        F.zero()) for prods in self.products]
        form = [self._dense((j, total((F.mul(c, traces[k]) for k, c in row),
                                      F.zero())) for j, row in prods.items())
                for prods in self.products]
        ker = kernel_basis(Matrix(F, form))
        return [ker.col(j) for j in range(ker.ncols)]

    def radical_layers(self):
        """[dim A/rad, dim rad/rad^2, ...] up to the first zero power.

        Past rad, rad^(s+1) = rad^s V for V a complement of rad^2 in rad,
        exact once rad V = rad^2 (then rad^(s+1) = rad rad^(s-1) V), as for
        any nilpotent ideal.  Each power is an echelon basis of sparse rows
        that each product is reduced into as it is made.  AlgebraError when
        rad V falls short of rad^2 or the powers stop shrinking (over F2).
        """
        rad = [self._sparse(v) for v in self.radical()]
        square = self._span(rad, rad)
        rows, layers, power = dict(square), [self.dim - len(rad)], rad
        V = [b for b in rad if self._reduce_into(rows, b)] if square else []
        for _ in range(self.dim if rad else 0):
            nxt = self._span(power, V)
            if len(nxt) == len(power) or (
                    power is rad and len(nxt) != len(square)):
                raise AlgebraError(
                    f"radical powers from dimension {len(rad)} never reach 0 "
                    f"over {self.field.name} (dim A = {self.dim}): the "
                    "trace-form radical is not nilpotent")
            layers.append(len(power) - len(nxt))
            if not nxt:
                break
            power = list(nxt.values())
        return layers

    def _span(self, us, vs):
        """Echelon rows, as _reduce_into keeps them, of the products u v."""
        rows = {}
        for a in us:
            for b in vs:
                self._reduce_into(rows, self._product(a, b))
        return rows

    def _reduce_into(self, rows, vec):
        """Reduce the sparse vec by the echelon rows (pivot -> row, lowest
        index the pivot with coefficient one) and add what is left, if any;
        whether a row was added."""
        F = self.field
        vec = dict(vec)
        while vec:
            p = min(vec)
            if p not in rows:
                inv = F.inv(vec[p])
                rows[p] = {k: F.mul(inv, c) for k, c in vec.items()}
                return True
            self._add_multiple(vec, F.neg(vec[p]), rows[p].items())
            vec = {k: c for k, c in vec.items() if not F.is_zero(c)}
        return False

    def subspace_dim(self, vectors) -> int:
        rows = {}
        for v in vectors:
            self._reduce_into(rows, self._sparse(v))
        return len(rows)

    def to_str(self, vec) -> str:
        F = self.field
        parts = []
        for c, lab in zip(vec, self.labels):
            if F.is_zero(c):
                continue
            cs = F.to_str(c)
            if cs == "1":
                parts.append(lab)
            elif cs == "-1":
                parts.append(f"-{lab}")
            else:
                parts.append(f"{cs}*{lab}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    def verify_isomorphism(self, other: "FiniteDimAlgebra", images) -> bool:
        """Check that basis_i -> images[i] extends to an algebra isomorphism.

        images are coefficient vectors in `other`.  Verifies linearity data:
        bijectivity, unit preservation, and multiplicativity on all basis
        pairs, each side built from nonzero products and image terms only.
        """
        if other.dim != self.dim or other.field != self.field:
            return False
        if other.subspace_dim(images) != self.dim:
            return False
        sparse = [other._sparse(img) for img in images]

        def image_of(pairs):
            out = {}
            for i, c in pairs:
                other._add_multiple(out, c, sparse[i].items())
            return out

        if not other._same(image_of(self._sparse(self.unit).items()),
                           other._sparse(other.unit)):
            return False
        return all(other._same(other._product(sparse[i], sparse[j]),
                               image_of(self.products[i].get(j, ())))
                   for i, j in itertools.product(range(self.dim), repeat=2))


def algebra_idempotents(A: FiniteDimAlgebra, dim_bound: int = 16):
    """All solutions of e*e = e found over A's field.

    Complete (every idempotent over the field) whenever the idempotent scheme
    is zero-dimensional; in particular for commutative A.  Algebras with
    positive-dimensional idempotent varieties get the solutions with the
    non-determined ansatz coordinates pinned to 0, plus 0 and 1.
    """
    if A.dim > dim_bound:
        raise AlgebraError(f"dimension {A.dim} exceeds bound {dim_bound}")
    F = A.field
    if isinstance(F, QuadraticExtension):
        return _idempotents_via_restriction(A, dim_bound)

    names = [f"e{i}" for i in range(A.dim)]
    ring = PolyRing(F, names, order="lex")
    gens = ring.gens()
    # coordinates of e*e - e as quadratic polynomials
    eqs = [ring.zero() for _ in range(A.dim)]
    for i, prods in enumerate(A.products):
        for j, row in prods.items():
            prod = gens[i] * gens[j]
            for k, c in row:
                eqs[k] = eqs[k] + prod.scale(c)
    for k in range(A.dim):
        eqs[k] = eqs[k] - gens[k]
    sols = solve_zero_dim(ring, [e for e in eqs if not e.is_zero()])
    found = {}  # by printed coefficients, in the order first found
    for vec in map(list, sols + [tuple(A.zero_vec()), tuple(A.unit)]):
        if A.eq(A.mul(vec, vec), vec):
            found.setdefault(tuple(F.to_str(c) for c in vec), vec)
    return list(found.values())


def _idempotents_via_restriction(A: FiniteDimAlgebra, dim_bound: int):
    """Idempotents over K[i] by viewing A as an algebra over K of twice the
    dimension; e*e = e does not depend on the scalars."""
    K = A.field
    base = K.base
    n = A.dim
    labels = [f"{lab}" for lab in A.labels] + [f"i*{lab}" for lab in A.labels]

    def split(vec):
        return [c[0] for c in vec] + [c[1] for c in vec]

    def join(vec2):
        return [(a, b) for a, b in zip(vec2[:n], vec2[n:])]

    basis2 = A.basis + [A._dense([(i, K.i())]) for i in range(n)]

    def row(x, y):
        return tuple((k, c) for k, c in enumerate(split(A.mul(x, y)))
                     if not base.is_zero(c))

    products = [{j: r for j, y in enumerate(basis2) if (r := row(x, y))}
                for x in basis2]
    A2 = FiniteDimAlgebra(base, labels, products, split(A.unit))
    sols2 = algebra_idempotents(A2, dim_bound=2 * dim_bound)
    return [join(v) for v in sols2]


# ---------------------------------------------------------------------------
# exact solving of zero-dimensional systems


def univariate_roots(field: Field, coeffs):
    """Roots in the field of sum coeffs[d] * t^d, exact.

    Over F_p all residues are tried; over Q the rational root theorem is used
    after clearing denominators.
    """
    while coeffs and field.is_zero(coeffs[-1]):
        coeffs = coeffs[:-1]
    if not coeffs:
        raise AlgebraError("zero polynomial has every root")
    if len(coeffs) == 1:
        return []
    if isinstance(field, PrimeField):
        roots = []
        for r in range(field.p):
            acc = field.zero()
            for c in reversed(coeffs):
                acc = field.add(field.mul(acc, r), c)
            if field.is_zero(acc):
                roots.append(r)
        return roots
    if field == QQ:
        denom = 1
        for c in coeffs:
            denom = denom * c.denominator // gcd(denom, c.denominator)
        ints = [int(c * denom) for c in coeffs]
        roots = set()
        k = 0
        while ints[k] == 0:
            k += 1
        if k > 0:
            roots.add(Fraction(0))
        const, lead = ints[k], ints[-1]
        for p in _divisors(abs(const)):
            for q in _divisors(abs(lead)):
                for sign in (1, -1):
                    cand = Fraction(sign * p, q)
                    acc = Fraction(0)
                    for c in reversed(coeffs):
                        acc = acc * cand + c
                    if acc == 0:
                        roots.add(cand)
        return sorted(roots)
    raise AlgebraError(f"root finding not supported over {field.name}")


def _divisors(n):
    if n == 0:
        return [0]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def solve_zero_dim(ring: PolyRing, equations):
    """All solutions over ring.field of a polynomial system, by lex
    elimination and recursive root substitution.

    Complete when the system is zero-dimensional; positive-dimensional
    directions are pinned to 0 (used only by the idempotent fallback).
    """
    if ring.order != "lex":
        ring = ring.with_order("lex")
        equations = [Polynomial(ring, dict(e.terms)) for e in equations]
    if not equations:
        return [tuple(ring.field.zero() for _ in range(ring.nvars))]
    sols = []
    _solve_rec(ring, equations, ring.nvars - 1, {}, sols)
    return sols


def _solve_rec(ring: PolyRing, eqs, var_index, partial, sols):
    F = ring.field
    if var_index < 0:
        if all(e.is_zero() for e in eqs):
            sols.append(tuple(partial[i] for i in range(ring.nvars)))
        return
    gb = groebner_basis([e for e in eqs if not e.is_zero()]) if any(
        not e.is_zero() for e in eqs) else []
    if any(not g.is_zero() and g.total_deg() == 0 for g in gb):
        return  # inconsistent
    # univariate polynomial in the last variable (lex elimination ideal)
    uni = None
    for g in gb:
        if all(all(e == 0 for i, e in enumerate(m) if i != var_index) for m in g.terms):
            uni = g
            break
    if uni is None:
        roots = [F.zero()]  # positive-dimensional: pin this coordinate
    else:
        deg = max(m[var_index] for m in uni.terms)
        coeffs = [F.zero()] * (deg + 1)
        for m, c in uni.terms.items():
            coeffs[m[var_index]] = c
        roots = univariate_roots(F, coeffs)
    for r in roots:
        sub = {ring.variables[var_index]: ring.const(r)}
        new_eqs = [g.substitute(sub) for g in gb] if gb else []
        partial[var_index] = r
        _solve_rec(ring, new_eqs, var_index - 1, partial, sols)
        del partial[var_index]
