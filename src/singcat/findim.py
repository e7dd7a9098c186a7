"""Finite-dimensional associative algebras given by structure constants,
with exact idempotent search.

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
from fractions import Fraction
from math import gcd

from .fields import Field, QQ, PrimeField, QuadraticExtension
from .linalg import Matrix, kernel_basis, rank, rref
from .poly import PolyRing, Polynomial
from .modgb import groebner_basis


class AlgebraError(ValueError):
    pass


class FiniteDimAlgebra:
    """Associative unital algebra: basis labels, structure constants, unit."""

    def __init__(self, field: Field, labels, mult_table, unit):
        self.field = field
        self.labels = list(labels)
        self.dim = len(self.labels)
        # mult_table[i][j] = coefficient vector of basis_i * basis_j
        self.mult_table = [[list(v) for v in row] for row in mult_table]
        self.unit = list(unit)
        if (len(self.mult_table) != self.dim or len(self.unit) != self.dim
                or any(len(r) != self.dim or any(len(v) != self.dim for v in r)
                       for r in self.mult_table)):
            raise AlgebraError("structure constant table has wrong shape")

    @functools.cached_property
    def basis(self):
        """The coefficient vectors of the basis elements."""
        F = self.field
        return [[F.one() if i == j else F.zero() for j in range(self.dim)]
                for i in range(self.dim)]

    # -- arithmetic on coefficient vectors ------------------------------------

    def zero_vec(self):
        return [self.field.zero()] * self.dim

    def add(self, a, b):
        return [self.field.add(x, y) for x, y in zip(a, b)]

    def scale(self, c, a):
        return [self.field.mul(c, x) for x in a]

    def mul(self, a, b):
        F = self.field
        out = self.zero_vec()
        for i, ai in enumerate(a):
            if F.is_zero(ai):
                continue
            for j, bj in enumerate(b):
                if F.is_zero(bj):
                    continue
                c = F.mul(ai, bj)
                for k, s in enumerate(self.mult_table[i][j]):
                    if not F.is_zero(s):
                        out[k] = F.add(out[k], F.mul(c, s))
        return out

    def eq(self, a, b):
        return all(self.field.is_zero(self.field.sub(x, y)) for x, y in zip(a, b))

    def is_associative(self) -> bool:
        for a in self.basis:
            for b in self.basis:
                ab = self.mul(a, b)
                for c in self.basis:
                    if not self.eq(self.mul(ab, c), self.mul(a, self.mul(b, c))):
                        return False
        return True

    def unit_acts_trivially(self) -> bool:
        return all(self.eq(self.mul(self.unit, b), b) and self.eq(self.mul(b, self.unit), b)
                   for b in self.basis)

    def is_commutative(self) -> bool:
        table = self.mult_table
        return all(self.eq(table[i][j], table[j][i])
                   for i in range(self.dim) for j in range(i))

    def radical(self):
        """Basis (list of coefficient vectors) of the Jacobson radical.

        Uses the trace-form kernel, valid in characteristic zero; over F_p
        this is the radical of the trace form and is only used for report
        purposes on algebras where it agrees.  The form is read from the
        table: tr L_k = sum_j c_kj^j and T_ij = sum_k c_ij^k tr L_k.
        """
        F = self.field

        def dot(v, w):
            t = F.zero()
            for c, d in zip(v, w):
                if not F.is_zero(c):
                    t = F.add(t, F.mul(c, d))
            return t

        traces = [functools.reduce(F.add, (v[j] for j, v in enumerate(row)), F.zero())
                  for row in self.mult_table]
        form = [[dot(v, traces) for v in row] for row in self.mult_table]
        ker = kernel_basis(Matrix(F, form))
        return [ker.col(j) for j in range(ker.ncols)]

    def radical_layers(self):
        """[dim A/rad, dim rad/rad^2, ...] up to the first zero power.

        Each power is kept as an rref basis, so no step holds more than
        |rad|^2 products.  Raises AlgebraError when the powers stop
        shrinking, as they do where the trace form vanishes (over F2).
        """
        rad = self.radical()
        layers = [self.dim - len(rad)]
        power = rad
        for _ in range(self.dim if rad else 0):
            nxt = self.subspace_basis(self.multiply_subspaces(power, rad))
            d_now, d_next = len(power), len(nxt)
            if d_next == d_now:
                # a nilpotent ideal shrinks at every power; the trace form can
                # vanish on all of A in small characteristic
                raise AlgebraError(f"radical powers stop shrinking at dimension "
                                   f"{d_now} over {self.field.name} (dim A = {self.dim}): "
                                   "the trace-form radical is not nilpotent")
            layers.append(d_now - d_next)
            if d_next == 0:
                break
            power = nxt
        return layers

    def multiply_subspaces(self, A, B):
        """Span generators of A*B for lists of coefficient vectors."""
        return [self.mul(a, b) for a in A for b in B]

    def subspace_basis(self, vectors):
        """The nonzero rows of the rref of the vectors: a basis of their span."""
        if not vectors:
            return []
        red, pivots = rref(Matrix(self.field, vectors))
        return red.rows[:len(pivots)]

    def subspace_dim(self, vectors) -> int:
        return len(self.subspace_basis(vectors))

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
        bijectivity, unit preservation, and multiplicativity on all basis pairs.
        """
        if other.dim != self.dim or other.field != self.field:
            return False
        if rank(Matrix(self.field, images)) != self.dim:
            return False

        def image_of(vec):
            out = other.zero_vec()
            for c, img in zip(vec, images):
                out = other.add(out, other.scale(c, img))
            return out

        if not other.eq(image_of(self.unit), other.unit):
            return False
        for i in range(self.dim):
            for j in range(self.dim):
                lhs = other.mul(images[i], images[j])
                rhs = image_of(self.mult_table[i][j])
                if not other.eq(lhs, rhs):
                    return False
        return True


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
    for i in range(A.dim):
        for j in range(A.dim):
            cij = A.mult_table[i][j]
            prod = gens[i] * gens[j]
            for k, c in enumerate(cij):
                if not F.is_zero(c):
                    eqs[k] = eqs[k] + prod.scale(c)
    for k in range(A.dim):
        eqs[k] = eqs[k] - gens[k]
    sols = solve_zero_dim(ring, [e for e in eqs if not e.is_zero()])
    out = []
    seen = set()
    candidates = sols + [tuple(A.zero_vec()), tuple(A.unit)]
    for cand in candidates:
        vec = list(cand)
        if not A.eq(A.mul(vec, vec), vec):
            continue
        key = tuple(F.to_str(c) for c in vec)
        if key not in seen:
            seen.add(key)
            out.append(vec)
    return out


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

    basis2 = A.basis + [[K.i() if j == i else K.zero() for j in range(n)]
                        for i in range(n)]
    table = [[split(A.mul(x, y)) for y in basis2] for x in basis2]
    A2 = FiniteDimAlgebra(base, labels, table, split(A.unit))
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
