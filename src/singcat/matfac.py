"""Matrix factorizations of a hypersurface potential.

A factorization of f over the ambient polynomial ring S is a square pair
(A, B) with A*B = B*A = f*I, checked (is_valid) by composing A and B,
flattened column-major, both ways with modgb.compose, the one product of
matrices over a ring, and comparing each product exactly with the
flattened f*I.  coker(A mod f) is the associated MCM module over S/f; the
shift functor swaps the factors and the Knoerrer functor doubles the size
against a fresh quadratic term f + xy.

Stable Hom dimensions are the homology of the Z/2-graded Hom complex

    (u, v) -> (A'v + uB, B'u + vA)     [odd -> even]
    (a, b) -> (A'b - aA, B'a - bB)     [even -> odd]

computed exactly, so no degree bounds enter: morphisms modulo homotopy in
even degree, maps to the shift in odd.  Each homology space ker(d_out) /
im(d_in) is a homs.MatrixSubquotient over the free ring S, the same object
that carries every Hom, Ext and stable Hom space of modules, and its
dimension is counted from leading terms (MatrixSubquotient.lead_dim).
"""

from __future__ import annotations

from .poly import PolyRing, Polynomial
from .quotient import QuotientRing
from .modules import (FPModule, _prune_columns, _schur_at_unit, _sort_columns,
                      find_unit)
from .modgb import SubmoduleGB, compose, vec_from_polys, vec_to_polys
from .homs import MatrixSubquotient, _flat


class MFError(ValueError):
    pass


class MatrixFactorization:
    """Square pair (A, B) over the ambient ring with A*B = B*A = f*I."""

    def __init__(self, ring: PolyRing, f: Polynomial, A, B, check: bool = True):
        self.ring = ring
        self.f = f
        self.A = [list(r) for r in A]
        self.B = [list(r) for r in B]
        self.size = len(self.A)
        if check and not self.is_valid():
            raise MFError("A*B = B*A = f*I fails")

    def is_valid(self) -> bool:
        """A*B and B*A, composed on flattened matrices (modgb.compose), are
        exactly the flattened f*I."""
        n = self.size
        if len(self.B) != n or any(len(r) != n for r in self.A + self.B):
            return False
        A, B = (vec_from_polys([M[i][j] for j in range(n) for i in range(n)])
                for M in (self.A, self.B))
        f_identity = vec_from_polys([self.f if i == j else None
                                     for j in range(n) for i in range(n)])
        F = self.ring.field
        return (compose(F, A, n, B, n) == f_identity
                and compose(F, B, n, A, n) == f_identity)

    def shift(self) -> "MatrixFactorization":
        return MatrixFactorization(self.ring, self.f, self.B, self.A, check=False)

    def direct_sum(self, other: "MatrixFactorization") -> "MatrixFactorization":
        if other.ring != self.ring or other.f != self.f:
            raise MFError("summands must share ring and potential")
        n, m = self.size, other.size
        z = self.ring.zero()

        def block(X, Y):
            out = []
            for i in range(n):
                out.append(list(X[i]) + [z] * m)
            for i in range(m):
                out.append([z] * n + list(Y[i]))
            return out

        return MatrixFactorization(self.ring, self.f,
                                   block(self.A, other.A), block(self.B, other.B),
                                   check=False)

    @classmethod
    def zero(cls, ring: PolyRing, f: Polynomial) -> "MatrixFactorization":
        return cls(ring, f, [], [], check=False)

    def quotient_ring(self) -> QuotientRing:
        return QuotientRing(self.ring, [self.f])

    def module(self) -> FPModule:
        """coker(A mod f) as a finitely presented module over S/f."""
        R = self.quotient_ring()
        cols = [[self.A[i][j] for i in range(self.size)] for j in range(self.size)]
        return FPModule(R, self.size, cols)

    def __repr__(self):
        return f"MF(size={self.size}, f={self.f!r})"


def mf_check(ring: PolyRing, A, B, f: Polynomial) -> bool:
    if len(A) != len(B) or any(len(r) != len(A) for r in A) \
            or any(len(r) != len(B) for r in B):
        raise MFError("matrices must be square of equal size")
    return MatrixFactorization(ring, f, A, B, check=False).is_valid()


def mf_shift(X: MatrixFactorization) -> MatrixFactorization:
    return X.shift()


def knorrer(X: MatrixFactorization, xname: str, yname: str) -> MatrixFactorization:
    """Factorization of f + x*y over S[x, y] by the block doubling
    A' = [[A, -yI], [xI, B]], B' = [[B, yI], [-xI, A]]."""
    if xname in X.ring.variables or yname in X.ring.variables or xname == yname:
        raise MFError("Knoerrer variables collide with the ambient ring")
    S2 = X.ring.extend([xname, yname])
    x, y = S2.gen(xname), S2.gen(yname)
    n = X.size
    A = [[p.map_to(S2) for p in row] for row in X.A]
    B = [[p.map_to(S2) for p in row] for row in X.B]
    z = S2.zero()

    def blocks(TL, tr_scale, BR, bl_scale):
        out = []
        for i in range(n):
            out.append(list(TL[i]) + [tr_scale if i == j else z for j in range(n)])
        for i in range(n):
            out.append([bl_scale if i == j else z for j in range(n)] + list(BR[i]))
        return out

    A2 = blocks(A, -y, B, x)
    B2 = blocks(B, y, A, -x)
    f2 = X.f.map_to(S2) + x * y
    return MatrixFactorization(S2, f2, A2, B2)


def reduce_trivial_blocks(X: MatrixFactorization) -> MatrixFactorization:
    """Split off trivial (unit, f)-blocks: the result presents the same
    object of the singularity category with no unit entries in A or B.
    When no block splits off, the result is X itself, not a checked copy.

    A unit of B at (i, j) replaces B by its Schur complement there
    (modules._schur_at_unit) and A by A without row j and column i, and a
    unit of A likewise with the roles swapped.  The row and column
    operations that clear B around the unit are column and row operations
    on A, which keep A*B = B*A = f*I; they write only A's column i and
    row j, the ones that go with the block, so the rest of A stays.

    A unit is a nonzero constant (find_unit), so a block that is trivial
    only after localizing, one whose unit entry is 1 + 2x say, stays: the
    result is still a factorization of the same object, only larger."""

    def split(M, N, i, j):
        return (_schur_at_unit(X.ring, M, i, j),
                [row[:i] + row[i + 1:] for k, row in enumerate(N) if k != j])

    A, B = X.A, X.B
    while True:
        if (hit := find_unit(B)) is not None:
            B, A = split(B, A, *hit)
        elif (hit := find_unit(A)) is not None:
            A, B = split(A, B, *hit)
        else:
            break
    if len(A) == X.size:
        return X
    return MatrixFactorization(X.ring, X.f, A, B)


def mf_from_module(M: FPModule) -> MatrixFactorization:
    """Factorization with coker(A mod f) = M, via the length-one ambient
    resolution: the kernel of S^g -> M is free of rank g for MCM M without
    free summands, and its generator matrix D satisfies D*E = f*I."""
    R = M.ring
    if not R.hypersurface:
        raise MFError("matrix factorizations need a hypersurface ring")
    S = R.ambient
    f = R.gb[0]
    g = M.ngens
    f_cols = [[f if t == i else S.zero() for t in range(g)] for i in range(g)]
    free_R = QuotientRing(S, [])
    pruned = _sort_columns(free_R,
                           _prune_columns(free_R, M.relations + f_cols,
                                          M.gen_degrees))
    if len(pruned) == 0:
        return MatrixFactorization.zero(S, f)
    if len(pruned) != g:
        raise MFError(f"stabilization failed: kernel needs {len(pruned)} generators "
                      f"for {g} module generators (module may not be MCM)")
    A = [[pruned[j][i] for j in range(g)] for i in range(g)]
    gb = SubmoduleGB(S, g, [vec_from_polys(c) for c in pruned])
    Bcols = []
    for colf in f_cols:
        nf, cert = gb.normal_form(vec_from_polys(colf), with_cert=True)
        if nf:
            raise MFError("f*I does not lie in the kernel span: not a valid tail")
        Bcols.append(vec_to_polys(S, cert, g))
    B = [[Bcols[j][i] for j in range(g)] for i in range(g)]
    return reduce_trivial_blocks(MatrixFactorization(S, f, A, B))


# ---------------------------------------------------------------------------
# stable homs via the Z/2-graded Hom complex


def _hom_complex_columns(X, Y, blocks):
    """Columns of one differential of the Z/2-graded Hom complex.  Both of
    its ends are pairs of m x n matrices, stored as one m x 2n matrix
    [block 0 | block 1].  blocks[s] lists the terms (t, L, R) of the image
    of a matrix unit E in source block s: L.E (L an m x m matrix of Y) or
    E.R (R an n x n matrix of X), added into target block t."""
    n, m = X.size, Y.size
    cols = []
    for terms in blocks:
        for c in range(n):
            for r in range(m):  # the unit E with a one at (r, c)
                entries = []
                for t, L, R in terms:
                    if L is not None:  # (L.E)[k][c] = L[k][r]
                        entries += [(t * n + c, k, L[k][r]) for k in range(m)]
                    else:              # (E.R)[r][l] = R[c][l]
                        entries += [(t * n + l, r, R[c][l]) for l in range(n)]
                cols.append(_flat(m, entries))
    return cols


def mf_stable_hom(X: MatrixFactorization, Y: MatrixFactorization):
    """(even, odd) dimensions of stable homs between two factorizations.

    One Groebner basis per differential of the Hom complex: its tag block
    is the kernel, and its main block, the image, is the null space of
    the other homology, since the two differentials compose to zero over
    S.  Each dimension is counted from the leads of the two, the kernel's
    read off the tag block, with no tagged basis of the quotient.

    Raises MFError when a dimension is infinite (non-isolated singularity).
    """
    if X.ring != Y.ring or X.f != Y.f:
        raise MFError("factorizations must share ring and potential")
    if X.size == 0 or Y.size == 0:
        return (0, 0)
    S = X.ring

    def neg(M):
        return [[-p for p in row] for row in M]

    # (a, b) -> (A'b - aA, B'a - bB) and (u, v) -> (A'v + uB, B'u + vA)
    d0 = _hom_complex_columns(X, Y, [[(0, None, neg(X.A)), (1, Y.B, None)],
                                     [(0, Y.A, None), (1, None, neg(X.B))]])
    d1 = _hom_complex_columns(X, Y, [[(0, None, X.B), (1, Y.B, None)],
                                     [(0, Y.A, None), (1, None, X.A)]])
    free = QuotientRing(S, [])
    npos = 2 * X.size * Y.size
    gb0, gb1 = SubmoduleGB(S, npos, d0), SubmoduleGB(S, npos, d1)
    dims = []
    for gb_out, d_in, gb_in in ((gb0, d1, gb1), (gb1, d0, gb0)):
        msq = MatrixSubquotient(free, Y.size, 2 * X.size, gb_out.syzygies(),
                                d_in, null_leads=lambda _d, gb=gb_in: gb.leads(),
                                u_leads=gb_out.leads(npos, gb_out.tracked))
        dims.append(msq.lead_dim())
    if None in dims:
        raise MFError("infinite-dimensional stable hom: the singular locus "
                      "of the potential is not isolated on the support")
    return tuple(dims)
