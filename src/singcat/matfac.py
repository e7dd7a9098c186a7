"""Matrix factorizations of a hypersurface potential.

A factorization of f over the ambient polynomial ring S is a square pair
(A, B) with A*B = B*A = f*I.  coker(A mod f) is the associated MCM module
over S/f; the shift functor swaps the factors and the Knoerrer functor
doubles the size against a fresh quadratic term f + xy.

Stable Hom dimensions are the homology of the Z/2-graded Hom complex

    (u, v) -> (A'v + uB, B'u + vA)     [odd -> even]
    (a, b) -> (A'b - aA, B'a - bB)     [even -> odd]

computed exactly, so no degree bounds enter: morphisms modulo homotopy in
even degree, maps to the shift in odd.  Each homology space ker(d_out) /
im(d_in) is a homs.MatrixSubquotient over the free ring S, the same object
that carries every Hom, Ext and stable Hom space of modules.
"""

from __future__ import annotations

from .poly import PolyRing, Polynomial
from .quotient import QuotientRing
from .modules import FPModule, _prune_columns, _sort_columns, mat_mul
from .modgb import SubmoduleGB, vec_from_polys, vec_to_polys
from .homs import MatrixSubquotient, _flat


class MFError(ValueError):
    pass


def _is_f_identity(ring: PolyRing, M, f: Polynomial) -> bool:
    n = len(M)
    for i in range(n):
        for j in range(n):
            want = f if i == j else ring.zero()
            if M[i][j] != want:
                return False
    return True


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
        if len(self.A) != len(self.B):
            return False
        if any(len(r) != self.size for r in self.A + self.B):
            return False
        if self.size == 0:
            return True
        return (_is_f_identity(self.ring, mat_mul(self.ring, self.A, self.B), self.f)
                and _is_f_identity(self.ring, mat_mul(self.ring, self.B, self.A), self.f))

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
    try:
        return MatrixFactorization(ring, f, A, B).is_valid()
    except MFError:
        return False


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

    Row operations on B are column operations on A and vice versa, so the
    factorization identities are preserved at every step."""
    ring = X.ring
    F = ring.field
    A = [[p for p in row] for row in X.A]
    B = [[p for p in row] for row in X.B]

    def find_unit(M):
        for i, row in enumerate(M):
            for j, p in enumerate(row):
                if not p.is_zero() and p.total_deg() == 0:
                    return i, j
        return None

    def eliminate(M, other, i, j):
        # clear row i and column j of M around the unit at (i, j);
        # mirror the inverse operations on `other`
        unit = M[i][j]
        inv = ring.const(F.inv(unit.constant_coeff()))
        n = len(M)
        # row ops on M: R_k -= (M[k][j]/u) R_i ; mirrored as column ops on other
        for k in range(n):
            if k == i:
                continue
            c = M[k][j] * inv
            if c.is_zero():
                continue
            for t in range(n):
                M[k][t] = M[k][t] - c * M[i][t]
            for t in range(n):
                other[t][i] = other[t][i] + c * other[t][k]
        # column ops on M: C_t -= (M[i][t]/u) C_j ; mirrored as row ops on other
        for t in range(n):
            if t == j:
                continue
            c = M[i][t] * inv
            if c.is_zero():
                continue
            for k in range(n):
                M[k][t] = M[k][t] - M[k][j] * c
            for k in range(n):
                other[j][k] = other[j][k] + c * other[t][k]

    while True:
        hit = find_unit(B)
        if hit is not None:
            i, j = hit
            eliminate(B, A, i, j)
            B = [[B[k][t] for t in range(len(B)) if t != j] for k in range(len(B)) if k != i]
            A = [[A[k][t] for t in range(len(A)) if t != i] for k in range(len(A)) if k != j]
            continue
        hit = find_unit(A)
        if hit is not None:
            i, j = hit
            eliminate(A, B, i, j)
            A = [[A[k][t] for t in range(len(A)) if t != j] for k in range(len(A)) if k != i]
            B = [[B[k][t] for t in range(len(B)) if t != i] for k in range(len(B)) if k != j]
            continue
        break
    return MatrixFactorization(ring, X.f, A, B)


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
    cols = [[S_poly for S_poly in col] for col in M.relations]
    gens = [vec_from_polys(col) for col in cols]
    for i in range(g):
        colf = [S.zero()] * g
        colf[i] = f
        gens.append(vec_from_polys(colf))
    free_R = QuotientRing(S, [])
    polys_cols = [vec_to_polys(S, v, g) for v in gens]
    pruned = _prune_columns(free_R, polys_cols, g)
    pruned = _sort_columns(free_R, pruned)
    if len(pruned) == 0:
        return MatrixFactorization.zero(S, f)
    if len(pruned) != g:
        raise MFError(f"stabilization failed: kernel needs {len(pruned)} generators "
                      f"for {g} module generators (module may not be MCM)")
    A = [[pruned[j][i] for j in range(g)] for i in range(g)]
    gb = SubmoduleGB(S, g, [vec_from_polys(c) for c in pruned])
    Bcols = []
    for i in range(g):
        colf = [S.zero()] * g
        colf[i] = f
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
    dims = []
    for d_out, d_in in ((d0, d1), (d1, d0)):
        kernel = SubmoduleGB(S, npos, d_out).syzygies()
        dims.append(MatrixSubquotient(free, Y.size, 2 * X.size, kernel, d_in).dim())
    if None in dims:
        raise MFError("infinite-dimensional stable hom: the singular locus "
                      "of the potential is not isolated on the support")
    return tuple(dims)
