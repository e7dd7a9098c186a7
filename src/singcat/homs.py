"""Hom, Ext, stable Hom, Yoneda extensions, MCM tests for FPModules.

Every space of module maps is a MatrixSubquotient: a space of h x w
matrices over R spanned by generators U modulo a null space V, flattened
column-major into R^{hw}.  Hom, stable Hom and Ext^p build U and V through
one path (_subquotient): cocycles phi: F_p -> N with phi o d_{p+1} in
rel(N), modulo rel(N) in each column and the maps psi o d_p, so Hom(M, N)
is the p = 0 case of Ext.  The matrix factorization homology of
matfac.mf_stable_hom uses the same pieces: _flat places polynomial entries
into a flattened h-row block, and a Groebner basis that tracks only the
first k generators (SubmoduleGB's `tracked`) gives their syzygies cut to
those k coordinates.  A subquotient builds one basis, big_gb, of U
(tracked), V and the ideal pads: its tag block's staircase is a k-basis
of span(U)/span(V), and a certificate's tag part gives coordinates over
it.  Graded degree-d bases need generator degrees on source and target.

The cocycles are the one Groebner build every subquotient, stable-Hom free
cover and Ext^p starts from, and the same input keeps coming back (the
resolutions over a hypersurface are 2-periodic, and callers ask for the
same Hom space more than once).  _cocycles keeps each result, as a tuple,
for the life of the process, as fan_library keeps its fans: the key is the
content of the input, the QuotientRing, h, r and every entry of d_next and
of the relations as its sorted terms, so a hit is exact and the same
presentation over two fields never shares an entry.

structure_constants is the one multiplication-table builder: from Hom
blocks Hom(F_j, F_i) it composes every composable pair of basis matrices
and reads the product's coordinates from big_gb.  End(M)
(MorphismSpace.algebra) is its single-block case, and the deformation
parameter algebras of ncdef are its r-block case.

Stable Hom follows the free-cover recipe: Hom(M,N) modulo the image of
Hom(M, R^{g_N}) -> Hom(M,N) induced by the generator surjection R^{g_N} -> N.
"""

from __future__ import annotations

from .findim import FiniteDimAlgebra
from .modules import FPModule, FreeResolution, mat_mul
from .modgb import SubmoduleGB, vec_from_polys, vec_to_polys
from .quotient import QuotientRing


class InfiniteDimensionError(ValueError):
    pass


class HomError(ValueError):
    pass


def _matrix_to_vec(cols):
    """Columns (lists of polynomials) to a flattened vector, column-major."""
    flat = []
    for col in cols:
        flat.extend(col)
    return vec_from_polys(flat)


def _flat(h, entries):
    """Flattened vector (column-major, h rows) of the matrix with the given
    (column, row, polynomial) entries."""
    out = {}
    for j, i, p in entries:
        for m, c in p.terms.items():
            out[(j * h + i, m)] = c
    return out


def _vec_to_matrix(ring, vec, nrows, ncols):
    polys = vec_to_polys(ring.ambient, vec, nrows * ncols)
    return [[ring.normal_form(polys[j * nrows + i]) for i in range(nrows)]
            for j in range(ncols)]


class MatrixSubquotient:
    """Space of h x w matrices over R: span(U) / span(V), U and V flattened.

    The one subquotient object: every Hom, Ext^p, stable Hom and matrix
    factorization homology space is one of these.  Optional row/column
    generator degrees enable graded degree-d bases.
    """

    def __init__(self, ring: QuotientRing, nrows: int, ncols: int, U, V,
                 row_degrees=None, col_degrees=None):
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.U = list(U)
        self.V = list(V)
        self.row_degrees = row_degrees
        self.col_degrees = col_degrees
        self._big = None
        self._gbV = None

    def _position_degrees(self):
        if self.row_degrees is None or self.col_degrees is None:
            return None
        out = []
        for j in range(self.ncols):
            for i in range(self.nrows):
                out.append(self.row_degrees[i] - self.col_degrees[j])
        return out

    def big_gb(self) -> SubmoduleGB:
        if self._big is None:
            self._big = SubmoduleGB(self.ring.ambient, self.nrows * self.ncols,
                                    self.U + self.V, pad_polys=self.ring.gb,
                                    tracked=len(self.U))
        return self._big

    def gen_degrees(self):
        """Map degree of each U generator (graded context only)."""
        pos_degs = self._position_degrees()
        if pos_degs is None:
            raise HomError("not a graded context")
        out = []
        for u in self.U:
            degs = {self.ring.ambient.weighted_deg(m) + pos_degs[p]
                    for (p, m) in u}
            if len(degs) != 1:
                raise HomError("inhomogeneous hom generator in graded context")
            out.append(degs.pop())
        return out

    def dim(self):
        """Total k-dimension, or None if infinite."""
        if not self.U:
            return 0
        std = self.big_gb().tracked_staircase()
        return None if std is None else len(std)

    def graded_dim(self, degree: int = 0):
        return len(self.basis_items(degree))

    def basis_items(self, graded_degree=None):
        """Staircase basis as (generator index, monomial) pairs."""
        if not self.U:
            return []
        if graded_degree is None:
            std = self.big_gb().tracked_staircase()
            if std is None:
                raise ValueError("infinite staircase: the quotient has no finite k-basis")
            return std
        return self.big_gb().tracked_staircase(graded_degree, self.gen_degrees())

    def item_vec(self, item):
        from .poly import mon_mul
        idx, mon = item
        out = {}
        for (p, m), c in self.U[idx].items():
            out[(p, mon_mul(m, mon))] = c
        return out

    def item_matrix(self, item):
        return _vec_to_matrix(self.ring, self.item_vec(item), self.nrows, self.ncols)

    def coords(self, vec, basis_items):
        """Coordinates of a flattened matrix in span(U) over the given basis."""
        F = self.ring.field
        # the tag terms are already reduced against the tag-led elements
        nf, cert = self.big_gb().normal_form(vec, with_cert=True)
        if nf:
            raise HomError("matrix does not lie in the hom space")
        index = {it: k for k, it in enumerate(basis_items)}
        out = [F.zero()] * len(basis_items)
        for key, c in cert.items():
            if key not in index:
                raise HomError("coordinate outside the chosen basis "
                               "(mixed degrees or stale basis)")
            out[index[key]] = c
        return out

    def _null_gb(self) -> SubmoduleGB:
        if self._gbV is None:
            self._gbV = SubmoduleGB(self.ring.ambient, self.nrows * self.ncols,
                                    self.V, pad_polys=self.ring.gb, tracked=0)
        return self._gbV

    def is_zero_space(self) -> bool:
        """True iff span(U) is contained in span(V) + ideal."""
        if not self.U:
            return True
        gbV = self._null_gb()
        return all(gbV.contains(u) for u in self.U)

    def element_class_is_zero(self, vec) -> bool:
        return self._null_gb().contains(vec)


# ---------------------------------------------------------------------------
# The shared subquotient path


def _unit_images(h, r, d):
    """E o d for each matrix unit E = E_ij: R^r -> R^h, j-major; d is a list
    of columns in R^r."""
    return [_flat(h, [(l, i, col[j]) for l, col in enumerate(d)])
            for j in range(r) for i in range(h)]


def _relation_blocks(h, ncols, relations):
    """Each relation column placed in each of ncols columns; zeros dropped."""
    out = []
    for l in range(ncols):
        for t in relations:
            vec = _flat(h, [(l, i, p) for i, p in enumerate(t)])
            if vec:
                out.append(vec)
    return out


# _cocycles results for the life of the process, keyed by content
_COCYCLES: dict = {}


def _columns_key(cols):
    return tuple(tuple(tuple(sorted(p.terms.items())) for p in col)
                 for col in cols)


def _cocycles(ring: QuotientRing, h, r, d_next, relations):
    """Generators of the h x r matrices phi with phi o d_next in the span of
    the relation columns (in R^h) plus the ideal, as a tuple.  A Groebner
    build runs once per content of (ring, h, r, d_next, relations); a repeat
    returns the same reduced syzygy basis, in the same order."""
    if not d_next:
        return tuple(_flat(h, [(j, i, ring.one())])
                     for j in range(r) for i in range(h))
    key = (ring, h, r, _columns_key(d_next), _columns_key(relations))
    out = _COCYCLES.get(key)
    if out is None:
        gens = (_unit_images(h, r, d_next)
                + _relation_blocks(h, len(d_next), relations))
        gb = SubmoduleGB(ring.ambient, h * len(d_next), gens,
                         pad_polys=ring.gb, tracked=r * h)
        out = _COCYCLES[key] = tuple(gb.syzygies())
    return out


def _subquotient(N: FPModule, r, d_next, null_extra, col_degrees):
    """Cocycles phi: R^r -> N (phi o d_next in rel(N)) modulo rel(N) in each
    column and the extra null generators."""
    ring, h = N.ring, N.ngens
    if r == 0:
        return MatrixSubquotient(ring, h, 0, [], [])
    U = _cocycles(ring, h, r, d_next, N.relations)
    V = _relation_blocks(h, r, N.relations) + list(null_extra)
    return MatrixSubquotient(ring, h, r, U, V,
                             row_degrees=N.gen_degrees, col_degrees=col_degrees)


# ---------------------------------------------------------------------------
# Hom spaces


class MorphismSpace:
    """k-basis of Hom_R(M, N) (or its stable quotient); for M = N, algebra()
    gives End(M) through structure_constants.

    mode: 'full' (finite total dimension), 'graded0' (degree-zero part of a
    graded Hom), or 'module' (presentation only, no k-basis).
    """

    def __init__(self, M: FPModule, N: FPModule, msq: MatrixSubquotient,
                 mode: str, stable: bool):
        self.M = M
        self.N = N
        self.msq = msq
        self.mode = mode
        self.stable = stable
        if mode == "full":
            self.basis = msq.basis_items()
        elif mode == "graded0":
            self.basis = msq.basis_items(graded_degree=0)
        else:
            self.basis = None

    @property
    def dim(self):
        if self.basis is None:
            raise HomError("module-mode hom space has no k-basis")
        return len(self.basis)

    def basis_matrices(self):
        return [self.msq.item_matrix(it) for it in self.basis]

    def coords(self, matrix_cols):
        return self.msq.coords(_matrix_to_vec(matrix_cols), self.basis)

    def verify_bases_are_morphisms(self) -> bool:
        """Exact check: every basis matrix sends rel(M) into rel(N)-span."""
        relN_gb = self.N.rel_gb()
        for mat in self.basis_matrices():
            for image in mat_mul(self.M.ring, self.M.relations, mat):
                if not relN_gb.contains(vec_from_polys(image)):
                    return False
        return True

    def algebra(self) -> FiniteDimAlgebra:
        """End(M) on the basis: the single-block case of structure_constants
        (requires M == N presentation)."""
        if self.M is not self.N and (self.M.ngens != self.N.ngens
                                     or self.M.relations != self.N.relations):
            raise HomError("algebra structure needs equal source and target")
        _layout, table, (unit,) = structure_constants({(0, 0): self}, 1)
        return FiniteDimAlgebra(self.M.ring.field,
                                [f"f{k}" for k in range(self.dim)], table, unit)

    def presentation(self) -> FPModule:
        """Hom as an FPModule on the U-generators (module mode)."""
        W = self.msq.big_gb().syzygies()
        cols = [vec_to_polys(self.M.ring.ambient, w, len(self.msq.U)) for w in W]
        return FPModule(self.M.ring, len(self.msq.U), cols)


def structure_constants(blocks, r):
    """Multiplication table of End(F_0 (+) ... (+) F_(r-1)) on its block basis.

    blocks[(i, j)] is the MorphismSpace Hom(F_j, F_i) with a k-basis.  The
    algebra's basis is the layout list of (i, j, k), the k-th basis map of
    blocks[(i, j)].  The product of phi: F_j -> F_i and psi: F_l -> F_j is
    phi o psi in blocks[(i, l)] (matrix product over R, then normal form),
    read in coordinates by that block's big_gb; phi o psi' is zero when the
    target of psi' is not F_j.  Returns (layout, table, idents), idents[i]
    being the coordinate vector of the identity of F_i.
    """
    ring = blocks[(0, 0)].M.ring
    zero = ring.field.zero()
    layout = [(i, j, k) for i in range(r) for j in range(r)
              for k in range(blocks[(i, j)].dim)]
    slot = {key: t for t, key in enumerate(layout)}
    mats = {key: space.basis_matrices() for key, space in blocks.items()}

    def placed(i, j, cols):
        vec = [zero] * len(layout)
        for k, c in enumerate(blocks[(i, j)].coords(cols)):
            vec[slot[(i, j, k)]] = c
        return vec

    table = []
    for (i1, j1, k1) in layout:
        phi = mats[(i1, j1)][k1]
        row = []
        for (i2, j2, k2) in layout:
            if j1 != i2:
                row.append([zero] * len(layout))
                continue
            # stored by columns: cols(phi o psi) = cols(psi) * cols(phi)
            product = mat_mul(ring, mats[(i2, j2)][k2], phi)
            row.append(placed(i1, j2, [[ring.normal_form(p) for p in col]
                                       for col in product]))
        table.append(row)
    idents = []
    for i in range(r):
        g = blocks[(i, i)].M.ngens
        idents.append(placed(i, i, [[ring.one() if a == b else ring.zero()
                                     for a in range(g)] for b in range(g)]))
    return layout, table, idents


def hom_space(M: FPModule, N: FPModule, stable: bool = False,
              mode: str = "auto") -> MorphismSpace:
    if M.ring != N.ring:
        raise HomError("modules live over different rings")
    # stable: also null the maps M -> R^{g_N} -> N through the free cover
    free_cover = (_cocycles(M.ring, N.ngens, M.ngens, M.relations, [])
                  if stable else [])
    msq = _subquotient(N, M.ngens, M.relations, free_cover, M.gen_degrees)
    if mode == "module":
        return MorphismSpace(M, N, msq, "module", stable)
    if mode == "graded0":
        if M.gen_degrees is None or N.gen_degrees is None:
            raise HomError("degree-zero mode needs graded modules")
        return MorphismSpace(M, N, msq, "graded0", stable)
    if mode in ("auto", "full"):
        d = msq.dim()
        if d is not None:
            return MorphismSpace(M, N, msq, "full", stable)
        if mode == "full" or stable:
            raise InfiniteDimensionError(
                "stable hom space is infinite-dimensional (non-isolated "
                "singularity in the module support)" if stable else
                "hom space is infinite-dimensional over k")
    if M.gen_degrees is None or N.gen_degrees is None:
        raise InfiniteDimensionError(
            "hom space is infinite-dimensional and modules are not graded; "
            "request module mode")
    return MorphismSpace(M, N, msq, "graded0", stable)


def stable_hom(M: FPModule, N: FPModule) -> MorphismSpace:
    """Hom in the singularity category for MCM-type inputs: Hom(M,N) modulo
    maps factoring through the free cover of N."""
    return hom_space(M, N, stable=True, mode="auto")


# ---------------------------------------------------------------------------
# Ext


def _ext_subquotient(M: FPModule, N: FPModule, p: int, res: FreeResolution):
    """Ext^p(M, N) as a matrix subquotient of Hom(F_p, N): cocycles modulo
    rel(N) and the coboundaries psi o d_p."""
    coboundaries = []
    if p >= 1:
        coboundaries = [v for v in _unit_images(N.ngens, res.rank(p - 1),
                                                res.differential(p)) if v]
    return _subquotient(N, res.rank(p), res.differential(p + 1), coboundaries,
                        res.step_degrees[p])


def ext_dims(M: FPModule, N: FPModule, p_max: int, p_min: int = 0):
    """dim_k Ext^p_R(M, N) for p_min <= p <= p_max.

    On a periodic resolution, Ext^p for p >= periodic_from + 2 repeats
    Ext^(p-2): d_(p+1) and d_p equal d_(p-1) and d_(p-2), and the total
    dimension does not read the step degrees.

    Raises InfiniteDimensionError naming the first degree with an
    infinite-dimensional Ext group, and HomError for p_min < 0 or an
    empty range p_max < p_min.
    """
    if M.ring != N.ring:
        raise HomError("modules live over different rings")
    if p_min < 0:
        raise HomError(f"Ext^{p_min} is undefined: Ext degrees start at 0")
    if p_max < p_min:
        raise HomError(f"empty Ext degree range: p_max = {p_max} is below "
                       f"p_min = {p_min}")
    res = M.resolve(p_max + 1)
    out = {}
    for p in range(p_min, p_max + 1):
        if (res.periodic_from is not None and p >= res.periodic_from + 2
                and p - 2 in out):
            out[p] = out[p - 2]
            continue
        msq = _ext_subquotient(M, N, p, res)
        d = msq.dim()
        if d is None:
            raise InfiniteDimensionError(f"Ext^{p} is infinite-dimensional over k")
        out[p] = d
    return out


def ext_space(M: FPModule, N: FPModule, p: int) -> MatrixSubquotient:
    """The Ext^p subquotient itself; basis items yield cocycle matrices
    (columns indexed by the step-p free generators, rows by N generators)."""
    if p < 0:
        raise HomError(f"Ext^{p} is undefined: Ext degrees start at 0")
    res = M.resolve(p + 1)
    return _ext_subquotient(M, N, p, res)


def ext_is_zero(M: FPModule, N: FPModule, p: int) -> bool:
    """Exact vanishing test for Ext^p(M, N), valid even when the group would
    be infinite-dimensional over k."""
    return ext_space(M, N, p).is_zero_space()


# ---------------------------------------------------------------------------
# Yoneda extensions


class Extension:
    """0 -> A -> E -> B -> 0 built from a degree-one cocycle."""

    def __init__(self, E: FPModule, A: FPModule, B: FPModule):
        self.E = E
        self.A = A
        self.B = B

    def verify_exact(self) -> bool:
        """Exactness by Groebner checks: ker(A -> E) = rel(A), which fails
        for a non-cocycle, and ker(E -> B) = image of A plus relations."""
        ring = self.E.ring
        gB, gA = self.B.ngens, self.A.ngens
        # ker(incl): u with (0, u) in rel(E)-span must lie in rel(A)-span
        incl_vecs = []
        for i in range(gA):
            col = [ring.zero()] * self.E.ngens
            col[gB + i] = ring.one()
            incl_vecs.append(vec_from_polys(col))
        gens = incl_vecs + [vec_from_polys(c) for c in self.E.relations]
        gb = SubmoduleGB(ring.ambient, self.E.ngens, gens, pad_polys=ring.gb,
                         tracked=gA)
        relA_gb = self.A.rel_gb()
        for ker_elt in gb.syzygies():
            if not relA_gb.contains(ker_elt):
                return False
        # ker(proj) subset image(incl) + rel(E), the span of the same gens
        for relcol in self.B.relations:
            lifted = [ring.normal_form(p) for p in relcol] + [ring.zero()] * gA
            if not gb.contains(vec_from_polys(lifted)):
                return False
        return True


def yoneda_extension(cocycle_cols, A: FPModule, B: FPModule,
                     require_nontrivial: bool = False) -> Extension:
    """Extension 0 -> A -> E -> B -> 0 from a cocycle in Hom(F_1(B), A).

    cocycle_cols[l] lists the A-coordinates assigned to the l-th relation
    column of B.  The zero class yields the split extension A (+) B.
    """
    ring = A.ring
    if B.ring != ring:
        raise HomError("modules live over different rings")
    if len(cocycle_cols) != len(B.relations):
        raise HomError("cocycle shape does not match the relations of B")
    if require_nontrivial:
        space = ext_space(B, A, 1)
        vec = _matrix_to_vec([[ring.normal_form(p) for p in col] for col in cocycle_cols])
        if not vec or space.element_class_is_zero(vec):
            raise HomError("zero class passed with require_nontrivial")
    gE = B.ngens + A.ngens
    cols = []
    for l, relcol in enumerate(B.relations):
        col = [ring.normal_form(p) for p in relcol]
        col += [ring.normal_form(-p) for p in cocycle_cols[l]]
        cols.append(col)
    for relcol in A.relations:
        col = [ring.zero()] * B.ngens + list(relcol)
        cols.append(col)
    degrees = None
    if A.gen_degrees is not None and B.gen_degrees is not None:
        degrees = tuple(B.gen_degrees) + tuple(A.gen_degrees)
    E = FPModule(ring, gE, cols, degrees)
    if degrees is not None and not E.is_graded():
        E = FPModule(ring, gE, cols, None)
    return Extension(E, A, B)


# ---------------------------------------------------------------------------
# MCM test and fiber counts


def is_mcm(M: FPModule, bound: int | None = None):
    """Ext^i(M, R) = 0 for 0 < i <= bound (Gorenstein criterion).

    Returns (True, None) or (False, first nonvanishing degree).
    """
    ring = M.ring
    if bound is None:
        bound = max(ring.krull_dim_bound(), 1)
    N = FPModule.free(ring, 1, degrees=(0,) if M.gen_degrees is not None else None)
    res = M.resolve(bound + 1)
    for p in range(1, bound + 1):
        msq = _ext_subquotient(M, N, p, res)
        if not msq.is_zero_space():
            return False, p
    return True, None


def fiber_generators(M: FPModule, point_polys) -> int:
    """dim_k M/mM for the maximal ideal m generated by point_polys."""
    ring = M.ring
    gens = [vec_from_polys(col) for col in M.relations]
    for i in range(M.ngens):
        for f in point_polys:
            col = [ring.zero()] * M.ngens
            col[i] = ring.normal_form(f)
            v = vec_from_polys(col)
            if v:
                gens.append(v)
    gb = SubmoduleGB(ring.ambient, M.ngens, gens, pad_polys=ring.gb, tracked=0)
    d = gb.quotient_dim()
    if d is None:
        raise InfiniteDimensionError("fiber is infinite-dimensional: point ideal "
                                     "is not maximal")
    return d
