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
those k coordinates.  A subquotient that reads a basis builds one, big_gb,
of U (tracked), V and the ideal pads: its tag block's staircase is a
k-basis of span(U)/span(V), and a certificate's tag part gives
coordinates over it, empty exactly when the class is zero
(element_class_is_zero).  Graded degree-d bases need generator degrees on
source and target.

A map exists only as its sparse flattened vector (item_vec), composed by
modgb.compose, the one product of matrices over a ring, and read by big_gb
or rel_gb, which reduce modulo the ideal through their pads, so no entry
is put in normal form.  It becomes columns of polynomials only in
item_matrix, for the relation columns of yoneda_extension's FPModule,
which takes the normal forms once.

A dimension alone needs no basis (lead_dim, which graded_dim, ext_dims,
is_zero_space and matfac.mf_stable_hom call).  U is a Groebner basis of
the module Z it spans and the null space W, the span of V and the pads,
lies in Z, so dim Z/W is the number of monomials that LT(Z) holds and
LT(W) does not (modgb.lead_quotient_dim), and Z = W exactly when that
count is 0.  The leads of Z are read off the tag block of the build that
made U, and those of W come from a basis built anyway: for Ext^p, p >= 1,
the main block of Ext^(p-1)'s cocycle build, which spans the coboundaries,
rel(N) in each column and the pads; for the matrix factorization homology,
the other kernel build; otherwise an untagged basis of V and the pads,
built for the count.  Degrees follow modgb's grading rule (HomError for a
question by degree on ungraded data or inhomogeneous generators U or V).

The cocycles are the one Groebner build every subquotient, stable-Hom free
cover and Ext^p starts from, and the same input keeps coming back (the
resolutions over a hypersurface are 2-periodic, and callers ask for the
same Hom space more than once).  _COCYCLES keeps one record per content
for the life of the process, as fan_library keeps its fans: the result of
_cocycles, as a tuple, the lead monomials of the build's main block, the
null space of the next Ext (_span_leads), and of its tag block, U's own,
and the build's position degrees and degree bound.  The key is the
content of the input, the QuotientRing, h, r and every entry of d_next
and of the relations as its sorted terms, so a hit is exact and the same
presentation over two fields never shares an entry.

A question that names a degree D (mode 'graded0', graded_dim(D),
basis_items(graded_degree=D), the certificate of a map of degree D) reads
truncated bases.  Its builds of homogeneous input, the cocycles, big_gb
and the null-space basis of a count, keep only degree <= D (SubmoduleGB's
bound) and are exact in every degree <= D.  A full record serves every
question; one truncated at D serves the questions up to D, also when the
same content comes back with every position degree shifted by one c (the
steps of a periodic resolution), up to D + c; a question above is built
again and its record replaces the old one.  The first question that reads
a basis fixes a subquotient's U at its degree: the degree-<=D subsequence
of the full U, in the same order, so the basis items are the full basis's
items of degree <= D.  A later basis question above D raises
InvariantError, as would a truncated SubmoduleGB asked above its bound.

structure_constants is the one multiplication-table builder, from Hom
blocks: the product of basis maps x^m U_a and x^m' U'_b is x^(m m') (U_a o
U'_b), so each ordered pair of generators is composed once (modgb.compose)
and read by a certificate, and its multiples are walked through the target
block's multiplication maps on the tag staircase (as in FGLM: Faugere,
Gianni, Lazard and Mora 1993), where only a multiple off the staircase
needs a normal form.  End(M) (MorphismSpace.algebra) is its single-block
case, and the parameter algebras of ncdef its r-block case.

Stable Hom follows the free-cover recipe: Hom(M,N) modulo the image of
Hom(M, R^{g_N}) -> Hom(M,N) induced by the generator surjection R^{g_N} -> N.

yoneda_extension is the one extension builder, also for the universal
extensions of ncdef (stacked classes into a direct sum).
"""

from __future__ import annotations

from .errors import InvariantError
from .findim import FiniteDimAlgebra
from .modules import FPModule, FreeResolution, _column_degrees
from .modgb import (SubmoduleGB, answers, compose, lead_quotient_dim,
                    term_degrees, vec_from_polys, vec_to_polys)
from .poly import mon_divides, mon_mul
from .quotient import QuotientRing


class InfiniteDimensionError(ValueError):
    pass


class HomError(ValueError):
    pass


def _flat(h, entries):
    """Flattened vector (column-major, h rows) of the matrix with the given
    (column, row, polynomial) entries."""
    out = {}
    for j, i, p in entries:
        for m, c in p.terms.items():
            out[(j * h + i, m)] = c
    return out


class MatrixSubquotient:
    """Space of h x w matrices over R: span(U) / span(V), U and V flattened.

    The one subquotient object: every Hom, Ext^p, stable Hom and matrix
    factorization homology space is one of these.  Optional row/column
    generator degrees enable graded degree-d bases.

    U is a Groebner basis, in the position-over-term order, of the module
    Z it spans over the ambient ring, and the null space W, the span of V
    and the ideal pads, lies in Z; lead_dim counts on the leading terms of
    the two.  null_leads, if given, maps a degree (None: every degree) to
    the lead monomials, one tuple per position, of a Groebner basis of W
    that a caller already has, exact up to that degree; otherwise lead_dim
    builds an untagged basis of W.  A map is read as its flattened vector
    (item_vec); item_matrix splits it into columns with unreduced entries.

    U is a list, with u_leads its lead monomials one tuple per position,
    or a callable mapping a degree D (None: every degree) to generators
    that hold every one of degree <= D, and their leads.  A question that
    names a degree reads U up to it: a count reads it afresh each time,
    and the first question that reads a basis (basis_items, dim, big_gb,
    a certificate) fixes U as the degree-<=D subsequence of the full U, in
    the same order, since basis items index it; a later basis question
    above D raises InvariantError.
    """

    def __init__(self, ring: QuotientRing, nrows: int, ncols: int, U, V,
                 row_degrees=None, col_degrees=None, null_leads=None,
                 u_leads=None):
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.V = list(V)
        self.row_degrees = row_degrees
        self.col_degrees = col_degrees
        self._big = None
        self._null_leads = null_leads
        self._source = U if callable(U) else None
        self._U = None if callable(U) else list(U)
        self._u_leads = u_leads
        self._bound = None  # the degree U was fixed at; None: every degree

    @property
    def U(self):
        """The generators the basis reads: all of them unless a basis
        question in degree D came first."""
        return self._fix(None) if self._U is None else self._U

    def _read(self, bound):
        """(U, u_leads, bound) from the source for a question in degree
        `bound`: U cut to its degree-<=bound subsequence, or whole, with
        bound None, when some generator is inhomogeneous."""
        U, u_leads = self._source(bound)
        if bound is not None:
            degs = self._map_degrees(U)
            if all(len(d) == 1 for d in degs):
                return [u for u, (d,) in zip(U, degs) if d <= bound], \
                    u_leads, bound
        return list(U), u_leads, None

    def _generators(self, bound):
        """(U, u_leads) for a count in degree `bound`: the fixed ones if
        they cover it, else read afresh and not kept."""
        if self._U is not None and answers(self._bound, bound):
            return self._U, self._u_leads
        return self._read(bound)[:2]

    def _fix(self, bound):
        """U for a basis question in degree `bound` (None: every degree),
        fixed by the first one."""
        if self._U is None:
            self._U, self._u_leads, self._bound = self._read(bound)
        elif not answers(self._bound, bound):
            asked = "every degree" if bound is None else f"degree {bound}"
            raise InvariantError(
                f"a basis question in {asked} asked of a subquotient whose "
                f"generators were read up to degree D = {self._bound}")
        return self._U

    def _position_degrees(self):
        return _map_degree_list(self.row_degrees, self.col_degrees)

    def big_gb(self) -> SubmoduleGB:
        """The tagged basis of U, V and the pads, truncated at U's degree."""
        if self._big is None:
            U, degrees = self.U, None
            if self._bound is not None:
                degrees = self._position_degrees() + self.gen_degrees()
            self._big = SubmoduleGB(self.ring.ambient, self.nrows * self.ncols,
                                    U + self.V, pad_polys=self.ring.gb,
                                    tracked=len(U), degrees=degrees,
                                    bound=self._bound)
        return self._big

    def _map_degrees(self, vecs):
        """The set of map degrees of the terms of each vector
        (modgb.term_degrees); HomError outside a graded context."""
        pos_degs = self._position_degrees()
        if pos_degs is None:
            raise HomError("not a graded context")
        return [term_degrees(self.ring.ambient, v, pos_degs) for v in vecs]

    def gen_degrees(self):
        """Map degree of each U generator (graded context only)."""
        return self._single_degrees(self.U, "hom generator U")

    def _single_degrees(self, vecs, name):
        """The map degree of each of vecs, the generators `name`; HomError
        outside a graded context or for one with no single degree."""
        out = []
        for k, degs in enumerate(self._map_degrees(vecs)):
            if len(degs) != 1:
                raise HomError(f"inhomogeneous {name}[{k}] in graded context: "
                               f"map degrees {sorted(degs)}")
            out.append(degs.pop())
        return out

    def dim(self):
        """Total k-dimension, or None if infinite."""
        if not self._fix(None):
            return 0
        std = self.big_gb().tracked_staircase()
        return None if std is None else len(std)

    def lead_dim(self, degree=None):
        """Total k-dimension (None if infinite), or that of the given graded
        degree, counted from the leading terms of U and of a Groebner basis
        of the null space, each exact up to that degree: no basis of the
        quotient is built."""
        U, u_leads = self._generators(degree)
        if not U:
            return 0
        pos_degs = None
        if degree is not None:
            # a count by degree is exact only for homogeneous generators
            self._single_degrees(U, "hom generator U")
            self._single_degrees(self.V, "null generator V")
            pos_degs = self._position_degrees()
        npos = self.nrows * self.ncols
        w_leads = (self._null_leads(degree) if self._null_leads is not None else
                   SubmoduleGB(self.ring.ambient, npos, self.V,
                               pad_polys=self.ring.gb, tracked=0,
                               degrees=pos_degs, bound=degree).leads())
        return lead_quotient_dim(self.ring.ambient, u_leads, w_leads,
                                 degree, pos_degs)

    def graded_dim(self, degree: int = 0):
        return self.lead_dim(degree)

    def basis_items(self, graded_degree=None):
        """Staircase basis as (generator index, monomial) pairs."""
        if not self._fix(graded_degree):
            return []
        if graded_degree is None:
            std = self.big_gb().tracked_staircase()
            if std is None:
                raise ValueError("infinite staircase: the quotient has no finite k-basis")
            return std
        return self.big_gb().tracked_staircase(graded_degree, self.gen_degrees())

    def item_vec(self, item):
        idx, mon = item
        out = {}
        for (p, m), c in self.U[idx].items():
            out[(p, mon_mul(m, mon))] = c
        return out

    def item_matrix(self, item):
        """The item's map as columns of polynomials, entries not reduced:
        relation columns for an FPModule, which takes the normal forms."""
        h = self.nrows
        polys = vec_to_polys(self.ring.ambient, self.item_vec(item),
                             h * self.ncols)
        return [polys[j * h:(j + 1) * h] for j in range(self.ncols)]

    def _certificate(self, vec):
        """The tag part of vec's certificate over big_gb: its class over the
        staircase items, empty exactly when the class is zero.  In a graded
        context the basis reads U up to vec's largest map degree."""
        if not vec:
            return {}
        U = self._U
        if U is None or self._bound is not None:
            bound = None
            if self.row_degrees is not None and self.col_degrees is not None:
                bound = max(self._map_degrees([vec])[0])
            U = self._fix(bound)
        nf, cert = ((vec, {}) if not U
                    else self.big_gb().normal_form(vec, with_cert=True))
        if nf:
            raise HomError("matrix does not lie in the hom space")
        return cert

    def coords(self, vec, basis_items):
        """Coordinates of a flattened matrix in span(U) over the given basis."""
        F = self.ring.field
        index = {it: k for k, it in enumerate(basis_items)}
        out = [F.zero()] * len(basis_items)
        # the tag terms are already reduced against the tag-led elements
        for key, c in self._certificate(vec).items():
            if key not in index:
                raise HomError("coordinate outside the chosen basis "
                               "(mixed degrees or stale basis)")
            out[index[key]] = c
        return out

    def is_zero_space(self) -> bool:
        """True iff span(U) is contained in span(V) + ideal: exact from the
        leading terms since W lies in Z, and an infinite count is nonzero."""
        return self.lead_dim() == 0

    def element_class_is_zero(self, vec) -> bool:
        """True iff vec, an element of span(U), lies in span(V) + ideal;
        HomError if it is outside span(U)."""
        return not self._certificate(vec)


# ---------------------------------------------------------------------------
# The shared subquotient path


def _unit_images(h, r, d):
    """E o d for each matrix unit E = E_ij: R^r -> R^h, j-major; d is a list
    of columns in R^r."""
    return [_flat(h, [(l, i, col[j]) for l, col in enumerate(d)])
            for j in range(r) for i in range(h)]


def _relation_blocks(h, ncols, relations):
    """Each relation column (none is zero) placed in each of ncols columns."""
    return [_flat(h, [(l, i, p) for i, p in enumerate(t)])
            for l in range(ncols) for t in relations]


def _map_degree_list(rows, cols):
    """The map degree rows[i] - cols[j] of each position j*h + i of a
    flattened h-row matrix, column-major; None without both degrees."""
    if rows is None or cols is None:
        return None
    return [a - b for b in cols for a in rows]


def _cocycle_degrees(N: FPModule, col_degrees, next_degrees):
    """The position degrees of the cocycle build of maps R^r -> N whose
    columns have degrees col_degrees, with d_next's columns of degrees
    next_degrees: the main block, then the tag block; None if ungraded."""
    main = _map_degree_list(N.gen_degrees, next_degrees)
    tags = _map_degree_list(N.gen_degrees, col_degrees)
    return None if main is None or tags is None else main + tags


# one record per content key for the life of the process: _cocycles'
# result, the lead monomials of both blocks of the same build, and the
# position degrees and bound of that build (None, None when it is full)
_COCYCLES: dict = {}


def _columns_key(cols):
    return tuple(tuple(tuple(sorted(p.terms.items())) for p in col)
                 for col in cols)


def _serves(record, degrees, bound):
    """Whether a record answers a question in degree `bound` (None: every
    degree) under the position degrees `degrees`: a full record answers
    all, and one truncated at D under degrees d answers when `degrees` is
    d + c at every position and bound <= D + c."""
    _U, _span, _leads, rec_degrees, rec_bound = record
    if rec_bound is None:
        return True
    if degrees is None:
        return False
    c = degrees[0] - rec_degrees[0]
    return answers(rec_bound + c, bound) and all(
        a - b == c for a, b in zip(degrees, rec_degrees))


def _cocycle_entry(ring: QuotientRing, h, r, d_next, relations, degrees=None,
                   bound=None):
    """The (cocycles, span leads, cocycle leads, degrees, bound) record of
    the cocycle build of (ring, h, r, d_next, relations).  `degrees` gives
    the build's positions their degrees, the main block l*h + i (column l
    of d_next) then the tag block j*h + i (the unit E_ij), and `bound` the
    largest degree asked: the build runs, truncated at the bound when its
    input is homogeneous, when the content has no record or its record
    does not serve the question (_serves), and its record replaces the old
    one.  Without d_next every matrix unit is a cocycle, and nothing is
    built or kept."""
    if not d_next:
        return (tuple(_flat(h, [(j, i, ring.one())])
                      for j in range(r) for i in range(h)), None,
                (((0,) * ring.ambient.nvars,),) * (r * h), None, None)
    key = (ring, h, r, _columns_key(d_next), _columns_key(relations))
    out = _COCYCLES.get(key)
    if out is None or not _serves(out, degrees, bound):
        gens = (_unit_images(h, r, d_next)
                + _relation_blocks(h, len(d_next), relations))
        npos = h * len(d_next)
        gb = SubmoduleGB(ring.ambient, npos, gens, pad_polys=ring.gb,
                         tracked=r * h, degrees=degrees, bound=bound)
        out = _COCYCLES[key] = (
            tuple(gb.syzygies()), gb.leads(), gb.leads(npos, r * h),
            None if gb.bound is None else degrees, gb.bound)
    return out


def _cocycles(ring: QuotientRing, h, r, d_next, relations):
    """Generators of the h x r matrices phi with phi o d_next in the span of
    the relation columns (in R^h) plus the ideal, as a tuple.  A full
    Groebner build runs at most once per content of (ring, h, r, d_next,
    relations); a repeat returns the same reduced syzygy basis, in the
    same order."""
    return _cocycle_entry(ring, h, r, d_next, relations)[0]


def _span_leads(ring: QuotientRing, h, r, d_next, relations, degrees=None,
                bound=None):
    """Lead monomials, one tuple per position, of the reduced basis of the
    span of the maps E o d_next (E: R^r -> R^h), the relation columns in
    each of the len(d_next) columns and the ideal pads, up to degree
    `bound`: the main block of _cocycles' build of the same input."""
    return _cocycle_entry(ring, h, r, d_next, relations, degrees, bound)[1]


def _subquotient(N: FPModule, r, d_next, null_extra, col_degrees,
                 null_leads=None):
    """Cocycles phi: R^r -> N (phi o d_next in rel(N)) modulo rel(N) in each
    column and the extra null generators.  The columns of R^r have degrees
    col_degrees; a question by degree reads the cocycles up to it."""
    ring, h = N.ring, N.ngens
    if r == 0:
        return MatrixSubquotient(ring, h, 0, [], [])

    def cocycles(bound):
        degrees = None
        if bound is not None:
            degrees = _cocycle_degrees(
                N, col_degrees, _column_degrees(ring, d_next, col_degrees))
        U, _span, u_leads, _degrees, _bound = _cocycle_entry(
            ring, h, r, d_next, N.relations, degrees, bound)
        return U, u_leads

    V = _relation_blocks(h, r, N.relations) + list(null_extra)
    return MatrixSubquotient(ring, h, r, cocycles, V,
                             row_degrees=N.gen_degrees, col_degrees=col_degrees,
                             null_leads=null_leads)


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

    def coords(self, matrix_cols):
        return self.msq.coords(vec_from_polys([p for col in matrix_cols
                                               for p in col]), self.basis)

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
        """Hom as an FPModule on the U-generators (module mode); every
        degree, so a basis read in one degree refuses it."""
        U = self.msq._fix(None)
        W = self.msq.big_gb().syzygies()
        cols = [vec_to_polys(self.M.ring.ambient, w, len(U)) for w in W]
        return FPModule(self.M.ring, len(U), cols)


def structure_constants(blocks, r):
    """Multiplication table of End(F_0 (+) ... (+) F_(r-1)) on its block basis.

    blocks[(i, j)] is the MorphismSpace Hom(F_j, F_i) with a k-basis, whose
    k-th item (a, m), x^m U_a, is the algebra's basis element (i, j, k) of
    layout.  The multiples x^n G of G = U_a o U'_b in blocks[(i, l)] are
    walked from G, lowering n's first nonzero exponent: x_v x^m U_c is its
    own coordinate unless a tag lead at c divides it, and is otherwise read
    once by a certificate, exact up to a truncated basis's bound, which no
    degree-zero product passes.  Returns (layout, table, idents): the
    sparse rows FiniteDimAlgebra takes, and idents[i] the coordinate vector
    of the identity of F_i.
    """
    F = blocks[(0, 0)].M.ring.field
    one = F.one()
    layout = [(i, j, k) for i in range(r) for j in range(r)
              for k in range(blocks[(i, j)].dim)]
    index = {}
    for t, (i, j, k) in enumerate(layout):
        index.setdefault((i, j), {})[blocks[(i, j)].basis[k]] = t
    rows = [blocks[(i, i)].M.ngens for i in range(r)]
    known, walks = {}, {}

    def times(msq, item, v):  # x_v times the staircase item (c, m)
        if (msq, item, v) not in known:
            (c, m), big = item, msq.big_gb()
            m = m[:v] + (m[v] + 1,) + m[v + 1:]
            off = any(mon_divides(lead, m)
                      for lead in big.leads(big.npos + c, 1)[0])
            known[(msq, item, v)] = (msq._certificate(msq.item_vec((c, m)))
                                     if off else {(c, m): one})
        return known[(msq, item, v)]

    def product(i, j, l, a, b, mon):
        msq = blocks[(i, l)].msq
        walk = walks.get((i, j, l, a, b))
        if walk is None:
            walk = walks[(i, j, l, a, b)] = {(0,) * len(mon): msq._certificate(
                compose(F, blocks[(i, j)].msq.U[a], rows[i],
                        blocks[(j, l)].msq.U[b], rows[j]))}
        path = []
        while mon not in walk:
            v = next(v for v, e in enumerate(mon) if e)
            path.append((mon, v))
            mon = mon[:v] + (mon[v] - 1,) + mon[v + 1:]
        val = walk[mon]
        for mon, v in reversed(path):
            out = {}
            for item, c in val.items():
                for key, d in times(msq, item, v).items():
                    e = c if d == one else F.mul(c, d)
                    out[key] = F.add(out[key], e) if key in out else e
            val = walk[mon] = {key: c for key, c in out.items()
                               if not F.is_zero(c)}
        return val

    def placed(i, j, cert):
        return tuple(sorted((index[(i, j)][it], c) for it, c in cert.items()))

    table = []
    for (i, j, k) in layout:
        a, m = blocks[(i, j)].basis[k]
        table.append({t: placed(i, l, val) for l in range(r)
                      for (b, m2), t in index.get((j, l), {}).items()
                      if (val := product(i, j, l, a, b, mon_mul(m, m2)))})
    idents = []
    for i in range(r):
        unit = blocks[(i, i)].M.ring.one()
        ident = dict(placed(i, i, blocks[(i, i)].msq._certificate(
            _flat(rows[i], [(b, b, unit) for b in range(rows[i])]))))
        idents.append([ident.get(t, F.zero()) for t in range(len(layout))])
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
    coboundaries, null_leads, steps = [], None, res.step_degrees
    if p >= 1:
        h, r, d_p = N.ngens, res.rank(p - 1), res.differential(p)
        coboundaries = [v for v in _unit_images(h, r, d_p) if v]
        # the null space is the span of Ext^(p-1)'s cocycle build, whose
        # main block has the positions of Ext^p
        null_leads = lambda bound: _span_leads(
            N.ring, h, r, d_p, N.relations,
            None if bound is None else
            _cocycle_degrees(N, steps[p - 1], steps[p]), bound)
    return _subquotient(N, res.rank(p), res.differential(p + 1), coboundaries,
                        steps[p], null_leads)


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
        d = _ext_subquotient(M, N, p, res).lead_dim()
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
        vec = vec_from_polys([p for col in cocycle_cols for p in col])
        if ext_space(B, A, 1).element_class_is_zero(vec):
            raise HomError("zero class passed with require_nontrivial")
    # E's generators are B's, then A's; FPModule takes the normal forms
    gE = B.ngens + A.ngens
    cols = [relcol + [-p for p in cocycle_cols[l]]
            for l, relcol in enumerate(B.relations)]
    cols += [[ring.zero()] * B.ngens + relcol for relcol in A.relations]
    degrees = None
    if A.gen_degrees is not None and B.gen_degrees is not None:
        degrees = tuple(B.gen_degrees) + tuple(A.gen_degrees)
    E = FPModule(ring, gE, cols, degrees)
    if not E.is_graded():
        E.gen_degrees = None
    return Extension(E, A, B)


# ---------------------------------------------------------------------------
# MCM test and fiber counts


def is_mcm(M: FPModule):
    """Ext^i(M, R) = 0 for 0 < i <= max(krull_dim_bound, 1) (Gorenstein
    criterion).

    Returns (True, None) or (False, first nonvanishing degree).
    """
    ring = M.ring
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
    # the basis carries the ideal pads, so f needs no normal form
    gens = [vec_from_polys(col) for col in M.relations]
    gens += [vec_from_polys([f], offset=i)
             for i in range(M.ngens) for f in point_polys]
    gb = SubmoduleGB(ring.ambient, M.ngens, gens, pad_polys=ring.gb, tracked=0)
    d = gb.quotient_dim()
    if d is None:
        raise InfiniteDimensionError("fiber is infinite-dimensional: point ideal "
                                     "is not maximal")
    return d
