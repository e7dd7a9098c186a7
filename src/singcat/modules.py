"""Finitely presented modules over affine quotient rings, and free resolutions.

An FPModule is coker(R^r -> R^g) given by relation columns.  One routine,
_unit_pivots, drops the generators that constant relation entries make
redundant: of a presentation in minimal_presentation (no Groebner build),
and of a syzygy step, as the unit pivots of one syzygy build, minimal on
homogeneous input.  Syzygy steps are sorted canonically, so resolution
tails over hypersurface rings tend to repeat literally; when d_{i+2} = d_i
is detected the resolution is extended by copying.  A module caches its
resolution, and a request for a longer one extends the cached one.  The
checks on a resolution multiply its differentials, flattened column-major,
with modgb.compose.  Column degrees follow modgb's grading rule: a step
with a zero or inhomogeneous column is ungraded, as are the steps after.
"""

from __future__ import annotations

from .quotient import QuotientRing
from .modgb import (SubmoduleGB, compose, term_degrees, vec_from_polys,
                    vec_to_polys)


def syzygies(ring: QuotientRing, columns):
    """Generators of the syzygy module of the given columns over the ring.

    Each column is a list of polynomials in the ambient ring, read modulo
    the defining ideal; the result columns S satisfy M*S = 0 modulo the
    ideal and generate every such relation."""
    if not columns:
        return []
    npos = len(columns[0])
    vecs = [vec_from_polys(col) for col in columns]
    gb = SubmoduleGB(ring.ambient, npos, vecs, pad_polys=ring.gb)
    return [[ring.normal_form(p) for p in vec_to_polys(ring.ambient, s, len(columns))]
            for s in gb.syzygies()]


def find_unit(rows):
    """(i, j) of the first nonzero constant rows[i][j], rows in order and
    each row left to right, or None."""
    for i, row in enumerate(rows):
        for j, p in enumerate(row):
            if not p.is_zero() and p.total_deg() == 0:
                return i, j
    return None


def _unit_pivots(ring: QuotientRing, ngens: int, cols):
    """(kept generators, relations left on them) of the presentation with
    `ngens` generators and relation columns `cols`: while some column c
    has a nonzero constant u at generator i, every other column c' becomes
    c' - (c'_i/u)*c, and c, generator i and the columns that are then zero
    go.  The pivot is taken at the last such generator, so earlier
    generators stay.

    The substitution is exact over any ring.  For homogeneous columns over
    positive weights, once no constant entry is left the kept generators
    are minimal (graded Nakayama)."""
    keep = list(range(ngens))
    while True:
        hit = find_unit([c[i] for c in cols] for i in reversed(range(len(keep))))
        if hit is None:
            return keep, cols
        i, j = len(keep) - 1 - hit[0], hit[1]
        pivot = cols[j]
        inv = ring.ambient.const(ring.field.inv(pivot[i].constant_coeff()))
        rest = []
        for col in cols[:j] + cols[j + 1:]:
            q = col[i] * inv
            if not q.is_zero():
                col = [a - q * b for a, b in zip(col, pivot)]
            col = col[:i] + col[i + 1:]
            if any(not p.is_zero() for p in col):
                rest.append(col)
        cols = rest
        del keep[i]


class FPModule:
    def __init__(self, ring: QuotientRing, ngens: int, relations, gen_degrees=None):
        self.ring = ring
        self.ngens = ngens
        self.relations = []
        for col in relations:
            if len(col) != ngens:
                raise ValueError("relation column has wrong length")
            self.relations.append([ring.normal_form(p) for p in col])
        self.gen_degrees = tuple(gen_degrees) if gen_degrees is not None else None
        self._rel_gb = None
        self._resolution = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def free(cls, ring: QuotientRing, rank: int, degrees=None) -> "FPModule":
        return cls(ring, rank, [], degrees)

    @classmethod
    def cyclic(cls, ring: QuotientRing, ideal_polys, degree: int = 0) -> "FPModule":
        """R/(ideal_polys) presented on one generator."""
        return cls(ring, 1, [[p] for p in ideal_polys], [degree])

    @classmethod
    def from_submodule(cls, ring: QuotientRing, elements, ambient_rank: int = 1,
                       ambient_degrees=None) -> "FPModule":
        """Module generated by elements of R^ambient_rank, presented by their
        syzygies.  Each element is a list of ambient_rank polynomials; with
        ambient_degrees each must have a degree (modgb's grading rule)."""
        normed = [[ring.normal_form(p) for p in e] for e in elements]
        degrees = None
        if ambient_degrees is not None:
            degrees = _column_degrees(ring, normed, ambient_degrees)
            if degrees is None:
                raise ValueError("zero or inhomogeneous generator in a graded "
                                 "submodule presentation")
        return cls(ring, len(elements), _syzygy_columns(ring, normed, degrees),
                   degrees)

    def direct_sum(self, other: "FPModule") -> "FPModule":
        if other.ring != self.ring:
            raise ValueError("mismatched rings")
        g = self.ngens + other.ngens
        zero = self.ring.zero()
        cols = [col + [zero] * other.ngens for col in self.relations]
        cols += [[zero] * self.ngens + col for col in other.relations]
        degs = None
        if self.gen_degrees is not None and other.gen_degrees is not None:
            degs = self.gen_degrees + other.gen_degrees
        return FPModule(self.ring, g, cols, degs)

    def minimal_presentation(self) -> "FPModule":
        """The same module on the generators _unit_pivots keeps, with their
        degrees and the relations left on them; FPModule takes the normal
        forms once.  Minimal for a graded module over positive weights; in
        every other case maybe not.  Returns self when nothing drops."""
        keep, cols = _unit_pivots(self.ring, self.ngens, self.relations)
        if len(keep) == self.ngens:
            return self
        degrees = None
        if self.gen_degrees is not None:
            degrees = [self.gen_degrees[i] for i in keep]
        M = FPModule(self.ring, len(keep), cols, degrees)
        # a column can vanish only modulo the ideal (x*y over k[x,y]/(xy))
        M.relations = [c for c in M.relations if any(not p.is_zero() for p in c)]
        return M

    # -- cached machinery ----------------------------------------------------

    def rel_gb(self) -> SubmoduleGB:
        if self._rel_gb is None:
            vecs = [vec_from_polys(col) for col in self.relations]
            self._rel_gb = SubmoduleGB(self.ring.ambient, self.ngens, vecs,
                                       pad_polys=self.ring.gb, tracked=0)
        return self._rel_gb

    def graded_dim(self, degree: int):
        if self.gen_degrees is None:
            raise ValueError("module is not graded")
        return self.rel_gb().quotient_graded_dim(degree, self.gen_degrees)

    def is_graded(self) -> bool:
        """Whether the module has generator degrees under which no relation
        column is inhomogeneous (a zero column has every degree)."""
        return self.gen_degrees is not None and all(
            len(term_degrees(self.ring.ambient, vec_from_polys(col),
                             self.gen_degrees)) <= 1
            for col in self.relations)

    def resolve(self, length: int) -> "FreeResolution":
        if self._resolution is None or len(self._resolution.diffs) < length:
            self._resolution = _resolve(self, length)
        return self._resolution

    def __repr__(self):
        return f"FPModule(g={self.ngens}, r={len(self.relations)} over {self.ring!r})"


def _sort_columns(ring: QuotientRing, cols):
    return sorted((c for c in cols if any(not p.is_zero() for p in c)),
                  key=lambda col: _canon_col_key(ring, col))


def _canon_col_key(ring: QuotientRing, col):
    items = []
    for i, p in enumerate(col):
        for m, c in p.terms.items():
            items.append((i, m))
    return sorted(items)


def _prune_columns(ring: QuotientRing, cols, row_degrees=None):
    """The nonzero columns that _unit_pivots keeps on the syzygies of all
    of them, read from one SubmoduleGB build: a column goes when a
    syzygy has a constant entry there.  With row degrees on homogeneous
    input the build is truncated at the largest column degree, since a
    syzygy with a constant at column i has column i's degree; then the
    kept columns are minimal (graded Nakayama).  Other input builds in
    full, and the kept columns span the same module, maybe redundantly."""
    cols = [c for c in cols if any(not p.is_zero() for p in c)]
    if not cols:
        return []
    degrees = bound = None
    col_degrees = _column_degrees(ring, cols, row_degrees)
    if col_degrees is not None:
        degrees, bound = row_degrees + col_degrees, max(col_degrees)
    gb = SubmoduleGB(ring.ambient, len(cols[0]), [vec_from_polys(c) for c in cols],
                     pad_polys=ring.gb, degrees=degrees, bound=bound)
    syz = [vec_to_polys(ring.ambient, s, len(cols)) for s in gb.syzygies()]
    return [cols[i] for i in _unit_pivots(ring, len(cols), syz)[0]]


class FreeResolution:
    """Complex R^{r_n} -> ... -> R^{r_1} -> R^g with d_i d_{i+1} = 0."""

    def __init__(self, module: FPModule, diffs, ranks, step_degrees, periodic_from):
        self.module = module
        self.diffs = diffs          # diffs[i] = list of columns of d_{i+1}
        self.ranks = ranks          # ranks[0] = g, ranks[i] = rank of step i
        self.step_degrees = step_degrees  # generator degrees per step (or None)
        self.periodic_from = periodic_from  # smallest i >= 1 with d_{i+2} = d_i

    def differential(self, p: int):
        """Columns of d_p: R^{r_p} -> R^{r_{p-1}} (p >= 1)."""
        return self.diffs[p - 1]

    def rank(self, p: int) -> int:
        return self.ranks[p]

    def _flat(self, p: int):
        """d_p flattened column-major (modgb's Vec form)."""
        return vec_from_polys([a for col in self.differential(p) for a in col])

    def verify_complex(self) -> bool:
        """d_(p-1) o d_p = 0 modulo the ideal for every p >= 2, each entry
        of the product that has terms reduced by ring.is_zero."""
        ring = self.module.ring
        for p in range(2, len(self.diffs) + 1):
            h = self.rank(p - 2)
            prod = compose(ring.field, self._flat(p - 1), h, self._flat(p),
                           self.rank(p - 1))
            if not all(a.is_zero() or ring.is_zero(a) for a in
                       vec_to_polys(ring.ambient, prod, h * self.rank(p))):
                return False
        return True

    def periodic_pair_is_factorization(self) -> bool:
        """Over a hypersurface ring, the marked periodic pair of
        differentials lifts to matrices whose product is exactly f*I."""
        if self.periodic_from is None or not self.module.ring.hypersurface:
            return False
        f = self.module.ring.gb[0]
        i = self.periodic_from
        n = self.rank(i + 1)
        if self.rank(i + 2) != n or (n and self.rank(i) != n):
            return False
        f_identity = vec_from_polys([f if t == j else None
                                     for j in range(n) for t in range(n)])
        return compose(self.module.ring.field, self._flat(i + 1), n,
                       self._flat(i + 2), n) == f_identity


def _syzygy_columns(ring: QuotientRing, cols, degrees):
    out = _prune_columns(ring, syzygies(ring, cols), degrees)
    return _sort_columns(ring, out)


def _resolve(module: FPModule, length: int) -> FreeResolution:
    """Resolution with `length` differentials.  A shorter cached resolution
    is extended: each step depends only on the steps before it."""
    ring = module.ring
    res = module._resolution
    if res is None:
        diffs = [module.relations]
        ranks = [module.ngens, len(module.relations)]
        degrees = [module.gen_degrees,
                   _column_degrees(ring, module.relations, module.gen_degrees)]
        periodic_from = None
    else:
        diffs, ranks = list(res.diffs), list(res.ranks)
        degrees, periodic_from = list(res.step_degrees), res.periodic_from
    while len(diffs) < length:
        if periodic_from is not None and len(diffs) >= periodic_from + 2:
            nxt = diffs[-2]
        else:
            nxt = _syzygy_columns(ring, diffs[-1], degrees[-1])
        diffs.append(nxt)
        ranks.append(len(nxt))
        degrees.append(_column_degrees(ring, nxt, degrees[-1]))
        if periodic_from is None and len(diffs) >= 3:
            for i in range(1, len(diffs) - 1):
                if diffs[i + 1] == diffs[i - 1] and ranks[i + 1] == ranks[i - 1]:
                    periodic_from = i
                    break
    return FreeResolution(module, diffs, ranks, degrees, periodic_from)


def _column_degrees(ring: QuotientRing, cols, src_degrees):
    """The degree of each column under row degrees src_degrees, or None
    (ungraded) when some column is zero or inhomogeneous."""
    if src_degrees is None:
        return None
    out = []
    for col in cols:
        degs = term_degrees(ring.ambient, vec_from_polys(col), src_degrees)
        if len(degs) != 1:
            return None
        out.append(degs.pop())
    return tuple(out)
