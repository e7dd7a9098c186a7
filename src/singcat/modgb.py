"""Groebner machinery for submodules of free modules S^n over a polynomial ring.

A module element is a dict (position, monomial) -> nonzero coefficient.
Term comparison is position-over-term: lower position index wins, ties
broken by the ring's monomial order.  A generator list v_0..v_{r-1} in S^n
is processed as a graph module in S^(n+k): the first k ("tracked")
generators carry a tag coordinate, (v_j, e_j) for j < k, and the rest go in
as (v_j, 0).  A single reduced basis then yields normal forms, membership
certificates over the tracked generators and the syzygies projected onto
the tracked coordinates.  The tag block comes after the main block, so the
basis elements with a main lead form the reduced basis of the span
whatever k is, and those with a tag lead form the reduced basis of the
projection of the syzygy module onto the first k coordinates (the
elimination property of a position-over-term order, as in Eisenbud,
Commutative Algebra, 15.5).  A build with k = 0 is a plain Groebner basis
of the span and refuses syzygy and certificate queries.

Computations over a quotient ring S/I are handled by padding the generator
list with f*e_i for the ideal generators f.  Pads are never tagged, so a
certificate is taken modulo the untracked generators plus the pads.

Inside the engine a term is one int (Bachmann and Schoenemann, "Monomial
representations for Groebner bases computations", ISSAC 1998), built by
the `Packing` of the ring's variable count and order.  Each exponent fills
a field of _FIELD_BITS bits whose top bit is a guard bit, so exponents stay
below `Packing.bound` = 2^15.  For grevlex the last exponent takes the top
field and the total degree, subtracted from its largest value, sits above
all fields; for lex the first exponent takes the top field and the packed
exponents are complemented (negated within the fields).  The position goes above everything.  Then the
position-over-term order is the order of the ints (the largest term is the
smallest int), multiplying a term by a monomial adds an int, "lead l
divides term t" is one subtraction and a mask test on the guard bits, and
the same guard bits flag an exponent that reaches the bound.  Input at or
above the bound, and a product that would reach it, raise
ExponentBoundError; nothing wraps.  Vectors are packed on the way in and
unpacked on the way out (normal forms, certificates, syzygies, `basis`);
the basis is kept packed.

One reducer, `Packing.reduce`, serves Buchberger's algorithm, normal forms
of module elements and `PolyReducer`.  It pops the next leading term from a
heap of ints and shares its add loop, `Packing.add_multiple`, with the
S-pairs.  Over Q (the class RationalField itself) these loops add,
multiply, negate and test for zero with Python's own operators, and a
Fraction that comes out integral is stored as an int where it is made; a
division by a lead other than one, and every operation over another
field, goes through the Field's methods.  A new basis element is made
monic by no operation when its lead is one and by negation when it is
minus one.  A full build gets its reduced basis from a minimal basis by
reducing each tail once; a truncated one interreduces by lookup (below).
One staircase enumerator, `_standard_monomials`, gives the standard
monomials of each position, all of them or those of one degree; the
quotient dimensions are the lengths of those lists, with None for an
infinite staircase.  The tag block's staircase is a k-basis of the span
of the tracked generators modulo the untracked ones and the pads.
`lead_quotient_dim` counts dim Z/W for W in Z from the leads of a basis
of each, with no basis of the quotient.

One grading rule serves every layer: a vector, a matrix column or a
resolution step has a degree only when all its terms (p, m) agree on
deg m + degrees[p] (`term_degrees`), and is otherwise ungraded (None),
never an error.  A question that names a degree refuses ungraded data and
one that names none answers; what is exact up to degree D answers in
degree d <= D (`answers`, None standing for every degree).

A build given the degree of each position and a bound D is truncated when
its input is homogeneous (Becker and Weispfenning, Groebner Bases, 1993,
and Kreuzer and Robbiano, Computational Commutative Algebra 2, 2005, on
homogeneous and truncated bases): inputs above D never enter, pairs are
taken by the weighted degree of their lcm plus their position's degree
and those above D are dropped, and the reduced basis is the degree-<=D
part of the full one, so every answer in degree <= D is exact.  Asked
above D, for a normal form or a staircase, it raises InvariantError;
`basis`, `leads` and `syzygies` hold degree <= D.  Any other build runs
in full, its inputs first, then the pairs by unweighted lcm degree.

A truncated build runs degree by degree: its inputs wait in the pair
queue at their degree, beside the S-pairs, so each basis element is found
in nondecreasing degree and reduced by every element found before it.  The
basis is then minimal as found, and since the weights are positive a
later lead divides a tail term only by being equal to it.  The final pass
walks back from the last element found, keeping the leads found after
each, and tail-reduces only the elements whose tail holds one of them.

A matrix over S is a vector too: an h-row matrix is flattened column-major,
its entry (row a, column j) at position j*h + a (`vec_from_polys` of its
columns, one after another).  `compose` multiplies two such matrices; it is
the one product of matrices over a ring, for Hom maps, differentials and
matrix factorizations alike.
"""

from __future__ import annotations

import functools
import itertools
from heapq import heapify, heappop, heappush
from operator import itemgetter

from .errors import InvariantError
from .fields import RationalField
from .poly import Memo, PolyRing, Polynomial, mon_divides, mon_lcm, mon_mul

Vec = dict  # (pos, monomial) -> coefficient

_FIELD_BITS = 16


class ExponentBoundError(ValueError):
    """An exponent at or above the packing bound, in the input or in a
    product formed during a build; it is refused, never wrapped."""


class Packing:
    """Packed terms over `nvars` variables under `order`.

    code[m] is the packed monomial m and mon[c] unpacks it; both keep what
    they computed, so every build over rings of this shape shares them.
    The term (p, m) is (p << shift) + code[m], and multiplying it by a
    monomial n adds code[n] - unit."""

    def __init__(self, nvars: int, order: str):
        width = _FIELD_BITS
        self.bound = bound = 1 << (width - 1)
        low = width * nvars
        if order == "grevlex":
            self._shifts = [width * i for i in range(nvars)]
            top = nvars * (bound - 1)
            self.unit = top << low
            self.flip = 0
            self.shift = low + top.bit_length()
        else:  # lex
            self._shifts = [width * (nvars - 1 - i) for i in range(nvars)]
            self.unit = self.flip = (1 << low) - 1
            self.shift = low
        self._low = low
        self._grevlex = order == "grevlex"
        self.guard = sum(bound << s for s in self._shifts)
        # bound - 1 in every field: l + half - t keeps a field's guard bit
        # clear exactly when l's exponent is at most t's
        self._half = self.guard - sum(1 << s for s in self._shifts)
        self.code_mask = (1 << self.shift) - 1
        self.code = Memo(self._pack)
        self.mon = Memo(self._unpack)

    def _pack(self, m):
        for e in m:
            if e >= self.bound:
                raise ExponentBoundError(
                    f"exponent {e} in monomial {m} reaches the packing "
                    f"bound {self.bound}")
        packed = sum(e << s for e, s in zip(m, self._shifts))
        if self._grevlex:
            c = self.unit + packed - (sum(m) << self._low)
        else:
            c = self.flip ^ packed
        self.mon[c] = m
        return c

    def _fields(self, x):
        """The exponent fields of a position-free packed value x."""
        packed = (x ^ self.flip) & ((1 << self._low) - 1)
        full = (1 << _FIELD_BITS) - 1
        return tuple((packed >> s) & full for s in self._shifts)

    def _unpack(self, c):
        m = self._fields(c)
        self.code[m] = c
        return m

    def term(self, pos: int, m) -> int:
        return (pos << self.shift) + self.code[m]

    def pack(self, v: Vec) -> dict:
        code, s = self.code, self.shift
        return {(p << s) + code[m]: c for (p, m), c in v.items()}

    def unpack_term(self, t: int):
        return t >> self.shift, self.mon[t & self.code_mask]

    def unpack(self, v: dict, offset: int = 0) -> Vec:
        mon, s, mask = self.mon, self.shift, self.code_mask
        return {((t >> s) - offset, mon[t & mask]): c for t, c in v.items()}

    def divides(self, lead: int, t: int) -> bool:
        """Whether the monomial of term `lead` divides that of `t`."""
        flip = self.flip
        return not ((lead ^ flip) + self._half - (t ^ flip)) & self.guard

    def reducer(self, lead: int, g: dict):
        """The reducer-index entry of the packed vector g with lead term
        `lead`: the lead's divisibility key, the lead and g."""
        return (lead ^ self.flip) + self._half, lead, g

    def add_multiple(self, F, out: dict, g: dict, c, q: int, heap):
        """out += c * x^n * g, where q = code[n] - unit; each term new to
        out is pushed onto heap.  A product with an exponent at the bound
        flips that field's guard bit, so it matches no term of out and is
        refused where it would be added.  Over Q (class RationalField) the
        coefficients go through Python's own operators, and a Fraction
        that comes out integral is stored as an int."""
        flip, guard = self.flip, self.guard
        if F.__class__ is RationalField:
            for k, a in g.items():
                k += q
                b = c * a
                if k in out:
                    s = out[k] + b
                    if s == 0:
                        del out[k]
                    elif s.__class__ is int or s.denominator != 1:
                        out[k] = s
                    else:
                        out[k] = s.numerator
                elif (k ^ flip) & guard:
                    raise self._bound_error(k)
                else:
                    if b.__class__ is not int and b.denominator == 1:
                        b = b.numerator
                    out[k] = b
                    heappush(heap, k)
            return
        mul, add, is_zero = F.mul, F.add, F.is_zero
        for k, a in g.items():
            k += q
            b = mul(c, a)
            if k in out:
                s = add(out[k], b)
                if is_zero(s):
                    del out[k]
                else:
                    out[k] = s
            elif (k ^ flip) & guard:
                raise self._bound_error(k)
            else:
                out[k] = b
                heappush(heap, k)

    def _bound_error(self, k: int) -> ExponentBoundError:
        """The refusal of the packed product k, an exponent of which has
        reached the bound."""
        return ExponentBoundError(
            f"a product in a Groebner build reaches exponent "
            f"{max(self._fields(k))}, at or above "
            f"the packing bound {self.bound}")

    def reduce(self, F, work: dict, index, heap=None) -> dict:
        """Remainder of the packed vector `work` (consumed) modulo the
        entries of index, a dict lead position -> `reducer` entries: every
        term is reduced, largest first, by the first entry whose lead
        divides it; the result lists its terms in decreasing order.

        `heap` holds every term ever added to work, or is None for a heap
        of work's terms; an entry whose term has since cancelled is
        skipped."""
        if heap is None:
            heap = list(work)
            heapify(heap)
        one, neg, div = F.one(), F.neg, F.div
        native = F.__class__ is RationalField
        shift, flip, guard = self.shift, self.flip, self.guard
        add_multiple = self.add_multiple
        result = {}
        while heap:
            t = heappop(heap)
            if t not in work:
                continue
            tt = t ^ flip
            for key, lead, g in index.get(t >> shift, ()):
                if not (key - tt) & guard:
                    b = g[lead]
                    c = work[t] if b == one else div(work[t], b)
                    c = -c if native else neg(c)
                    add_multiple(F, work, g, c, t - lead, heap)
                    break
            else:
                result[t] = work.pop(t)
        return result


@functools.cache
def packing(nvars: int, order: str) -> Packing:
    """The one Packing of every ring with this variable count and order."""
    return Packing(nvars, order)


def vec_from_polys(polys, offset=0) -> Vec:
    """Stack polynomials into a vector: position offset+i carries polys[i]."""
    out: Vec = {}
    for i, p in enumerate(polys):
        if p is None:
            continue
        for m, c in p.terms.items():
            out[(offset + i, m)] = c
    return out


def vec_to_polys(ring: PolyRing, v: Vec, npos: int):
    polys = [dict() for _ in range(npos)]
    for (p, m), c in v.items():
        if p >= npos:
            raise ValueError("position out of range")
        polys[p][m] = c
    return [Polynomial(ring, t) for t in polys]


def compose(F, phi, h, psi, g) -> Vec:
    """The one product of matrices over a ring: flattened phi o psi (h
    rows) of flattened phi (h rows) and psi (g rows, as many as phi has
    columns), each stored column-major, position col*h + row.  The entry
    (col*h + a, m1*m2) sums phi's column b times psi's row b.  Only nonzero
    terms are visited, sums that cancel to zero are dropped, and no entry
    is reduced modulo any ideal."""
    phi_cols = {}
    for (p, m), c in phi.items():
        phi_cols.setdefault(p // h, []).append((p % h, m, c))
    out = {}
    for (p, m2), c2 in psi.items():
        col, b = divmod(p, g)
        for a, m1, c1 in phi_cols.get(b, ()):
            key = (col * h + a, mon_mul(m1, m2))
            term = F.mul(c1, c2)
            out[key] = F.add(out[key], term) if key in out else term
    return {key: c for key, c in out.items() if not F.is_zero(c)}


def term_degrees(ring: PolyRing, v, degrees) -> set:
    """The set of deg m + degrees[p] over the terms (p, m) of the vector v
    (any iterable of such pairs): v has a degree exactly when the set has
    one element."""
    return {ring.weighted_deg(m) + degrees[p] for p, m in v}


def answers(bound, degree) -> bool:
    """Whether something exact up to degree `bound` answers a question in
    degree `degree`; None stands for every degree in both."""
    return bound is None or (degree is not None and degree <= bound)


class SubmoduleGB:
    """Reduced Groebner basis of the span of `gens` (plus the pads f*e_p)
    in S^npos, built as a graph module in which the first `tracked`
    generators carry a tag coordinate npos + j; by default every generator
    does, and pads never do.  Certificates and syzygies are read from the
    tags, so they cover the tracked generators only, modulo the untracked
    generators plus the pads.

    `degrees` gives each position a degree (npos + tracked entries, the
    main block then the tag block).  With a `bound` D too, a build whose
    generators, tags and pads are homogeneous under the positive ring
    weights is truncated at D (see the module docstring) and `bound` is D;
    any other build runs in full, with `bound` None."""

    def __init__(self, ring: PolyRing, npos: int, gens, pad_polys=(),
                 tracked=None, degrees=None, bound=None):
        self.ring = ring
        self.field = ring.field
        self.npos = npos
        self.pads = list(pad_polys)
        self._pk = pk = packing(ring.nvars, ring.order)
        gens = list(gens)
        self.ngens = len(gens)
        self.tracked = self.ngens if tracked is None else tracked
        if not 0 <= self.tracked <= self.ngens:
            raise ValueError(f"tracked={tracked} outside 0..{self.ngens}")
        graph = [pk.pack(g) for g in gens]
        one, unit = self.field.one(), (0,) * ring.nvars
        for j in range(self.tracked):
            graph[j][pk.term(npos + j, unit)] = one
        for f in self.pads:
            for p in range(npos):
                graph.append(pk.pack({(p, m): c for m, c in f.terms.items()}))
        self.degrees = degrees
        self.bound = in_degs = None
        if bound is not None and degrees is not None:
            in_degs = _input_degrees(ring, npos, self.tracked, gens, self.pads,
                                     degrees)
            if in_degs is not None:
                self.bound = bound
        # the reduced basis: `reducer` entries in ascending order of lead
        self._basis = self._buchberger(graph, in_degs)
        self._index = {}
        for entry in self._basis:
            self._index.setdefault(entry[1] >> pk.shift, []).append(entry)
        self._syz = None
        self._tracked_std = False  # not walked yet

    @property
    def basis(self):
        """The reduced basis as (lead, vector) pairs of (position, monomial)
        terms, by ascending lead; unpacked on each access."""
        pk = self._pk
        return [(pk.unpack_term(lead), pk.unpack(g))
                for _key, lead, g in self._basis]

    # -- basis construction -------------------------------------------------

    def _buchberger(self, gens, in_degs):
        """The reduced basis of the span of the packed vectors `gens`.  In a
        truncated build in_degs[k] is the degree of gens[k], and the build
        runs degree by degree; in a full build it is None."""
        F, pk = self.field, self._pk
        shift, code_mask = pk.shift, pk.code_mask
        # every basis element is pushed monic, so an S-pair is u*x^a - v*x^b
        one = F.one()
        minus_one = F.neg(one)
        native = F.__class__ is RationalField
        basis = []   # reducer entries, in the order they were found
        leads = []   # the lead monomial of each
        by_pos: dict = {}
        # basis indices of each lead position, in ascending order: only
        # elements that lead at the same position form a pair
        index_at: dict = {}
        # the heap of (degree, -1, k, 0) for the input gens[k] and (degree,
        # i, j, lcm) for the S-pair of basis elements j < i, lcm its packed
        # lcm; a full build ranks every input (at -1) before every pair
        truncated = in_degs is not None
        if truncated:
            degree = sum if set(self.ring.weights) == {1} else \
                self.ring.weighted_deg
            bound, pos_deg = self.bound, self.degrees
            queue = [(d, -1, k, 0) for k, d in enumerate(in_degs) if d <= bound]
            heapify(queue)
        else:
            queue = [(-1, -1, k, 0) for k in range(len(gens))]

        def push(v):
            lead = next(iter(v))  # the reducer lists its terms lead first
            c = v[lead]
            if c == minus_one:
                v = {t: -a for t, a in v.items()} if native else \
                    {t: F.neg(a) for t, a in v.items()}
            elif c != one:
                c = F.inv(c)
                v = {t: F.mul(c, a) for t, a in v.items()}
            pos, m, k = lead >> shift, pk.mon[lead & code_mask], len(basis)
            group = index_at.setdefault(pos, [])
            for t in group:
                lcm = mon_lcm(m, leads[t])
                if not truncated:
                    heappush(queue, (sum(lcm), k, t, pk.code[lcm]))
                elif (d := degree(lcm) + pos_deg[pos]) <= bound:
                    heappush(queue, (d, k, t, pk.code[lcm]))
            entry = pk.reducer(lead, v)
            basis.append(entry)
            leads.append(m)
            by_pos.setdefault(pos, []).append(entry)
            group.append(k)

        while queue:
            _deg, i, j, lcm = heappop(queue)
            if i < 0:
                s, heap = gens[j], None
            else:
                _key, li, u = basis[i]
                _key, lj, v = basis[j]
                s, heap = {}, []
                pk.add_multiple(F, s, u, one, lcm - (li & code_mask), heap)
                pk.add_multiple(F, s, v, minus_one, lcm - (lj & code_mask),
                                heap)
            s = pk.reduce(F, s, by_pos, heap)
            if s:
                push(s)
        if truncated:
            # Each element was found in nondecreasing degree and reduced by
            # every earlier one, so no lead divides another and, the weights
            # being positive, a later lead divides a tail term only by being
            # equal to it.  Walking back, each element whose tail holds a
            # later lead subtracts that lead's element, already reduced: its
            # tail holds no lead, so nothing is left to reduce and the heap
            # add_multiple fills is a throwaway list.
            later = {}
            for k in reversed(range(len(basis))):
                _key, lead, v = basis[k]
                hits = [t for t in v if t in later]
                if hits:
                    for t in hits:
                        c = -v[t] if native else F.neg(v[t])
                        pk.add_multiple(F, v, later[t], c, 0, [])
                    basis[k] = pk.reducer(lead, dict(sorted(v.items())))
                later[lead] = basis[k][2]
            return sorted(basis, key=itemgetter(1))
        # A minimal basis (no lead divides another at its position), then one
        # pass of tail reduction modulo it, gives the unique reduced basis.
        # Leads are distinct: each element was reduced by all earlier ones.
        minimal: dict = {}
        for entry in basis:
            lead = entry[1]
            if not any(l2 != lead and pk.divides(l2, lead)
                       for _k, l2, _w in by_pos[lead >> shift]):
                minimal.setdefault(lead >> shift, []).append(entry)
        reduced_basis = []
        for group in minimal.values():
            for _key, lead, v in group:
                tail = dict(v)
                reduced = {lead: tail.pop(lead)}
                reduced.update(pk.reduce(F, tail, minimal))
                reduced_basis.append(pk.reducer(lead, reduced))
        reduced_basis.sort(key=itemgetter(1))
        return reduced_basis

    # -- queries -------------------------------------------------------------

    def _require_tracked(self, what):
        if not self.tracked:
            raise InvariantError(
                f"{what} asked of a Groebner basis that tracks no generator "
                f"(SubmoduleGB over {self.npos} positions, {self.ngens} "
                f"generators, {len(self.pads)} pad polynomials, tracked=0)")

    def _refuse_above_bound(self, what, degree):
        """InvariantError unless this build answers in `degree` (None: in
        every degree): a truncated basis never answers above its bound."""
        if not answers(self.bound, degree):
            asked = "every degree" if degree is None else f"degree {degree}"
            raise InvariantError(
                f"{what} in {asked} asked of a Groebner basis truncated at "
                f"degree D = {self.bound}")

    def normal_form(self, v: Vec, with_cert: bool = False):
        """Canonical representative of v modulo the span (main block only).

        With certificates: returns (nf, cert) where cert is a Vec over
        positions 0..tracked-1 such that v = nf + sum cert_j * gens_j modulo
        the untracked generators and the padded ideal part.
        """
        if self.bound is not None and v:
            self._refuse_above_bound("a normal form", max(
                term_degrees(self.ring, v, self.degrees)))
        pk = self._pk
        red = pk.reduce(self.field, pk.pack(v), self._index)
        limit = self.npos << pk.shift
        nf = pk.unpack({t: c for t, c in red.items() if t < limit})
        if not with_cert:
            return nf
        self._require_tracked("a membership certificate")
        neg = self.field.neg
        cert = {t: neg(c) for t, c in red.items() if t >= limit}
        return nf, pk.unpack(cert, self.npos)

    def contains(self, v: Vec) -> bool:
        return not self.normal_form(v)

    def syzygies(self):
        """Reduced basis of the syzygies of `gens` and the pads, projected
        onto the tracked coordinates, in basis order."""
        self._require_tracked("syzygies")
        if self._syz is None:
            limit = self.npos << self._pk.shift
            self._syz = [self._pk.unpack(g, self.npos)
                         for _key, lead, g in self._basis
                         if lead >= limit]
        return self._syz

    # -- staircase bases and dimensions -----------------------------------------

    def leads(self, first=0, count=None):
        """The lead monomials of the reduced basis at positions first + i,
        i < count, one tuple per position in ascending order of lead; by
        default the main block, the leading terms of the span."""
        mon, code_mask = self._pk.mon, self._pk.code_mask
        if count is None:
            count = self.npos
        return tuple(tuple(mon[lead & code_mask]
                           for _key, lead, _g in self._index.get(first + i, ()))
                     for i in range(count))

    def _staircase(self, first, count, degree=None, pos_degrees=None):
        """(i, monomial) pairs of the standard monomials at positions
        first + i, i < count: all of them, or those of internal degree
        `degree` when first + i has degree pos_degrees[i]; None if there
        are infinitely many."""
        self._refuse_above_bound("a staircase", degree)
        out = []
        for i, leads in enumerate(self.leads(first, count)):
            want = None if degree is None else degree - pos_degrees[i]
            std = _standard_monomials(self.ring, leads, want)
            if std is None:
                return None
            out.extend((i, m) for m in std)
        return out

    def quotient_dim(self):
        """dim_k of S^npos / span, or None if infinite."""
        std = self._staircase(0, self.npos)
        return None if std is None else len(std)

    def tracked_staircase(self, degree=None, pos_degrees=None):
        """_staircase of the tag block: the tag-led elements are the reduced
        basis of syzygies(), so the pairs (j, m) give the k-basis x^m gens_j
        of the tracked span modulo the untracked generators and the pads.
        The whole staircase is walked once and handed out as a new list."""
        self._require_tracked("a staircase of the tracked generators")
        if degree is not None:
            return self._staircase(self.npos, self.tracked, degree, pos_degrees)
        if self._tracked_std is False:
            self._tracked_std = self._staircase(self.npos, self.tracked)
        return None if self._tracked_std is None else list(self._tracked_std)


def _input_degrees(ring: PolyRing, npos, tracked, gens, pads, degrees):
    """The degree of each graph-module input (the generators, the j-th with
    its tag npos + j if j < tracked, then each pad f*e_p, f by f), or None
    if the weights are not all positive or some input is inhomogeneous
    under the position degrees.  A zero untracked generator, which never
    enters, counts as degree 0."""
    if min(ring.weights, default=1) <= 0:
        return None
    out = []
    for j, g in enumerate(gens):
        found = term_degrees(ring, g, degrees)
        if j < tracked:
            found.add(degrees[npos + j])
        if len(found) > 1:
            return None
        out.append(found.pop() if found else 0)
    for f in pads:
        found = term_degrees(ring, vec_from_polys([f]), (0,))
        if len(found) != 1:
            return None
        d = found.pop()
        out.extend(d + degrees[p] for p in range(npos))
    return out


def _standard_monomials(ring: PolyRing, leads, degree=None):
    """Monomials divisible by none of `leads`: all of them, or those of
    weighted degree `degree`; None if there are infinitely many."""
    if degree is None:
        # finite iff each variable has a pure power among the leads; the
        # smallest such exponents bound a box holding the whole staircase
        box = []
        for i in range(ring.nvars):
            pures = [m[i] for m in leads if m[i] == sum(m)]
            if not pures:
                return None
            box.append(min(pures))
        candidates = itertools.product(*map(range, box))
    elif degree < 0:
        return []
    else:
        candidates = _monomials_of_weighted_degree(ring, degree)
    return [m for m in candidates if not any(mon_divides(g, m) for g in leads)]


def lead_quotient_dim(ring: PolyRing, z_leads, w_leads, degree=None,
                      pos_degrees=None):
    """dim_k Z/W for submodules W of Z in S^n, from the lead monomials of a
    Groebner basis of each, one list per position: the standard monomials
    of a submodule are a k-basis of the quotient of S^n by it (Macaulay's
    theorem), so dim Z/W counts the monomials that LT(Z) holds and LT(W)
    does not.  Returns the whole dimension, None if infinite, or the dimension of the
    piece of internal degree `degree` when position i has degree
    pos_degrees[i] and both bases are homogeneous.

    The monomials are counted lead by lead: those counted for the j-th
    lead a of Z at a position are a*n for the n standard for the colon
    leads (b - a)_+ of the leads b of W there and (c - a)_+ of the earlier
    leads c of Z there, so none is counted twice."""
    total = 0
    for p, (zs, ws) in enumerate(zip(z_leads, w_leads)):
        for j, a in enumerate(zs):
            if any(mon_divides(b, a) for b in ws):
                continue  # every multiple of a lies in LT(W)
            colon = [tuple(max(e - f, 0) for e, f in zip(b, a))
                     for b in itertools.chain(ws, zs[:j])]
            want = None if degree is None else \
                degree - pos_degrees[p] - ring.weighted_deg(a)
            std = _standard_monomials(ring, colon, want)
            if std is None:
                return None
            total += len(std)
    return total


def _monomials_of_weighted_degree(ring: PolyRing, d: int):
    """All monomials of exact weighted degree d (positive weights)."""
    nv = ring.nvars
    w = ring.weights
    out = []

    def rec(i, rem, prefix):
        if i == nv - 1:
            if rem % w[i] == 0:
                out.append(tuple(prefix + [rem // w[i]]))
            return
        e = 0
        while e * w[i] <= rem:
            rec(i + 1, rem - e * w[i], prefix + [e])
            e += 1

    if nv == 0:
        return [()] if d == 0 else []
    rec(0, d, [])
    return out


# ---------------------------------------------------------------------------
# ideal-level conveniences


def groebner_basis(generators, order: str | None = None):
    """Reduced Groebner basis of the ideal generated by `generators`.

    The result is canonical: independent of generator order, monic, sorted
    by decreasing leading monomial.
    """
    if not generators:
        raise ValueError("empty generator list")
    ring = generators[0].ring
    for g in generators:
        if g.ring != ring:
            raise ValueError("mismatched ambient rings")
    if order is not None and order != ring.order:
        ring2 = ring.with_order(order)
        generators = [Polynomial(ring2, dict(g.terms)) for g in generators]
        ring = ring2
    gens = [vec_from_polys([g]) for g in generators if not g.is_zero()]
    gb = SubmoduleGB(ring, 1, gens, tracked=0)
    return [vec_to_polys(ring, v, 1)[0] for _lead, v in gb.basis]


class PolyReducer:
    """Normal forms of polynomials modulo a fixed list of reducers (assumed
    a Groebner basis; they need not be monic), packed once."""

    def __init__(self, ring: PolyRing, gb_polys):
        self.ring = ring
        self._pk = pk = packing(ring.nvars, ring.order)
        code = pk.code
        entries = []
        for g in gb_polys:
            if not g.is_zero():
                packed = {code[m]: c for m, c in g.terms.items()}
                entries.append(pk.reducer(min(packed), packed))
        self._index = {0: entries} if entries else {}

    def normal_form(self, p: Polynomial) -> Polynomial:
        if p.is_zero() or not self._index:
            return p
        pk = self._pk
        code, mon = pk.code, pk.mon
        nf = pk.reduce(self.ring.field, {code[m]: c for m, c in p.terms.items()},
                       self._index)
        return Polynomial(p.ring, {mon[t]: c for t, c in nf.items()})
