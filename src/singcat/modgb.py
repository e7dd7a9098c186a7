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

One reducer, `_reduce_full`, serves Buchberger's algorithm, normal forms
of module elements and `poly_normal_form`.  It pops the next leading term
from a heap of (position, ascending order key) entries instead of scanning
the working vector, and shares its add loop, `vec_add_into`, with the
S-pairs.  The reduced basis comes from a minimal basis by reducing each
tail once.  One staircase enumerator, `_standard_monomials`, gives the
standard monomials of each position, all of them or those of one degree;
the quotient dimensions are the lengths of those lists, with None for an
infinite staircase.  The tag block's staircase is a k-basis of the span
of the tracked generators modulo the untracked ones and the pads.
"""

from __future__ import annotations

import heapq
import itertools

from .errors import InvariantError
from .poly import PolyRing, Polynomial, mon_mul, mon_div, mon_divides, mon_lcm

Vec = dict  # (pos, monomial) -> coefficient


def vec_is_zero(v: Vec) -> bool:
    return not v


def vec_add_into(F, out: Vec, v: Vec, c, mon):
    """out += c * x^mon * v; returns the keys this added to out."""
    created = []
    for (p, m), a in v.items():
        key = (p, mon_mul(m, mon))
        b = F.mul(c, a)
        if key in out:
            s = F.add(out[key], b)
            if F.is_zero(s):
                del out[key]
            else:
                out[key] = s
        else:
            out[key] = b
            created.append(key)
    return created


def vec_scale(F, v: Vec, c) -> Vec:
    if F.is_zero(c):
        return {}
    return {k: F.mul(c, a) for k, a in v.items()}


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


def _reduce_full(F, ok, v: Vec, by_pos) -> Vec:
    """Remainder of v modulo the (lead, vector) pairs of by_pos, indexed by
    lead position: every term is reduced, largest first (lowest position,
    then smallest ascending order key ok); the result lists its terms in
    decreasing order.

    The heap holds one entry per term ever added to the working vector;
    an entry whose term has since cancelled is skipped.  Each entry carries
    the key object stored in the working vector, so the result shares it."""
    one = F.one()
    work = dict(v)
    heap = [(t[0], ok(t[1]), t) for t in work]
    heapq.heapify(heap)
    result: Vec = {}
    while heap:
        lead = heapq.heappop(heap)[2]
        if lead not in work:
            continue
        p, m = lead
        for blead, g in by_pos.get(p, ()):
            if mon_divides(blead[1], m):
                b = g[blead]
                c = F.neg(work[lead] if b == one else F.div(work[lead], b))
                for t in vec_add_into(F, work, g, c, mon_div(m, blead[1])):
                    heapq.heappush(heap, (t[0], ok(t[1]), t))
                break
        else:
            result[lead] = work.pop(lead)
    return result


class SubmoduleGB:
    """Reduced Groebner basis of the span of `gens` (plus the pads f*e_p)
    in S^npos, built as a graph module in which the first `tracked`
    generators carry a tag coordinate npos + j; by default every generator
    does, and pads never do.  Certificates and syzygies are read from the
    tags, so they cover the tracked generators only, modulo the untracked
    generators plus the pads."""

    def __init__(self, ring: PolyRing, npos: int, gens, pad_polys=(),
                 tracked=None):
        self.ring = ring
        self.field = ring.field
        self.npos = npos
        self.pads = list(pad_polys)
        graph = [dict(g) for g in gens]
        self.ngens = len(graph)
        self.tracked = self.ngens if tracked is None else tracked
        if not 0 <= self.tracked <= self.ngens:
            raise ValueError(f"tracked={tracked} outside 0..{self.ngens}")
        self._key = lambda t, ok=ring.order_key: (t[0], ok(t[1]))
        one, unit = self.field.one(), (0,) * ring.nvars
        for j in range(self.tracked):
            graph[j][(npos + j, unit)] = one
        for f in self.pads:
            for p in range(npos):
                graph.append({(p, m): c for m, c in f.terms.items()})
        self.basis = self._buchberger(graph)
        self._by_pos = {}
        for lead, vec in self.basis:
            self._by_pos.setdefault(lead[0], []).append((lead, vec))
        self._syz = None

    # -- basis construction -------------------------------------------------

    def _lead(self, v: Vec):
        return min(v, key=self._key)

    def _spair(self, lu, u, lv, v):
        F = self.field
        pu, mu = lu
        pv, mv = lv
        m = mon_lcm(mu, mv)
        out: Vec = {}
        vec_add_into(F, out, u, F.inv(u[lu]), mon_div(m, mu))
        vec_add_into(F, out, v, F.neg(F.inv(v[lv])), mon_div(m, mv))
        return out

    def _buchberger(self, gens):
        F, ok = self.field, self.ring.order_key
        basis = []
        by_pos: dict = {}
        # basis indices of each lead position, in ascending order: only
        # elements that lead at the same position form a pair
        index_at: dict = {}

        def push(v: Vec):
            lead = self._lead(v)
            v = vec_scale(F, v, F.inv(v[lead]))
            basis.append((lead, v))
            by_pos.setdefault(lead[0], []).append((lead, v))
            index_at.setdefault(lead[0], []).append(len(basis) - 1)
            return lead

        for g in gens:
            g = _reduce_full(F, ok, g, by_pos)
            if g:
                push(g)

        def pair_entry(i, j):
            li, lj = basis[i][0], basis[j][0]
            return (sum(mon_lcm(li[1], lj[1])), i, j)

        pairs = [pair_entry(i, j) for group in index_at.values()
                 for a, i in enumerate(group) for j in group[:a]]
        heapq.heapify(pairs)
        while pairs:
            _deg, i, j = heapq.heappop(pairs)
            li, u = basis[i]
            lj, v = basis[j]
            s = self._spair(li, u, lj, v)
            s = _reduce_full(F, ok, s, by_pos)
            if s:
                lead = push(s)
                group = index_at[lead[0]]
                k = group[-1]
                for t in group[:-1]:
                    heapq.heappush(pairs, pair_entry(k, t))
        # A minimal basis (no lead divides another at its position), then one
        # pass of tail reduction modulo it, gives the unique reduced basis.
        # Leads are distinct: each element was reduced by all earlier ones.
        minimal: dict = {}
        for lead, v in basis:
            if not any(l2 != lead and mon_divides(l2[1], lead[1])
                       for l2, _w in by_pos[lead[0]]):
                minimal.setdefault(lead[0], []).append((lead, v))
        basis = []
        for group in minimal.values():
            for lead, v in group:
                tail = dict(v)
                reduced = {lead: tail.pop(lead)}
                reduced.update(_reduce_full(F, ok, tail, minimal))
                basis.append((lead, reduced))
        basis.sort(key=lambda lv: self._key(lv[0]))
        return basis

    # -- queries -------------------------------------------------------------

    def _require_tracked(self, what):
        if not self.tracked:
            raise InvariantError(
                f"{what} asked of a Groebner basis that tracks no generator "
                f"(SubmoduleGB over {self.npos} positions, {self.ngens} "
                f"generators, {len(self.pads)} pad polynomials, tracked=0)")

    def normal_form(self, v: Vec, with_cert: bool = False):
        """Canonical representative of v modulo the span (main block only).

        With certificates: returns (nf, cert) where cert is a Vec over
        positions 0..tracked-1 such that v = nf + sum cert_j * gens_j modulo
        the untracked generators and the padded ideal part.
        """
        red = _reduce_full(self.field, self.ring.order_key, v, self._by_pos)
        nf = {k: c for k, c in red.items() if k[0] < self.npos}
        if not with_cert:
            return nf
        self._require_tracked("a membership certificate")
        neg = self.field.neg
        cert = {(p - self.npos, m): neg(c) for (p, m), c in red.items()
                if p >= self.npos}
        return nf, cert

    def contains(self, v: Vec) -> bool:
        return vec_is_zero(self.normal_form(v))

    def syzygies(self):
        """Reduced basis of the syzygies of `gens` and the pads, projected
        onto the tracked coordinates, in basis order."""
        self._require_tracked("syzygies")
        if self._syz is None:
            self._syz = [{(q - self.npos, mm): c for (q, mm), c in v.items()}
                         for (p, _m), v in self.basis if p >= self.npos]
        return self._syz

    # -- staircase bases and dimensions -----------------------------------------

    def _staircase(self, first, count, degree=None, pos_degrees=None):
        """(i, monomial) pairs of the standard monomials at positions
        first + i, i < count: all of them, or those of internal degree
        `degree` when first + i has degree pos_degrees[i]; None if there
        are infinitely many."""
        out = []
        for i in range(count):
            leads = [lead[1] for lead, _v in self._by_pos.get(first + i, ())]
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

    def quotient_graded_dim(self, degree: int, pos_degrees):
        """dim_k of the graded piece of S^npos / span in the given degree.

        pos_degrees[i] is the internal degree of basis vector e_i; monomial
        degrees use the ring's grading weights.  Works for infinite staircases.
        """
        return len(self._staircase(0, self.npos, degree, pos_degrees))

    def tracked_staircase(self, degree=None, pos_degrees=None):
        """_staircase of the tag block: the tag-led elements are the reduced
        basis of syzygies(), so the pairs (j, m) give the k-basis x^m gens_j
        of the tracked span modulo the untracked generators and the pads."""
        self._require_tracked("a staircase of the tracked generators")
        return self._staircase(self.npos, self.tracked, degree, pos_degrees)


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


def poly_normal_form(p: Polynomial, gb_polys) -> Polynomial:
    """Normal form of p against a list of polynomials (assumed a GB)."""
    if p.is_zero():
        return p
    ring = p.ring
    index = [((0, g.lead_monomial()), vec_from_polys([g]))
             for g in gb_polys if not g.is_zero()]
    if not index:
        return p
    nf = _reduce_full(ring.field, ring.order_key, vec_from_polys([p]), {0: index})
    return Polynomial(ring, {m: c for (_pos, m), c in nf.items()})
