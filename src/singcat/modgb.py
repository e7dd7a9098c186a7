"""Groebner machinery for submodules of free modules S^n over a polynomial ring.

A module element is a dict (position, monomial) -> nonzero coefficient.
Term comparison is position-over-term: lower position index wins, ties
broken by the ring's monomial order.  Each generator list is processed as a
graph module (v_j, e_j) in S^(n+r), so a single reduced basis yields normal
forms, membership certificates, and a generating set of syzygies at once.

Computations over a quotient ring S/I are handled by padding the generator
list with f*e_i for the ideal generators f; pad coefficients are dropped
from certificates and syzygies.
"""

from __future__ import annotations

from .poly import PolyRing, Polynomial, mon_mul, mon_div, mon_divides, mon_lcm

Vec = dict  # (pos, monomial) -> coefficient


def vec_is_zero(v: Vec) -> bool:
    return not v


def vec_add_into(F, out: Vec, v: Vec, c, mon, shift=0):
    """out += c * x^mon * v, positions shifted by `shift`."""
    for (p, m), a in v.items():
        key = (p + shift, mon_mul(m, mon))
        b = F.mul(c, a)
        if key in out:
            s = F.add(out[key], b)
            if F.is_zero(s):
                del out[key]
            else:
                out[key] = s
        else:
            out[key] = b


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


class SubmoduleGB:
    """Reduced graph-module Groebner basis for a generator list in S^npos."""

    def __init__(self, ring: PolyRing, npos: int, gens, pad_polys=()):
        self.ring = ring
        self.field = ring.field
        self.npos = npos
        self.gens = [dict(g) for g in gens]
        self.pads = list(pad_polys)
        self._key = lambda t, ok=ring.order_key: (-t[0], ok(t[1]))
        graph = []
        idx = 0
        for g in self.gens:
            w = dict(g)
            w[(npos + idx, (0,) * ring.nvars)] = self.field.one()
            graph.append(w)
            idx += 1
        for f in self.pads:
            for p in range(npos):
                w = {(p, m): c for m, c in f.terms.items()}
                w[(npos + idx, (0,) * ring.nvars)] = self.field.one()
                graph.append(w)
                idx += 1
        self.ntotal = npos + idx
        self.ngens = len(self.gens)
        self.basis = self._buchberger(graph)
        self._by_pos = {}
        for lead, vec in self.basis:
            self._by_pos.setdefault(lead[0], []).append((lead, vec))
        self._main_leads = None
        self._syz = None

    # -- basis construction -------------------------------------------------

    def _lead(self, v: Vec):
        return max(v, key=self._key)

    def _spair(self, lu, u, lv, v):
        F = self.field
        pu, mu = lu
        pv, mv = lv
        m = mon_lcm(mu, mv)
        out: Vec = {}
        vec_add_into(F, out, u, F.inv(u[lu]), mon_div(m, mu))
        vec_add_into(F, out, v, F.neg(F.inv(v[lv])), mon_div(m, mv))
        return out

    def _reduce_full(self, v: Vec, basis_by_pos) -> Vec:
        F = self.field
        work = dict(v)
        result: Vec = {}
        while work:
            lead = max(work, key=self._key)
            p, m = lead
            hit = None
            for (lp, lm), g in basis_by_pos.get(p, ()):
                if mon_divides(lm, m):
                    hit = ((lp, lm), g)
                    break
            if hit is None:
                result[lead] = work.pop(lead)
                continue
            (lp, lm), g = hit
            c = F.neg(F.div(work[lead], g[(lp, lm)]))
            vec_add_into(F, work, g, c, mon_div(m, lm))
        return result

    def _buchberger(self, gens):
        F = self.field
        basis = []
        by_pos: dict = {}

        def push(v: Vec):
            lead = self._lead(v)
            v = vec_scale(F, v, F.inv(v[lead]))
            basis.append((lead, v))
            by_pos.setdefault(lead[0], []).append((lead, v))
            return lead

        seeds = [g for g in gens if g]
        leads = []
        for g in seeds:
            g = self._reduce_full(g, by_pos)
            if g:
                leads.append(push(g))
        import heapq

        def pair_entry(i, j):
            li, lj = basis[i][0], basis[j][0]
            return (sum(mon_lcm(li[1], lj[1])), i, j)

        pairs = []
        for i in range(len(basis)):
            for j in range(i):
                if basis[i][0][0] == basis[j][0][0]:
                    pairs.append(pair_entry(i, j))
        heapq.heapify(pairs)
        while pairs:
            _deg, i, j = heapq.heappop(pairs)
            li, u = basis[i]
            lj, v = basis[j]
            s = self._spair(li, u, lj, v)
            s = self._reduce_full(s, by_pos)
            if s:
                lead = push(s)
                k = len(basis) - 1
                for t in range(k):
                    if basis[t][0][0] == lead[0]:
                        heapq.heappush(pairs, pair_entry(k, t))
        # autoreduce to the unique reduced basis
        changed = True
        while changed:
            changed = False
            for i in range(len(basis)):
                lead, v = basis[i]
                others: dict = {}
                for j, (l2, w) in enumerate(basis):
                    if j != i:
                        others.setdefault(l2[0], []).append((l2, w))
                r = self._reduce_full(v, others)
                if r != v:
                    changed = True
                    if r:
                        l = self._lead(r)
                        basis[i] = (l, vec_scale(F, r, F.inv(r[l])))
                    else:
                        basis.pop(i)
                    break
        basis.sort(key=lambda lv: self._key(lv[0]), reverse=True)
        return basis

    # -- queries -------------------------------------------------------------

    def normal_form(self, v: Vec, with_cert: bool = False):
        """Canonical representative of v modulo the span (main block only).

        With certificates: returns (nf, cert) where cert is a Vec over
        positions 0..ngens-1 such that v = nf + sum cert_j * gens_j modulo
        the padded ideal part.
        """
        w = {k: c for k, c in v.items()}
        red = self._reduce_full(w, self._by_pos)
        nf = {k: c for k, c in red.items() if k[0] < self.npos}
        if not with_cert:
            return nf
        F = self.field
        cert: Vec = {}
        for (p, m), c in red.items():
            if self.npos <= p < self.npos + self.ngens:
                cert[(p - self.npos, m)] = F.neg(c)
        return nf, cert

    def contains(self, v: Vec) -> bool:
        return vec_is_zero(self.normal_form(v))

    def main_lead_monomials(self):
        """Leading monomials of the span, grouped per main position."""
        if self._main_leads is None:
            per = [[] for _ in range(self.npos)]
            for (p, m), _v in self.basis:
                if p < self.npos:
                    per[p].append(m)
            # drop redundant multiples
            self._main_leads = []
            for mons in per:
                keep = []
                for m in mons:
                    if not any(mon_divides(o, m) for o in mons if o != m):
                        keep.append(m)
                self._main_leads.append(keep)
        return self._main_leads

    def syzygies(self):
        """Generators of the syzygy module of `gens` (pad coords dropped)."""
        if self._syz is None:
            out = []
            for (p, m), v in self.basis:
                if p >= self.npos:
                    s = {(q - self.npos, mm): c for (q, mm), c in v.items()
                         if self.npos <= q < self.npos + self.ngens}
                    if s:
                        out.append(s)
            self._syz = out
        return self._syz

    # -- staircase dimensions --------------------------------------------------

    def _position_finite(self, mons) -> bool:
        nv = self.ring.nvars
        for i in range(nv):
            if not any(all(e == 0 for j, e in enumerate(m) if j != i) and m[i] > 0
                       for m in mons):
                if nv == 0:
                    continue
                return False
        return True

    def _std_monomials_at(self, mons, bound=None):
        """Monomials not divisible by any of mons (requires finiteness)."""
        nv = self.ring.nvars
        if nv == 0:
            return [()] if mons == [] else []
        box = []
        for i in range(nv):
            pures = [m[i] for m in mons
                     if all(e == 0 for j, e in enumerate(m) if j != i) and m[i] > 0]
            box.append(min(pures))
        out = []

        def rec(prefix):
            i = len(prefix)
            if i == nv:
                m = tuple(prefix)
                if not any(mon_divides(g, m) for g in mons):
                    out.append(m)
                return
            for e in range(box[i]):
                rec(prefix + [e])

        rec([])
        return out

    def quotient_dim(self):
        """dim_k of S^npos / span, or None if infinite."""
        total = 0
        for mons in self.main_lead_monomials():
            if not mons:
                return None if self.ring.nvars > 0 else total + 1
            zero = (0,) * self.ring.nvars
            if zero in mons:
                continue
            if not self._position_finite(mons):
                return None
            total += len(self._std_monomials_at(mons))
        return total

    def quotient_std_monomials(self):
        """List of (position, monomial) spanning S^npos / span over k."""
        out = []
        for p, mons in enumerate(self.main_lead_monomials()):
            if not mons:
                raise ValueError(f"position {p} is free: infinite dimension")
            zero = (0,) * self.ring.nvars
            if zero in mons:
                continue
            if not self._position_finite(mons):
                raise ValueError(f"position {p}: infinite staircase")
            for m in self._std_monomials_at(mons):
                out.append((p, m))
        return out

    def quotient_graded_dim(self, degree: int, pos_degrees):
        """dim_k of the graded piece of S^npos / span in the given degree.

        pos_degrees[i] is the internal degree of basis vector e_i; monomial
        degrees use the ring's grading weights.  Works for infinite staircases.
        """
        count = 0
        for p, mons in enumerate(self.main_lead_monomials()):
            zero = (0,) * self.ring.nvars
            if zero in mons:
                continue
            want = degree - pos_degrees[p]
            if want < 0:
                continue
            for m in _monomials_of_weighted_degree(self.ring, want):
                if not any(mon_divides(g, m) for g in mons):
                    count += 1
        return count

    def quotient_graded_monomials(self, degree: int, pos_degrees):
        out = []
        for p, mons in enumerate(self.main_lead_monomials()):
            zero = (0,) * self.ring.nvars
            if zero in mons:
                continue
            want = degree - pos_degrees[p]
            if want < 0:
                continue
            for m in _monomials_of_weighted_degree(self.ring, want):
                if not any(mon_divides(g, m) for g in mons):
                    out.append((p, m))
        return out


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
    gb = SubmoduleGB(ring, 1, gens)
    out = []
    for (p, m), v in gb.basis:
        if p == 0:
            out.append(vec_to_polys(ring, {k: c for k, c in v.items() if k[0] == 0}, 1)[0])
    return out


def poly_normal_form(p: Polynomial, gb_polys) -> Polynomial:
    """Normal form of p against a list of polynomials (assumed a GB)."""
    ring = p.ring
    gb = [g for g in gb_polys if not g.is_zero()]
    if not gb:
        return p
    F = ring.field
    key = ring.order_key
    leads = [(g.lead_monomial(), g.lead_coeff(), g) for g in gb]
    work = dict(p.terms)
    result: dict = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        hit = None
        for lm, lc, g in leads:
            if mon_divides(lm, m):
                hit = (lm, lc, g)
                break
        if hit is None:
            result[m] = c
            continue
        lm, lc, g = hit
        factor = F.neg(F.div(c, lc))
        shift = mon_div(m, lm)
        work[m] = c
        for mm, cc in g.terms.items():
            kmon = mon_mul(mm, shift)
            add = F.mul(factor, cc)
            if kmon in work:
                s = F.add(work[kmon], add)
                if F.is_zero(s):
                    del work[kmon]
                else:
                    work[kmon] = s
            else:
                work[kmon] = add
    return Polynomial(ring, result)
