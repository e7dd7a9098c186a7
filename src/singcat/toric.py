"""Complete rational fans, torus-invariant divisors, and exact sheaf
cohomology of Weil divisor classes, computed on integers only.

The graded piece H^p(O(D))_m only sees which rays satisfy <m, u> >= -a, so
characters are grouped by that sign vector.  By Cox-Little-Schenck, *Toric
Varieties*, Thm 9.1.3, the piece is the reduced cohomology H~^{p-1} of the
complex on the remaining "negative" rays whose faces are the subsets lying
in a common cone.  The profiles depend only on the fan: its first query
computes all of them and lists the sign patterns whose profile is nonzero.
Each sign chamber is an integral polyhedron whose rows depend only on the
fan and the pattern; only their right-hand sides come from the divisor.  So
the same first query runs one Fourier-Motzkin elimination per listed
pattern with symbolic right-hand sides: every projected row remembers the
positive integer multipliers of the input rows it combines, folded with
the pattern's signs so that it reads straight off the divisor's
coefficients a as w'.a + k.  A query only evaluates those pairs: the fully
projected rows decide feasibility, and the projections onto the leading
coordinates decide boundedness and give each coordinate's integer range
for counting; the last coordinate is counted in closed form.  This treats
arbitrary (also non-simplicial) cones and arbitrary Weil divisors
uniformly.  Completeness is decided exactly: the cones must pairwise meet
in a common face, be full-dimensional, and pair up across every facet.

No rational number is formed.  One fraction-free (Bareiss) elimination,
`_echelon`, gives the coboundary ranks of the profiles, the rank test of
completeness and the facet normals; the Cartier test and the intersection
numbers read integral solvability off a Smith form of each cone's ray
matrix, computed once per fan.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from math import gcd
from operator import add, mul

from .errors import InvariantError


class ToricError(ValueError):
    pass


def _dot(m, u):
    return sum(map(mul, m, u))


def _echelon(rows):
    """Fraction-free reduced echelon form of an integer matrix: (rows,
    pivot columns).

    Bareiss's elimination (Math. Comp. 22, 1968), clearing each pivot
    column above the pivot as well as below: every row is combined with
    the pivot row and divided by the previous pivot, a division that
    leaves no remainder, since every entry is a minor of the input.  So
    the entries stay integers, each pivot row holds the last pivot d in
    its pivot column and zeros in the others, and a non-pivot column f
    gives the kernel vector with d at f and minus row i's entry at f at
    the i-th pivot column.
    """
    rows = [list(r) for r in rows]
    pivots = []
    prev = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        top = rows[r]
        d = top[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(d * x - f * y) // prev for x, y in zip(row, top)]
        prev = d
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows, pivots


# ---------------------------------------------------------------------------
# exact Fourier-Motzkin


def fm_eliminate(constraints, keep, projections=None):
    """Project {x : c.x >= r for all (c, r)} onto coordinates < keep.

    Constraints are (coefficient tuple, rhs).  Variables are eliminated from
    the back; each new row is a positive integer combination of two rows,
    so integer rows stay integer, and a row repeated exactly is kept once.
    A right-hand side is an integer or a symbolic one: a tuple w of
    integers standing for sum_i w_i r_i, where r is chosen later.  Since
    the rows met and the multipliers used depend only on the coefficients,
    the symbolic elimination, evaluated at r, is the elimination of the
    rows with right-hand sides r; input row i with w the i-th unit vector
    yields rows whose w holds the multiplier of each input row.  Returns
    the projected (coefficient list, rhs) rows, each rhs of the input's
    kind.  If `projections` is a list, the rows in force before each
    elimination are appended to it in the same form: the projections onto
    coordinates < nvars, .., < keep + 1, in that order.
    """
    nvars = len(constraints[0][0]) if constraints else keep
    symbolic = bool(constraints) and isinstance(constraints[0][1], tuple)
    # a row is one tuple: its coefficients, then its right-hand side as
    # multipliers; eliminated coefficients stay in place as zeros
    rows = [tuple(c) + (r if symbolic else (r,)) for c, r in constraints]

    def split(rows, n):
        return [(list(v[:n]), v[nvars:] if symbolic else v[nvars])
                for v in rows]

    for k in range(nvars - 1, keep - 1, -1):
        if projections is not None:
            projections.append(split(rows, k + 1))
        pos = [v for v in rows if v[k] > 0]
        neg = [v for v in rows if v[k] < 0]
        new = [v for v in rows if v[k] == 0]
        for vp in pos:
            for vn in neg:
                lam_p = -vn[k]
                lam_n = vp[k]
                new.append(tuple(lam_p * a + lam_n * b
                                 for a, b in zip(vp, vn)))
        rows = list(dict.fromkeys(new))
    return split(rows, keep)


def fm_feasible(constraints, nvars, projections=None) -> bool:
    """Whether {x : c.x >= r} is nonempty; fills `projections` as
    `fm_eliminate` does, down to the projection onto x_0."""
    out = fm_eliminate(constraints, 0, projections)
    return all(r <= 0 for _c, r in out)


# ---------------------------------------------------------------------------
# fans


def _integers(values, what):
    """values as a list of ints; anything else is refused, never truncated."""
    if not isinstance(values, (list, tuple)) or any(type(x) is not int
                                                    for x in values):
        raise ToricError(f"{what} {values!r} is not a list of integers")
    return list(values)


class Fan:
    def __init__(self, rank: int, rays, cones, name: str = "fan"):
        self.rank = rank
        self.rays = [tuple(_integers(u, "ray")) for u in rays]
        self.max_cones = [tuple(sorted(_integers(c, "cone"))) for c in cones]
        for c in self.max_cones:
            if len(set(c)) < len(c) or not all(0 <= i < len(self.rays) for i in c):
                raise ToricError(f"cone {c} does not name distinct rays among "
                                 f"0..{len(self.rays) - 1}")
        self.name = name
        for u in self.rays:
            if len(u) != rank:
                raise ToricError("ray arity mismatch")
            g = gcd(*u)
            if g == 0:
                raise ToricError("zero ray")
            if g != 1:
                raise ToricError(f"ray {u} is not primitive")
        if len(set(self.rays)) != len(self.rays):
            raise ToricError("duplicate rays")
        self._facets = {}
        for c in self.max_cones:
            self._facets[c] = self._cone_facets(c)
            if not self._strongly_convex(c):
                raise ToricError(f"cone {c} is not strongly convex")
        self._profile_memo = {}
        self._nonzero_patterns = None
        self._complete = None
        self._smith = None

    # -- cone geometry ---------------------------------------------------------

    def _cone_facets(self, cone):
        """Ray sets of the facets of a full- or lower-dimensional cone."""
        pts = [self.rays[i] for i in cone]
        facets = []
        seen = set()
        for sub in combinations(range(len(pts)), self.rank - 1):
            rows, pivots = _echelon([pts[i] for i in sub])
            if len(pivots) != self.rank - 1:
                continue
            # the kernel is a line, spanned by the vector of the free column
            (f,) = set(range(self.rank)).difference(pivots)
            n = [0] * self.rank
            n[f] = rows[-1][pivots[-1]] if pivots else 1
            for row, pc in zip(rows, pivots):
                n[pc] = -row[f]
            g = gcd(*n)
            n = tuple(v // g for v in n)
            for cand in (n, tuple(-v for v in n)):
                if cand in seen:
                    continue
                vals = [_dot(cand, p) for p in pts]
                if all(v >= 0 for v in vals):
                    seen.add(cand)
                    facets.append(tuple(i for i, v in zip(cone, vals) if v == 0))
        return facets

    def _strongly_convex(self, cone) -> bool:
        # a strictly positive functional exists on the rays
        cons = [(list(self.rays[i]), 1) for i in cone]
        return fm_feasible(cons, self.rank)

    def walls(self):
        """Codimension-one faces shared by exactly two maximal cones,
        as (rayset tuple, cone index pair)."""
        found = {}
        for idx, c in enumerate(self.max_cones):
            for rayset in self._facets[c]:
                if len(rayset) >= self.rank - 1:
                    found.setdefault(rayset, set()).add(idx)
        return {rs: tuple(sorted(v)) for rs, v in found.items() if len(v) == 2}

    def _check_fan_axiom(self):
        """Every two maximal cones meet in a common face: some m vanishes on
        their shared rays and is positive on the first cone's other rays and
        negative on the second's."""
        for c1, c2 in combinations(self.max_cones, 2):
            cons = []
            for i in set(c1) | set(c2):
                u = list(self.rays[i])
                neg = [-x for x in u]
                if i not in c2:
                    cons.append((u, 1))
                elif i not in c1:
                    cons.append((neg, 1))
                else:
                    cons += [(u, 0), (neg, 0)]
            if not fm_feasible(cons, self.rank):
                raise ToricError(f"cones {c1} and {c2} do not meet in a "
                                 "common face: not a fan")

    def is_complete(self) -> bool:
        """Exact: raises ToricError if the cones do not form a fan; True iff
        there is a maximal cone, every one is full-dimensional and each of
        its facets is a wall of exactly two maximal cones (then the support
        is closed and has no boundary, so it is the whole space)."""
        if self._complete is None:
            self._check_fan_axiom()
            walls = self.walls()
            self._complete = bool(self.max_cones) and all(
                len(_echelon([self.rays[i] for i in c])[1]) == self.rank
                and all(f in walls for f in self._facets[c])
                for c in self.max_cones)
        return self._complete

    def __repr__(self):
        return (f"Fan({self.name}: rank {self.rank}, {len(self.rays)} rays, "
                f"{len(self.max_cones)} maximal cones)")


class TDivisor:
    """Torus-invariant Weil divisor: one integer coefficient per ray, checked once."""

    def __init__(self, fan: Fan, coeffs, _checked=False):
        self.fan = fan
        self.coeffs = coeffs if _checked else _integers(coeffs, "divisor")
        if len(self.coeffs) != len(fan.rays):
            raise ToricError("coefficient vector length must match ray count")

    def __add__(self, other):
        return TDivisor(self.fan, [a + b for a, b in zip(self.coeffs, self._check(other))], True)

    def __sub__(self, other):
        return TDivisor(self.fan, [a - b for a, b in zip(self.coeffs, self._check(other))], True)

    def scale(self, n: int):
        (n,) = _integers([n], "scale factor")
        return TDivisor(self.fan, [n * a for a in self.coeffs], True)

    def _check(self, other):
        if other.fan is not self.fan:
            raise ToricError("divisors on different fans")
        return other.coeffs

    def __repr__(self):
        return f"TDivisor({self.coeffs})"


# ---------------------------------------------------------------------------
# cohomology


def _cech_profile(fan: Fan, plus_rays: frozenset):
    """(h^0..h^rank) of O(D) in a degree m whose sign pattern is plus_rays,
    the rays with <m, u> >= -a.

    Cox-Little-Schenck, *Toric Varieties*, Thm 9.1.3: H^p(O(D))_m is the
    reduced cohomology H~^{p-1} of the union, over the cones, of the convex
    hulls of their negative rays.  That union has the homotopy type of the
    simplicial complex whose faces are the empty face and every set of
    negative rays lying in a common cone, which has at most one vertex per
    ray.
    """
    memo = fan._profile_memo
    if plus_rays in memo:
        return memo[plus_rays]
    faces = set()
    for c in fan.max_cones:
        neg = [i for i in c if i not in plus_rays]
        for k in range(len(neg) + 1):
            faces.update(combinations(neg, k))
    top = max(map(len, faces))
    levels = [sorted(f for f in faces if len(f) == k) for k in range(top + 1)]
    # ranks[k]: coboundary from the faces with k rays to those with k + 1
    ranks = []
    for k in range(top):
        col = {f: j for j, f in enumerate(levels[k])}
        rows = []
        for g in levels[k + 1]:
            row = [0] * len(col)
            for j in range(k + 1):
                row[col[g[:j] + g[j + 1:]]] = (-1) ** j
            rows.append(row)
        ranks.append(len(_echelon(rows)[1]))
    ranks.append(0)
    out = [len(levels[k]) - ranks[k] - (ranks[k - 1] if k else 0)
           for k in range(top + 1)]
    out += [0] * (fan.rank + 1 - len(out))
    if any(h != 0 for h in out[fan.rank + 1:]):
        raise InvariantError("cohomology above the rank: inconsistent fan")
    profile = tuple(out[: fan.rank + 1])
    memo[plus_rays] = profile
    return profile


def _nonzero_patterns(fan: Fan):
    """The sign patterns of `fan` with a nonzero profile, as (plus flags,
    profile, feasibility rows, levels).  A ray in the pattern keeps its
    sign, the others are negated, and the chamber's rows are eliminated
    once with symbolic right-hand sides (`fm_eliminate`).  A symbolic
    right-hand side w stands for w.r, with r_rho = -a_rho for a ray in the
    pattern and a_rho + 1 otherwise, so it is folded with the pattern's
    signs into a pair (w', k) that stands for w'.a + k: w'_rho = -w_rho
    for a ray in the pattern and w_rho otherwise, and k sums w over the
    rays outside it.  The feasibility rows are the folded right-hand sides
    of the fully projected rows, and levels[k] holds the rows
    (c[:k], c[k], w', k) of the projection onto x_0..x_k that bound x_k
    from below and from above.  All of it depends only on the fan, so the
    first query lists the patterns, computing the profiles of all 2^s of
    them, and later queries reuse the list."""
    if fan._nonzero_patterns is None:
        s = len(fan.rays)
        unit = [tuple(int(i == j) for j in range(s)) for i in range(s)]
        found = []
        for mask in range(1 << s):
            plus = [bool(mask >> i & 1) for i in range(s)]
            profile = _cech_profile(
                fan, frozenset(i for i in range(s) if plus[i]))
            if any(profile):
                rows = [(u if p else tuple(-x for x in u), w)
                        for u, p, w in zip(fan.rays, plus, unit)]

                def fold(w):
                    return (tuple(-x if p else x for x, p in zip(w, plus)),
                            sum(x for x, p in zip(w, plus) if not p))

                projections = []
                feasibility = [fold(w) for _c, w in
                               fm_eliminate(rows, 0, projections)]
                levels = [([(c[:k], c[k], *fold(w)) for c, w in level
                            if c[k] > 0],
                           [(c[:k], c[k], *fold(w)) for c, w in level
                            if c[k] < 0])
                          for k, level in enumerate(reversed(projections))]
                found.append((plus, profile, feasibility, levels))
        fan._nonzero_patterns = found
    return fan._nonzero_patterns


def _coordinate_range(lower, upper, head):
    """The integers x_k with c.head + a x_k >= r for every row (c, a, r) of
    lower (a > 0) and of upper (a < 0), as (lo, hi); empty if lo > hi."""
    lo = hi = None
    for c, a, r in lower:
        x = -((_dot(c, head) - r) // a)
        if lo is None or x > lo:
            lo = x
    for c, a, r in upper:
        x = (r - _dot(c, head)) // a
        if hi is None or x < hi:
            hi = x
    return lo, hi


def _count_points(bounds, head=()):
    """Lattice points of a bounded polyhedron with x_0..x_{k-1} = head.

    bounds[k] holds the rows c.x >= r of its projection onto x_0..x_k
    that bound x_k from below and from above, as (c[:k], c[k], r); the
    others belong to the projection onto x_0..x_{k-1}, which head
    satisfies.  Each coordinate but the last two is fixed in turn.  The
    last two are counted in one flat loop: the range of the last but one
    comes from `_coordinate_range`, each row of the last is reduced by the
    head once, to b x + a y >= s, and for each x the last coordinate y is
    counted in closed form: it runs from the largest ceiling over the
    lower rows to the least floor over the upper rows.
    """
    k = len(head)
    lo, hi = _coordinate_range(*bounds[k], head)
    last = len(bounds) - 1
    if k == last:
        return max(hi - lo + 1, 0)
    total = 0
    if k < last - 1:
        for x in range(lo, hi + 1):
            total += _count_points(bounds, head + (x,))
        return total
    lower, upper = bounds[last]
    lower = [(c[k], a, r - _dot(c, head)) for c, a, r in lower]
    upper = [(c[k], a, r - _dot(c, head)) for c, a, r in upper]
    for x in range(lo, hi + 1):
        # explicit loops: min and max over generators cost more here
        top = bottom = None
        for b, a, s in upper:
            y = (s - b * x) // a
            if top is None or y < top:
                top = y
        for b, a, s in lower:
            y = -((b * x - s) // a)
            if bottom is None or y > bottom:
                bottom = y
        if top >= bottom:
            total += top - bottom + 1
    return total


def _infeasible(feasibility, a):
    """Whether a fully projected row 0 >= w'.a + k fails: the chamber of the
    divisor with coefficients a is empty."""
    for w, k in feasibility:
        if sum(map(mul, w, a)) + k > 0:
            return True
    return False


def cohomology(fan: Fan, D: TDivisor):
    """(h^0, .., h^rank) of O(D) for a complete fan, exact.

    Characters are partitioned by the sign vector of <m, u_rho> + a_rho;
    only the patterns with a nonzero profile are visited, and each feasible
    chamber among them must be bounded.  A chamber's rows are
    +-u_rho . m >= r_rho, with r_rho = -a_rho for a ray in the pattern and
    a_rho + 1 otherwise, and its Fourier-Motzkin projections P_1, ..,
    P_rank onto the leading coordinates are kept per fan with right-hand
    sides folded into pairs (w', k) (`_nonzero_patterns`); a query
    evaluates each as w'.a + k, straight from the coefficients a of D.
    The chamber is feasible iff every fully projected row 0 >= w'.a + k
    holds, bounded iff each P_(k+1) bounds x_k from both sides, and its
    lattice points are counted by `_count_points`: the integer range of
    x_k given x_0..x_(k-1) comes from P_(k+1) by floor and ceiling
    division, and the last coordinate is counted in closed form.
    """
    if D.fan is not fan:
        raise ToricError("divisor lives on a different fan")
    if not fan.is_complete():
        raise ToricError("cohomology needs a complete fan")
    a = D.coeffs
    total = [0] * (fan.rank + 1)
    for _plus, profile, feasibility, levels in _nonzero_patterns(fan):
        if _infeasible(feasibility, a):
            continue
        bounds = []
        for lower, upper in levels:
            if not (lower and upper):
                raise ToricError("unbounded chamber with nonzero cohomology: "
                                 "fan cannot be complete")
            bounds.append(([(c, b, sum(map(mul, w, a)) + k)
                            for c, b, w, k in lower],
                           [(c, b, sum(map(mul, w, a)) + k)
                            for c, b, w, k in upper]))
        count = _count_points(bounds)
        for p in range(fan.rank + 1):
            total[p] += count * profile[p]
    return tuple(total)


# ---------------------------------------------------------------------------
# intersection numbers, class group, Cartier test


def _wall_cones(fan: Fan, wall):
    """(the wall's rays sorted, its two maximal cones); ToricError if the
    rays do not form a wall of the fan."""
    wall = tuple(sorted(wall))
    walls = fan.walls()
    if wall not in walls:
        raise ToricError(f"{wall} is not a wall of the fan")
    return wall, [fan.max_cones[i] for i in walls[wall]]


def intersect_curve(D: TDivisor, wall, fan: Fan | None = None) -> int:
    """(D . V(wall)) for a wall between two unimodular maximal cones.

    With u_a, u_b the rays off the wall, u_a + u_b = sum alpha_rho u_rho
    over the wall, and the number is a_a + a_b - sum alpha_rho a_rho.  A
    cone is unimodular iff its Smith form is the identity, U A V = I for
    its ray matrix A (one row per ray); then the coordinates of u_a + u_b
    over the rays of the first cone are U^T V^T (u_a + u_b), integers,
    with 0 at u_a.
    """
    fan = fan or D.fan
    wall, (ca, cb) = _wall_cones(fan, wall)
    smith = _cone_smith(fan)
    for cone in (ca, cb):
        if len(cone) != fan.rank:
            raise ToricError("wall adjacent to a non-simplicial cone")
        if any(d != 1 for d in smith[cone][1]):
            raise ToricError("fan is not smooth along the wall")
    extra_a = [i for i in ca if i not in wall][0]
    extra_b = [i for i in cb if i not in wall][0]
    rhs = [x + y for x, y in zip(fan.rays[extra_a], fan.rays[extra_b])]
    U, _diag, V = smith[ca]
    z = [_dot(row, rhs) for row in zip(*V)]
    alpha = dict(zip(ca, (_dot(col, z) for col in zip(*U))))
    if alpha[extra_a] != 0:
        raise ToricError("wall relation is not solvable")
    return D.coeffs[extra_a] + D.coeffs[extra_b] - sum(
        alpha[i] * D.coeffs[i] for i in wall)


def contract_wall(fan: Fan, wall) -> Fan:
    """The fan of the small contraction of the (-1,-1) curve V(wall): the
    two maximal cones on the wall merge into one, and every ray is kept.

    Refused unless the wall has two rays and the two rays off it sum to the
    two rays on it, u_a + u_b = u_c + u_d, the relation of an ordinary
    double point."""
    wall, (ca, cb) = _wall_cones(fan, wall)
    off = sorted(set(ca + cb).difference(wall))
    total = lambda idx: [sum(x) for x in zip(*(fan.rays[i] for i in idx))]
    if len(wall) != 2 or len(off) != 2 or total(off) != total(wall):
        raise ToricError(f"{wall} is not a (-1,-1) wall: its two rays must "
                         "sum to the two rays off it")
    cones = [c for c in fan.max_cones if c not in (ca, cb)]
    return Fan(fan.rank, fan.rays, cones + [wall + tuple(off)],
               f"{fan.name}/{wall}")


def smith_normal_form(mat):
    """(U, D, V) with U*mat*V = D diagonal over the integers."""
    A = [list(map(int, row)) for row in mat]
    nr = len(A)
    nc = len(A[0]) if A else 0
    U = [[int(i == j) for j in range(nr)] for i in range(nr)]
    V = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_op(i, j, q):  # row_i -= q row_j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q col_j
        for r in range(nr):
            A[r][i] -= q * A[r][j]
        for r in range(nc):
            V[r][i] -= q * V[r][j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(nr):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(nc):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    t = 0
    while t < min(nr, nc):
        piv = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < best):
                    best = abs(A[i][j])
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        done = False
        while not done:
            done = True
            for i in range(t + 1, nr):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    row_op(i, t, q)
                    if A[i][t] != 0:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, nc):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    col_op(j, t, q)
                    if A[t][j] != 0:
                        swap_cols(t, j)
                        done = False
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return U, A, V


class ClassGroup:
    """Cl(X) = Z^rays / image(character lattice), via Smith normal form."""

    def __init__(self, fan: Fan):
        self.fan = fan
        # columns of B: images of the character basis vectors
        B = [[fan.rays[r][i] for i in range(fan.rank)] for r in range(len(fan.rays))]
        self.U, D, _V = smith_normal_form(B)
        self.invariants = [D[i][i] for i in range(min(len(D), fan.rank)) if D[i][i] != 0]
        self.free_rank = len(fan.rays) - len(self.invariants)
        self.torsion = [d for d in self.invariants if d != 1]

    def class_of(self, D: TDivisor):
        """Canonical coordinates of [D]: torsion residues then free part."""
        c = [sum(self.U[i][r] * D.coeffs[r] for r in range(len(self.fan.rays)))
             for i in range(len(self.fan.rays))]
        tor = []
        for i, d in enumerate(self.invariants):
            if d != 1:
                tor.append(c[i] % d)
        free = c[len(self.invariants):]
        return (tuple(tor), tuple(free))

    def __repr__(self):
        parts = [f"Z/{d}" for d in self.torsion] + ["Z"] * self.free_rank
        return "Cl = " + (" + ".join(parts) if parts else "0")


def class_group(fan: Fan) -> ClassGroup:
    return ClassGroup(fan)


def _cone_smith(fan: Fan):
    """Each maximal cone's (U, diagonal, V) with U A V diagonal, A the
    cone's ray matrix (one row per ray) and the diagonal one entry per
    ray; computed once per fan."""
    if fan._smith is None:
        fan._smith = {}
        for cone in fan.max_cones:
            U, S, V = smith_normal_form([fan.rays[i] for i in cone])
            diag = [S[i][i] if i < fan.rank else 0 for i in range(len(cone))]
            fan._smith[cone] = (U, diag, V)
    return fan._smith


def weil_is_cartier(fan: Fan, D: TDivisor) -> bool:
    """True iff D is integrally linear on every maximal cone: A m = -a has
    an integral solution m for each cone's ray matrix A.  With U A V = S
    diagonal and V unimodular, that holds iff S y = U(-a) does, that is,
    iff each diagonal entry divides its coordinate of U(-a) and the
    coordinates past the nonzero entries vanish."""
    for cone, (U, diag, _V) in _cone_smith(fan).items():
        b = [-D.coeffs[i] for i in cone]
        for row, d in zip(U, diag):
            y = _dot(row, b)
            if (y % d if d else y) != 0:
                return False
    return True


# ---------------------------------------------------------------------------
# the fan library


_LIBRARY_CACHE: dict = {}


def fan_library(name: str):
    """Named fans plus their named divisors and curves.

    Returns (fan, divisors, walls): divisors maps names to TDivisors, walls
    maps names to ray-index tuples.  Instances are cached so the per-fan
    cohomology memo persists across calls.
    """
    if name in _LIBRARY_CACHE:
        return _LIBRARY_CACHE[name]
    out = _fan_library_build(name)
    _LIBRARY_CACHE[name] = out
    return out


def _fan_library_build(name: str):
    if name == "P2":
        fan = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)], "P2")
        H = TDivisor(fan, [1, 0, 0])
        return fan, {"H": H}, {}
    if name == "P1xP1":
        fan = Fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)],
                  [(0, 2), (2, 1), (1, 3), (3, 0)], "P1xP1")
        return fan, {"H1": TDivisor(fan, [1, 0, 0, 0]),
                     "H2": TDivisor(fan, [0, 0, 1, 0])}, {}
    if name == "P3":
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
        cones = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        fan = Fan(3, rays, cones, "P3")
        return fan, {"H": TDivisor(fan, [1, 0, 0, 0])}, \
            {"line": (1, 2)}
    if name == "blowupP3_1pt":
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)]
        cones = [(0, 1, 4), (0, 2, 4), (1, 2, 4),
                 (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        fan = Fan(3, rays, cones, "blowupP3_1pt")
        H = TDivisor(fan, [1, 0, 0, 0, 1])
        E1 = TDivisor(fan, [0, 0, 0, 0, 1])
        return fan, {"H": H, "E1": E1}, {}
    if name == "blowupP3_2pts":
        # rays: e1, e2, e3, u0 = -e1-e2-e3, v1 = e1+e2+e3, v2 = -e1
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1),
                (1, 1, 1), (-1, 0, 0)]
        cones = [
            (0, 1, 4), (0, 2, 4), (1, 2, 4),      # star of v1 in <e1,e2,e3>
            (1, 3, 5), (2, 3, 5), (1, 2, 5),      # star of v2 in <u0,e2,e3>
            (0, 1, 3), (0, 2, 3),                  # untouched charts
        ]
        fan = Fan(3, rays, cones, "blowupP3_2pts")
        E1 = TDivisor(fan, [0, 0, 0, 0, 1, 0])
        E2 = TDivisor(fan, [0, 0, 0, 0, 0, 1])
        # pullback hyperplane: strict transform of the u0-plane plus E2
        H = TDivisor(fan, [0, 0, 0, 1, 0, 1])
        return fan, {"H": H, "E1": E1, "E2": E2}, {"l": (1, 2)}
    if name == "coneP1xP1_projective":
        # the small contraction of C keeps every ray, so O(a, b) carries
        # over by its coefficients; [D_a] = [D_c], [D_b] = [D_d], and the
        # hyperplane [D_infinity] = O(1,1)
        res, div, walls = fan_library("coneP1xP1_smallres")
        fan = contract_wall(res, walls["C"])
        fan.name = name
        return fan, {k: TDivisor(fan, D.coeffs) for k, D in div.items()}, {}
    if name == "coneP1xP1_smallres":
        rays = [(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1), (0, 0, -1)]
        cones = [(0, 1, 2), (0, 2, 3), (0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)]
        fan = Fan(3, rays, cones, "coneP1xP1_smallres")
        return fan, {"O(1,0)": TDivisor(fan, [1, 0, 0, 0, 0]),
                     "O(0,1)": TDivisor(fan, [0, 1, 0, 0, 0])}, {"C": (0, 2)}
    raise ToricError(f"unknown fan name {name!r}")


def divisor_from_combo(divisors: dict, combo: dict) -> TDivisor:
    """Integer combination of named divisors, e.g. {'H': -4, 'E1': 3}."""
    if not (isinstance(combo, dict) and combo
            and combo.keys() <= divisors.keys()):
        raise ToricError(f"combo {combo!r} is not a nonempty combination of "
                         f"the fan's divisors {', '.join(divisors)}")
    return reduce(add, (divisors[n].scale(m) for n, m in combo.items()))


def canonical_divisor(fan: Fan) -> TDivisor:
    return TDivisor(fan, [-1] * len(fan.rays))
