"""Complete rational fans, torus-invariant divisors, and exact sheaf
cohomology of Weil divisor classes.

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
positive integer multipliers of the input rows it combines.  A query then
only evaluates those multipliers at its right-hand sides: the fully
projected rows decide feasibility, and the projections onto the leading
coordinates decide boundedness and give each coordinate's integer range for
counting.  This treats arbitrary (also non-simplicial) cones and arbitrary
Weil divisors uniformly.  Completeness is decided exactly: the cones must
pairwise meet in a common face, be full-dimensional, and pair up across
every facet.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul

from .errors import InvariantError
from .fields import QQ
from .linalg import Matrix, kernel_basis, rank as mat_rank, solve


class ToricError(ValueError):
    pass


def _dot(m, u):
    return sum(map(mul, m, u))


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


class Fan:
    def __init__(self, rank: int, rays, cones, name: str = "fan"):
        self.rank = rank
        self.rays = [tuple(int(x) for x in u) for u in rays]
        self.max_cones = [tuple(sorted(c)) for c in cones]
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

    # -- cone geometry ---------------------------------------------------------

    def _cone_facets(self, cone):
        """Ray sets of the facets of a full- or lower-dimensional cone."""
        pts = [self.rays[i] for i in cone]
        facets = []
        seen = set()
        for sub in combinations(range(len(pts)), self.rank - 1):
            rows = [[Fraction(x) for x in pts[i]] for i in sub]
            ker = (kernel_basis(Matrix(QQ, rows)) if rows
                   else Matrix.identity(QQ, self.rank))
            if ker.ncols != 1:
                continue
            n = [ker.rows[i][0] for i in range(self.rank)]
            den = 1
            for v in n:
                den = den * v.denominator // gcd(den, v.denominator)
            n = [int(v * den) for v in n]
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
        every maximal cone is full-dimensional and each of its facets is a
        wall of exactly two maximal cones (then the support is closed and
        has no boundary, so it is the whole space)."""
        if self._complete is None:
            self._check_fan_axiom()
            walls = self.walls()
            self._complete = all(
                mat_rank(Matrix.from_int_rows(QQ, [self.rays[i] for i in c]))
                == self.rank and all(f in walls for f in self._facets[c])
                for c in self.max_cones)
        return self._complete

    def __repr__(self):
        return (f"Fan({self.name}: rank {self.rank}, {len(self.rays)} rays, "
                f"{len(self.max_cones)} maximal cones)")


class TDivisor:
    """Torus-invariant Weil divisor: one integer coefficient per ray."""

    def __init__(self, fan: Fan, coeffs):
        self.fan = fan
        self.coeffs = [int(c) for c in coeffs]
        if len(self.coeffs) != len(fan.rays):
            raise ToricError("coefficient vector length must match ray count")

    def __add__(self, other):
        self._check(other)
        return TDivisor(self.fan, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return TDivisor(self.fan, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return TDivisor(self.fan, [-a for a in self.coeffs])

    def scale(self, n: int):
        return TDivisor(self.fan, [n * a for a in self.coeffs])

    def _check(self, other):
        if other.fan is not self.fan:
            raise ToricError("divisors on different fans")

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
        ranks.append(mat_rank(Matrix.from_int_rows(QQ, rows)))
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
    once with symbolic right-hand sides (`fm_eliminate`): the feasibility
    rows are the multiplier tuples w of the fully projected rows, and
    levels[k] holds the rows (c[:k], c[k], w) of the projection onto
    x_0..x_k that bound x_k from below and from above.  All of it depends
    only on the fan, so the first query lists the patterns, computing the
    profiles of all 2^s of them, and later queries reuse the list."""
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
                projections = []
                feasibility = [w for _c, w in
                               fm_eliminate(rows, 0, projections)]
                levels = [([(c[:k], c[k], w) for c, w in level if c[k] > 0],
                           [(c[:k], c[k], w) for c, w in level if c[k] < 0])
                          for k, level in enumerate(reversed(projections))]
                found.append((plus, profile, feasibility, levels))
        fan._nonzero_patterns = found
    return fan._nonzero_patterns


def _count_points(bounds, head=()):
    """Lattice points of a bounded polyhedron with x_0..x_{k-1} = head.

    bounds[k] holds the rows c.x >= r of its projection onto x_0..x_k
    that bound x_k from below and from above, as (c[:k], c[k], r); the
    others belong to the projection onto x_0..x_{k-1}, which head
    satisfies.
    """
    k = len(head)
    lower, upper = bounds[k]
    lo = max(-((_dot(c, head) - r) // a) for c, a, r in lower)
    hi = min((r - _dot(c, head)) // a for c, a, r in upper)
    if k == len(bounds) - 1:
        return max(hi - lo + 1, 0)
    return sum(_count_points(bounds, head + (x,)) for x in range(lo, hi + 1))


def cohomology(fan: Fan, D: TDivisor):
    """(h^0, .., h^rank) of O(D) for a complete fan, exact.

    Characters are partitioned by the sign vector of <m, u_rho> + a_rho;
    only the patterns with a nonzero profile are visited, and each feasible
    chamber among them must be bounded.  A chamber's rows are
    +-u_rho . m >= r_rho, with r_rho = -a_rho for a ray in the pattern and
    a_rho + 1 otherwise, and its Fourier-Motzkin projections P_1, ..,
    P_rank onto the leading coordinates are kept per fan with symbolic
    right-hand sides (`_nonzero_patterns`); a query evaluates them at r.
    The chamber is feasible iff every fully projected row 0 >= w.r holds,
    bounded iff each P_(k+1) bounds x_k from both sides,
    and its lattice points are counted coordinate by coordinate, the
    integer range of x_k given x_0..x_(k-1) coming from P_(k+1) by floor
    and ceiling division.
    """
    if D.fan is not fan:
        raise ToricError("divisor lives on a different fan")
    if not fan.is_complete():
        raise ToricError("cohomology needs a complete fan")
    total = [0] * (fan.rank + 1)
    for plus, profile, feasibility, levels in _nonzero_patterns(fan):
        r = [-a if p else a + 1 for p, a in zip(plus, D.coeffs)]
        if any(_dot(w, r) > 0 for w in feasibility):
            continue
        bounds = []
        for lower, upper in levels:
            if not (lower and upper):
                raise ToricError("unbounded chamber with nonzero cohomology: "
                                 "fan cannot be complete")
            bounds.append(([(c, a, _dot(w, r)) for c, a, w in lower],
                           [(c, a, _dot(w, r)) for c, a, w in upper]))
        count = _count_points(bounds)
        for p in range(fan.rank + 1):
            total[p] += count * profile[p]
    return tuple(total)


# ---------------------------------------------------------------------------
# intersection numbers, class group, Cartier test


def intersect_curve(D: TDivisor, wall, fan: Fan | None = None) -> int:
    """(D . V(wall)) for a wall between two unimodular maximal cones."""
    fan = fan or D.fan
    walls = fan.walls()
    wall = tuple(sorted(wall))
    if wall not in walls:
        raise ToricError(f"{wall} is not a wall of the fan")
    ca, cb = walls[wall]
    for cidx in (ca, cb):
        cone = fan.max_cones[cidx]
        if len(cone) != fan.rank:
            raise ToricError("wall adjacent to a non-simplicial cone")
        det = _int_det([list(fan.rays[i]) for i in cone])
        if abs(det) != 1:
            raise ToricError("fan is not smooth along the wall")
    extra_a = [i for i in fan.max_cones[ca] if i not in wall][0]
    extra_b = [i for i in fan.max_cones[cb] if i not in wall][0]
    # u_a + u_b = sum alpha_rho u_rho over the wall
    rhs = [fan.rays[extra_a][k] + fan.rays[extra_b][k] for k in range(fan.rank)]
    cols = [fan.rays[i] for i in wall]
    mat = Matrix(QQ, [[Fraction(cols[j][k]) for j in range(len(cols))]
                      for k in range(fan.rank)])
    alpha = solve(mat, [Fraction(x) for x in rhs])
    if alpha is None:
        raise ToricError("wall relation is not solvable")
    val = Fraction(D.coeffs[extra_a] + D.coeffs[extra_b])
    for j, i in enumerate(wall):
        val -= alpha[j] * D.coeffs[i]
    if val.denominator != 1:
        raise ToricError("non-integral intersection number on a smooth wall")
    return int(val)


def _int_det(rows):
    n = len(rows)
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(n):
        piv = None
        for r in range(c, n):
            if m[r][c] != 0:
                piv = r
                break
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return int(det)


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


def weil_is_cartier(fan: Fan, D: TDivisor) -> bool:
    """True iff D is integrally linear on every maximal cone."""
    for cone in fan.max_cones:
        rows = [[Fraction(x) for x in fan.rays[i]] for i in cone]
        rhs = [Fraction(-D.coeffs[i]) for i in cone]
        m = Matrix(QQ, rows)
        sol = solve(m, rhs)
        if sol is None:
            return False
        # solution must be integral; on full-dimensional cones it is unique
        if any(x.denominator != 1 for x in sol):
            return False
        if any(_dot([int(v) for v in sol], fan.rays[i]) != -D.coeffs[i] for i in cone):
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
        rays = [(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1), (0, 0, -1)]
        cones = [(0, 1, 2, 3), (0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)]
        fan = Fan(3, rays, cones, "coneP1xP1_projective")
        # O(a, b) = a*D_a + b*D_b with [D_a] = [D_c], [D_b] = [D_d],
        # hyperplane = [D_infinity] = O(1,1)
        return fan, {"O(1,0)": TDivisor(fan, [1, 0, 0, 0, 0]),
                     "O(0,1)": TDivisor(fan, [0, 1, 0, 0, 0])}, {}
    if name == "coneP1xP1_smallres":
        rays = [(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1), (0, 0, -1)]
        cones = [(0, 1, 2), (0, 2, 3), (0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)]
        fan = Fan(3, rays, cones, "coneP1xP1_smallres")
        return fan, {"O(1,0)": TDivisor(fan, [1, 0, 0, 0, 0]),
                     "O(0,1)": TDivisor(fan, [0, 1, 0, 0, 0])}, {"C": (0, 2)}
    raise ToricError(f"unknown fan name {name!r}")


def divisor_from_combo(divisors: dict, combo: dict) -> TDivisor:
    """Integer combination of named divisors, e.g. {'H': -4, 'E1': 3}."""
    out = None
    for name, mult in combo.items():
        term = divisors[name].scale(mult)
        out = term if out is None else out + term
    return out


def canonical_divisor(fan: Fan) -> TDivisor:
    return TDivisor(fan, [-1] * len(fan.rays))
