"""Canonical local models for the ordinary-double-point computations.

The registry pins presentations and grading conventions once, so the tests,
the verification manifest, and the CLI all use identical inputs:

* dual numbers A = Q[z]/(z^2) with the point module V1,
* the node curve B = Q[z,w]/(zw) with M_z, M_w,
* the non-split curve C = Q[z,w]/(z^2+z^3+w^2) with its normalization C',
* the cone ring Q[x,y,z,w]/(xy+zw) with the rank-1 MCM ideals L1 = (x,z)
  and L2 = (x,w),
* the projective cone model Q[x,y,z,w,u]/(xy+zw), the homogeneous
  coordinate ring of the cone over P^1 x P^1 in P^4.

The affine cone ring is the local model: total Ext dimensions over it are
the local (sheaf-Ext-at-the-vertex) numbers.  Global Hom and Ext^1 data of
the rank-one sheaves live in the degree-zero graded parts over the
projective model; there the extension classes between L1 and L2 sit in
degree zero (multiply the affine classes by the extra coordinate u), so
universal extensions can be built degree-zero homogeneously.
"""

from __future__ import annotations

from .modules import FPModule
from .quotient import QuotientRing, parse_ring


def dual_numbers(field: str = "Q") -> QuotientRing:
    return parse_ring(f"{field}[z]/(z^2)")


def point_module(A: QuotientRing) -> FPModule:
    """V1 = A/(z) over the dual numbers."""
    return FPModule.cyclic(A, [A.parse("z")], degree=0)


def node_curve(field: str = "Q") -> QuotientRing:
    return parse_ring(f"{field}[z,w]/(z*w)")


def branch_module_z(B: QuotientRing) -> FPModule:
    """M_z = B/(w)."""
    return FPModule.cyclic(B, [B.parse("w")], degree=0)


def branch_module_w(B: QuotientRing) -> FPModule:
    """M_w = B/(z)."""
    return FPModule.cyclic(B, [B.parse("z")], degree=0)


def nonsplit_curve(field: str = "Q") -> QuotientRing:
    """C = k[z,w]/(z^2+z^3+w^2); the singularity splits only after adjoining
    a square root of -1."""
    return parse_ring(f"{field}[z,w]/(z^2+z^3+w^2)")


def normalization_module(C: QuotientRing) -> FPModule:
    """C' = k[t] as a C-module on generators (1, t): relations z*t = w and
    w*t = -z^2 - z, from z = -t^2-1, w = -t^3-t."""
    return FPModule(C, 2, [
        [C.parse("-w"), C.parse("z")],
        [C.parse("z^2+z"), C.parse("w")],
    ])


def cone_ring(field: str = "Q") -> QuotientRing:
    return parse_ring(f"{field}[x,y,z,w]/(x*y+z*w)")


def cone_L1(R: QuotientRing) -> FPModule:
    """L1 = (x, z): the rank-one MCM module of type O(0,-1)."""
    return FPModule.from_submodule(R, [[R.parse("x")], [R.parse("z")]],
                                   ambient_rank=1, ambient_degrees=[0])


def cone_L2(R: QuotientRing) -> FPModule:
    """L2 = (x, w): the rank-one MCM module of type O(-1,0)."""
    return FPModule.from_submodule(R, [[R.parse("x")], [R.parse("w")]],
                                   ambient_rank=1, ambient_degrees=[0])


def projective_cone_ring(field: str = "Q") -> QuotientRing:
    """Homogeneous coordinate ring of the projective cone over P^1 x P^1."""
    return parse_ring(f"{field}[x,y,z,w,u]/(x*y+z*w)")


def cone_power_ideal(R: QuotientRing, m: int) -> FPModule:
    """(x^m, x^{m-1} z, ..., z^m): the module of type O(0,-m)."""
    gens = []
    for j in range(m + 1):
        parts = []
        if m - j:
            parts.append(f"x^{m - j}" if m - j > 1 else "x")
        if j:
            parts.append(f"z^{j}" if j > 1 else "z")
        gens.append("*".join(parts))
    return FPModule.from_submodule(R, [[R.parse(g)] for g in gens],
                                   ambient_rank=1, ambient_degrees=[0])


def node_surface(field: str = "Q") -> QuotientRing:
    """B = k[x,y]/(xy): the local model for the non-terminating deformation."""
    return parse_ring(f"{field}[x,y]/(x*y)")


def node_point_module(B: QuotientRing) -> FPModule:
    """k = B/(x, y)."""
    return FPModule.cyclic(B, [B.parse("x"), B.parse("y")], degree=0)


def truncated_node_algebra(B: QuotientRing, n: int):
    """k[x,y]/(xy, m^{n+1}) as a structure-constant algebra on the monomial
    basis 1, x, .., x^n, y, .., y^n.  Oracle for the deformation tower."""
    from .findim import FiniteDimAlgebra
    F = B.field
    labels = ["1"] + [f"x^{i}" if i > 1 else "x" for i in range(1, n + 1)] \
        + [f"y^{i}" if i > 1 else "y" for i in range(1, n + 1)]
    dim = 2 * n + 1

    def index(a, b):
        # monomial x^a y^b with ab = 0
        if a == 0 and b == 0:
            return 0
        return a if b == 0 else n + b

    def mono(k):
        if k == 0:
            return (0, 0)
        if k <= n:
            return (k, 0)
        return (0, k - n)

    table = []
    for i in range(dim):
        row = []
        ai, bi = mono(i)
        for j in range(dim):
            aj, bj = mono(j)
            a, b = ai + aj, bi + bj
            vec = [F.zero()] * dim
            if (a == 0 or b == 0) and a + b <= n:
                vec[index(a, b)] = F.one()
            row.append(vec)
        table.append(row)
    unit = [F.one()] + [F.zero()] * (dim - 1)
    return FiniteDimAlgebra(F, labels, table, unit)
