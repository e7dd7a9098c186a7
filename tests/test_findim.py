"""Structure-constant algebras and exact idempotent search."""

import random
from fractions import Fraction
from functools import partial

import pytest

from singcat import models
from singcat.fields import QQ, GF, QuadraticExtension
from singcat.findim import FiniteDimAlgebra, algebra_idempotents, AlgebraError, univariate_roots
from singcat.linalg import Matrix, kernel_basis, rref
from singcat.ncdef import SimpleCollection, run


def sparse_products(field, table):
    """The nonzero products of a dense table as sparse rows of (index,
    coefficient) pairs: the table FiniteDimAlgebra takes."""
    out = []
    for row in table:
        prods = {}
        for j, vec in enumerate(row):
            pairs = tuple((k, c) for k, c in enumerate(vec)
                          if not field.is_zero(c))
            if pairs:
                prods[j] = pairs
        out.append(prods)
    return out


def unit_acts_trivially(A):
    """The unit times each basis element, on either side, is that element."""
    return all(A.eq(A.mul(A.unit, e), e) and A.eq(A.mul(e, A.unit), e)
               for e in A.basis)


def is_commutative(A):
    """Each pair of basis elements commutes."""
    return all(A.eq(A.mul(a, b), A.mul(b, a)) for a in A.basis for b in A.basis)


def from_table(field, labels, table, unit):
    """An algebra built by hand from a dense table."""
    return FiniteDimAlgebra(field, labels, sparse_products(field, table), unit)


def dual_numbers_style(field, minus_one_square):
    """k[t]/(t^2 - s) on basis (1, t) with t^2 = s."""
    z, o = field.zero(), field.one()
    s = minus_one_square
    table = [
        [[o, z], [z, o]],
        [[z, o], [s, z]],
    ]
    return from_table(field, ["1", "t"], table, [o, z])


def split_kk(field):
    z, o = field.zero(), field.one()
    table = [
        [[o, z], [z, z]],
        [[z, z], [z, o]],
    ]
    return from_table(field, ["a", "b"], table, [o, o])


def brute_force_idempotents_f5(A):
    """Oracle: scan all 25 elements of a 2-dim algebra over F5."""
    out = []
    for a in range(5):
        for b in range(5):
            v = [a, b]
            if A.eq(A.mul(v, v), v):
                out.append(tuple(v))
    return sorted(out)


def test_y1_algebra_idempotents_over_f5():
    F5 = GF(5)
    A = dual_numbers_style(F5, F5.from_int(-1))  # k[t]/(t^2+1)
    assert A.is_associative() and unit_acts_trivially(A)
    found = sorted(tuple(v) for v in algebra_idempotents(A))
    oracle = brute_force_idempotents_f5(A)
    assert found == oracle
    # 3 + t and 3 - t = 3 + 4t appear, 4 idempotents total
    assert len(found) == 4
    assert (3, 1) in found and (3, 4) in found


def test_y1_algebra_idempotents_over_q():
    A = dual_numbers_style(QQ, QQ.from_int(-1))
    found = algebra_idempotents(A)
    assert len(found) == 2  # only 0 and 1: the discriminant forces b = 0


def test_y1_algebra_idempotents_over_qi():
    K = QuadraticExtension(QQ)
    A = dual_numbers_style(K, K.from_int(-1))
    found = algebra_idempotents(A)
    # (1 +- i t)/2 exist over K[i]
    assert len(found) == 4
    half = Fraction(1, 2)
    assert any(v[0] == (half, Fraction(0)) and v[1][1] in (half, -half) for v in found)


def test_split_kk_idempotents():
    A = split_kk(QQ)
    found = algebra_idempotents(A)
    assert len(found) == 4


def test_idempotent_dim_bound():
    A = split_kk(QQ)
    with pytest.raises(AlgebraError):
        algebra_idempotents(A, dim_bound=1)


def matrix_algebra_2(field):
    """M_2(k) on the matrix units e11, e12, e21, e22."""
    z, o = field.zero(), field.one()
    idx = [(0, 0), (0, 1), (1, 0), (1, 1)]

    def emul(i, j, k, l):
        # e_ij * e_kl = delta_jk e_il
        return [o if j == k and (i, l) == pos else z for pos in idx]

    table = [[emul(*idx[a], *idx[b]) for b in range(4)] for a in range(4)]
    return from_table(field, ["e11", "e12", "e21", "e22"], table, [o, z, z, o])


def test_noncommutative_fallback_contains_zero_and_one():
    # 2x2 matrix algebra: idempotent variety is positive-dimensional
    QQz, QQo = QQ.zero(), QQ.one()
    M2 = matrix_algebra_2(QQ)
    assert M2.is_associative() and not is_commutative(M2)
    found = algebra_idempotents(M2)
    vecs = {tuple(v) for v in found}
    assert tuple([QQz] * 4) in vecs
    assert (QQo, QQz, QQz, QQo) in vecs
    for v in found:
        assert M2.eq(M2.mul(list(v), list(v)), list(v))


def test_radical_of_dual_numbers():
    # k[t]/t^2: radical is spanned by t
    table = [
        [[QQ.one(), QQ.zero()], [QQ.zero(), QQ.one()]],
        [[QQ.zero(), QQ.one()], [QQ.zero(), QQ.zero()]],
    ]
    A = from_table(QQ, ["1", "t"], table, [QQ.one(), QQ.zero()])
    rad = A.radical()
    assert len(rad) == 1
    assert QQ.is_zero(rad[0][0]) and not QQ.is_zero(rad[0][1])


def trace_form_reference(A):
    """The trace form T_ij = tr L_(b_i b_j), with the trace of left
    multiplication read through mul on basis vectors."""
    F = A.field
    basis = [[F.one() if i == j else F.zero() for j in range(A.dim)]
             for i in range(A.dim)]

    def trace_of_mult(v):
        t = F.zero()
        for j in range(A.dim):
            t = F.add(t, A.mul(v, basis[j])[j])
        return t

    return [[trace_of_mult(A.mul(basis[i], basis[j])) for j in range(A.dim)]
            for i in range(A.dim)]


def cone_pair_algebra(field):
    P = models.projective_cone_ring(field)
    return run(SimpleCollection([models.cone_L1(P), models.cone_L2(P)]),
               max_iter=8).algebra()


def truncation(field, n):
    return models.truncated_node_algebra(models.node_surface(field), n)


def t2_plus_1(K):
    return dual_numbers_style(K, K.from_int(-1))


RADICAL_CASES = {
    **{f"truncation-{n}-{field}": partial(truncation, field, n)
       for field in ("Q", "F32003") for n in range(1, 7)},
    "cone-pair-Q": partial(cone_pair_algebra, "Q"),
    "cone-pair-F3": partial(cone_pair_algebra, "F3"),
    # where p divides a trace, the kernel is not the Jacobson radical
    "truncation-1-F3": partial(truncation, "F3", 1),
    "cone-pair-F2": partial(cone_pair_algebra, "F2"),
    "t2+1-Q": partial(t2_plus_1, QQ),
    "t2+1-F5": partial(t2_plus_1, GF(5)),
    "t2+1-Qi": partial(t2_plus_1, QuadraticExtension(QQ)),
    "M2-Q": partial(matrix_algebra_2, QQ),
}


@pytest.mark.parametrize("case", RADICAL_CASES)
def test_radical_is_the_kernel_of_the_trace_form(case):
    A = RADICAL_CASES[case]()
    ker = kernel_basis(Matrix(A.field, trace_form_reference(A)))
    assert A.radical() == [ker.col(j) for j in range(ker.ncols)]


@pytest.mark.parametrize("field", ["Q", "F32003"])
@pytest.mark.parametrize("n", range(1, 7))
def test_radical_layers_of_the_node_truncations(field, n):
    assert truncation(field, n).radical_layers() == [1] + [2] * n


def test_radical_layers_of_a_semisimple_algebra():
    assert matrix_algebra_2(QQ).radical_layers() == [4]


def all_products_layers(A):
    """The radical layers with rad^(s+1) spanned by all products of rad^s
    and rad; None where the powers stop shrinking."""
    rad = A.radical()
    layers, power = [A.dim - len(rad)], rad
    while power:
        echelon, pivots = rref(Matrix(A.field, [A.mul(a, b) for a in power
                                                for b in rad]))
        if len(pivots) == len(power):
            return None
        layers.append(len(power) - len(pivots))
        power = echelon.rows[:len(pivots)]
    return layers


def direct_product(A, B):
    """A x B on A's basis, then B's; the products across are zero."""
    n = A.dim
    shifted = [{j + n: tuple((k + n, c) for k, c in row)
                for j, row in prods.items()} for prods in B.products]
    return FiniteDimAlgebra(A.field, A.labels + B.labels,
                            A.products + shifted, A.unit + B.unit)


LAYER_CASES = {
    **RADICAL_CASES,
    # the trace form vanishes on M_2 over F2, so the trace-form radical
    # (x, y) x M_2 is an ideal with rad V = (x, y)^2 x 0 short of rad^2
    "truncation-1-times-M2-F2": lambda: direct_product(
        truncation("F2", 1), matrix_algebra_2(GF(2))),
    **{f"truncation-{n}-{field}": partial(truncation, field, n)
       for field in ("Q", "F32003") for n in range(7, 13)},
}


@pytest.mark.parametrize("case", LAYER_CASES)
def test_radical_layers_match_the_all_products_powers(case):
    # rad^(s+1) = rad^s V for a complement V of rad^2 in rad; where the
    # trace-form radical is not nilpotent both ways refuse
    A = LAYER_CASES[case]()
    want = all_products_layers(A)
    if want is None:
        with pytest.raises(AlgebraError, match="not nilpotent"):
            A.radical_layers()
    else:
        assert A.radical_layers() == want


def test_short_entry_vectors_and_units_are_refused():
    # a sparse row names its entries, so the short vector of a dense table
    # is now an entry or a product outside the basis, or a missing row
    o = QQ.one()
    with pytest.raises(AlgebraError, match="wrong shape"):
        FiniteDimAlgebra(QQ, ["a", "b"], [{0: ((0, o),)}, {1: ((2, o),)}], [o, o])
    with pytest.raises(AlgebraError, match="wrong shape"):
        FiniteDimAlgebra(QQ, ["a", "b"], [{0: ((0, o),)}, {2: ((1, o),)}], [o, o])
    with pytest.raises(AlgebraError, match="wrong shape"):
        FiniteDimAlgebra(QQ, ["a", "b"], [{0: ((0, o),)}], [o, o])
    with pytest.raises(AlgebraError, match="wrong shape"):
        FiniteDimAlgebra(QQ, ["a", "b"], [{0: ((0, o),)}, {1: ((1, o),)}], [o])


# -- the sparse table against the dense product ---------------------------------


def dense_mul(F, table, a, b):
    """The product by the dense table: every pair of nonzero coordinates
    scans the whole coefficient vector of its basis product."""
    out = [F.zero()] * len(a)
    for i, ai in enumerate(a):
        if F.is_zero(ai):
            continue
        for j, bj in enumerate(b):
            if F.is_zero(bj):
                continue
            c = F.mul(ai, bj)
            for k, s in enumerate(table[i][j]):
                if not F.is_zero(s):
                    out[k] = F.add(out[k], F.mul(c, s))
    return out


def node_table(F, n):
    """k[x,y]/(xy, m^(n+1)) on 1, x, .., x^n, y, .., y^n, written out
    densely from the monomials."""
    monos = [(0, 0)] + [(a, 0) for a in range(1, n + 1)] \
        + [(0, b) for b in range(1, n + 1)]
    table = []
    for ai, bi in monos:
        row = []
        for aj, bj in monos:
            prod = (ai + aj, bi + bj)
            row.append([F.one() if prod == m and min(prod) == 0
                        and sum(prod) <= n else F.zero() for m in monos])
        table.append(row)
    return table


def dense_case(name):
    """(algebra, dense table) with the table built apart from the
    algebra's rows where the algebra has a hand-written form; the cone
    pair's rows are checked against the builder's double loop in
    test_ncdef, so its own dense view serves here."""
    if name.startswith("truncation-"):
        n = int(name.split("-")[1])
        A = truncation("Q", n)
        return A, node_table(QQ, n)
    if name == "cone-pair":
        A = cone_pair_algebra("Q")
        return A, A.mult_table
    if name == "shifted-cube-Q":
        # k[t]/(t^3) on 1, 1 + t, t^2: (1 + t)^2 = -1 + 2(1 + t) + t^2 is a
        # row of three entries
        z, o, two = QQ.zero(), QQ.one(), QQ.from_int(2)
        table = [[[o, z, z], [z, o, z], [z, z, o]],
                 [[z, o, z], [-o, two, o], [z, z, o]],
                 [[z, z, o], [z, z, o], [z, z, z]]]
        return from_table(QQ, ["1", "1+t", "t^2"], table, [o, z, z]), table
    if name == "M2-Q":
        o, z = QQ.one(), QQ.zero()
        idx = [(0, 0), (0, 1), (1, 0), (1, 1)]
        table = [[[o if j == k and (i, l) == pos else z for pos in idx]
                  for (k, l) in idx] for (i, j) in idx]
        return matrix_algebra_2(QQ), table
    field = {"t2+1-Q": QQ, "t2+1-F5": GF(5),
             "t2+1-Qi": QuadraticExtension(QQ)}[name]
    z, o, s = field.zero(), field.one(), field.from_int(-1)
    return t2_plus_1(field), [[[o, z], [z, o]], [[z, o], [s, z]]]


MUL_CASES = [f"truncation-{n}" for n in range(1, 7)] + [
    "cone-pair", "shifted-cube-Q", "M2-Q", "t2+1-Q", "t2+1-F5", "t2+1-Qi"]


def random_vector(rng, F, dim):
    """Mostly zero, with small integer entries (and imaginary parts over
    Q(i))."""
    def entry():
        if rng.random() < 0.5:
            return F.zero()
        c = F.from_int(rng.randint(-3, 3))
        if isinstance(F, QuadraticExtension):
            c = F.add(c, F.mul(F.i(), F.from_int(rng.randint(-2, 2))))
        return c
    return [entry() for _ in range(dim)]


@pytest.mark.parametrize("case", MUL_CASES)
def test_sparse_mul_matches_the_dense_product(case):
    A, table = dense_case(case)
    assert A.mult_table == table
    F = A.field
    rng = random.Random(f"mul-{case}")
    vectors = A.basis + [A.unit] + [random_vector(rng, F, A.dim)
                                    for _ in range(12)]
    for a in vectors:
        for b in vectors[-6:] + A.basis:
            assert A.eq(A.mul(a, b), dense_mul(F, table, a, b))


def truncated_cube(F):
    """k[t]/(t^3) on 1, t, t^2."""
    z, o = F.zero(), F.one()
    table = [[[o, z, z], [z, o, z], [z, z, o]],
             [[z, o, z], [z, z, o], [z, z, z]],
             [[z, z, o], [z, z, z], [z, z, z]]]
    return from_table(F, ["1", "t", "t^2"], table, [o, z, z])


def test_verify_isomorphism_refuses_a_map_that_misses_the_unit():
    o, z = QQ.one(), QQ.zero()
    A = split_kk(QQ)
    # the same table with the first idempotent declared as its unit: the
    # identity is bijective and multiplicative, and only the unit check
    # sees that it sends (1, 1) elsewhere
    B = from_table(QQ, ["a", "b"], A.mult_table, [o, z])
    assert not unit_acts_trivially(B)
    assert A.verify_isomorphism(A, A.basis)
    assert not A.verify_isomorphism(B, A.basis)
    # doubling sends 1 to 2 on k[t]/(t^3)
    C = truncated_cube(QQ)
    two = QQ.from_int(2)
    assert not C.verify_isomorphism(C, [C.scale(two, b) for b in C.basis])


def test_verify_isomorphism_refuses_a_bijection_that_is_not_multiplicative():
    # 1 -> 1, t -> t, t^2 -> 2 t^2 on k[t]/(t^3): bijective and unital, but
    # t * t = t^2 goes to 2 t^2 while the images multiply to t^2
    A = truncated_cube(QQ)
    one, t, t2 = A.basis
    assert A.verify_isomorphism(A, [one, t, t2])
    images = [one, t, A.scale(QQ.from_int(2), t2)]
    assert A.eq(images[0], A.unit)
    assert not A.verify_isomorphism(A, images)


def test_univariate_roots_q():
    # (t - 2)(2t + 3) t = 2t^3 - t^2 - 6t
    coeffs = [Fraction(0), Fraction(-6), Fraction(-1), Fraction(2)]
    assert univariate_roots(QQ, coeffs) == [Fraction(-3, 2), Fraction(0), Fraction(2)]


def test_univariate_roots_f5():
    F5 = GF(5)
    # t^2 + 1 over F5 has roots 2, 3
    assert univariate_roots(F5, [1, 0, 1]) == [2, 3]


def test_verify_isomorphism():
    A = split_kk(QQ)
    B = split_kk(QQ)
    assert A.verify_isomorphism(B, [[QQ.one(), QQ.zero()], [QQ.zero(), QQ.one()]])
    # swapping the factors is also an isomorphism
    assert A.verify_isomorphism(B, [[QQ.zero(), QQ.one()], [QQ.one(), QQ.zero()]])
    # sending both to the first factor is not
    assert not A.verify_isomorphism(B, [[QQ.one(), QQ.zero()], [QQ.one(), QQ.zero()]])
