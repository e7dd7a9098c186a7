"""Dense exact linear algebra over a coefficient field."""

from __future__ import annotations

from .fields import Field


class Matrix:
    """Rectangular matrix of field element values."""

    def __init__(self, field: Field, rows):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    @classmethod
    def zero(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero()
        return cls(field, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        m = cls.zero(field, n, n)
        for i in range(n):
            m.rows[i][i] = field.one()
        return m

    @classmethod
    def from_int_rows(cls, field: Field, rows) -> "Matrix":
        return cls(field, [[field.from_int(x) for x in r] for r in rows])

    def copy(self) -> "Matrix":
        return Matrix(self.field, self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(map(list, zip(*self.rows))) if self.rows else [])

    def col(self, j: int):
        return [r[j] for r in self.rows]

    def mul_vec(self, v):
        F = self.field
        out = []
        for r in self.rows:
            s = F.zero()
            for a, b in zip(r, v):
                s = F.add(s, F.mul(a, b))
            out.append(s)
        return out

    def __mul__(self, other: "Matrix") -> "Matrix":
        F = self.field
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        ot = other.transpose().rows
        out = []
        for r in self.rows:
            row = []
            for c in ot:
                s = F.zero()
                for a, b in zip(r, c):
                    s = F.add(s, F.mul(a, b))
                row.append(s)
            out.append(row)
        return Matrix(F, out)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.field == self.field
                and other.rows == self.rows)

    def __repr__(self):
        return "[" + "; ".join(" ".join(self.field.to_str(x) for x in r) for r in self.rows) + "]"


def rref(m: Matrix):
    """Reduced row echelon form.  Returns (rref matrix, pivot column list)."""
    F = m.field
    rows = [list(r) for r in m.rows]
    nr, nc = m.nrows, m.ncols
    pivots = []
    r = 0
    for c in range(nc):
        pr = None
        for i in range(r, nr):
            if not F.is_zero(rows[i][c]):
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(nr):
            if i != r and not F.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return Matrix(F, rows), pivots


def rank(m: Matrix) -> int:
    if m.nrows == 0 or m.ncols == 0:
        return 0
    return len(rref(m)[1])


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a basis of ker(m); shape ncols x (ncols - rank)."""
    F = m.field
    if m.nrows == 0:
        return Matrix.identity(F, m.ncols)
    red, pivots = rref(m)
    free = [c for c in range(m.ncols) if c not in pivots]
    cols = []
    for fc in free:
        v = [F.zero()] * m.ncols
        v[fc] = F.one()
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(red.rows[i][fc])
        cols.append(v)
    return Matrix(F, [[cols[j][i] for j in range(len(cols))] for i in range(m.ncols)])


def solve(m: Matrix, rhs) -> list | None:
    """One solution of m x = rhs, or None if inconsistent."""
    F = m.field
    aug = Matrix(F, [row + [b] for row, b in zip(m.rows, rhs)])
    red, pivots = rref(aug)
    if m.ncols in pivots:
        return None
    x = [F.zero()] * m.ncols
    for i, pc in enumerate(pivots):
        x[pc] = red.rows[i][m.ncols]
    return x

