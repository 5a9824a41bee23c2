"""Exact scalar and dense linear-algebra substrate.

Scalars are ``fractions.Fraction`` (aliased ``Rational``).  Every solve,
inverse, determinant, kernel and rank below is read off one Gauss-Jordan
elimination.  No floating point appears anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from ._record import record
from .errors import DimensionMismatchError, SingularMatrixError

Rational = Fraction


def rat(x) -> Fraction:
    """Coerce an int, string like "3/4", or Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


# ---------------------------------------------------------------------------
# vectors: plain tuples of scalars
# ---------------------------------------------------------------------------

def vec(xs: Iterable) -> tuple:
    return tuple(Fraction(x) for x in xs)


def vec_add(u: Sequence, v: Sequence) -> tuple:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(s, u: Sequence) -> tuple:
    return tuple(s * a for a in u)


def vec_neg(u: Sequence) -> tuple:
    return tuple(-a for a in u)


def is_zero_vec(u: Sequence) -> bool:
    return all(x == 0 for x in u)


def zero_vec(n: int) -> tuple:
    return (Fraction(0),) * n


def basis_vec(n: int, i: int) -> tuple:
    """The i-th standard basis vector, 0-based."""
    return tuple(Fraction(1) if k == i else Fraction(0) for k in range(n))


def pairing(alpha: Sequence, v: Sequence) -> object:
    """Dual pairing of a covector (coordinates in the dual basis) with a vector."""
    return sum((a * b for a, b in zip(alpha, v, strict=True)), Fraction(0))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Matrix:
    """Immutable dense matrix of Fraction entries.

    Column convention throughout: the matrix of a linear map sends the
    j-th basis vector to the j-th column.  ``_lowered`` is filled on first
    use by the basis-tuple checkers with an integer form of the entries.
    """

    __slots__ = ("rows", "nrows", "ncols", "_lowered")

    def __init__(self, rows):
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if not rows or not rows[0]:
            raise DimensionMismatchError("empty matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionMismatchError("ragged matrix rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", width)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        return (Matrix, (self.rows,))

    # -- constructors -------------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n: int, m: int | None = None) -> "Matrix":
        return cls([[0] * (m or n) for _ in range(n)])

    @classmethod
    def diagonal(cls, entries) -> "Matrix":
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols) -> "Matrix":
        return cls(list(zip(*cols)))

    # -- shape and access ----------------------------------------------------
    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    # -- arithmetic -----------------------------------------------------------
    def __matmul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise DimensionMismatchError(
                    f"cannot multiply {self.shape} by {other.shape}"
                )
            ot = tuple(zip(*other.rows))
            return Matrix(
                [
                    [sum((a * b for a, b in zip(row, col) if a and b), Fraction(0))
                     for col in ot]
                    for row in self.rows
                ]
            )
        if isinstance(other, (tuple, list)):
            return self.apply(other)
        return NotImplemented

    def apply(self, v: Sequence) -> tuple:
        if len(v) != self.ncols:
            raise DimensionMismatchError(
                f"matrix of shape {self.shape} applied to length-{len(v)} vector"
            )
        return tuple(
            sum((a * b for a, b in zip(row, v) if a and b), Fraction(0))
            for row in self.rows
        )

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionMismatchError("matrix addition shape mismatch")
        return Matrix(
            [vec_add(r1, r2) for r1, r2 in zip(self.rows, other.rows)]
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Matrix([vec_neg(r) for r in self.rows])

    def __mul__(self, scalar):
        return Matrix([vec_scale(scalar, r) for r in self.rows])

    __rmul__ = __mul__

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)))

    # -- predicates ------------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and all(
            a == b for r1, r2 in zip(self.rows, other.rows) for a, b in zip(r1, r2)
        )

    def __hash__(self):
        return hash(self.rows)

    @property
    def is_symmetric(self) -> bool:
        return self.is_square and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    @property
    def is_antisymmetric(self) -> bool:
        return self.is_square and all(
            self.rows[i][j] == -self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i, self.ncols)
        )

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix[{body}]"


def direct_sum(a: Matrix, b: Matrix) -> Matrix:
    """The block-diagonal matrix with blocks a and b."""
    n, m = a.nrows, b.nrows
    return Matrix(
        [list(row) + [0] * m for row in a.rows]
        + [[0] * n + list(row) for row in b.rows]
    )


def _sweep(rows: list, ncols: int) -> tuple:
    """Gauss-Jordan elimination of ``rows`` in place, on its first ncols columns.

    The pivot of each column is the first row at or below the current rank
    with a nonzero entry there; zero entries are skipped.  Afterwards rows
    holds the reduced row echelon form.  Returns the pivot columns, in row
    order, and the product of the pivots signed by the row swaps, which for
    a square matrix of full rank is its determinant.
    """
    pivots = []
    det = Fraction(1)
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        p = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if p is None:
            continue
        if p != rank:
            rows[rank], rows[p] = rows[p], rows[rank]
            det = -det
        pv = rows[rank][col]
        det *= pv
        if pv != 1:
            rows[rank] = [x / pv if x else x for x in rows[rank]]
        nonzero = [(k, y) for k, y in enumerate(rows[rank]) if y]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != rank:
                for k, y in nonzero:
                    row[k] -= f * y
        pivots.append(col)
    return pivots, det


def _free_vectors(rows: list, pivots: list, ncols: int) -> list:
    """Kernel basis of a reduced system, one vector per free column."""
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][free]
        basis.append(tuple(v))
    return basis


def determinant(a: Matrix):
    """Exact determinant: the signed pivot product of the elimination."""
    if not a.is_square:
        raise DimensionMismatchError("determinant of a non-square matrix")
    pivots, det = _sweep([list(r) for r in a.rows], a.ncols)
    return det if len(pivots) == a.nrows else Fraction(0)


def matrix_inverse(a: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination; raises SingularMatrixError."""
    if not a.is_square:
        raise DimensionMismatchError("inverse of a non-square matrix")
    n = a.nrows
    rows = [list(r) + list(e) for r, e in zip(a.rows, Matrix.identity(n).rows)]
    if len(_sweep(rows, n)[0]) < n:
        raise SingularMatrixError("matrix is singular")
    return Matrix([row[n:] for row in rows])


UNIQUE = "unique"
NO_SOLUTION = "no_solution"
NON_UNIQUE = "non_unique"


@record
class LinearSolution:
    """Outcome of an exact square linear solve.

    ``status`` is one of UNIQUE, NO_SOLUTION, NON_UNIQUE.  For NON_UNIQUE
    a nontrivial kernel vector is reported in ``kernel``.
    """

    status: str
    x: tuple | None = None
    kernel: tuple | None = None

    def __bool__(self):
        return self.status == UNIQUE


def solve_linear(a: Matrix, b: Sequence) -> LinearSolution:
    """Solve a.x = b exactly for square a."""
    if not a.is_square:
        raise DimensionMismatchError("solve_linear requires a square matrix")
    n = a.nrows
    if len(b) != n:
        raise DimensionMismatchError("right-hand side length mismatch")
    rows = [list(row) + [bx] for row, bx in zip(a.rows, vec(b))]
    pivots, _ = _sweep(rows, n)
    if any(rows[r][n] for r in range(len(pivots), n)):
        return LinearSolution(NO_SOLUTION)
    if len(pivots) < n:
        return LinearSolution(NON_UNIQUE, kernel=_free_vectors(rows, pivots, n)[0])
    return LinearSolution(UNIQUE, x=tuple(row[n] for row in rows))


def null_space(a: Matrix) -> list:
    """Basis of the exact kernel of a (possibly non-square) matrix."""
    rows = [list(r) for r in a.rows]
    return _free_vectors(rows, _sweep(rows, a.ncols)[0], a.ncols)


def row_space_rank(vectors: Sequence[Sequence]) -> int:
    """Rank of the span of the given vectors, by exact row reduction."""
    rows = [list(vec(v)) for v in vectors]
    if not rows:
        return 0
    return len(_sweep(rows, len(rows[0]))[0])


def independent_subset(vectors: Sequence[Sequence]) -> list:
    """Maximal linearly independent subset, keeping first occurrences.

    Deterministic: vectors are taken in the order given, first-nonzero
    pivoting decides membership.
    """
    kept = []
    for v in vectors:
        if is_zero_vec(v):
            continue
        if row_space_rank(kept + [list(v)]) > len(kept):
            kept.append(list(v))
    return [tuple(v) for v in kept]


def in_span(vectors: Sequence[Sequence], target: Sequence) -> bool:
    """Exact membership of target in the span of the given vectors."""
    if is_zero_vec(target):
        return True
    base = [list(v) for v in vectors]
    return row_space_rank(base + [list(target)]) == row_space_rank(base)


# ---------------------------------------------------------------------------
# rank-3 tensors of structure constants
# ---------------------------------------------------------------------------

class Tensor3:
    """Dense structure constants c[k][i][j] of a bilinear map.

    c[k][i][j] is the e_k coefficient of (e_i, e_j), 0-based.  Every tensor
    the package derives is built by ``from_table`` from its nonzero columns,
    1-based like ``nonzero_table`` and instance files, so only this class
    and the kernel's lowering (into ``_lowered``, on first use by the
    basis-tuple checkers) read the dense ``entries``.
    """

    __slots__ = ("entries", "dim", "_lowered")

    def __init__(self, entries):
        entries = tuple(
            tuple(tuple(Fraction(x) for x in row) for row in plane)
            for plane in entries
        )
        n = len(entries)
        if any(len(plane) != n or any(len(r) != n for r in plane) for plane in entries):
            raise DimensionMismatchError("Tensor3 must be n x n x n")
        self._store(entries)

    def _store(self, entries: tuple) -> "Tensor3":
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "dim", len(entries))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Tensor3 is immutable")

    def __reduce__(self):
        return (Tensor3, (self.entries,))

    @classmethod
    def zeros(cls, n: int) -> "Tensor3":
        return cls([[[0] * n for _ in range(n)] for _ in range(n)])

    @classmethod
    def from_table(cls, n: int, table: dict, antisymmetric: bool = False) -> "Tensor3":
        """Build from a sparse {(i, j): coefficients} table, 1-based, coercing
        each coefficient once; with antisymmetric=True, keys must have i < j
        and the (j, i) entries are filled with the negated coefficients.
        """
        data = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for (i, j), coeffs in table.items():
            if not (1 <= i <= n and 1 <= j <= n):
                raise DimensionMismatchError(f"table key ({i}, {j}) out of range")
            if antisymmetric and i >= j:
                raise DimensionMismatchError(
                    f"antisymmetric table requires i < j, got ({i}, {j})"
                )
            cv = vec(coeffs)
            if len(cv) != n:
                raise DimensionMismatchError(f"coefficient vector for ({i}, {j})")
            for k in range(n):
                data[k][i - 1][j - 1] = cv[k]
                if antisymmetric:
                    data[k][j - 1][i - 1] = -cv[k]
        return object.__new__(cls)._store(tuple(tuple(map(tuple, p)) for p in data))

    def basis_product(self, i: int, j: int) -> tuple:
        """Value on the (0-based) basis pair (e_i, e_j)."""
        return tuple(self.entries[k][i][j] for k in range(self.dim))

    def apply(self, u: Sequence, v: Sequence) -> tuple:
        """Bilinear evaluation on arbitrary vectors."""
        n = self.dim
        if len(u) != n or len(v) != n:
            raise DimensionMismatchError("vector length does not match tensor dim")
        out = [Fraction(0)] * n
        for i in range(n):
            ui = u[i]
            if not ui:
                continue
            for j in range(n):
                vj = v[j]
                if not vj:
                    continue
                s = ui * vj
                for k in range(n):
                    c = self.entries[k][i][j]
                    if c:
                        out[k] = out[k] + s * c
        return tuple(out)

    def left_mult(self, u: Sequence) -> Matrix:
        """Matrix of v -> (u, v) under this tensor."""
        n = self.dim
        cols = [self.apply(u, basis_vec(n, j)) for j in range(n)]
        return Matrix.from_columns(cols)

    def left_mult_basis(self, i: int) -> Matrix:
        """Matrix of left multiplication by e_i (0-based)."""
        n = self.dim
        return Matrix.from_columns([self.basis_product(i, j) for j in range(n)])

    def is_antisymmetric(self) -> bool:
        n = self.dim
        return all(
            self.entries[k][i][j] == -self.entries[k][j][i]
            for k in range(n)
            for i in range(n)
            for j in range(i, n)
        )

    def is_zero(self) -> bool:
        return all(x == 0 for p in self.entries for r in p for x in r)

    def nonzero_table(self) -> dict:
        """Sparse {(i, j): coefficient tuple} view, 1-based keys."""
        out = {}
        for i in range(self.dim):
            for j, col in enumerate(zip(*(plane[i] for plane in self.entries))):
                if any(col):
                    out[(i + 1, j + 1)] = col
        return out

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        table = self.nonzero_table()
        if not table:
            return f"Tensor3.zeros({self.dim})"
        parts = []
        for (i, j), col in sorted(table.items()):
            terms = " + ".join(
                f"({c})e{k + 1}" for k, c in enumerate(col) if c
            )
            parts.append(f"(e{i},e{j}) -> {terms}")
        return "Tensor3[" + "; ".join(parts) + "]"
