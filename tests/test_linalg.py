import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie.errors import DimensionMismatchError, SingularMatrixError
from homlie.phase_space import canonical_double_omega
from homlie.linalg import (
    NO_SOLUTION,
    NON_UNIQUE,
    UNIQUE,
    Matrix,
    Tensor3,
    basis_vec,
    determinant,
    direct_sum,
    in_span,
    independent_subset,
    matrix_inverse,
    null_space,
    row_space_rank,
    solve_linear,
)

from conftest import rand_fraction, rand_invertible, rand_matrix
from reference import bareiss_determinant

def _cofactor_det(m: Matrix):
    """Independent oracle: recursive cofactor expansion along the first row."""
    n = m.nrows
    if n == 1:
        return m[0, 0]
    total = Fraction(0)
    for j in range(n):
        if m[0, j] == 0:
            continue
        minor = Matrix(
            [
                [m[r, c] for c in range(n) if c != j]
                for r in range(1, n)
            ]
        )
        total += (-1) ** j * m[0, j] * _cofactor_det(minor)
    return total


class TestSolveLinear:
    def test_identity(self):
        sol = solve_linear(Matrix.identity(3), (1, Fraction(1, 2), -3))
        assert sol.status == UNIQUE
        assert sol.x == (1, Fraction(1, 2), -3)

    def test_diagonal(self):
        sol = solve_linear(Matrix.diagonal([2, 3]), (1, 1))
        assert sol.x == (Fraction(1, 2), Fraction(1, 3))

    def test_rank_deficient_inconsistent(self):
        sol = solve_linear(Matrix([[1, 1], [2, 2]]), (1, 3))
        assert sol.status == NO_SOLUTION
        assert not sol

    def test_rank_deficient_consistent_reports_kernel(self):
        a = Matrix([[1, 1], [2, 2]])
        sol = solve_linear(a, (1, 2))
        assert sol.status == NON_UNIQUE
        assert sol.kernel is not None and any(sol.kernel)
        assert all(x == 0 for x in a.apply(sol.kernel))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            solve_linear(Matrix([[1, 2, 3], [4, 5, 6]]), (1, 2))

    def test_rhs_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            solve_linear(Matrix.identity(2), (1, 2, 3))

    def test_roundtrip_random_invertible(self):
        rng = random.Random(101)
        for _ in range(20):
            n = rng.randint(1, 6)
            a = rand_invertible(rng, n)
            x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
            sol = solve_linear(a, a.apply(x))
            assert sol.status == UNIQUE
            assert sol.x == x


class TestDeterminant:
    def test_identity(self):
        assert determinant(Matrix.identity(4)) == 1

    def test_rotation(self):
        assert determinant(Matrix([[0, -1], [1, 0]])) == 1

    def test_hermitian_sample_gram(self):
        assert determinant(Matrix([[2, 1], [1, 1]])) == 1

    def test_singular(self):
        assert determinant(Matrix([[1, 2], [2, 4]])) == 0

    def test_matches_cofactor_oracle(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = rand_matrix(rng, n)
            assert determinant(m) == _cofactor_det(m)

    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
           st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
           st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_multiplicative(self, a, b, c, d, e, f, g, h):
        m1 = Matrix([[a, b], [c, d]])
        m2 = Matrix([[e, f], [g, h]])
        assert determinant(m1 @ m2) == determinant(m1) * determinant(m2)

    def test_multiplicative_larger_sizes(self):
        rng = random.Random(37)
        for _ in range(20):
            n = rng.choice((3, 4))
            m1, m2 = rand_matrix(rng, n), rand_matrix(rng, n)
            assert determinant(m1 @ m2) == determinant(m1) * determinant(m2)


class TestInverse:
    def test_identity(self):
        assert matrix_inverse(Matrix.identity(5)) == Matrix.identity(5)

    def test_sign_flip_is_involution(self):
        d = Matrix.diagonal([-1, 1, -1, 1])
        assert matrix_inverse(d) == d

    def test_swap_is_involution(self):
        s = Matrix([[0, 1], [1, 0]])
        assert matrix_inverse(s) == s

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            matrix_inverse(Matrix([[1, 1], [1, 1]]))

    def test_random_left_right_inverse(self):
        rng = random.Random(13)
        for _ in range(10):
            n = rng.randint(1, 5)
            a = rand_invertible(rng, n)
            inv = matrix_inverse(a)
            assert a @ inv == Matrix.identity(n)
            assert inv @ a == Matrix.identity(n)


def _signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return Matrix(
        [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    )


def _dense_fractional(rng, n, singular=False):
    rows = [[rand_fraction(rng, -9, 9, 7) for _ in range(n)] for _ in range(n)]
    if singular:
        s, t = rand_fraction(rng, nonzero=True), rand_fraction(rng)
        rows[-1] = [s * x + t * y for x, y in zip(rows[0], rows[1 % (n - 1)])]
    return Matrix(rows)


def _block(rng, n, kind):
    """The double's omega or twist, or [[A, C], [0, D]] with fractional blocks."""
    half = n // 2
    if kind == "omega":
        return canonical_double_omega(half).omega
    if kind == "twist":
        p = _signed_permutation(rng, half)
        return direct_sum(p, p.transpose())
    a, c, d = (rand_matrix(rng, half) for _ in range(3))
    return Matrix(
        [list(ra) + list(rc) for ra, rc in zip(a.rows, c.rows)]
        + [[0] * half + list(rd) for rd in d.rows]
    )


def _inputs():
    rng = random.Random(20261019)
    out = []
    for n in (1, 2, 3, 4, 6, 8, 12, 16):
        out.append((f"signed-perm-{n}", _signed_permutation(rng, n)))
        if n % 2 == 0:
            out += [(f"{k}-{n}", _block(rng, n, k)) for k in ("omega", "twist", "triangular")]
        if n <= 8:
            out.append((f"dense-{n}", _dense_fractional(rng, n)))
        if 2 <= n <= 8:
            out.append((f"dense-singular-{n}", _dense_fractional(rng, n, singular=True)))
    return out


INPUTS = _inputs()


class TestEliminationAgainstReference:
    """The Gauss-Jordan views against the Bareiss oracle and their identities."""

    @pytest.mark.parametrize("a", [a for _, a in INPUTS], ids=[k for k, _ in INPUTS])
    def test_views_agree(self, a):
        rng = random.Random(repr(a))
        n = a.nrows
        det = determinant(a)
        assert det == bareiss_determinant(a)
        kernel = null_space(a)
        assert row_space_rank(a.rows) + len(kernel) == n
        assert all(not any(a.apply(v)) for v in kernel)
        assert (det != 0) == (not kernel)
        x = tuple(rand_fraction(rng, -9, 9, 5) for _ in range(n))
        sol = solve_linear(a, a.apply(x))
        if det != 0:
            inv = matrix_inverse(a)
            assert a @ inv == Matrix.identity(n) == inv @ a
            assert determinant(inv) == 1 / det == bareiss_determinant(inv)
            assert sol.status == UNIQUE and sol.x == x
        else:
            with pytest.raises(SingularMatrixError):
                matrix_inverse(a)
            assert sol.status == NON_UNIQUE and sol.kernel == kernel[0]

    def test_non_square_kernel(self):
        a = Matrix([[1, 2, 0, -1], [2, 4, 1, 0], [Fraction(1, 2), 1, 0, Fraction(-1, 2)]])
        kernel = null_space(a)
        assert kernel == [(-2, 1, 0, 0), (1, 0, -2, 1)]
        assert row_space_rank(a.rows) + len(kernel) == 4


class TestSpans:
    def test_null_space_annihilates(self):
        a = Matrix([[1, 1, 0], [0, 0, 1]])
        basis = null_space(a)
        assert len(basis) == 1
        assert all(x == 0 for x in a.apply(basis[0]))

    def test_rank_nullity(self):
        rng = random.Random(17)
        for _ in range(10):
            a = rand_matrix(rng, 4)
            assert row_space_rank(a.rows) + len(null_space(a)) == 4

    def test_in_span(self):
        v1, v2 = (1, 0, 1), (0, 1, 0)
        assert in_span([v1, v2], (2, 3, 2))
        assert not in_span([v1, v2], (1, 0, 0))

    def test_integer_vectors_stay_exact(self):
        # float division would round 3 * 10**17 + 1 and find one direction
        a, b = (1, 3), (10**17, 3 * 10**17 + 1)
        assert row_space_rank([a, b]) == 2
        assert not in_span([a], b)
        assert independent_subset([a, b]) == [a, b]

    def test_independent_subset_keeps_first(self):
        vs = [(1, 0), (2, 0), (0, 1)]
        assert independent_subset(vs) == [(1, 0), (0, 1)]


class TestTensor3:
    def test_from_table_antisymmetric(self):
        t = Tensor3.from_table(2, {(1, 2): (0, 1)}, antisymmetric=True)
        assert t.basis_product(1, 0) == (0, -1)
        assert t.is_antisymmetric()

    def test_from_table_rejects_bad_keys(self):
        with pytest.raises(DimensionMismatchError):
            Tensor3.from_table(2, {(2, 1): (0, 1)}, antisymmetric=True)

    def test_apply_is_bilinear(self):
        rng = random.Random(23)
        from conftest import rand_tensor

        t = rand_tensor(rng, 3)
        u = (Fraction(1), Fraction(-2), Fraction(1, 2))
        v = (Fraction(0), Fraction(3), Fraction(-1))
        w = (Fraction(2), Fraction(1), Fraction(1))
        left = t.apply(tuple(a + b for a, b in zip(u, w)), v)
        split = tuple(a + b for a, b in zip(t.apply(u, v), t.apply(w, v)))
        assert left == split

    def test_left_mult_matches_apply(self):
        rng = random.Random(29)
        from conftest import rand_tensor

        t = rand_tensor(rng, 3)
        u = (Fraction(1), Fraction(2), Fraction(-1))
        lm = t.left_mult(u)
        for j in range(3):
            assert lm.column(j) == t.apply(u, basis_vec(3, j))
