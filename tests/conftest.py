"""Shared builders: seeded random structures used across the suite.

Random generation is deterministic (explicit seeds in the tests); these
helpers only know how to produce structurally valid inputs, never
expected values.
"""

from fractions import Fraction

from homlie.linalg import Matrix, Tensor3, determinant, matrix_inverse
from homlie.metric import MetricForm


def rand_fraction(rng, lo=-4, hi=4, max_den=3, nonzero=False):
    while True:
        value = Fraction(rng.randint(lo, hi), rng.randint(1, max_den))
        if not nonzero or value != 0:
            return value


def rand_matrix(rng, n, lo=-3, hi=3, max_den=2):
    return Matrix(
        [[rand_fraction(rng, lo, hi, max_den) for _ in range(n)] for _ in range(n)]
    )


def rand_invertible(rng, n):
    while True:
        m = rand_matrix(rng, n)
        if determinant(m) != 0:
            return m


def rand_tensor(rng, n, lo=-2, hi=2):
    return Tensor3(
        [
            [[rand_fraction(rng, lo, hi, 2) for _ in range(n)] for _ in range(n)]
            for _ in range(n)
        ]
    )


def rand_involutive_twist(rng, n):
    """S . diag(+-1) . S^-1 for a random invertible S."""
    s = rand_invertible(rng, n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return s @ Matrix.diagonal(signs) @ matrix_inverse(s)


def symmetrized_invariant_metric(rng, phi):
    """Random twist-invariant nondegenerate symmetric form, by averaging.

    G = (G0 + phi^T G0 phi) / 2 is invariant whenever phi is involutive;
    retry until nondegenerate.
    """
    n = phi.nrows
    half = Fraction(1, 2)
    while True:
        g0 = rand_matrix(rng, n)
        sym = (g0 + g0.transpose()) * half
        g = (sym + phi.transpose() @ sym @ phi) * half
        if determinant(g) != 0:
            return MetricForm(g)


def conjugate_tensor(c, s):
    """Structure constants in the basis f_i = s(e_i)."""
    n = c.dim
    s_inv = matrix_inverse(s)
    planes = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            col = s_inv.apply(c.apply(s.column(i), s.column(j)))
            for k in range(n):
                planes[k][i][j] = col[k]
    return Tensor3(planes)


def conjugate_twist(phi, s):
    return matrix_inverse(s) @ phi @ s


def pullback_metric(g: MetricForm, s) -> MetricForm:
    return MetricForm(s.transpose() @ g.gram @ s)


def imex_block_j(rng):
    """Random almost complex structure commuting with diag(-1, 1, -1, 1).

    The twist eigenspaces are span(e1, e3) and span(e2, e4); J preserves
    each, acting there as a 2x2 root of -Id.
    """

    def block():
        p = rand_fraction(rng, -2, 2, 2)
        q = rand_fraction(rng, -2, 2, 2, nonzero=True)
        r = (-1 - p * p) / q
        return p, q, r

    p1, q1, r1 = block()
    p2, q2, r2 = block()
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    # block on (e1, e3)
    rows[0][0], rows[0][2] = p1, q1
    rows[2][0], rows[2][2] = r1, -p1
    # block on (e2, e4)
    rows[1][1], rows[1][3] = p2, q2
    rows[3][1], rows[3][3] = r2, -p2
    return Matrix(rows)


def realify(pairs):
    """The rational vectors (a, b) and (-b, a) spanning the pairs' complex span."""
    return [tuple(a) + tuple(b) for a, b in pairs] + [
        tuple(-x for x in b) + tuple(a) for a, b in pairs
    ]


def realified_bracket(c):
    """The complexified bracket on C^n = R^2n, built entry by entry."""
    n = c.dim
    planes = [[[Fraction(0)] * (2 * n) for _ in range(2 * n)] for _ in range(2 * n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                x = c.entries[k][i][j]
                planes[k][i][j] = x
                planes[k][n + i][n + j] = -x
                planes[n + k][i][n + j] = x
                planes[n + k][n + i][j] = x
    return Tensor3(planes)
