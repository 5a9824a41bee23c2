"""Theorems the library relies on instead of re-checking them at run time.

Each property states one identity that holds by construction, with its
hypotheses written out, and checks it on inputs that Hypothesis draws.
The library builds these products without verifying them afterwards, so
these properties are where a fault in the construction shows.
"""

from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference as ref
from homlie import catalog
from homlie.dim2 import HAT, TwistFamily2D, hat_family_member, solve_kahler_2d
from homlie.linalg import Matrix, Tensor3, determinant
from homlie.metric import (
    MetricForm,
    check_metric_compatibility,
    check_torsion,
    levi_civita_product,
)

THEOREM = settings(max_examples=50, deadline=None, derandomize=True)

small = st.fractions(-3, 3, max_denominator=3)
sparse = st.one_of(st.just(Fraction(0)), small)


@st.composite
def koszul_inputs(draw):
    """An antisymmetric bracket, a symmetric nondegenerate metric and an
    invertible twist of one dimension.  Nothing ties the three together: the
    twist need not be involutive, nor the metric twist invariant."""
    n = draw(st.integers(2, 4))
    planes = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                planes[k][i][j] = draw(sparse)
                planes[k][j][i] = -planes[k][i][j]
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(small)
    phi = Matrix([[draw(small) for _ in range(n)] for _ in range(n)])
    assume(determinant(Matrix(gram)) != 0 and determinant(phi) != 0)
    return Tensor3(planes), phi, MetricForm(Matrix(gram))


def fixture_inputs(inst):
    return inst.bracket, inst.phi, MetricForm(inst.metric)


@THEOREM
@given(koszul_inputs())
@example(fixture_inputs(catalog.kahler4(2, 3, 1)))
@example(fixture_inputs(catalog.hermitian4(1)))
def test_koszul_product_matches_torsion_and_metric(inputs):
    """Hypotheses: [,] antisymmetric, <,> symmetric nondegenerate, phi
    invertible.  Let T(a, b; d) = <[e_a, e_b], phi e_d>.  The Koszul product
    has 2<P(a, b), phi e_d> = T(a, b; d) + T(d, b; a) + T(d, a; b), so

    - torsion: 2<P(a, b) - P(b, a), phi e_d> = T(a, b; d) - T(b, a; d),
      which is 2T(a, b; d);
    - compatibility: 2<P(a, b), phi e_d> + 2<phi e_b, P(a, d)> is a sum of
      three pairs T(x, y; z) + T(y, x; z), each of them 0.
    """
    c, phi, g = inputs
    product = levi_civita_product(c, phi, g)
    assert check_torsion(product, c) is True
    assert check_metric_compatibility(product, g, phi) is True
    assert product == ref.levi_civita_product(c, phi, g)


def generic_branch_table(p, q) -> Tensor3:
    """Koszul product of [e1, e2] = e2 under the identity twist, for
    J = [[p, q], [r, -p]] with p != 0 (so r = -(1 + p^2)/q)."""
    return Tensor3.from_table(
        2,
        {
            (1, 1): (p * p, p * (-(1 + p * p) / q)),
            (1, 2): (p * q, -p * p),
            (2, 1): (p * q, -(p * p + 1)),
            (2, 2): (q * q, -p * q),
        },
    )


def antidiagonal_branch_table(r) -> Tensor3:
    """The same for J = [[0, -1/r], [r, 0]]."""
    return Tensor3.from_table(2, {(2, 1): (0, -1), (2, 2): (Fraction(1) / (r * r), 0)})


@THEOREM
@given(small, small.filter(bool), st.tuples(small, small, small))
def test_2d_koszul_product_is_its_branch_table(p, q, entries):
    """Hypotheses: [e1, e2] = e2, the identity twist, J any almost complex
    structure (p = j11, q = j12 != 0) and g any Hermitian metric for J, here
    g = g0 + J^T g0 J for a symmetric g0.  The Koszul product is the
    generic table when p != 0 and the antidiagonal one when p = 0, whatever
    the scale of g."""
    j = hat_family_member(p, q)
    a, b, d = entries
    g0 = Matrix([[a, b], [b, d]])
    gram = g0 + j.transpose() @ g0 @ j
    assume(determinant(gram) != 0)
    fam = solve_kahler_2d(TwistFamily2D(HAT), j, MetricForm(gram))
    assert fam.exists
    if p != 0:
        assert fam.product == generic_branch_table(p, q)
    else:
        assert fam.product == antidiagonal_branch_table(j[1, 0])
