"""Derived tensors built from their nonzero columns agree with the dense loops.

The commutator bracket and the phase-space double are assembled by
``Tensor3.from_table`` from the pairs that carry a nonzero column.  These
properties compare them with the dense plane loops kept in
``reference.py``, on sparse and dense tensors with zero columns, symmetric
pairs p(e_i, e_j) = p(e_j, e_i), diagonal pairs and non-integer
denominators, and pin what ``from_table`` itself promises.
"""

import pickle
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference as ref
from homlie import catalog
from homlie.linalg import Matrix, Tensor3
from homlie.metric import MetricForm, levi_civita_product
from homlie.phase_space import phase_space_product
from homlie.structures import commutator_bracket

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True)

coeff = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3, 4)))
sparse_coeff = st.one_of(st.just(Fraction(0)), coeff)

# how each basis pair's column is drawn: zero, drawn, or (when the mirrored
# pair is already set) the mirrored column, so that p(e_i, e_j) = p(e_j, e_i)
DENSE = st.just("drawn")
SPARSE = st.sampled_from(("zero", "zero", "zero", "drawn", "mirror"))
MIXED = st.sampled_from(("zero", "drawn", "mirror"))


@st.composite
def tensors_and_twists(draw):
    """A tensor of dimension 1..4, built densely, and any square twist."""
    n = draw(st.integers(1, 4))
    kinds = draw(st.sampled_from((DENSE, SPARSE, MIXED)))
    column = st.lists(coeff if kinds is DENSE else sparse_coeff, min_size=n, max_size=n)
    cols = {}
    for i in range(n):
        for j in range(n):
            kind = draw(kinds)
            if kind == "drawn":
                cols[i, j] = draw(column)
            elif kind == "mirror" and (j, i) in cols:
                cols[i, j] = cols[j, i]
    zero = [0] * n
    planes = [
        [[cols.get((i, j), zero)[k] for j in range(n)] for i in range(n)]
        for k in range(n)
    ]
    phi = Matrix([[draw(sparse_coeff) for _ in range(n)] for _ in range(n)])
    return Tensor3(planes), phi


def kahler4_product():
    inst = catalog.kahler4(1, 1, 1)
    return levi_civita_product(inst.bracket, inst.phi, MetricForm(inst.metric)), inst.phi


@PROPERTY
@given(tensors_and_twists())
@example(kahler4_product())
def test_commutator_and_double_match_the_dense_loops(inputs):
    """The commutator of the tensor, its phase-space double (the base block
    and the dual block -L_{phi e_i}^T) and the commutator of that sparse
    double, on which the double's complex structure is judged."""
    p, phi = inputs
    assert commutator_bracket(p) == ref.commutator_bracket(p)
    double, expected = phase_space_product(p, phi), ref.phase_space_product(p, phi)
    assert double == expected
    assert commutator_bracket(double) == ref.commutator_bracket(expected)


def as_given(x: Fraction, form: int):
    """The same coefficient as a Fraction, an int where exact, or a "p/q" string."""
    if form == 1 and x.denominator == 1:
        return int(x)
    if form == 2:
        return str(x)
    return x


GIVEN = st.tuples(sparse_coeff, st.integers(0, 2))


@st.composite
def tables(draw):
    n = draw(st.integers(1, 4))
    antisymmetric = draw(st.booleans())
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    if antisymmetric:
        pairs = [(i, j) for i, j in pairs if i < j]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    column = st.lists(GIVEN, min_size=n, max_size=n)
    table = {key: [as_given(x, f) for x, f in draw(column)] for key in keys}
    return n, table, antisymmetric


@PROPERTY
@given(tables())
def test_from_table_tensor_is_an_ordinary_tensor(args):
    """Only Fraction entries, the given values (negated on the mirrored pairs
    of an antisymmetric table), and the equality, hash and pickle of
    ``Tensor3(entries)``."""
    n, table, antisymmetric = args
    t = Tensor3.from_table(n, table, antisymmetric=antisymmetric)
    assert all(type(x) is Fraction for plane in t.entries for row in plane for x in row)
    planes = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), values in table.items():
        for k, x in enumerate(values):
            planes[k][i - 1][j - 1] = Fraction(x)
            if antisymmetric:
                planes[k][j - 1][i - 1] = -Fraction(x)
    assert t == Tensor3(planes) == Tensor3(t.entries)
    assert hash(t) == hash(Tensor3(planes)) == hash(Tensor3(t.entries))
    back = pickle.loads(pickle.dumps(t))
    assert back == t and hash(back) == hash(t) and back.dim == n
