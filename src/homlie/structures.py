"""Twisted-algebra data model and axiom checkers.

A hom-algebra is a bilinear product together with a linear twist map
that is a morphism of the product; a hom-Lie algebra additionally has
an antisymmetric bracket satisfying the twisted Jacobi identity

    [phi(u), [v, w]] + [phi(v), [w, u]] + [phi(w), [u, v]] = 0.

Every checker here reduces a for-all-vectors claim to basis tuples
(bilinearity plus exactness make that complete) and returns either
``True`` or the first violating tuple in lexicographic order, with both
sides of the failed identity attached.
"""

from __future__ import annotations

from itertools import combinations

from . import _kernel
from ._record import record
from .errors import DimensionMismatchError, InvalidStructureError
from .linalg import (
    Matrix,
    Tensor3,
    basis_vec,
    determinant,
    in_span,
    row_space_rank,
    vec_add,
    vec_sub,
    zero_vec,
)


@record
class Violation:
    """First witness of a failed axiom: which identity, where, both sides.

    ``witness`` holds 1-based basis indices.  Violation is falsy so that
    ``if not check_x(...)`` reads naturally and the object itself can be
    printed as the counterexample.
    """

    kind: str
    witness: tuple
    lhs: tuple = ()
    rhs: tuple = ()

    def __bool__(self):
        return False

    def describe(self) -> str:
        spot = ",".join(f"e{i}" for i in self.witness)
        return f"{self.kind} fails at ({spot}): lhs={self.lhs} rhs={self.rhs}"

    def __str__(self):
        return self.describe()


def _require_dims(t: Tensor3, phi: Matrix):
    if not phi.is_square or phi.nrows != t.dim:
        raise DimensionMismatchError(
            f"twist {phi.shape} does not match tensor of dim {t.dim}"
        )


def _entry_witness(kind: str, lhs: Matrix, rhs: Matrix, upper=False, prefix=()):
    """True, or the first entry (i, k) in row-major order, k >= i only if ``upper``,
    where lhs and rhs differ: witness ``prefix + (i + 1, k + 1)``, the entries as sides."""
    for i, (lrow, rrow) in enumerate(zip(lhs.rows, rhs.rows)):
        for k in range(i if upper else 0, len(lrow)):
            if lrow[k] != rrow[k]:
                return Violation(kind, prefix + (i + 1, k + 1), (lrow[k],), (rrow[k],))
    return True


def check_antisymmetry(c: Tensor3):
    """Entrywise c[k][i][j] = -c[k][j][i]."""
    bad = _kernel.first_asymmetric(c)
    if bad is None:
        return True
    i, j = bad
    lhs = c.basis_product(i, j)
    rhs = tuple(-x for x in c.basis_product(j, i))
    return Violation("antisymmetry", (i + 1, j + 1), lhs, rhs)


def _require_antisymmetric(c: Tensor3):
    anti = check_antisymmetry(c)
    if not anti:
        raise InvalidStructureError("bracket is not antisymmetric", anti)


def commutator_bracket(p: Tensor3) -> Tensor3:
    """c[k][i][j] = p[k][i][j] - p[k][j][i]; always antisymmetric."""
    n = p.dim
    return Tensor3(
        [
            [
                [p.entries[k][i][j] - p.entries[k][j][i] for j in range(n)]
                for i in range(n)
            ]
            for k in range(n)
        ]
    )


def check_morphism(t: Tensor3, phi: Matrix):
    """phi(t(e_i, e_j)) = t(phi e_i, phi e_j) on all basis pairs."""
    _require_dims(t, phi)
    bad = _kernel.first_non_morphism(t, phi)
    if bad is None:
        return True
    i, j = bad
    lhs = phi.apply(t.basis_product(i, j))
    rhs = t.apply(phi.column(i), phi.column(j))
    return Violation("morphism", (i + 1, j + 1), lhs, rhs)


def hom_jacobi_defect(c: Tensor3, phi: Matrix, i: int, j: int, k: int) -> tuple:
    """Cyclic sum [phi e_i, [e_j, e_k]] + [phi e_j, [e_k, e_i]] + [phi e_k, [e_i, e_j]].

    Indices are 1-based to match reported witnesses.
    """
    n = c.dim
    total = zero_vec(n)
    for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
        inner = c.basis_product(q - 1, r - 1)
        total = vec_add(total, c.apply(phi.column(p - 1), inner))
    return total


def check_hom_jacobi(c: Tensor3, phi: Matrix):
    """Twisted Jacobi identity over all basis triples i < j < k."""
    _require_dims(c, phi)
    _require_antisymmetric(c)
    bad = _kernel.first_hom_jacobi_defect(c, phi)
    if bad is None:
        return True
    i, j, k = (x + 1 for x in bad)
    return Violation(
        "hom-jacobi", (i, j, k), hom_jacobi_defect(c, phi, i, j, k), zero_vec(c.dim)
    )


def twisted_associator(p: Tensor3, phi: Matrix, u, v, w) -> tuple:
    """(u.v).phi(w) - phi(u).(v.w)."""
    return vec_sub(
        p.apply(p.apply(u, v), phi.apply(w)),
        p.apply(phi.apply(u), p.apply(v, w)),
    )


def check_hom_left_symmetric(p: Tensor3, phi: Matrix):
    """The twisted associator is symmetric in its first two arguments."""
    _require_dims(p, phi)
    bad = _kernel.first_not_left_symmetric(p, phi)
    if bad is None:
        return True
    i, j, k = bad
    n = p.dim
    ei, ej, ek = basis_vec(n, i), basis_vec(n, j), basis_vec(n, k)
    lhs = twisted_associator(p, phi, ei, ej, ek)
    rhs = twisted_associator(p, phi, ej, ei, ek)
    return Violation("hom-left-symmetric", (i + 1, j + 1, k + 1), lhs, rhs)


def tensor_curvature(p: Tensor3, phi: Matrix, u, v, w) -> tuple:
    """K(u,v)w = phi(u).(v.w) - phi(v).(u.w) - [u,v].phi(w), commutator bracket."""
    _require_dims(p, phi)
    uv = vec_sub(p.apply(u, v), p.apply(v, u))
    return vec_sub(
        vec_sub(
            p.apply(phi.apply(u), p.apply(v, w)),
            p.apply(phi.apply(v), p.apply(u, w)),
        ),
        p.apply(uv, phi.apply(w)),
    )


def check_hom_bianchi(p: Tensor3, phi: Matrix):
    """Cyclic sum of twisted brackets equals cyclic sum of curvature terms.

    This holds for every bilinear product and every linear map, so a
    False here indicates an implementation bug, not bad input.
    """
    _require_dims(p, phi)
    n = p.dim
    c = commutator_bracket(p)
    for i, j, k in combinations(range(1, n + 1), 3):
        lhs = hom_jacobi_defect(c, phi, i, j, k)
        rhs = zero_vec(n)
        for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
            rhs = vec_add(
                rhs,
                tensor_curvature(
                    p, phi, basis_vec(n, a - 1), basis_vec(n, b - 1), basis_vec(n, d - 1)
                ),
            )
        if lhs != rhs:
            return Violation("hom-bianchi", (i, j, k), lhs, rhs)
    return True


def check_hom_lie_admissible(p: Tensor3, phi: Matrix):
    """The commutator bracket of the product satisfies the twisted Jacobi identity."""
    return check_hom_jacobi(commutator_bracket(p), phi)


def check_subalgebra(c: Tensor3, phi: Matrix, basis):
    """Closure of a subspace under the twist and the bracket.

    ``basis`` is a list of linearly independent rational vectors;
    membership is decided by exact row reduction.
    """
    _require_dims(c, phi)
    vectors = [tuple(v) for v in basis]
    if row_space_rank(vectors) != len(vectors):
        raise InvalidStructureError("subalgebra basis is linearly dependent")
    for idx, v in enumerate(vectors):
        img = phi.apply(v)
        if not in_span(vectors, img):
            return Violation("subalgebra-twist", (idx + 1,), tuple(img))
    for a in range(len(vectors)):
        for b in range(len(vectors)):
            br = c.apply(vectors[a], vectors[b])
            if not in_span(vectors, br):
                return Violation("subalgebra-bracket", (a + 1, b + 1), tuple(br))
    return True


# ---------------------------------------------------------------------------
# validated containers
# ---------------------------------------------------------------------------

@record
class HomAlgebra:
    """A bilinear product with a twist that is verified to be a morphism."""

    product: Tensor3
    twist: Matrix

    def __post_init__(self):
        result = check_morphism(self.product, self.twist)
        if not result:
            raise InvalidStructureError("twist is not a product morphism", result)

    @property
    def dim(self) -> int:
        return self.product.dim

    def left_mult(self, u) -> Matrix:
        return self.product.left_mult(u)


@record
class HomLieAlgebra:
    """An antisymmetric bracket plus twist, all axioms verified on construction."""

    bracket: Tensor3
    twist: Matrix

    def __post_init__(self):
        for checker in (
            lambda: check_antisymmetry(self.bracket),
            lambda: check_morphism(self.bracket, self.twist),
            lambda: check_hom_jacobi(self.bracket, self.twist),
        ):
            result = checker()
            if not result:
                raise InvalidStructureError(result.describe(), result)

    @property
    def dim(self) -> int:
        return self.bracket.dim

    @property
    def is_regular(self) -> bool:
        return determinant(self.twist) != 0

    @property
    def is_involutive(self) -> bool:
        return self.twist @ self.twist == Matrix.identity(self.dim)
