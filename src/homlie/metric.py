"""Metric and symplectic structure on twisted Lie algebras.

Covers twist-invariant pseudo-Riemannian metrics, the twisted Koszul
formula producing the unique torsion-matching metric-compatible
product, the two-cocycle test for symplectic forms, and the
left-symmetric product a symplectic form induces on an involutive
algebra:

    omega(a(u,v), phi(w)) = -omega(phi(v), [u, w]).

Nondegeneracy is always decided by exact determinant.
"""

from __future__ import annotations

from fractions import Fraction

from . import _kernel
from ._record import record
from .errors import (
    DegenerateFormError,
    DimensionMismatchError,
    InvalidStructureError,
    NonInvolutiveTwistError,
    SingularTwistError,
)
from .linalg import (
    Matrix,
    Tensor3,
    basis_vec,  # noqa: F401 (perfbench's tracer test reads metric.basis_vec)
    determinant,
    matrix_inverse,
)
from .structures import (
    Violation,
    _entry_witness,
    _require_antisymmetric,
    _require_dims,
    commutator_bracket,
)


@record
class MetricForm:
    """Symmetric nondegenerate Gram matrix of an inner product."""

    gram: Matrix

    def __post_init__(self):
        if not self.gram.is_symmetric:
            raise InvalidStructureError("metric Gram matrix must be symmetric")
        if determinant(self.gram) == 0:
            raise DegenerateFormError("metric Gram matrix is degenerate")

    @property
    def dim(self) -> int:
        return self.gram.nrows

    def inner(self, u, v):
        """<u, v> via the Gram matrix."""
        return sum(
            (a * b for a, b in zip(self.gram.apply(v), u) if a and b), Fraction(0)
        )


@record
class SymplecticForm:
    """Antisymmetric nondegenerate matrix omega[i][j] = omega(e_i, e_j)."""

    omega: Matrix

    def __post_init__(self):
        if not self.omega.is_antisymmetric:
            raise InvalidStructureError("symplectic matrix must be antisymmetric")
        if determinant(self.omega) == 0:
            raise DegenerateFormError("symplectic matrix is degenerate")

    @property
    def dim(self) -> int:
        return self.omega.nrows

    def value(self, u, v):
        return sum(
            (a * b for a, b in zip(u, self.omega.apply(v)) if a and b), Fraction(0)
        )


def check_pseudo_riemannian(g: MetricForm, phi: Matrix):
    """Twist invariance <phi u, phi v> = <u, v> on all basis pairs."""
    return _entry_witness(
        "pseudo-riemannian", phi.transpose() @ g.gram @ phi, g.gram, upper=True
    )


def check_phi_selfadjoint(g: MetricForm, phi: Matrix):
    """<phi u, v> = <u, phi v>, i.e. gram.phi = phi^T.gram.

    Only stated for involutive twists; a non-involutive twist is an error.
    """
    if phi @ phi != Matrix.identity(phi.nrows):
        raise NonInvolutiveTwistError("selfadjointness test requires phi^2 = Id")
    return _entry_witness("phi-selfadjoint", g.gram @ phi, phi.transpose() @ g.gram)


def _require_metric_dims(t: Tensor3, phi: Matrix, g: MetricForm):
    _require_dims(t, phi)
    if g.dim != t.dim:
        raise DimensionMismatchError(
            f"metric of dim {g.dim} does not match tensor of dim {t.dim}"
        )


def levi_civita_product(c: Tensor3, phi: Matrix, g: MetricForm) -> Tensor3:
    """Unique product with 2<P(u,v), phi(w)> given by the twisted Koszul formula

        2<P(e_i,e_j), phi e_k> = <[e_i,e_j], phi e_k> + <[e_k,e_j], phi e_i>
                                 + <[e_k,e_i], phi e_j>,

    solved on the kernel with one inverse of (gram.phi)^T for all n^2 pairs.
    Over an antisymmetric bracket, torsion and metric compatibility hold by
    construction for any invertible twist and symmetric metric.
    """
    _require_metric_dims(c, phi, g)
    if determinant(phi) == 0:
        raise SingularTwistError("Koszul construction needs an invertible twist")
    _require_antisymmetric(c)
    table = _kernel.form_product_table(g.gram, c, phi, ("ijk", "kji", "kij"), 2)
    return Tensor3.from_table(c.dim, table)


def check_torsion(p: Tensor3, c: Tensor3):
    """commutator of the product equals the bracket."""
    if p.dim != c.dim:
        raise DimensionMismatchError(
            f"product of dim {p.dim} does not match bracket of dim {c.dim}"
        )
    comm = commutator_bracket(p)
    n = p.dim
    for i in range(n):
        for j in range(i + 1, n):
            lhs = comm.basis_product(i, j)
            rhs = c.basis_product(i, j)
            if lhs != rhs:
                return Violation("torsion", (i + 1, j + 1), lhs, rhs)
    return True


def check_metric_compatibility(p: Tensor3, g: MetricForm, phi: Matrix):
    """<P(u,v), phi(w)> = -<phi(v), P(u,w)> on all basis triples."""
    _require_metric_dims(p, phi, g)
    n = p.dim
    phi_cols = [phi.column(k) for k in range(n)]
    for i in range(n):
        for j in range(n):
            pij = p.basis_product(i, j)
            for k in range(n):
                lhs = g.inner(pij, phi_cols[k])
                rhs = -g.inner(phi_cols[j], p.basis_product(i, k))
                if lhs != rhs:
                    return Violation(
                        "metric-compatibility", (i + 1, j + 1, k + 1), (lhs,), (rhs,)
                    )
    return True


def check_symplectic(omega: SymplecticForm, c: Tensor3, phi: Matrix):
    """Two-cocycle condition plus twist invariance.

    omega([u,v], phi w) + omega([w,u], phi v) + omega([v,w], phi u) = 0
    and omega(phi u, phi v) = omega(u, v).
    """
    _require_antisymmetric(c)
    if determinant(phi) == 0:
        raise SingularTwistError("symplectic structures require a regular twist")
    if omega.dim != c.dim or phi.nrows != c.dim:
        raise DimensionMismatchError("form, bracket and twist dimensions differ")
    bad = _kernel.first_symplectic_failure(omega.omega, c, phi)
    if bad is None:
        return True
    if bad[0] == "invariance":
        i, j = bad[1]
        inv = phi.transpose() @ omega.omega @ phi
        return Violation(
            "symplectic-invariance", (i + 1, j + 1), (inv[i, j],), (omega.omega[i, j],)
        )
    i, j, k = bad[1]
    total = omega.value(c.basis_product(i, j), phi.column(k))
    total += omega.value(c.basis_product(k, i), phi.column(j))
    total += omega.value(c.basis_product(j, k), phi.column(i))
    return Violation("symplectic-cocycle", (i + 1, j + 1, k + 1), (total,), (Fraction(0),))


def symplectic_left_symmetric(omega: SymplecticForm, c: Tensor3, phi: Matrix) -> Tensor3:
    """Left-symmetric product induced by a symplectic two-cocycle.

    The unique a with omega(a(e_i, e_j), phi(e_k)) = -omega(phi(e_j), [e_i, e_k])
    for all k; requires an involutive twist.  The output has commutator
    equal to the bracket.
    """
    _require_dims(c, phi)
    n = c.dim
    if phi @ phi != Matrix.identity(n):
        raise NonInvolutiveTwistError(
            "the symplectic left-symmetric product needs phi^2 = Id"
        )
    cocycle = check_symplectic(omega, c, phi)
    if not cocycle:
        raise InvalidStructureError(
            "form is not a symplectic two-cocycle for this bracket", cocycle
        )
    # omega(a(e_i, e_j), phi e_k) = omega([e_i, e_k], phi e_j)
    table = _kernel.form_product_table(omega.omega, c, phi, ("ikj",))
    return Tensor3.from_table(n, table)


def musical_flat(g: MetricForm, u) -> tuple:
    """Coordinates of <u, .> in the dual basis: gram @ u."""
    return g.gram.apply(u)


def musical_sharp(g: MetricForm, alpha) -> tuple:
    """Inverse of flat: the vector whose pairing with everything matches alpha."""
    return matrix_inverse(g.gram).apply(alpha)
