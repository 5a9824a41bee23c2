"""Representations and the phase-space double V + V*.

A representation of a twisted Lie algebra is a carrier map A with a
family rho satisfying

    rho(phi u) . A = A . rho(u)
    rho([u,v]) . A = rho(phi u) . rho(v) - rho(phi v) . rho(u),

admissible when the negative-transpose family on the dual carrier is
again a representation.  From an involutive left-symmetric product the
double carries the product (u,a).(v,b) = (u.v, Ltilde_{phi u} b), the
twist phi + phi^T, the canonical symplectic pairing, and a complex
structure built from the musical maps of a chosen metric.

Dual-basis convention: e^i(e_j) = delta_ij, so the dual of a map is its
transpose and Ltilde_u = -(L_u)^T.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from . import _kernel
from ._record import record
from .errors import (
    InvalidStructureError,
    NonInvolutiveTwistError,
    NotAdmissibleError,
    NotLeftSymmetricError,
)
from .linalg import (
    Matrix,
    Tensor3,
    direct_sum,
    matrix_inverse,
)
from .metric import MetricForm, SymplecticForm, check_phi_selfadjoint
from .structures import (
    HomLieAlgebra,
    Violation,
    _require_dims,
    check_hom_left_symmetric,
    check_morphism,
    commutator_bracket,
)


@record
class Representation:
    """Carrier map plus one matrix per base basis vector.

    ``bracket`` and ``twist`` describe the base algebra the family
    represents; the carrier may have any dimension.
    """

    a_map: Matrix
    rho: tuple
    bracket: Tensor3
    twist: Matrix

    @property
    def base_dim(self) -> int:
        return self.bracket.dim

    @property
    def carrier_dim(self) -> int:
        return self.a_map.nrows

    def rho_of(self, u) -> Matrix:
        """rho extended linearly to an arbitrary base vector."""
        out = Matrix.zeros(self.carrier_dim)
        for i, coeff in enumerate(u):
            if coeff:
                out = out + self.rho[i] * coeff
        return out


@record
class DualRepresentation:
    """Negative-transpose family on the dual carrier."""

    a_star: Matrix
    rho_tilde: tuple
    bracket: Tensor3
    twist: Matrix

    def as_representation(self) -> Representation:
        return Representation(
            a_map=self.a_star,
            rho=self.rho_tilde,
            bracket=self.bracket,
            twist=self.twist,
        )


def check_representation(rep: Representation):
    """Both defining identities over all basis pairs of the base."""
    bad = _kernel.first_representation_failure(rep)
    if bad is None:
        return True
    a = rep.a_map
    if bad[0] == "twist":
        (i,) = bad[1]
        lhs = rep.rho_of(rep.twist.column(i)) @ a
        rhs = a @ rep.rho[i]
        return Violation("representation-twist", (i + 1,), lhs.rows, rhs.rows)
    i, j = bad[1]
    lhs = rep.rho_of(rep.bracket.basis_product(i, j)) @ a
    rhs = (
        rep.rho_of(rep.twist.column(i)) @ rep.rho[j]
        - rep.rho_of(rep.twist.column(j)) @ rep.rho[i]
    )
    return Violation("representation-bracket", (i + 1, j + 1), lhs.rows, rhs.rows)


def check_admissible(rep: Representation):
    """The two extra identities making the dual family a representation."""
    base = check_representation(rep)
    if not base:
        raise InvalidStructureError("not a representation", base)
    bad = _kernel.first_representation_failure(rep, dual=True)
    if bad is None:
        return True
    a = rep.a_map
    if bad[0] == "twist":
        (i,) = bad[1]
        lhs = a @ rep.rho_of(rep.twist.column(i))
        rhs = rep.rho[i] @ a
        return Violation("admissible-twist", (i + 1,), lhs.rows, rhs.rows)
    i, j = bad[1]
    lhs = a @ rep.rho_of(rep.bracket.basis_product(i, j))
    rhs = (
        rep.rho[i] @ rep.rho_of(rep.twist.column(j))
        - rep.rho[j] @ rep.rho_of(rep.twist.column(i))
    )
    return Violation("admissible-bracket", (i + 1, j + 1), lhs.rows, rhs.rows)


def adjoint_rep(g: HomLieAlgebra) -> Representation:
    """rho(e_i) = [e_i, .] on the algebra itself, carrier map the twist."""
    n = g.dim
    return Representation(
        a_map=g.twist,
        rho=tuple(g.bracket.left_mult_basis(i) for i in range(n)),
        bracket=g.bracket,
        twist=g.twist,
    )


def _require_left_symmetric(p: Tensor3, phi: Matrix):
    """Raise unless p is hom-left-symmetric and phi is a morphism of it."""
    ls = check_hom_left_symmetric(p, phi)
    if not ls:
        raise NotLeftSymmetricError(ls.describe())
    mor = check_morphism(p, phi)
    if not mor:
        raise InvalidStructureError("twist is not a product morphism", mor)


def left_mult_rep(p: Tensor3, phi: Matrix) -> Representation:
    """rho(e_i) = left multiplication by e_i of a left-symmetric product.

    The base bracket is the commutator of the product.  The left-symmetry
    and morphism preconditions are enforced.
    """
    _require_left_symmetric(p, phi)
    n = p.dim
    return Representation(
        a_map=phi,
        rho=tuple(p.left_mult_basis(i) for i in range(n)),
        bracket=commutator_bracket(p),
        twist=phi,
    )


def dual_rep(rep: Representation) -> DualRepresentation:
    """Negative transposes on the dual; requires an admissible input."""
    adm = check_admissible(rep)
    if not adm:
        raise NotAdmissibleError(adm.describe())
    return DualRepresentation(
        a_star=rep.a_map.transpose(),
        rho_tilde=tuple(-(m.transpose()) for m in rep.rho),
        bracket=rep.bracket,
        twist=rep.twist,
    )


@record
class PhaseSpaceInstance:
    """The double V + V* with product, twist, symplectic form and J.

    Coordinates 1..n are the base, n+1..2n the dual basis.  The metric
    recorded here is the one whose musical maps define the complex
    structure.
    """

    base_dim: int
    product: Tensor3
    twist: Matrix
    omega: SymplecticForm
    j_cal: Matrix
    metric: MetricForm

    @property
    def dim(self) -> int:
        return 2 * self.base_dim


def phase_space_product(p: Tensor3, phi: Matrix) -> Tensor3:
    """The double product (u,a).(v,b) = (u.v, -L_{phi u}^T b) on basis pairs.

    Dual-only and dual-times-base products vanish, so both summands
    embed as subalgebras.
    """
    _require_dims(p, phi)
    n = p.dim
    zero = (0,) * n
    table = {pair: col + zero for pair, col in p.nonzero_table().items()}
    # the e_m coefficient of phi(e_i).e_k is entry (k, m) of L_{phi e_i}^T
    lefts, den = _kernel.left_products(p, phi)
    for i, left in enumerate(lefts):
        for k, col in left.items():
            for m, v in col.items():
                dual = table.setdefault((i + 1, n + m + 1), [0] * (2 * n))
                dual[n + k] = Fraction(-v, den)
    return Tensor3.from_table(2 * n, table)


def canonical_double_omega(n: int) -> SymplecticForm:
    """omega((u,a),(v,b)) = <b, u> - <a, v>: block matrix [[0, I], [-I, 0]]."""
    rows = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][n + i] = Fraction(1)
        rows[n + i][i] = Fraction(-1)
    return SymplecticForm(Matrix(rows))


def canonical_complex_structure(phi: Matrix, g: MetricForm) -> Matrix:
    """J(u, a) = (-phi(sharp a), phi^T(flat u)) as a 2n x 2n rational matrix."""
    n = phi.nrows
    upper = -(phi @ matrix_inverse(g.gram))
    lower = phi.transpose() @ g.gram
    return Matrix(
        [[0] * n + list(row) for row in upper.rows]
        + [list(row) + [0] * n for row in lower.rows]
    )


def build_phase_space(
    p: Tensor3,
    phi: Matrix,
    metric: MetricForm | None = None,
    check_base: bool = True,
) -> PhaseSpaceInstance:
    """Assemble the double of an involutive left-symmetric base.

    ``metric`` supplies the musical identification used by the complex
    structure; it defaults to the identity Gram matrix and must make
    the twist selfadjoint, or the complex structure cannot square to
    -Id.  ``check_base=False`` skips the left-symmetry precondition so
    that non-left-symmetric products (for instance metric products with
    curvature) can still be doubled for characterization runs.
    """
    _require_dims(p, phi)
    n = p.dim
    if phi @ phi != Matrix.identity(n):
        raise NonInvolutiveTwistError("phase space needs an involutive twist")
    if check_base:
        _require_left_symmetric(p, phi)
    if metric is None:
        metric = MetricForm(Matrix.identity(n))
    sa = check_phi_selfadjoint(metric, phi)
    if not sa:
        raise InvalidStructureError(
            "musical metric must make the twist selfadjoint", sa
        )
    twist = direct_sum(phi, phi.transpose())
    return PhaseSpaceInstance(
        base_dim=n,
        product=phase_space_product(p, phi),
        twist=twist,
        omega=canonical_double_omega(n),
        j_cal=canonical_complex_structure(phi, metric),
        metric=metric,
    )


def check_phase_space_complex(ps: PhaseSpaceInstance):
    """Vanishing Nijenhuis torsion of twist . J over the double's commutator.

    Computed directly from the definition rather than through the
    almost-complex checker so it also applies to characterization
    doubles whose product is not left-symmetric.
    """
    c = commutator_bracket(ps.product)
    pairs = combinations(range(ps.dim), 2)
    for a, b, val in _kernel.nijenhuis(c, ps.twist @ ps.j_cal, pairs):
        return Violation("phase-space-nijenhuis", (a + 1, b + 1), val)
    return True
