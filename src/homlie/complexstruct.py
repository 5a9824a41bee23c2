"""Almost complex, Hermitian and Kahler structure on twisted Lie algebras.

An almost complex structure on an involutive algebra is a J with
J^2 = -Id commuting with the twist phi.  Integrability is measured by
the Nijenhuis torsion of the composite G = phi o J,

    N(u,v) = [Gu, Gv] - G[Gu, v] - G[u, Gv] - [u, v],

and is equivalent to either eigenspace of G inside the complexified
algebra being closed under the bracket and the twist.  A complex vector
a + ib is the pair (a, b) of rational vectors, and a complex subspace is
decided through its realification: the rational span of all (a, b) and
(-b, a) in Q^2n, under the realified bracket and the twist phi + phi.
Nothing here ever needs real closure.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from . import _kernel
from ._record import record
from .errors import (
    DimensionMismatchError,
    InvalidStructureError,
    NonInvolutiveTwistError,
    OddDimensionError,
)
from .linalg import (
    Matrix,
    Tensor3,
    basis_vec,
    direct_sum,
    row_space_rank,
    vec_neg,
)
from .metric import MetricForm, SymplecticForm, check_pseudo_riemannian
from .structures import Violation, _entry_witness, check_subalgebra


def check_almost_complex(j: Matrix, phi: Matrix):
    """J^2 = -Id and J.phi = phi.J over an involutive twist.

    Odd dimension is rejected outright: det(J)^2 = det(-Id) = (-1)^n
    has no solution for odd n.
    """
    if phi.shape != j.shape:
        raise DimensionMismatchError(f"twist {phi.shape} does not match J {j.shape}")
    n = j.nrows
    if n % 2 == 1:
        raise OddDimensionError(
            "no almost complex structure in odd dimension: det(J)^2 = (-1)^n"
        )
    if phi @ phi != Matrix.identity(n):
        raise NonInvolutiveTwistError("almost complex structures need phi^2 = Id")
    square = _entry_witness("almost-complex-square", j @ j, -Matrix.identity(n))
    if not square:
        return square
    return _entry_witness("almost-complex-commute", phi @ j, j @ phi)


def _require_almost_complex(j, phi, c=None):
    """Raise unless J is almost complex over phi and, given a bracket c, of its
    dimension."""
    result = check_almost_complex(j, phi)
    if not result:
        raise InvalidStructureError("J is not an almost complex structure", result)
    if c is not None and c.dim != j.nrows:
        raise DimensionMismatchError("bracket and J dimensions differ")


def check_nijenhuis(c: Tensor3, phi: Matrix, j: Matrix):
    """Vanishing torsion of phi o J on all basis pairs a < b; the torsion of an
    antisymmetric bracket is antisymmetric, so none is missed."""
    _require_almost_complex(j, phi, c)
    n = c.dim
    for a, b, val in _kernel.nijenhuis(c, phi @ j, combinations(range(n), 2)):
        return Violation("nijenhuis", (a + 1, b + 1), val, (Fraction(0),) * n)
    return True


def check_hermitian_compatibility(j: Matrix, g: MetricForm, phi: Matrix):
    """<(phi J)u, (phi J)v> = <u, v> on all basis pairs.

    Preconditions (almost complex J, twist-invariant metric) are
    re-checked and raised as errors, matching how the verdict is used.
    """
    _require_almost_complex(j, phi)
    pr = check_pseudo_riemannian(g, phi)
    if not pr:
        raise InvalidStructureError("metric is not twist invariant", pr)
    pj = phi @ j
    return _entry_witness("hermitian", pj.transpose() @ g.gram @ pj, g.gram, upper=True)


@record
class ComplexSplit:
    """Eigenbasis of phi o J acting on the complexification.

    ``basis10`` spans the +i eigenspace with vectors u - i (phi J) u and
    ``basis01`` the -i eigenspace with their conjugates; each vector is a
    pair (re, im) of rational tuples.
    """

    basis10: tuple
    basis01: tuple
    dim: int

    @property
    def rank(self) -> int:
        return len(self.basis10)


def _realify(vectors) -> list:
    """The rational spanning set {(a, b), (-b, a)} of the pairs' complex span."""
    return [part for a, b in vectors for part in (a + b, vec_neg(b) + a)]


def complexify_and_split(c: Tensor3, phi: Matrix, j: Matrix) -> ComplexSplit:
    """Reduce the candidate vectors e_k - i (phi J) e_k to an eigenbasis.

    A candidate is kept when it raises the rational rank of the
    realification of those kept before it, which is twice their complex
    rank; so the earliest independent candidates are kept, reproducibly.
    """
    _require_almost_complex(j, phi, c)
    n = c.dim
    pj = phi @ j
    kept = []
    for k in range(n):
        pair = (basis_vec(n, k), vec_neg(pj.column(k)))
        if row_space_rank(_realify(kept + [pair])) > 2 * len(kept):
            kept.append(pair)
    basis01 = tuple((a, vec_neg(b)) for a, b in kept)
    return ComplexSplit(basis10=tuple(kept), basis01=basis01, dim=n)


def _realified_bracket(c: Tensor3) -> Tensor3:
    """[x1 + i y1, x2 + i y2] = ([x1, x2] - [y1, y2]) + i ([x1, y2] + [y1, x2])."""
    n = c.dim
    zero = (0,) * n
    table = {}
    for (i, j), col in c.nonzero_table().items():
        table[i, j] = col + zero
        table[n + i, n + j] = vec_neg(col) + zero
        table[i, n + j] = table[n + i, j] = zero + col
    return Tensor3.from_table(2 * n, table)


@record
class IntegrabilityReport:
    """Three equivalent integrability verdicts, which must agree."""

    subalgebra_10: bool
    subalgebra_01: bool
    nijenhuis_zero: bool

    @property
    def consistent(self) -> bool:
        return self.subalgebra_10 == self.subalgebra_01 == self.nijenhuis_zero

    @property
    def integrable(self) -> bool:
        return self.nijenhuis_zero


def check_integrability_equivalence(
    c: Tensor3, phi: Matrix, j: Matrix
) -> IntegrabilityReport:
    """Eigenspace closure versus vanishing torsion, computed independently.

    Each eigenspace is checked as a subalgebra of the 2n-dimensional
    realification of the complexified algebra.
    """
    split = complexify_and_split(c, phi, j)
    real_c, real_phi = _realified_bracket(c), direct_sum(phi, phi)
    sub10 = check_subalgebra(real_c, real_phi, _realify(split.basis10))
    sub01 = check_subalgebra(real_c, real_phi, _realify(split.basis01))
    nz = check_nijenhuis(c, phi, j) is True
    return IntegrabilityReport(
        subalgebra_10=bool(sub10), subalgebra_01=bool(sub01), nijenhuis_zero=nz
    )


def check_kahler(p: Tensor3, phi: Matrix, j: Matrix):
    """Left multiplication by every basis vector commutes with phi o J.

    ``p`` must already be the metric product of the structure under test,
    such as ``levi_civita_product``'s, whose torsion and compatibility hold
    by construction; this check then decides invariance.
    """
    _require_almost_complex(j, phi)
    pj = phi @ j
    for i in range(p.dim):
        left = p.left_mult_basis(i)
        bad = _entry_witness("kahler-invariance", left @ pj, pj @ left, prefix=(i + 1,))
        if not bad:
            return bad
    return True


def induced_symplectic(g: MetricForm, phi: Matrix, j: Matrix) -> SymplecticForm:
    """The two-form Omega(u, v) = <(phi J) u, v> of a Hermitian pair.

    Entrywise Omega[i][j] = <(phi J) e_i, e_j>; antisymmetry and
    nondegeneracy are enforced by the SymplecticForm constructor.
    """
    herm = check_hermitian_compatibility(j, g, phi)
    if not herm:
        raise InvalidStructureError("pair is not Hermitian-compatible", herm)
    pj = phi @ j
    n = g.dim
    rows = [
        [g.inner(pj.column(i), basis_vec(n, k)) for k in range(n)]
        for i in range(n)
    ]
    return SymplecticForm(Matrix(rows))
