"""Reference implementations kept as oracles of the differential tests.

Most are the loop bodies the library used before its checkers moved
onto the sparse integer kernel: every basis tuple in lexicographic
order, both sides evaluated with dense ``Fraction`` arithmetic.  They
are kept verbatim, and the tests require equal verdicts and equal
``Violation`` contents (kind, witness, lhs, rhs).  The fraction-free
determinant is the one the library used before its eliminations were
merged into one Gauss-Jordan sweep.  ``levi_civita_product`` is the
dense per-pair Koszul loop the library used before the Koszul and
symplectic products shared one form solve, and the two Koszul routines
after it are further independent oracles.  The entrywise matrix
checkers are the loops the library used before they shared one
first-differing-entry helper, and ``nijenhuis_witness`` is the way the
command line used to turn the full torsion tensor into a witness.
``NijenhuisTensor`` and ``check_dual_pairing_identity`` were public
library code that only tests used.  Nothing in ``src`` imports this
module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from homlie._record import record
from homlie.complexstruct import _require_almost_complex
from homlie.errors import (
    DimensionMismatchError,
    InvalidStructureError,
    NonInvolutiveTwistError,
    OddDimensionError,
    SingularTwistError,
)
from homlie.linalg import (
    Matrix,
    Tensor3,
    basis_vec,
    determinant,
    is_zero_vec,
    matrix_inverse,
    solve_linear,
    vec_sub,
    zero_vec,
)
from homlie.metric import (
    LeviCivitaProduct,
    MetricForm,
    SymplecticForm,
    check_metric_compatibility,
    check_torsion,
)
from homlie.structures import (
    Violation,
    _require_dims,
    commutator_bracket,
    hom_jacobi_defect,
    twisted_associator,
)


def check_antisymmetry(c: Tensor3):
    """Entrywise c[k][i][j] = -c[k][j][i]."""
    n = c.dim
    for i in range(n):
        for j in range(i, n):
            lhs = c.basis_product(i, j)
            rhs = tuple(-x for x in c.basis_product(j, i))
            if lhs != rhs:
                return Violation("antisymmetry", (i + 1, j + 1), lhs, rhs)
    return True


def check_morphism(t: Tensor3, phi: Matrix):
    """phi(t(e_i, e_j)) = t(phi e_i, phi e_j) on all basis pairs."""
    _require_dims(t, phi)
    n = t.dim
    phi_cols = [phi.column(j) for j in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = phi.apply(t.basis_product(i, j))
            rhs = t.apply(phi_cols[i], phi_cols[j])
            if lhs != rhs:
                return Violation("morphism", (i + 1, j + 1), lhs, rhs)
    return True


def check_hom_jacobi(c: Tensor3, phi: Matrix):
    """Twisted Jacobi identity over all basis triples i < j < k."""
    _require_dims(c, phi)
    anti = check_antisymmetry(c)
    if not anti:
        raise InvalidStructureError("bracket is not antisymmetric", anti)
    n = c.dim
    for i, j, k in combinations(range(1, n + 1), 3):
        defect = hom_jacobi_defect(c, phi, i, j, k)
        if not is_zero_vec(defect):
            return Violation("hom-jacobi", (i, j, k), defect, zero_vec(n))
    return True


def check_hom_left_symmetric(p: Tensor3, phi: Matrix):
    """The twisted associator is symmetric in its first two arguments."""
    _require_dims(p, phi)
    n = p.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                ei, ej, ek = basis_vec(n, i), basis_vec(n, j), basis_vec(n, k)
                lhs = twisted_associator(p, phi, ei, ej, ek)
                rhs = twisted_associator(p, phi, ej, ei, ek)
                if lhs != rhs:
                    return Violation(
                        "hom-left-symmetric", (i + 1, j + 1, k + 1), lhs, rhs
                    )
    return True


def check_symplectic(omega: SymplecticForm, c: Tensor3, phi: Matrix):
    """Two-cocycle condition plus twist invariance."""
    anti = check_antisymmetry(c)
    if not anti:
        raise InvalidStructureError("bracket is not antisymmetric", anti)
    if determinant(phi) == 0:
        raise SingularTwistError("symplectic structures require a regular twist")
    n = c.dim
    inv = phi.transpose() @ omega.omega @ phi
    for i in range(n):
        for j in range(i + 1, n):
            if inv[i, j] != omega.omega[i, j]:
                return Violation(
                    "symplectic-invariance",
                    (i + 1, j + 1),
                    (inv[i, j],),
                    (omega.omega[i, j],),
                )
    for i, j, k in combinations(range(n), 3):
        total = omega.value(c.basis_product(i, j), phi.column(k))
        total += omega.value(c.basis_product(k, i), phi.column(j))
        total += omega.value(c.basis_product(j, k), phi.column(i))
        if total != 0:
            return Violation(
                "symplectic-cocycle", (i + 1, j + 1, k + 1), (total,), (Fraction(0),)
            )
    return True


def symplectic_left_symmetric(omega: SymplecticForm, c: Tensor3, phi: Matrix) -> Tensor3:
    """Left-symmetric product induced by a symplectic two-cocycle."""
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
    # row k of the coefficient matrix: x -> omega(x, phi e_k)
    rows = []
    for k in range(n):
        pk = phi.column(k)
        rows.append([omega.value(basis_vec(n, m), pk) for m in range(n)])
    coeff_inv = matrix_inverse(Matrix(rows))
    planes = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            pj = phi.column(j)
            rhs = tuple(
                -omega.value(pj, c.basis_product(i, k)) for k in range(n)
            )
            x = coeff_inv.apply(rhs)
            for k in range(n):
                planes[k][i][j] = x[k]
    return Tensor3(planes)


def check_representation(rep):
    """Both defining identities over all basis pairs of the base."""
    n = rep.base_dim
    a = rep.a_map
    for i in range(n):
        lhs = rep.rho_of(rep.twist.column(i)) @ a
        rhs = a @ rep.rho[i]
        if lhs != rhs:
            return Violation("representation-twist", (i + 1,), lhs.rows, rhs.rows)
    for i in range(n):
        for j in range(n):
            lhs = rep.rho_of(rep.bracket.basis_product(i, j)) @ a
            rhs = (
                rep.rho_of(rep.twist.column(i)) @ rep.rho[j]
                - rep.rho_of(rep.twist.column(j)) @ rep.rho[i]
            )
            if lhs != rhs:
                return Violation(
                    "representation-bracket", (i + 1, j + 1), lhs.rows, rhs.rows
                )
    return True


def check_admissible(rep):
    """The two extra identities making the dual family a representation."""
    base = check_representation(rep)
    if not base:
        raise InvalidStructureError("not a representation", base)
    n = rep.base_dim
    a = rep.a_map
    for i in range(n):
        lhs = a @ rep.rho_of(rep.twist.column(i))
        rhs = rep.rho[i] @ a
        if lhs != rhs:
            return Violation("admissible-twist", (i + 1,), lhs.rows, rhs.rows)
    for i in range(n):
        for j in range(n):
            lhs = a @ rep.rho_of(rep.bracket.basis_product(i, j))
            rhs = (
                rep.rho[i] @ rep.rho_of(rep.twist.column(j))
                - rep.rho[j] @ rep.rho_of(rep.twist.column(i))
            )
            if lhs != rhs:
                return Violation(
                    "admissible-bracket", (i + 1, j + 1), lhs.rows, rhs.rows
                )
    return True


@record
class NijenhuisTensor:
    """Torsion of phi o J, antisymmetric in its two arguments."""

    tensor: Tensor3

    def is_zero(self) -> bool:
        return self.tensor.is_zero()


def nijenhuis_tensor(c: Tensor3, phi: Matrix, j: Matrix) -> NijenhuisTensor:
    """N(e_i, e_j) for all basis pairs, packed as a rank-3 tensor."""
    _require_almost_complex(j, phi, c)
    g = phi @ j
    n = c.dim
    planes = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    gcols = [g.column(i) for i in range(n)]
    for a in range(n):
        for b in range(n):
            ea, eb = basis_vec(n, a), basis_vec(n, b)
            val = c.apply(gcols[a], gcols[b])
            val = vec_sub(val, g.apply(c.apply(gcols[a], eb)))
            val = vec_sub(val, g.apply(c.apply(ea, gcols[b])))
            val = vec_sub(val, c.basis_product(a, b))
            for k in range(n):
                planes[k][a][b] = val[k]
    return NijenhuisTensor(Tensor3(planes))


def phase_space_product(p: Tensor3, phi: Matrix) -> Tensor3:
    """The double product (u,a).(v,b) = (u.v, -L_{phi u}^T b) on basis pairs."""
    n = p.dim
    n2 = 2 * n
    planes = [[[Fraction(0)] * n2 for _ in range(n2)] for _ in range(n2)]
    for i in range(n):
        for j in range(n):
            col = p.basis_product(i, j)
            for k in range(n):
                planes[k][i][j] = col[k]
        lt = -(p.left_mult(phi.column(i)).transpose())
        for m in range(n):
            col = lt.column(m)
            for k in range(n):
                planes[n + k][i][n + m] = col[k]
    return Tensor3(planes)


def check_phase_space_complex(ps):
    """Vanishing Nijenhuis torsion of twist . J over the double's commutator."""
    c = commutator_bracket(ps.product)
    g = ps.twist @ ps.j_cal
    n2 = ps.dim
    gcols = [g.column(i) for i in range(n2)]
    for a in range(n2):
        for b in range(a + 1, n2):
            ea, eb = basis_vec(n2, a), basis_vec(n2, b)
            val = c.apply(gcols[a], gcols[b])
            val = vec_sub(val, g.apply(c.apply(gcols[a], eb)))
            val = vec_sub(val, g.apply(c.apply(ea, gcols[b])))
            val = vec_sub(val, c.basis_product(a, b))
            if not is_zero_vec(val):
                return Violation(
                    "phase-space-nijenhuis", (a + 1, b + 1), tuple(val)
                )
    return True


def bareiss_determinant(a: Matrix):
    """Exact determinant by fraction-free (Bareiss) elimination.

    Pivot selection is first-nonzero in column order, so the result is
    deterministic.
    """
    if not a.is_square:
        raise DimensionMismatchError("determinant of a non-square matrix")
    n = a.nrows
    m = [list(r) for r in a.rows]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _koszul_rhs(c: Tensor3, phi: Matrix, g: MetricForm, i: int, j: int) -> tuple:
    """Right side of the Koszul identity for the pair (e_i, e_j), k-th entry

    <[e_i,e_j], phi e_k> + <[e_k,e_j], phi e_i> + <[e_k,e_i], phi e_j>.
    """
    n = c.dim
    ei = basis_vec(n, i)
    ej = basis_vec(n, j)
    br_ij = c.basis_product(i, j)
    out = []
    for k in range(n):
        ek = basis_vec(n, k)
        r = g.inner(br_ij, phi.apply(ek))
        r += g.inner(c.basis_product(k, j), phi.apply(ei))
        r += g.inner(c.basis_product(k, i), phi.apply(ej))
        out.append(r)
    return tuple(out)


def levi_civita_product(c: Tensor3, phi: Matrix, g: MetricForm) -> LeviCivitaProduct:
    """Unique product with 2<P(u,v), phi(w)> given by the twisted Koszul formula.

    Solved column-wise: for fixed (i, j) the unknown P(e_i, e_j) satisfies
    (gram.phi)^T x = rhs/2, one shared inverse for all n^2 pairs.
    """
    n = c.dim
    if determinant(phi) == 0:
        raise SingularTwistError("Koszul construction needs an invertible twist")
    half = Fraction(1, 2)
    coeff_inv = matrix_inverse((g.gram @ phi).transpose())
    planes = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rhs = tuple(half * r for r in _koszul_rhs(c, phi, g, i, j))
            x = coeff_inv.apply(rhs)
            for k in range(n):
                planes[k][i][j] = x[k]
    product = Tensor3(planes)
    torsion = check_torsion(product, c)
    if not torsion:
        raise InvalidStructureError(
            "Koszul output fails the torsion identity; input is not a "
            "twist-invariant metric over this bracket",
            torsion,
        )
    compat = check_metric_compatibility(product, g, phi)
    if not compat:
        raise InvalidStructureError(
            "Koszul output fails metric compatibility", compat
        )
    return LeviCivitaProduct(product)


def levi_civita_by_pair_solves(c: Tensor3, phi: Matrix, g: MetricForm) -> Tensor3:
    """Independent oracle: one exact linear solve per basis pair.

    Assembles the n x n system 2<x, phi(e_k)> = rhs_k row by row and calls
    the generic solver, never sharing a factorization.  Raises if any
    pair system is singular or inconsistent.
    """
    n = c.dim
    rows = []
    for k in range(n):
        pk = phi.column(k)
        rows.append([2 * g.inner(basis_vec(n, m), pk) for m in range(n)])
    system = Matrix(rows)
    planes = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sol = solve_linear(system, _koszul_rhs(c, phi, g, i, j))
            if not sol:
                raise SingularTwistError(
                    f"Koszul system for pair ({i + 1}, {j + 1}) is {sol.status}"
                )
            for k in range(n):
                planes[k][i][j] = sol.x[k]
    return Tensor3(planes)


def koszul_residual(
    p: Tensor3, c: Tensor3, phi: Matrix, g: MetricForm, i: int, j: int, k: int
) -> object:
    """2<P(e_i,e_j), phi e_k> minus the Koszul right side, 0-based indices.

    Zero on every triple exactly when P is the Koszul product; used to
    spot-check uniqueness by perturbing single structure constants.
    """
    lhs = 2 * g.inner(p.basis_product(i, j), phi.column(k))
    return lhs - _koszul_rhs(c, phi, g, i, j)[k]


def check_pseudo_riemannian(g: MetricForm, phi: Matrix):
    """Twist invariance <phi u, phi v> = <u, v> on all basis pairs."""
    n = g.dim
    lhs_m = phi.transpose() @ g.gram @ phi
    for i in range(n):
        for j in range(i, n):
            if lhs_m[i, j] != g.gram[i, j]:
                return Violation(
                    "pseudo-riemannian",
                    (i + 1, j + 1),
                    (lhs_m[i, j],),
                    (g.gram[i, j],),
                )
    return True


def check_phi_selfadjoint(g: MetricForm, phi: Matrix):
    """<phi u, v> = <u, phi v>, i.e. gram.phi = phi^T.gram."""
    if phi @ phi != Matrix.identity(phi.nrows):
        raise NonInvolutiveTwistError("selfadjointness test requires phi^2 = Id")
    lhs = g.gram @ phi
    rhs = phi.transpose() @ g.gram
    n = g.dim
    for i in range(n):
        for j in range(n):
            if lhs[i, j] != rhs[i, j]:
                return Violation(
                    "phi-selfadjoint", (i + 1, j + 1), (lhs[i, j],), (rhs[i, j],)
                )
    return True


def check_almost_complex(j: Matrix, phi: Matrix):
    """J^2 = -Id and J.phi = phi.J over an involutive twist."""
    n = j.nrows
    if n % 2 == 1:
        raise OddDimensionError(
            "no almost complex structure in odd dimension: det(J)^2 = (-1)^n"
        )
    if phi @ phi != Matrix.identity(n):
        raise NonInvolutiveTwistError("almost complex structures need phi^2 = Id")
    jj = j @ j
    minus_id = -Matrix.identity(n)
    for i in range(n):
        for k in range(n):
            if jj[i, k] != minus_id[i, k]:
                return Violation(
                    "almost-complex-square", (i + 1, k + 1), (jj[i, k],), (minus_id[i, k],)
                )
    lhs = phi @ j
    rhs = j @ phi
    for i in range(n):
        for k in range(n):
            if lhs[i, k] != rhs[i, k]:
                return Violation(
                    "almost-complex-commute", (i + 1, k + 1), (lhs[i, k],), (rhs[i, k],)
                )
    return True


def check_hermitian_compatibility(j: Matrix, g: MetricForm, phi: Matrix):
    """<(phi J)u, (phi J)v> = <u, v> on all basis pairs."""
    ac = check_almost_complex(j, phi)
    if not ac:
        raise InvalidStructureError("J is not an almost complex structure", ac)
    pr = check_pseudo_riemannian(g, phi)
    if not pr:
        raise InvalidStructureError("metric is not twist invariant", pr)
    pj = phi @ j
    pulled = pj.transpose() @ g.gram @ pj
    n = g.dim
    for i in range(n):
        for k in range(i, n):
            if pulled[i, k] != g.gram[i, k]:
                return Violation(
                    "hermitian", (i + 1, k + 1), (pulled[i, k],), (g.gram[i, k],)
                )
    return True


def check_kahler(p: Tensor3, phi: Matrix, j: Matrix):
    """Left multiplication by every basis vector commutes with phi o J."""
    ac = check_almost_complex(j, phi)
    if not ac:
        raise InvalidStructureError("J is not an almost complex structure", ac)
    pj = phi @ j
    n = p.dim
    for i in range(n):
        left = p.left_mult_basis(i)
        lhs = left @ pj
        rhs = pj @ left
        for a in range(n):
            for b in range(n):
                if lhs[a, b] != rhs[a, b]:
                    return Violation(
                        "kahler-invariance",
                        (i + 1, a + 1, b + 1),
                        (lhs[a, b],),
                        (rhs[a, b],),
                    )
    return True


def nijenhuis_witness(c: Tensor3, phi: Matrix, j: Matrix):
    """The first nonzero column of the full (dense) torsion tensor, in (i, j) order."""
    nt = nijenhuis_tensor(c, phi, j)
    if nt.is_zero():
        return True
    table = nt.tensor.nonzero_table()
    (i, j), col = sorted(table.items())[0]
    return Violation("nijenhuis", (i, j), col, (Fraction(0),) * c.dim)


def check_dual_pairing_identity(p: Tensor3, phi: Matrix):
    """Pairing identity of the dual left multiplications with the twist:

    < Ltilde_{phi(e_i)} e^j , phi(e_k) > = - < e_i . e_k , phi^T(e^j) >

    over all basis combinations, which reduces to the morphism property
    and is the working identity behind the phase-space cocycle.
    """
    n = p.dim
    phi_t = phi.transpose()
    for i in range(n):
        lt = -(p.left_mult(phi.column(i)).transpose())
        for j in range(n):
            lt_col = lt.column(j)
            for k in range(n):
                lhs = sum(
                    (a * b for a, b in zip(lt_col, phi.column(k))), Fraction(0)
                )
                rhs = -sum(
                    (
                        a * b
                        for a, b in zip(phi_t.column(j), p.basis_product(i, k))
                    ),
                    Fraction(0),
                )
                if lhs != rhs:
                    return Violation(
                        "dual-pairing", (i + 1, j + 1, k + 1), (lhs,), (rhs,)
                    )
    return True
