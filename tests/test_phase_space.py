import pytest

from homlie import catalog
from homlie.errors import (
    InvalidStructureError,
    NonInvolutiveTwistError,
    NotAdmissibleError,
    NotLeftSymmetricError,
)
from homlie.complexstruct import check_kahler
from homlie.linalg import Matrix, Tensor3, basis_vec, direct_sum, pairing, zero_vec
from homlie.metric import (
    MetricForm,
    SymplecticForm,
    check_symplectic,
    levi_civita_product,
    musical_flat,
    symplectic_left_symmetric,
)
from homlie.phase_space import (
    Representation,
    adjoint_rep,
    build_phase_space,
    canonical_double_omega,
    check_admissible,
    check_phase_space_complex,
    check_representation,
    dual_rep,
    left_mult_rep,
    phase_space_product,
)
from homlie.structures import (
    HomLieAlgebra,
    check_hom_jacobi,
    check_hom_left_symmetric,
    check_morphism,
    commutator_bracket,
)

from reference import check_dual_pairing_identity


def imex_algebra(a=1, b=1):
    inst = catalog.imex(a, b, 1)
    return HomLieAlgebra(inst.bracket, inst.phi)


def imex_cocycle_product(a=1, b=1):
    inst = catalog.imex(a, b, 1)
    return (
        symplectic_left_symmetric(SymplecticForm(inst.omega), inst.bracket, inst.phi),
        inst.phi,
    )


class TestAdjointRep:
    def test_abelian_is_zero(self):
        alg = HomLieAlgebra(Tensor3.zeros(3), Matrix.identity(3))
        rep = adjoint_rep(alg)
        assert all(m.is_zero() for m in rep.rho)

    def test_imex_ad_e1(self):
        rep = adjoint_rep(imex_algebra())
        ad1 = rep.rho[0]
        assert ad1.apply(basis_vec(4, 1)) == (0, 0, -1, 0)
        assert ad1.apply(basis_vec(4, 2)) == (0, 1, 0, 0)
        assert ad1.apply(basis_vec(4, 3)) == (0, 0, 0, 0)

    def test_ad_kills_its_own_index(self):
        rep = adjoint_rep(imex_algebra(2, 3))
        for i in range(4):
            assert rep.rho[i].apply(basis_vec(4, i)) == zero_vec(4)

    def test_is_representation_and_admissible(self):
        rep = adjoint_rep(imex_algebra(2, 3))
        assert check_representation(rep) is True
        assert check_admissible(rep) is True


class TestCheckRepresentation:
    def test_zero_rho_any_carrier(self):
        alg = imex_algebra()
        rep = Representation(
            a_map=Matrix.identity(4),
            rho=tuple(Matrix.zeros(4) for _ in range(4)),
            bracket=alg.bracket,
            twist=alg.twist,
        )
        assert check_representation(rep) is True
        assert check_admissible(rep) is True

    def test_adjoint_of_untwisted_bracket_fails(self):
        inst = catalog.imex(1, 1, 1)
        rep = Representation(
            a_map=Matrix.identity(4),
            rho=tuple(inst.bracket.left_mult_basis(i) for i in range(4)),
            bracket=inst.bracket,
            twist=Matrix.identity(4),
        )
        result = check_representation(rep)
        assert not result
        assert result.kind == "representation-bracket"


class TestLeftMultRep:
    def test_cocycle_product_representation(self):
        product, phi = imex_cocycle_product()
        rep = left_mult_rep(product, phi)
        assert check_representation(rep) is True
        assert check_admissible(rep) is True

    def test_zero_product(self):
        rep = left_mult_rep(Tensor3.zeros(3), Matrix.identity(3))
        assert all(m.is_zero() for m in rep.rho)

    def test_matrices_are_tensor_slices(self):
        product, phi = imex_cocycle_product()
        rep = left_mult_rep(product, phi)
        for i in range(4):
            assert rep.rho[i] == product.left_mult_basis(i)

    def test_curved_metric_product_rejected(self):
        inst = catalog.kahler2_case1(1, 1, -2)
        with pytest.raises(NotLeftSymmetricError):
            left_mult_rep(inst.product, inst.phi)


class TestDualRep:
    def test_zero(self):
        rep = left_mult_rep(Tensor3.zeros(3), Matrix.identity(3))
        dual = dual_rep(rep)
        assert all(m.is_zero() for m in dual.rho_tilde)

    def test_negative_transpose(self):
        rep = adjoint_rep(imex_algebra())
        dual = dual_rep(rep)
        for i in range(4):
            assert dual.rho_tilde[i] == -(rep.rho[i].transpose())
        assert dual.a_star == rep.a_map.transpose()

    def test_dual_is_again_a_representation(self):
        rep = adjoint_rep(imex_algebra(2, 3))
        dual = dual_rep(rep)
        assert check_representation(dual.as_representation()) is True

    def test_duality_pairing_identity(self):
        rep = adjoint_rep(imex_algebra())
        dual = dual_rep(rep)
        for i in range(4):
            for a in range(4):
                for v in range(4):
                    left = pairing(
                        dual.rho_tilde[i].apply(basis_vec(4, a)), basis_vec(4, v)
                    )
                    right = pairing(
                        basis_vec(4, a), rep.rho[i].apply(basis_vec(4, v))
                    )
                    assert left + right == 0

    def test_inadmissible_rejected(self):
        inst = catalog.imex(1, 1, 1)
        rep = Representation(
            a_map=Matrix.identity(4),
            rho=tuple(inst.bracket.left_mult_basis(i) for i in range(4)),
            bracket=inst.bracket,
            twist=Matrix.identity(4),
        )
        with pytest.raises(InvalidStructureError):
            dual_rep(rep)

    def test_representation_without_admissibility(self):
        # regular non-involutive twist: the adjoint family represents
        # the bracket but the dual fails the reversed identities
        from homlie.dim2 import canonical_bracket_2d

        bracket = canonical_bracket_2d()
        stretch = Matrix.diagonal([1, 2])
        alg = HomLieAlgebra(bracket, stretch)
        rep = adjoint_rep(alg)
        assert check_representation(rep) is True
        result = check_admissible(rep)
        assert not result
        with pytest.raises(NotAdmissibleError):
            dual_rep(rep)


class TestDualPairingIdentity:
    def test_cocycle_product(self):
        product, phi = imex_cocycle_product(2, 3)
        assert check_dual_pairing_identity(product, phi) is True

    def test_identity_twist_product(self):
        inst = catalog.kahler2_case1(1, 1, -2)
        assert check_dual_pairing_identity(inst.product, inst.phi) is True


class TestMusicalTwistIdentity:
    def test_flat_commutes_with_selfadjoint_twist(self):
        inst = catalog.kahler4(2, 3, 1)
        g = MetricForm(inst.metric)
        for i in range(4):
            u = basis_vec(4, i)
            lhs = inst.phi.transpose().apply(musical_flat(g, u))
            rhs = musical_flat(g, inst.phi.apply(u))
            assert lhs == rhs


def _phase_space_product_oracle(p, phi, i, j, n):
    """Independent expansion of the double product on basis index pair (i, j).

    Indices below n are base vectors, the rest dual covectors; the dual
    component is evaluated through the pairing, never via transposes.
    """
    if i < n and j < n:
        base = p.basis_product(i, j)
        return tuple(base) + zero_vec(n)
    if i < n and j >= n:
        beta = basis_vec(n, j - n)
        lphiu = p.left_mult(phi.column(i))
        dual = tuple(
            -pairing(beta, lphiu.apply(basis_vec(n, k))) for k in range(n)
        )
        return zero_vec(n) + dual
    return zero_vec(2 * n)


class TestBuildPhaseSpace:
    def test_omega_pairing_values(self):
        om = canonical_double_omega(4)
        x = basis_vec(8, 0)          # (e1, 0)
        y = basis_vec(8, 4)          # (0, e1*)
        assert om.value(x, y) == 1
        assert om.value(y, x) == -1

    def test_complex_structure_on_base_vector(self):
        product, phi = imex_cocycle_product()
        ps = build_phase_space(product, phi)
        # J(e1, 0) = (0, phi^T e1) = (0, -e1*)
        assert ps.j_cal.apply(basis_vec(8, 0)) == (0, 0, 0, 0, -1, 0, 0, 0)

    def test_product_matches_independent_expansion(self):
        product, phi = imex_cocycle_product(2, 3)
        ps = build_phase_space(product, phi)
        for i in range(8):
            for j in range(8):
                assert ps.product.basis_product(i, j) == _phase_space_product_oracle(
                    product, phi, i, j, 4
                )

    def test_dual_and_mixed_products_vanish(self):
        product, phi = imex_cocycle_product()
        ps = build_phase_space(product, phi)
        for i in range(4, 8):
            for j in range(8):
                assert ps.product.basis_product(i, j) == zero_vec(8)

    def test_base_embeds_as_subalgebra(self):
        product, phi = imex_cocycle_product()
        ps = build_phase_space(product, phi)
        for i in range(4):
            for j in range(4):
                col = ps.product.basis_product(i, j)
                assert col[:4] == product.basis_product(i, j)

    def test_all_axioms_on_cocycle_base(self):
        product, phi = imex_cocycle_product()
        ps = build_phase_space(product, phi)
        n2 = ps.dim
        assert check_hom_left_symmetric(ps.product, ps.twist) is True
        comm = commutator_bracket(ps.product)
        assert check_hom_jacobi(comm, ps.twist) is True
        assert ps.twist @ ps.twist == Matrix.identity(n2)
        assert check_symplectic(ps.omega, comm, ps.twist) is True
        assert ps.j_cal @ ps.j_cal == -Matrix.identity(n2)
        assert ps.twist @ ps.j_cal == ps.j_cal @ ps.twist

    def test_n32_double_of_the_imex_chain(self):
        # Doubling three times from the 4D cocycle product, with the base
        # checks on at every step: the double of a left-symmetric base is
        # again left-symmetric and symplectic, and its canonical complex
        # structure is not integrable.
        product, phi = imex_cocycle_product(2, 3)
        ps = build_phase_space(product, phi)
        for _ in range(2):
            ps = build_phase_space(ps.product, ps.twist)
        assert ps.dim == 32
        comm = commutator_bracket(ps.product)
        assert check_hom_left_symmetric(ps.product, ps.twist) is True
        assert check_morphism(ps.product, ps.twist) is True
        assert check_hom_jacobi(comm, ps.twist) is True
        assert check_symplectic(ps.omega, comm, ps.twist) is True
        result = check_phase_space_complex(ps)
        assert not result
        assert result.kind == "phase-space-nijenhuis"

    def test_rejects_non_left_symmetric_base_by_default(self):
        inst = catalog.kahler2_case1(1, 1, -2)
        with pytest.raises(NotLeftSymmetricError):
            build_phase_space(inst.product, inst.phi)

    def test_rejects_non_involutive_twist(self):
        shear = Matrix([[1, 1], [0, 1]])
        with pytest.raises(NonInvolutiveTwistError):
            build_phase_space(Tensor3.zeros(2), shear)

    def test_rejects_non_selfadjoint_metric(self):
        # swap twist with an unbalanced diagonal metric
        inst = catalog.hermitian4(1)
        product = Tensor3.zeros(4)
        with pytest.raises(InvalidStructureError):
            build_phase_space(
                product, inst.phi, MetricForm(Matrix.diagonal([1, 2, 1, 1]))
            )


class TestPhaseSpaceComplexStructure:
    def test_abelian_base(self):
        ps = build_phase_space(Tensor3.zeros(3), Matrix.identity(3))
        assert check_phase_space_complex(ps) is True

    def test_metric_product_base_is_integrable(self):
        inst = catalog.kahler4(1, 1, 1)
        g = MetricForm(inst.metric)
        lc = levi_civita_product(inst.bracket, inst.phi, g).product
        ps = build_phase_space(lc, inst.phi, g, check_base=False)
        assert check_phase_space_complex(ps) is True

    def test_2d_metric_product_base_is_integrable(self):
        inst = catalog.kahler2_case1(1, 1, -2)
        ps = build_phase_space(
            inst.product, inst.phi, MetricForm(inst.metric), check_base=False
        )
        assert check_phase_space_complex(ps) is True

    def test_cocycle_base_is_not_integrable(self):
        # The cocycle-induced product is left-symmetric but not
        # metric-compatible for any nondegenerate metric, and its double
        # genuinely fails integrability: the torsion at the first base
        # pair is (e3, 0).
        product, phi = imex_cocycle_product()
        ps = build_phase_space(product, phi)
        result = check_phase_space_complex(ps)
        assert not result
        assert result.witness == (1, 2)
        assert result.lhs == (0, 0, 1, 0, 0, 0, 0, 0)

    def test_lifted_double_of_kahler4_is_kahler(self):
        # Double the Kahler base (c, phi, omega, J) through its symplectic
        # product, with twist phi + phi^T, the dual complex structure
        # J + (-J^T) and the metric omega_hat . twist . J_hat.  The Koszul
        # product of that metric over the double's commutator is Kahler:
        # both form solves meet on one structure.
        inst = catalog.kahler4(1, 1, 1)
        base = symplectic_left_symmetric(SymplecticForm(inst.omega), inst.bracket, inst.phi)
        product = phase_space_product(base, inst.phi)
        twist = direct_sum(inst.phi, inst.phi.transpose())
        j_hat = direct_sum(inst.j, -(inst.j.transpose()))
        metric = MetricForm(canonical_double_omega(4).omega @ twist @ j_hat)
        lc = levi_civita_product(commutator_bracket(product), twist, metric).product
        assert lc.dim == 8
        assert check_kahler(lc, twist, j_hat) is True
