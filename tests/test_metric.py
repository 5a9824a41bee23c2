import random
from fractions import Fraction

import pytest

from homlie import catalog
from homlie.errors import (
    DegenerateFormError,
    InvalidStructureError,
    NonInvolutiveTwistError,
    SingularTwistError,
)
from homlie.linalg import Matrix, Tensor3, basis_vec
from homlie.metric import (
    MetricForm,
    SymplecticForm,
    check_metric_compatibility,
    check_phi_selfadjoint,
    check_pseudo_riemannian,
    check_symplectic,
    check_torsion,
    levi_civita_product,
    musical_flat,
    musical_sharp,
    symplectic_left_symmetric,
)
from homlie.structures import check_hom_left_symmetric, commutator_bracket

from conftest import rand_involutive_twist, symmetrized_invariant_metric
from reference import koszul_residual, levi_civita_by_pair_solves


def kahler_lc_table(a, b):
    a, b = Fraction(a), Fraction(b)
    return Tensor3.from_table(
        4,
        {
            (2, 1): (0, 0, a, 0),
            (3, 1): (0, -b, 0, 0),
            (2, 2): (0, 0, 0, a),
            (2, 4): (0, -a, 0, 0),
            (3, 4): (0, 0, a, 0),
            (3, 3): (0, 0, 0, b),
            (2, 3): (-a, 0, 0, 0),
            (3, 2): (-a, 0, 0, 0),
        },
    )


class TestForms:
    def test_metric_must_be_symmetric(self):
        with pytest.raises(InvalidStructureError):
            MetricForm(Matrix([[1, 2], [0, 1]]))

    def test_metric_must_be_nondegenerate(self):
        with pytest.raises(DegenerateFormError):
            MetricForm(Matrix([[1, 1], [1, 1]]))

    def test_symplectic_must_be_antisymmetric(self):
        with pytest.raises(InvalidStructureError):
            SymplecticForm(Matrix([[0, 1], [1, 0]]))

    def test_symplectic_must_be_nondegenerate(self):
        with pytest.raises(DegenerateFormError):
            SymplecticForm(Matrix.zeros(2, 2))


class TestPseudoRiemannian:
    def test_kahler_fixture_metric(self):
        inst = catalog.kahler4(1, 1, 1)
        assert check_pseudo_riemannian(MetricForm(inst.metric), inst.phi) is True

    def test_identity_twist(self):
        g = MetricForm(Matrix([[2, 1], [1, 1]]))
        assert check_pseudo_riemannian(g, Matrix.identity(2)) is True

    def test_swap_with_unbalanced_diagonal(self):
        g = MetricForm(Matrix.diagonal([1, 2]))
        swap = Matrix([[0, 1], [1, 0]])
        result = check_pseudo_riemannian(g, swap)
        assert not result
        assert result.witness == (1, 1)


class TestPhiSelfadjoint:
    def test_kahler_fixture(self):
        inst = catalog.kahler4(1, 1, 1)
        assert check_phi_selfadjoint(MetricForm(inst.metric), inst.phi) is True

    def test_identity_twist(self):
        g = MetricForm(Matrix([[3, 1], [1, -1]]))
        assert check_phi_selfadjoint(g, Matrix.identity(2)) is True

    def test_non_involutive_rejected(self):
        g = MetricForm(Matrix.identity(2))
        with pytest.raises(NonInvolutiveTwistError):
            check_phi_selfadjoint(g, Matrix([[1, 1], [0, 1]]))

    def test_implied_by_invariance_for_involutive(self):
        rng = random.Random(61)
        for _ in range(10):
            n = rng.choice((2, 3, 4))
            phi = rand_involutive_twist(rng, n)
            g = symmetrized_invariant_metric(rng, phi)
            assert check_pseudo_riemannian(g, phi) is True
            assert check_phi_selfadjoint(g, phi) is True


class TestLeviCivita:
    def test_kahler_fixture_table(self):
        for a, b, big_a in [(1, 1, 1), (2, 3, 1), (Fraction(-1), Fraction(1, 2), 5)]:
            inst = catalog.kahler4(a, b, big_a)
            lc = levi_civita_product(
                inst.bracket, inst.phi, MetricForm(inst.metric)
            ).product
            assert lc == kahler_lc_table(a, b)

    def test_abelian_gives_zero(self):
        g = MetricForm(Matrix.diagonal([1, -2, 3]))
        lc = levi_civita_product(Tensor3.zeros(3), Matrix.identity(3), g)
        assert lc.product.is_zero()

    def test_generic_2d_closed_form(self):
        inst = catalog.kahler2_case1(1, 1, -2)
        lc = levi_civita_product(
            inst.bracket, inst.phi, MetricForm(inst.metric)
        ).product
        assert lc == inst.product
        oracle = levi_civita_by_pair_solves(
            inst.bracket, inst.phi, MetricForm(inst.metric)
        )
        assert lc == oracle

    def test_singular_twist_rejected(self):
        g = MetricForm(Matrix.identity(2))
        bad = Matrix([[1, 0], [0, 0]])
        with pytest.raises(SingularTwistError):
            levi_civita_product(Tensor3.zeros(2), bad, g)

    def test_pair_solve_oracle_agrees_on_fixture(self):
        inst = catalog.kahler4(2, 3, 1)
        g = MetricForm(inst.metric)
        assert (
            levi_civita_product(inst.bracket, inst.phi, g).product
            == levi_civita_by_pair_solves(inst.bracket, inst.phi, g)
        )

    def test_uniqueness_one_constant_perturbation_breaks_koszul(self):
        inst = catalog.kahler4(1, 1, 1)
        g = MetricForm(inst.metric)
        lc = levi_civita_product(inst.bracket, inst.phi, g).product
        planes = [
            [[lc.entries[k][i][j] for j in range(4)] for i in range(4)]
            for k in range(4)
        ]
        planes[2][1][0] += Fraction(1, 7)
        bumped = Tensor3(planes)
        residuals = [
            koszul_residual(bumped, inst.bracket, inst.phi, g, i, j, k)
            for i in range(4)
            for j in range(4)
            for k in range(4)
        ]
        assert any(r != 0 for r in residuals)
        clean = [
            koszul_residual(lc, inst.bracket, inst.phi, g, i, j, k)
            for i in range(4)
            for j in range(4)
            for k in range(4)
        ]
        assert all(r == 0 for r in clean)


class TestTorsionAndCompatibility:
    def test_levi_civita_output_passes_both(self):
        inst = catalog.kahler4(1, 1, 1)
        g = MetricForm(inst.metric)
        lc = levi_civita_product(inst.bracket, inst.phi, g).product
        assert check_torsion(lc, inst.bracket) is True
        assert check_metric_compatibility(lc, g, inst.phi) is True

    def test_zero_vs_zero(self):
        assert check_torsion(Tensor3.zeros(3), Tensor3.zeros(3)) is True

    def test_zero_vs_imex_bracket(self):
        inst = catalog.imex(1, 1, 1)
        result = check_torsion(Tensor3.zeros(4), inst.bracket)
        assert not result
        assert result.witness == (1, 2)

    def test_generic_2d_product_is_compatible(self):
        inst = catalog.kahler2_case1(1, 1, -2)
        assert (
            check_metric_compatibility(
                inst.product, MetricForm(inst.metric), inst.phi
            )
            is True
        )


class TestSymplectic:
    def test_imex_omega(self):
        for a, b, big_a in [(1, 1, 1), (2, 3, 1), (Fraction(-1), Fraction(1, 2), 5)]:
            inst = catalog.imex(a, b, big_a)
            assert (
                check_symplectic(SymplecticForm(inst.omega), inst.bracket, inst.phi)
                is True
            )

    def test_abelian_identity_twist(self):
        omega = SymplecticForm(Matrix([[0, 1], [-1, 0]]))
        assert check_symplectic(omega, Tensor3.zeros(2), Matrix.identity(2)) is True

    def test_flipped_block_fails_cocycle(self):
        inst = catalog.imex(1, 1, 1)
        rows = [list(r) for r in inst.omega.rows]
        rows[1][3] = -rows[1][3]
        rows[3][1] = -rows[3][1]
        result = check_symplectic(
            SymplecticForm(Matrix(rows)), inst.bracket, inst.phi
        )
        assert not result
        assert result.kind == "symplectic-cocycle"
        assert result.witness == (1, 3, 4)

    def test_degenerate_omega_raises(self):
        inst = catalog.imex(0, 1, 1)  # binding a=0 degenerates omega
        with pytest.raises(DegenerateFormError):
            SymplecticForm(inst.omega)


class TestSymplecticLeftSymmetric:
    def test_abelian_gives_zero(self):
        omega = SymplecticForm(Matrix([[0, 1], [-1, 0]]))
        out = symplectic_left_symmetric(omega, Tensor3.zeros(2), Matrix.identity(2))
        assert out.is_zero()

    def test_imex_frozen_table(self):
        inst = catalog.imex(1, 1, 1)
        out = symplectic_left_symmetric(
            SymplecticForm(inst.omega), inst.bracket, inst.phi
        )
        assert out == Tensor3.from_table(
            4,
            {
                (1, 1): (0, 0, 0, -1),
                (1, 4): (1, 0, 0, 0),
                (2, 1): (0, 0, 1, 0),
                (2, 4): (0, -1, 0, 0),
                (3, 1): (0, -1, 0, 0),
                (3, 4): (0, 0, 1, 0),
                (4, 1): (1, 0, 0, 0),
                (4, 4): (0, 0, 0, -1),
            },
        )

    def test_defining_equation_holds_on_all_triples(self):
        inst = catalog.imex(2, 3, 1)
        omega = SymplecticForm(inst.omega)
        out = symplectic_left_symmetric(omega, inst.bracket, inst.phi)
        n = 4
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = omega.value(out.basis_product(i, j), inst.phi.column(k))
                    rhs = -omega.value(
                        inst.phi.column(j), inst.bracket.basis_product(i, k)
                    )
                    assert lhs == rhs

    def test_commutator_recovers_bracket(self):
        inst = catalog.imex(2, 3, 1)
        out = symplectic_left_symmetric(
            SymplecticForm(inst.omega), inst.bracket, inst.phi
        )
        assert commutator_bracket(out) == inst.bracket
        assert check_hom_left_symmetric(out, inst.phi) is True

    def test_non_involutive_twist_rejected(self):
        omega = SymplecticForm(Matrix([[0, 1], [-1, 0]]))
        shear = Matrix([[1, 1], [0, 1]])
        with pytest.raises(NonInvolutiveTwistError):
            symplectic_left_symmetric(omega, Tensor3.zeros(2), shear)


class TestMusicalMaps:
    def test_identity_metric(self):
        g = MetricForm(Matrix.identity(3))
        assert musical_flat(g, basis_vec(3, 0)) == basis_vec(3, 0)

    def test_diagonal_metric(self):
        g = MetricForm(Matrix.diagonal([2, 3]))
        assert musical_flat(g, basis_vec(2, 1)) == (0, 3)
        assert musical_sharp(g, (0, 3)) == basis_vec(2, 1)

    def test_roundtrip_random(self):
        rng = random.Random(67)
        g = MetricForm(Matrix([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 3, 1], [0, 0, 1, 1]]))
        for _ in range(10):
            u = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4))
            assert musical_sharp(g, musical_flat(g, u)) == u
            assert musical_flat(g, musical_sharp(g, u)) == u
