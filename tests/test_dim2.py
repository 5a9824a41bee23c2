import random
from fractions import Fraction

import pytest

from homlie.complexstruct import (
    check_almost_complex,
    check_hermitian_compatibility,
    check_kahler,
)
from homlie.dim2 import (
    BAR,
    HAT,
    TILDE,
    TwistFamily2D,
    canonical_bracket_2d,
    hat_family_member,
    proper_nonexistence_report,
    solve_almost_complex_2d,
    solve_hermitian_2d,
    solve_kahler_2d,
)
from homlie.errors import InvalidStructureError, NoComplexStructureError
from homlie.linalg import Matrix, Tensor3, determinant
from homlie.metric import MetricForm, levi_civita_product
from homlie.structures import (
    check_hom_jacobi,
    check_morphism,
    commutator_bracket,
)


GENERIC_J = Matrix([[1, 1], [-2, -1]])  # J(e1) = e1 - 2 e2, J(e2) = e1 - e2


class TestTwistFamilies:
    def test_matrices(self):
        assert TwistFamily2D(HAT).matrix() == Matrix.identity(2)
        assert TwistFamily2D(BAR).matrix() == Matrix.diagonal([1, -1])
        tilde = TwistFamily2D(TILDE, 3).matrix()
        assert tilde.apply((1, 0)) == (1, 3)
        assert tilde.apply((0, 1)) == (0, -1)

    def test_all_involutive(self):
        for twist in (TwistFamily2D(HAT), TwistFamily2D(BAR), TwistFamily2D(TILDE, 5)):
            m = twist.matrix()
            assert m @ m == Matrix.identity(2)

    def test_tilde_requires_nonzero_shear(self):
        with pytest.raises(InvalidStructureError):
            TwistFamily2D(TILDE, 0)
        with pytest.raises(InvalidStructureError):
            TwistFamily2D(TILDE)

    def test_shear_only_for_tilde(self):
        with pytest.raises(InvalidStructureError):
            TwistFamily2D(HAT, 1)


class TestCanonicalBracket:
    def test_shape(self):
        c = canonical_bracket_2d()
        assert c.basis_product(0, 1) == (0, 1)
        assert c.is_antisymmetric()

    def test_morphism_for_all_twists(self):
        c = canonical_bracket_2d()
        for twist in (
            TwistFamily2D(HAT),
            TwistFamily2D(BAR),
            TwistFamily2D(TILDE, 2),
            TwistFamily2D(TILDE, Fraction(-1, 3)),
        ):
            assert check_morphism(c, twist.matrix()) is True

    def test_hom_jacobi_for_all_twists(self):
        c = canonical_bracket_2d()
        for twist in (TwistFamily2D(HAT), TwistFamily2D(BAR), TwistFamily2D(TILDE, 2)):
            assert check_hom_jacobi(c, twist.matrix()) is True

    def test_matches_commutator_of_antidiagonal_branch_product(self):
        product = Tensor3.from_table(2, {(2, 1): (0, -1), (2, 2): (1, 0)})
        assert commutator_bracket(product) == canonical_bracket_2d()


class TestAlmostComplexSolve:
    def test_identity_twist_family(self):
        fam = solve_almost_complex_2d(TwistFamily2D(HAT))
        assert fam.exists
        assert fam.sample == Matrix([[0, -1], [1, 0]])
        assert "j11^2 + j12*j21 = -1" in fam.constraints
        assert check_almost_complex(fam.sample, Matrix.identity(2)) is True

    def test_family_closure_random_members(self):
        rng = random.Random(79)
        hat = Matrix.identity(2)
        for _ in range(20):
            p = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            q = Fraction(rng.randint(1, 6), rng.randint(1, 4)) * rng.choice((1, -1))
            member = hat_family_member(p, q)
            assert check_almost_complex(member, hat) is True
            # the quadric constraint in matrix entries
            assert member[0, 0] ** 2 + member[0, 1] * member[1, 0] == -1

    def test_sign_twist_has_none(self):
        fam = solve_almost_complex_2d(TwistFamily2D(BAR))
        assert fam.kind == "none"
        assert any("triangular" in line for line in fam.derivation)

    @pytest.mark.parametrize("shear", [1, 2, -1, Fraction(1, 2), 7])
    def test_shear_twist_has_none(self, shear):
        fam = solve_almost_complex_2d(TwistFamily2D(TILDE, shear))
        assert fam.kind == "none"
        assert any("j11^2 = -1" in line for line in fam.derivation)


class TestHermitianSolve:
    def test_generic_branch_sample(self):
        fam = solve_hermitian_2d(TwistFamily2D(HAT), GENERIC_J)
        assert fam.exists
        assert fam.sample == Matrix([[2, 1], [1, 1]])
        g = MetricForm(fam.sample)
        assert check_hermitian_compatibility(GENERIC_J, g, Matrix.identity(2)) is True

    def test_antidiagonal_branch_sample(self):
        j = Matrix([[0, Fraction(-1, 2)], [2, 0]])
        fam = solve_hermitian_2d(TwistFamily2D(HAT), j)
        assert fam.sample == Matrix([[1, 0], [0, Fraction(1, 4)]])
        g = MetricForm(fam.sample)
        assert check_hermitian_compatibility(j, g, Matrix.identity(2)) is True

    def test_generic_sample_determinant(self):
        rng = random.Random(83)
        for _ in range(10):
            p = Fraction(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice((1, -1))
            q = Fraction(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice((1, -1))
            member = hat_family_member(p, q)
            fam = solve_hermitian_2d(TwistFamily2D(HAT), member)
            assert determinant(fam.sample) == 1 / (p * p)

    def test_rejects_non_complex_input(self):
        with pytest.raises(NoComplexStructureError):
            solve_hermitian_2d(TwistFamily2D(BAR), GENERIC_J)


class TestKahlerSolve:
    def test_generic_branch_reproduces_closed_form(self):
        metric = MetricForm(Matrix([[2, 1], [1, 1]]))
        fam = solve_kahler_2d(TwistFamily2D(HAT), GENERIC_J, metric)
        assert fam.exists
        assert fam.product == Tensor3.from_table(
            2,
            {
                (1, 1): (1, -2),
                (1, 2): (1, -1),
                (2, 1): (1, -2),
                (2, 2): (1, -1),
            },
        )
        assert check_kahler(fam.product, Matrix.identity(2), GENERIC_J) is True

    def test_antidiagonal_branch_at_shear_two(self):
        j = Matrix([[0, Fraction(-1, 2)], [2, 0]])
        metric = MetricForm(Matrix.diagonal([1, Fraction(1, 4)]))
        fam = solve_kahler_2d(TwistFamily2D(HAT), j, metric)
        assert fam.exists
        assert fam.product == Tensor3.from_table(
            2, {(2, 1): (0, -1), (2, 2): (Fraction(1, 4), 0)}
        )

    def test_verdict_constant_along_the_metric_ray(self):
        # the metric product is scale invariant, so the whole Hermitian
        # family of a fixed J shares one verdict
        for t in (1, 3, Fraction(-1, 2)):
            g = MetricForm(Matrix([[2 * t, t], [t, t]]))
            fam = solve_kahler_2d(TwistFamily2D(HAT), GENERIC_J, g)
            assert fam.exists

    def test_torsion_of_branch_products(self):
        metric = MetricForm(Matrix([[2, 1], [1, 1]]))
        fam = solve_kahler_2d(TwistFamily2D(HAT), GENERIC_J, metric)
        assert commutator_bracket(fam.product) == canonical_bracket_2d()

    def test_torsion_consistency_across_sampled_members(self):
        rng = random.Random(89)
        hat = TwistFamily2D(HAT)
        for _ in range(10):
            p = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice((1, -1))
            q = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice((1, -1))
            member = hat_family_member(p, q)
            hermit = solve_hermitian_2d(hat, member)
            fam = solve_kahler_2d(hat, member, MetricForm(hermit.sample))
            assert fam.exists
            assert commutator_bracket(fam.product) == canonical_bracket_2d()

    def test_rejects_non_hermitian_metric(self):
        bad = MetricForm(Matrix.diagonal([1, 5]))
        with pytest.raises(InvalidStructureError):
            solve_kahler_2d(TwistFamily2D(HAT), GENERIC_J, bad)


class TestKahlerImpliesSymplectic2D:
    def test_generic_branch_induced_form_is_symplectic(self):
        from homlie import catalog
        from homlie.complexstruct import induced_symplectic
        from homlie.metric import check_symplectic

        inst = catalog.kahler2_case1(1, 1, -2)
        omega = induced_symplectic(
            MetricForm(inst.metric), inst.phi, inst.j
        )
        assert check_symplectic(omega, inst.bracket, inst.phi) is True

    def test_antidiagonal_branch_induced_form_is_symplectic(self):
        from homlie import catalog
        from homlie.complexstruct import induced_symplectic
        from homlie.metric import check_symplectic

        inst = catalog.kahler2_case2(2, 1)
        omega = induced_symplectic(
            MetricForm(inst.metric), inst.phi, inst.j
        )
        assert check_symplectic(omega, inst.bracket, inst.phi) is True


class TestProperNonexistence:
    def test_all_none(self):
        report = proper_nonexistence_report()
        assert report.all_none
        assert set(report.results) == {
            "bar",
            "tilde(B=1)",
            "tilde(B=2)",
            "tilde(B=-1)",
            "tilde(B=1/2)",
            "tilde(B=7)",
        }

    def test_identity_twist_not_included(self):
        report = proper_nonexistence_report()
        assert "hat" not in report.results


class TestKoszulOnTwistFixtures:
    def test_levi_civita_exists_for_each_twist_family(self):
        c = canonical_bracket_2d()
        for name, metric in (
            ("hat", Matrix([[2, 1], [1, 1]])),
            ("bar", Matrix.diagonal([1, -3])),
        ):
            twist = TwistFamily2D(name)
            lc = levi_civita_product(c, twist.matrix(), MetricForm(metric))
            assert commutator_bracket(lc) == c
        tilde = TwistFamily2D(TILDE, 3)
        metric = Matrix([[1, Fraction(-3, 2)], [Fraction(-3, 2), 1]])
        lc = levi_civita_product(c, tilde.matrix(), MetricForm(metric))
        assert commutator_bracket(lc) == c
