import random
from fractions import Fraction

import pytest

from homlie import catalog
from homlie.complexstruct import (
    _realified_bracket,
    check_almost_complex,
    check_hermitian_compatibility,
    check_integrability_equivalence,
    check_kahler,
    complexify_and_split,
    induced_symplectic,
)
from homlie.errors import (
    InvalidStructureError,
    NonInvolutiveTwistError,
    OddDimensionError,
)
from homlie.linalg import (
    Matrix,
    Tensor3,
    direct_sum,
    in_span,
    vec_neg,
)
from homlie.metric import MetricForm, check_symplectic, levi_civita_product
from homlie.structures import check_subalgebra

from conftest import imex_block_j, rand_tensor, realified_bracket, realify
from reference import nijenhuis_tensor

ROT2 = Matrix([[0, -1], [1, 0]])


class TestAlmostComplex:
    def test_kahler_fixture(self):
        inst = catalog.kahler4(1, 1, 1)
        assert check_almost_complex(inst.j, inst.phi) is True

    def test_rotation_identity_twist(self):
        assert check_almost_complex(ROT2, Matrix.identity(2)) is True

    def test_rotation_fails_to_commute_with_bar(self):
        result = check_almost_complex(ROT2, Matrix.diagonal([1, -1]))
        assert not result
        assert result.kind == "almost-complex-commute"

    def test_odd_dimension_rejected(self):
        with pytest.raises(OddDimensionError):
            check_almost_complex(Matrix.identity(3), Matrix.identity(3))

    def test_non_involutive_twist_rejected(self):
        with pytest.raises(NonInvolutiveTwistError):
            check_almost_complex(ROT2, Matrix([[1, 1], [0, 1]]))

    def test_square_violation(self):
        result = check_almost_complex(Matrix.identity(2), Matrix.identity(2))
        assert not result
        assert result.kind == "almost-complex-square"
        # the checkers that need an almost complex J reject it with this witness
        with pytest.raises(InvalidStructureError) as err:
            check_kahler(Tensor3.zeros(2), Matrix.identity(2), Matrix.identity(2))
        assert err.value.violation == result


class TestNijenhuis:
    def test_kahler_fixture_vanishes(self):
        for a, b in [(1, 1), (2, 3), (Fraction(-1), Fraction(1, 2))]:
            inst = catalog.kahler4(a, b, 1)
            assert nijenhuis_tensor(inst.bracket, inst.phi, inst.j).is_zero()

    def test_abelian_vanishes(self):
        inst = catalog.kahler4(1, 1, 1)
        nt = nijenhuis_tensor(Tensor3.zeros(4), inst.phi, inst.j)
        assert nt.is_zero()

    def test_diagonal_always_zero_and_antisymmetric(self):
        rng = random.Random(71)
        inst = catalog.imex(1, 1, 1)
        for _ in range(5):
            j = imex_block_j(rng)
            nt = nijenhuis_tensor(inst.bracket, inst.phi, j).tensor
            assert nt.is_antisymmetric()
            for i in range(4):
                assert nt.basis_product(i, i) == (0, 0, 0, 0)

    def test_swap_twist_fixture_not_integrable(self):
        inst = catalog.hermitian4(1)
        nt = nijenhuis_tensor(inst.bracket, inst.phi, inst.j).tensor
        assert nt.basis_product(0, 1) == (0, 0, -1, 1)


class TestHermitian:
    def test_swap_twist_fixture(self):
        inst = catalog.hermitian4(1)
        g = MetricForm(inst.metric)
        assert check_almost_complex(inst.j, inst.phi) is True
        assert check_hermitian_compatibility(inst.j, g, inst.phi) is True

    def test_kahler_fixture(self):
        for a, b, big_a in [(1, 1, 1), (2, 3, 1), (Fraction(-1), Fraction(1, 2), 5)]:
            inst = catalog.kahler4(a, b, big_a)
            g = MetricForm(inst.metric)
            assert check_hermitian_compatibility(inst.j, g, inst.phi) is True

    def test_unbalanced_metric_fails(self):
        j = Matrix(
            [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
        )
        g = MetricForm(Matrix.diagonal([1, 2, 1, 1]))
        result = check_hermitian_compatibility(j, g, Matrix.identity(4))
        assert not result
        assert result.witness == (1, 1)


class TestComplexSplit:
    def test_dim2_rotation(self):
        split = complexify_and_split(Tensor3.zeros(2), Matrix.identity(2), ROT2)
        assert split.rank == 1
        assert split.basis10 == (((1, 0), (0, -1)),)
        assert split.basis01 == (((1, 0), (0, 1)),)

    def test_kahler_fixture_rank(self):
        inst = catalog.kahler4(1, 1, 1)
        split = complexify_and_split(inst.bracket, inst.phi, inst.j)
        assert split.rank == 2

    def test_eigenvector_property(self):
        # (phi J)(a + ib) = +-i (a + ib) reads (phi J) a = -+b, (phi J) b = +-a
        inst = catalog.kahler4(1, 1, 1)
        split = complexify_and_split(inst.bracket, inst.phi, inst.j)
        pj = inst.phi @ inst.j
        for a, b in split.basis10:
            assert pj.apply(a) == vec_neg(b) and pj.apply(b) == a
        for a, b in split.basis01:
            assert pj.apply(a) == b and pj.apply(b) == vec_neg(a)

    def test_conjugation_swaps_the_spaces(self):
        inst = catalog.kahler4(2, 3, 1)
        split = complexify_and_split(inst.bracket, inst.phi, inst.j)
        for here, there in ((split.basis10, split.basis01), (split.basis01, split.basis10)):
            span = realify(there)
            for a, b in here:
                assert in_span(span, a + vec_neg(b))

    def test_eigenbasis_spans_subalgebra_for_integrable_fixture(self):
        inst = catalog.kahler4(1, 1, 1)
        split = complexify_and_split(inst.bracket, inst.phi, inst.j)
        assert (
            check_subalgebra(
                realified_bracket(inst.bracket),
                direct_sum(inst.phi, inst.phi),
                realify(split.basis10),
            )
            is True
        )


class TestIntegrabilityEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_realified_bracket_matches_an_entrywise_build(self, n):
        c = rand_tensor(random.Random(n), n)
        assert _realified_bracket(c) == realified_bracket(c)

    def test_kahler_fixture_all_true(self):
        inst = catalog.kahler4(1, 1, 1)
        rep = check_integrability_equivalence(inst.bracket, inst.phi, inst.j)
        assert (rep.subalgebra_10, rep.subalgebra_01, rep.nijenhuis_zero) == (
            True, True, True,
        )
        assert rep.consistent and rep.integrable

    def test_abelian_all_true(self):
        rep = check_integrability_equivalence(
            Tensor3.zeros(2), Matrix.identity(2), ROT2
        )
        assert rep.consistent and rep.integrable

    def test_swap_fixture_all_false(self):
        inst = catalog.hermitian4(1)
        rep = check_integrability_equivalence(inst.bracket, inst.phi, inst.j)
        assert rep.consistent
        assert not rep.integrable
        assert (rep.subalgebra_10, rep.subalgebra_01) == (False, False)

    def test_random_structures_agree(self):
        rng = random.Random(73)
        inst = catalog.imex(1, 1, 1)
        for _ in range(20):
            j = imex_block_j(rng)
            assert check_almost_complex(j, inst.phi) is True
            rep = check_integrability_equivalence(inst.bracket, inst.phi, j)
            assert rep.consistent

    def test_random_2d_structures_agree(self):
        from homlie.dim2 import canonical_bracket_2d, hat_family_member

        rng = random.Random(74)
        bracket = canonical_bracket_2d()
        hat = Matrix.identity(2)
        for _ in range(20):
            p = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            q = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice((1, -1))
            j = hat_family_member(p, q)
            rep = check_integrability_equivalence(bracket, hat, j)
            assert rep.consistent


class TestKahler:
    def test_kahler_fixture(self):
        for a, b, big_a in [(1, 1, 1), (2, 3, 1), (Fraction(-1), Fraction(1, 2), 5)]:
            inst = catalog.kahler4(a, b, big_a)
            lc = levi_civita_product(inst.bracket, inst.phi, MetricForm(inst.metric))
            assert check_kahler(lc, inst.phi, inst.j) is True

    def test_zero_product(self):
        inst = catalog.kahler4(1, 1, 1)
        assert check_kahler(Tensor3.zeros(4), inst.phi, inst.j) is True

    def test_generic_2d_branch(self):
        inst = catalog.kahler2_case1(1, 1, -2)
        assert check_kahler(inst.product, inst.phi, inst.j) is True

    def test_broken_product_detected(self):
        inst = catalog.kahler2_case1(1, 1, -2)
        planes = [
            [[inst.product.entries[k][i][j] for j in range(2)] for i in range(2)]
            for k in range(2)
        ]
        planes[0][0][0] += 1
        assert not check_kahler(Tensor3(planes), inst.phi, inst.j)


class TestInducedSymplectic:
    def test_kahler_fixture_matches_omega(self):
        for a, b, big_a in [(1, 1, 1), (2, 3, 1), (Fraction(-1), Fraction(1, 2), 5)]:
            inst = catalog.kahler4(a, b, big_a)
            om = induced_symplectic(MetricForm(inst.metric), inst.phi, inst.j)
            assert om.omega == inst.omega

    def test_plane_rotation(self):
        g = MetricForm(Matrix.identity(2))
        om = induced_symplectic(g, Matrix.identity(2), ROT2)
        assert om.omega == Matrix([[0, 1], [-1, 0]])

    def test_twist_invariance_of_output(self):
        inst = catalog.kahler4(2, 3, 1)
        om = induced_symplectic(MetricForm(inst.metric), inst.phi, inst.j)
        pulled = inst.phi.transpose() @ om.omega @ inst.phi
        assert pulled == om.omega

    def test_kahler_output_is_symplectic(self):
        inst = catalog.kahler4(2, 3, 1)
        om = induced_symplectic(MetricForm(inst.metric), inst.phi, inst.j)
        assert check_symplectic(om, inst.bracket, inst.phi) is True

    def test_requires_hermitian_pair(self):
        g = MetricForm(Matrix.diagonal([1, 2, 1, 1]))
        j = Matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
        with pytest.raises(InvalidStructureError):
            induced_symplectic(g, Matrix.identity(4), j)
