"""Acceptance suite: every comparison exact, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines; the whole suite stays well under the thirty-second budget.
"""

import random
from fractions import Fraction

from homlie import catalog
from homlie.complexstruct import (
    check_almost_complex,
    check_hermitian_compatibility,
    check_integrability_equivalence,
    check_kahler,
    complexify_and_split,
    induced_symplectic,
)
from homlie.dim2 import (
    BAR,
    HAT,
    TILDE,
    TwistFamily2D,
    canonical_bracket_2d,
    proper_nonexistence_report,
    solve_almost_complex_2d,
    solve_hermitian_2d,
    solve_kahler_2d,
)
from homlie.linalg import Matrix, Tensor3, determinant, direct_sum, in_span, vec_neg
from homlie.metric import (
    MetricForm,
    SymplecticForm,
    check_metric_compatibility,
    check_pseudo_riemannian,
    check_symplectic,
    check_torsion,
    levi_civita_product,
    symplectic_left_symmetric,
)
from homlie.phase_space import (
    adjoint_rep,
    build_phase_space,
    check_admissible,
    check_phase_space_complex,
    check_representation,
    dual_rep,
    left_mult_rep,
)
from homlie.structures import (
    HomLieAlgebra,
    check_antisymmetry,
    check_hom_bianchi,
    check_hom_jacobi,
    check_hom_left_symmetric,
    check_hom_lie_admissible,
    check_morphism,
    check_subalgebra,
    commutator_bracket,
    hom_jacobi_defect,
)

from conftest import (
    imex_block_j,
    rand_fraction,
    rand_invertible,
    rand_matrix,
    rand_tensor,
    conjugate_tensor,
    conjugate_twist,
    pullback_metric,
    realified_bracket,
    realify,
)
from reference import (
    check_dual_pairing_identity,
    levi_civita_by_pair_solves,
    nijenhuis_tensor,
)

BINDINGS = [(1, 1, 1), (2, 3, 1), (Fraction(-1), Fraction(1, 2), 5)]


def _passed(num, label):
    print(f"ACCEPTANCE {num} ({label}): PASS", flush=True)


def _kahler_lc_table(a, b):
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


def test_criterion_1_symplectic_instance_regression():
    for a, b, big_a in BINDINGS:
        inst = catalog.imex(a, b, big_a)
        assert check_antisymmetry(inst.bracket) is True
        assert check_morphism(inst.bracket, inst.phi) is True
        assert check_hom_jacobi(inst.bracket, inst.phi) is True
        assert (
            check_symplectic(SymplecticForm(inst.omega), inst.bracket, inst.phi)
            is True
        )
        plain = check_hom_jacobi(inst.bracket, Matrix.identity(4))
        assert not plain
        defect = hom_jacobi_defect(inst.bracket, Matrix.identity(4), 1, 3, 4)
        assert defect == (0, 2 * Fraction(a) * Fraction(b), 0, 0)
    _passed(1, "4D symplectic instance regression")


def test_criterion_2_kahler_4d_pipeline():
    for a, b, big_a in BINDINGS:
        inst = catalog.kahler4(a, b, big_a)
        g = MetricForm(inst.metric)
        lc = levi_civita_product(inst.bracket, inst.phi, g)
        assert lc == _kahler_lc_table(a, b)
        assert check_hermitian_compatibility(inst.j, g, inst.phi) is True
        assert nijenhuis_tensor(inst.bracket, inst.phi, inst.j).is_zero()
        assert check_kahler(lc, inst.phi, inst.j) is True
        omega = induced_symplectic(g, inst.phi, inst.j)
        assert check_symplectic(omega, inst.bracket, inst.phi) is True
        if (a, b, big_a) == (1, 1, 1):
            assert omega.omega == catalog.imex(1, 1, 1).omega
    _passed(2, "Kahler 4D pipeline")


def test_criterion_3_swap_twist_hermitian_example():
    inst = catalog.hermitian4(1)
    g = MetricForm(inst.metric)
    assert check_almost_complex(inst.j, inst.phi) is True
    assert check_hermitian_compatibility(inst.j, g, inst.phi) is True
    _passed(3, "swap-twist Hermitian example")


def test_criterion_4_dim2_classification():
    hat = TwistFamily2D(HAT)
    fam = solve_almost_complex_2d(hat)
    assert fam.exists
    assert "j11^2 + j12*j21 = -1" in fam.constraints
    assert check_almost_complex(fam.sample, hat.matrix()) is True

    assert solve_almost_complex_2d(TwistFamily2D(BAR)).kind == "none"
    for shear in (1, 2, -1, Fraction(1, 2), 7):
        assert solve_almost_complex_2d(TwistFamily2D(TILDE, shear)).kind == "none"

    generic_j = Matrix([[1, 1], [-2, -1]])
    hermit = solve_hermitian_2d(hat, generic_j)
    assert hermit.sample == Matrix([[2, 1], [1, 1]])
    assert (
        check_hermitian_compatibility(generic_j, MetricForm(hermit.sample), hat.matrix())
        is True
    )
    anti_j = Matrix([[0, Fraction(-1, 2)], [2, 0]])
    hermit2 = solve_hermitian_2d(hat, anti_j)
    assert (
        check_hermitian_compatibility(anti_j, MetricForm(hermit2.sample), hat.matrix())
        is True
    )

    kahler1 = solve_kahler_2d(hat, generic_j, MetricForm(hermit.sample))
    assert kahler1.exists
    assert kahler1.product == Tensor3.from_table(
        2,
        {(1, 1): (1, -2), (1, 2): (1, -1), (2, 1): (1, -2), (2, 2): (1, -1)},
    )
    kahler2 = solve_kahler_2d(
        hat, anti_j, MetricForm(Matrix.diagonal([1, Fraction(1, 4)]))
    )
    assert kahler2.exists
    assert kahler2.product == Tensor3.from_table(
        2, {(2, 1): (0, -1), (2, 2): (Fraction(1, 4), 0)}
    )

    assert proper_nonexistence_report().all_none
    _passed(4, "2D classification")


def test_criterion_5_complexification():
    inst = catalog.kahler4(1, 1, 1)
    split = complexify_and_split(inst.bracket, inst.phi, inst.j)
    assert split.rank == 2

    pj = inst.phi @ inst.j
    for a, b in split.basis10:
        assert pj.apply(a) == vec_neg(b) and pj.apply(b) == a
    for a, b in split.basis01:
        assert pj.apply(a) == b and pj.apply(b) == vec_neg(a)

    for here, there in ((split.basis10, split.basis01), (split.basis01, split.basis10)):
        span = realify(there)
        for a, b in here:
            assert in_span(span, a + vec_neg(b))
    real_c, real_phi = realified_bracket(inst.bracket), direct_sum(inst.phi, inst.phi)
    for basis in (split.basis10, split.basis01):
        assert check_subalgebra(real_c, real_phi, realify(basis)) is True

    rng = random.Random(20260809)
    structures = [imex_block_j(rng) for _ in range(19)] + [inst.j]
    for j in structures:
        assert check_almost_complex(j, inst.phi) is True
        report = check_integrability_equivalence(inst.bracket, inst.phi, j)
        assert report.consistent
    _passed(5, "complexification and integrability equivalence")


def test_criterion_6_phase_space():
    inst = catalog.kahler4(1, 1, 1)
    g = MetricForm(inst.metric)
    omega = induced_symplectic(g, inst.phi, inst.j)
    base = symplectic_left_symmetric(omega, inst.bracket, inst.phi)

    ps = build_phase_space(base, inst.phi, g)
    n2 = ps.dim
    assert n2 == 8
    assert check_hom_left_symmetric(ps.product, ps.twist) is True
    comm = commutator_bracket(ps.product)
    assert check_hom_jacobi(comm, ps.twist) is True
    assert ps.twist @ ps.twist == Matrix.identity(n2)
    assert check_symplectic(ps.omega, comm, ps.twist) is True
    assert ps.j_cal @ ps.j_cal == -Matrix.identity(n2)
    assert ps.twist @ ps.j_cal == ps.j_cal @ ps.twist
    assert check_dual_pairing_identity(base, inst.phi) is True

    # The complex-structure integrability claim requires the base product
    # to be compatible with the musical metric; the metric product of the
    # same structure is the compatible one.  (The cocycle base fails the
    # claim: see TestPhaseSpaceComplexStructure.)
    lc = levi_civita_product(inst.bracket, inst.phi, g)
    assert check_metric_compatibility(lc, g, inst.phi) is True
    ps_metric = build_phase_space(lc, inst.phi, g, check_base=False)
    assert check_phase_space_complex(ps_metric) is True
    _passed(6, "phase space construction")


def _random_pr_instance_2d(rng):
    bracket = canonical_bracket_2d()
    kind = rng.choice((HAT, BAR, TILDE))
    if kind == HAT:
        twist = TwistFamily2D(HAT).matrix()
        while True:
            m11 = rand_fraction(rng, nonzero=True)
            m12 = rand_fraction(rng)
            m22 = rand_fraction(rng, nonzero=True)
            gram = Matrix([[m11, m12], [m12, m22]])
            if determinant(gram) != 0:
                break
    elif kind == BAR:
        twist = TwistFamily2D(BAR).matrix()
        gram = Matrix.diagonal(
            [rand_fraction(rng, nonzero=True), rand_fraction(rng, nonzero=True)]
        )
    else:
        shear = rand_fraction(rng, nonzero=True)
        twist = TwistFamily2D(TILDE, shear).matrix()
        while True:
            x = rand_fraction(rng, nonzero=True)
            y = rand_fraction(rng, nonzero=True)
            gram = Matrix(
                [[x, -shear / 2 * y], [-shear / 2 * y, y]]
            )
            if determinant(gram) != 0:
                break
    if rng.random() < 0.5:
        s = rand_invertible(rng, 2)
        return (
            conjugate_tensor(bracket, s),
            conjugate_twist(twist, s),
            pullback_metric(MetricForm(gram), s),
        )
    return bracket, twist, MetricForm(gram)


def _random_pr_instance_4d(rng):
    a = rand_fraction(rng, nonzero=True)
    b = rand_fraction(rng, nonzero=True)
    inst = catalog.imex(a, b, 1)
    while True:
        m11 = rand_fraction(rng, nonzero=True)
        m22 = rand_fraction(rng, nonzero=True)
        m33 = rand_fraction(rng, nonzero=True)
        m44 = rand_fraction(rng, nonzero=True)
        m13 = rand_fraction(rng)
        m24 = rand_fraction(rng)
        gram = Matrix(
            [
                [m11, 0, m13, 0],
                [0, m22, 0, m24],
                [m13, 0, m33, 0],
                [0, m24, 0, m44],
            ]
        )
        if determinant(gram) != 0:
            return inst.bracket, inst.phi, MetricForm(gram)


def test_criterion_7_koszul_oracle_equivalence():
    rng = random.Random(4458)
    for case in range(50):
        if case % 2 == 0:
            bracket, twist, metric = _random_pr_instance_2d(rng)
        else:
            bracket, twist, metric = _random_pr_instance_4d(rng)
        assert check_pseudo_riemannian(metric, twist) is True
        assert check_hom_jacobi(bracket, twist) is True
        closed = levi_civita_product(bracket, twist, metric)
        oracle = levi_civita_by_pair_solves(bracket, twist, metric)
        assert closed == oracle
        assert check_torsion(closed, bracket) is True
        assert check_metric_compatibility(closed, metric, twist) is True
    _passed(7, "Koszul closed form vs per-pair oracle on 50 instances")


def test_criterion_8_identity_self_tests():
    rng = random.Random(97)
    for _ in range(200):
        n = rng.choice((2, 3, 4))
        assert check_hom_bianchi(rand_tensor(rng, n), rand_matrix(rng, n)) is True

    left_symmetric_fixtures = [
        (Tensor3.zeros(2), Matrix.identity(2)),
        (Tensor3.zeros(4), Matrix.diagonal([-1, 1, -1, 1])),
    ]
    for a, b, big_a in BINDINGS:
        inst = catalog.imex(a, b, big_a)
        product = symplectic_left_symmetric(
            SymplecticForm(inst.omega), inst.bracket, inst.phi
        )
        left_symmetric_fixtures.append((product, inst.phi))
    base, phi = left_symmetric_fixtures[-1]
    double = build_phase_space(base, phi)
    left_symmetric_fixtures.append((double.product, double.twist))

    admissible_reps = []
    for product, twist in left_symmetric_fixtures:
        assert check_hom_left_symmetric(product, twist) is True
        assert check_hom_lie_admissible(product, twist) is True
        rep = left_mult_rep(product, twist)
        assert check_admissible(rep) is True
        admissible_reps.append(rep)

    for a, b, big_a in BINDINGS:
        inst = catalog.imex(a, b, big_a)
        rep = adjoint_rep(HomLieAlgebra(inst.bracket, inst.phi))
        assert check_admissible(rep) is True
        admissible_reps.append(rep)

    for rep in admissible_reps:
        dual = dual_rep(rep)
        assert check_representation(dual.as_representation()) is True
    _passed(8, "unconditional identities and admissibility chain")
