"""Differential tests: the kernel-backed checkers against the dense reference.

Every public checker that runs on the sparse integer kernel, or on the
shared first-differing-entry helper, is compared with its dense loop in
``reference.py`` on the same input.  Both must return ``True``, or equal
``Violation``s down to the repr of each lhs and rhs entry, or raise the
same error with the same message.  Inputs are seeded random sparse and
dense rational tensors and twists at n = 2..8, single-constant
perturbations of structures that pass, so that failures land at varied
tuples of every identity, and the phase-space doubles of the imex,
kahler4 and hermitian4 fixtures.  The Koszul product, which shares its
form solve with the symplectic product, is compared the same way on the
metric fixtures, on seeded invariant metrics, and on perturbations that
reach each of its errors.
"""

import random
from fractions import Fraction

import pytest

import reference as ref
from conftest import (
    conjugate_tensor,
    conjugate_twist,
    rand_fraction,
    rand_invertible,
    rand_involutive_twist,
    symmetrized_invariant_metric,
)
from homlie import catalog
from homlie.complexstruct import (
    check_almost_complex,
    check_hermitian_compatibility,
    check_kahler,
    check_nijenhuis,
)
from homlie.dim2 import canonical_bracket_2d
from homlie.errors import HomLieError
from homlie.linalg import Matrix, Tensor3, matrix_inverse
from homlie.metric import (
    MetricForm,
    SymplecticForm,
    check_phi_selfadjoint,
    check_pseudo_riemannian,
    check_symplectic,
    levi_civita_product,
    symplectic_left_symmetric,
)
from homlie.phase_space import (
    PhaseSpaceInstance,
    Representation,
    build_phase_space,
    check_admissible,
    check_phase_space_complex,
    check_representation,
    phase_space_product,
)
from homlie.structures import (
    Violation,
    check_antisymmetry,
    check_hom_jacobi,
    check_hom_left_symmetric,
    check_morphism,
    commutator_bracket,
)

PAIRS = {
    check_antisymmetry: ref.check_antisymmetry,
    check_morphism: ref.check_morphism,
    check_hom_left_symmetric: ref.check_hom_left_symmetric,
    check_hom_jacobi: ref.check_hom_jacobi,
    check_symplectic: ref.check_symplectic,
    symplectic_left_symmetric: ref.symplectic_left_symmetric,
    levi_civita_product: ref.levi_civita_product,
    check_representation: ref.check_representation,
    check_admissible: ref.check_admissible,
    check_phase_space_complex: ref.check_phase_space_complex,
    phase_space_product: ref.phase_space_product,
    check_pseudo_riemannian: ref.check_pseudo_riemannian,
    check_phi_selfadjoint: ref.check_phi_selfadjoint,
    check_almost_complex: ref.check_almost_complex,
    check_hermitian_compatibility: ref.check_hermitian_compatibility,
    check_kahler: ref.check_kahler,
    check_nijenhuis: ref.nijenhuis_witness,
}


def outcome(fn, *args):
    """A comparable record of a call: its exact result, or its error."""
    try:
        result = fn(*args)
    except HomLieError as exc:
        violation = getattr(exc, "violation", None)
        return ("raises", type(exc).__name__, str(exc), repr(violation))
    if isinstance(result, Tensor3):
        return ("tensor", repr(result.entries))
    if hasattr(result, "product"):
        return ("levi-civita", repr(result.product.entries))
    return ("returns", repr(result))


def agree(fn, *args, seen=None):
    """Assert the kernel checker and its reference agree; record the failure."""
    got = outcome(fn, *args)
    assert got == outcome(PAIRS[fn], *args), fn.__name__
    if seen is not None and got[0] == "returns" and got[1] != "True":
        result = fn(*args)
        seen.add((result.kind, result.witness))
    return got


def rep_of(a_map, rho, bracket, twist):
    return Representation(a_map=a_map, rho=tuple(rho), bracket=bracket, twist=twist)


def compare_all(p, phi, omega=None, j=None, seen=None):
    """Every kernel checker that applies to a product, its commutator and a twist."""
    n = p.dim
    c = commutator_bracket(p)
    for fn, args in (
        (check_antisymmetry, (p,)),
        (check_antisymmetry, (c,)),
        (check_morphism, (p, phi)),
        (check_morphism, (c, phi)),
        (check_hom_left_symmetric, (p, phi)),
        (check_hom_jacobi, (c, phi)),
        (check_hom_jacobi, (p, phi)),
        (phase_space_product, (p, phi)),
    ):
        agree(fn, *args, seen=seen)
    rep = rep_of(phi, [p.left_mult_basis(i) for i in range(n)], c, phi)
    agree(check_representation, rep, seen=seen)
    agree(check_admissible, rep, seen=seen)
    if omega is not None:
        compare_symplectic(omega, c, phi, seen)
    if j is not None:
        agree(check_nijenhuis, c, phi, j, seen=seen)
        ps = PhaseSpaceInstance(n // 2, p, phi, omega, j, None)
        agree(check_phase_space_complex, ps, seen=seen)


def compare_symplectic(omega, c, phi, seen=None):
    agree(check_symplectic, omega, c, phi, seen=seen)
    agree(symplectic_left_symmetric, omega, c, phi)


# ---------------------------------------------------------------------------
# seeded random inputs
# ---------------------------------------------------------------------------

def rand_sparse_tensor(rng, n, density):
    return Tensor3(
        [
            [
                [rand_fraction(rng, -3, 3, 3) if rng.random() < density else 0
                 for _ in range(n)]
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )


def signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return Matrix([[rng.choice((1, -1)) if perm[r] == col else 0 for col in range(n)]
                   for r in range(n)])


def rand_twist(rng, n):
    kind = rng.choice(("identity", "involutive", "invertible", "signed", "diagonal"))
    if kind == "identity":
        return Matrix.identity(n)
    if kind == "involutive":
        return rand_involutive_twist(rng, n)
    if kind == "invertible":
        return rand_invertible(rng, n)
    if kind == "signed":
        return signed_permutation(rng, n)
    return Matrix.diagonal([rand_fraction(rng, -3, 3, 2, nonzero=True) for _ in range(n)])


def rand_symplectic(rng, n):
    while True:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for k in range(i + 1, n):
                rows[i][k] = rand_fraction(rng, -2, 2, 2)
                rows[k][i] = -rows[i][k]
        try:
            return SymplecticForm(Matrix(rows))
        except HomLieError:
            continue


def commuting_complex_pair(rng, n):
    """A random involutive twist and an almost complex J commuting with it."""
    half = n // 2
    signs = [rng.choice((1, -1)) for _ in range(half)]
    phi0 = Matrix.diagonal(signs + signs)
    j0 = Matrix(
        [[-1 if c == r + half else 0 for c in range(n)] for r in range(half)]
        + [[1 if c == r else 0 for c in range(n)] for r in range(half)]
    )
    s = rand_invertible(rng, n) if rng.random() < 0.5 else signed_permutation(rng, n)
    s_inv = matrix_inverse(s)
    return s @ phi0 @ s_inv, s @ j0 @ s_inv


@pytest.mark.parametrize("seed", range(24))
def test_random_inputs_agree(seed):
    rng = random.Random(f"kernel:{seed}")
    n = 2 + seed % 7
    density = rng.choice((0.05, 0.15, 0.4, 1.0)) if n <= 5 else rng.choice((0.02, 0.06))
    p = rand_sparse_tensor(rng, n, density)
    phi = rand_twist(rng, n)
    omega = rand_symplectic(rng, n) if n % 2 == 0 else None
    compare_all(p, phi, omega)
    c = commutator_bracket(p)
    adjoint = rep_of(phi, [c.left_mult_basis(i) for i in range(n)], c, phi)
    agree(check_representation, adjoint)
    agree(check_admissible, adjoint)
    if n % 2 == 0:
        twist, j = commuting_complex_pair(rng, n)
        compare_all(p, twist, omega, j)


@pytest.mark.parametrize("seed", range(3))
def test_basis_changed_imex_agrees(seed):
    """Fractional twists and forms: the imex structure in a random basis."""
    rng = random.Random(f"kernel-conj:{seed}")
    params = ((1, 1, 1), (2, 3, 1), (Fraction(1, 2), 1, Fraction(-1, 3)))[seed]
    inst = catalog.imex(*params)
    s = rand_invertible(rng, 4)
    c = conjugate_tensor(inst.bracket, s)
    phi = conjugate_twist(inst.phi, s)
    omega = SymplecticForm(s.transpose() @ inst.omega @ s)
    product = symplectic_left_symmetric(omega, c, phi)
    assert check_hom_left_symmetric(product, phi) is True
    compare_all(product, phi, omega)


@pytest.mark.parametrize("t", [2, Fraction(1, 2), Fraction(-2, 3)])
def test_stretched_adjoint_family_agrees(t):
    """[e1, e2] = e2 with the twist diag(1, t), in a random basis.

    A hom-Lie algebra for every t, so its adjoint family is a
    representation; it is admissible only when t^2 = 1.
    """
    rng = random.Random(f"kernel-stretch:{t}")
    s = rand_invertible(rng, 2)
    c = conjugate_tensor(canonical_bracket_2d(), s)
    phi = conjugate_twist(Matrix.diagonal([1, t]), s)
    rep = rep_of(phi, [c.left_mult_basis(i) for i in range(2)], c, phi)
    assert check_representation(rep) is True
    agree(check_admissible, rep)
    agree(check_representation, rep_of(perturb_matrix(phi, rng), rep.rho, c, phi))


# ---------------------------------------------------------------------------
# passing structures and their single-constant perturbations
# ---------------------------------------------------------------------------

def imex_double(a=1, b=1, big_a=1):
    inst = catalog.imex(a, b, big_a)
    base = symplectic_left_symmetric(SymplecticForm(inst.omega), inst.bracket, inst.phi)
    return build_phase_space(base, inst.phi)


def metric_double(inst):
    g = MetricForm(inst.metric)
    lc = levi_civita_product(inst.bracket, inst.phi, g).product
    return build_phase_space(lc, inst.phi, g, check_base=False)


DOUBLES = {
    "imex": lambda: imex_double(2, 3, 1),
    "imex-unit": lambda: imex_double(),
    "kahler4": lambda: metric_double(catalog.kahler4(1, 1, 1)),
    "hermitian4": lambda: metric_double(catalog.hermitian4(1)),
}


@pytest.mark.parametrize("name", sorted(DOUBLES))
def test_fixture_doubles_agree(name):
    ps = DOUBLES[name]()
    compare_all(ps.product, ps.twist, ps.omega, ps.j_cal)


def perturb_tensor(t, rng, diagonal=False):
    """One structure constant moved; with ``diagonal``, one of some c(e_i, e_i)."""
    n = t.dim
    k, i, j = (rng.randrange(n) for _ in range(3))
    if diagonal:
        j = i
    rows = [[list(r) for r in plane] for plane in t.entries]
    rows[k][i][j] += rand_fraction(rng, -2, 2, 3, nonzero=True)
    return Tensor3(rows)


def perturb_matrix(m, rng):
    rows = [list(r) for r in m.rows]
    rows[rng.randrange(m.nrows)][rng.randrange(m.ncols)] += rand_fraction(
        rng, -2, 2, 2, nonzero=True
    )
    return Matrix(rows)


def perturb_form(omega, rng):
    n = omega.dim
    i, k = rng.sample(range(n), 2)
    rows = [list(r) for r in omega.omega.rows]
    delta = rand_fraction(rng, -2, 2, 2, nonzero=True)
    rows[i][k] += delta
    rows[k][i] -= delta
    try:
        return SymplecticForm(Matrix(rows))
    except HomLieError:
        return omega


def scaled_commutation_rep(t, slot, s):
    """A = 0 and rho(e_1) rho(e_2) = t rho(e_2) rho(e_1) under the twist diag(1, t).

    The base has a third, zero, basis vector at index ``slot``.  Both
    twist identities and the representation-bracket identity hold; the
    admissible-bracket identity fails at the pair (e_1, e_2) unless t^2 = 1.
    """
    s_inv = matrix_inverse(s)
    rho = [s_inv @ Matrix.diagonal([t, 1]) @ s, s_inv @ Matrix([[0, 1], [0, 0]]) @ s]
    rho.insert(slot, Matrix.zeros(2))
    scales = [1, t]
    scales.insert(slot, 1)
    return rep_of(Matrix.zeros(2), rho, Tensor3.zeros(3), Matrix.diagonal(scales))


def heisenberg_rep(a, b, s):
    """Adjoint family of [e1, e2] = e3 with twist diag(a, b, ab), in the basis s.

    Always a representation; admissible only when a^2 = b^2 = 1.
    """
    c = Tensor3.from_table(3, {(1, 2): (0, 0, 1)}, antisymmetric=True)
    phi = Matrix.diagonal([a, b, a * b])
    s_inv = matrix_inverse(s)
    planes = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(3):
            col = s_inv.apply(c.apply(s.column(i), s.column(j)))
            for k in range(3):
                planes[k][i][j] = col[k]
    c = Tensor3(planes)
    phi = s_inv @ phi @ s
    return rep_of(phi, [c.left_mult_basis(i) for i in range(3)], c, phi)


EVERY_KIND = {
    "antisymmetry", "morphism", "hom-left-symmetric", "hom-jacobi",
    "symplectic-invariance", "symplectic-cocycle",
    "representation-twist", "representation-bracket",
    "admissible-twist", "admissible-bracket", "phase-space-nijenhuis",
}


def test_perturbations_agree_and_reach_every_identity():
    rng = random.Random("kernel-perturb")
    seen = set()
    doubles = [DOUBLES[name]() for name in ("hermitian4", "imex", "kahler4")]
    for ps in doubles:
        for _ in range(3):
            p = perturb_tensor(ps.product, rng)
            compare_all(p, ps.twist, ps.omega, ps.j_cal, seen=seen)
        compare_all(ps.product, perturb_matrix(ps.twist, rng), ps.omega, seen=seen)
        compare_symplectic(perturb_form(ps.omega, rng), commutator_bracket(ps.product),
                           ps.twist, seen)
    inst = catalog.imex(1, 1, 1)
    omega = SymplecticForm(inst.omega)
    for _ in range(6):
        c = perturb_tensor(inst.bracket, rng)
        agree(check_antisymmetry, c, seen=seen)
        agree(check_symplectic, omega, c, inst.phi, seen=seen)
        agree(check_hom_jacobi, c, inst.phi, seen=seen)
        anti = commutator_bracket(c)
        agree(check_hom_jacobi, anti, inst.phi, seen=seen)
        agree(check_symplectic, omega, anti, inst.phi, seen=seen)
    for a, b in ((2, 1), (1, 3), (-1, Fraction(1, 2)), (1, 1)):
        for s in (Matrix.identity(3), rand_invertible(rng, 3)):
            rep = heisenberg_rep(Fraction(a), Fraction(b), s)
            agree(check_representation, rep, seen=seen)
            agree(check_admissible, rep, seen=seen)
            a_map = perturb_matrix(rep.a_map, rng)
            broken = rep_of(a_map, rep.rho, rep.bracket, rep.twist)
            agree(check_representation, broken, seen=seen)
    for t, slot in ((2, 0), (3, 1), (Fraction(-1, 2), 2), (-1, 0)):
        rep = scaled_commutation_rep(Fraction(t), slot, rand_invertible(rng, 2))
        agree(check_representation, rep, seen=seen)
        agree(check_admissible, rep, seen=seen)
    kinds = {kind for kind, _ in seen}
    assert kinds >= EVERY_KIND, EVERY_KIND - kinds
    assert len(seen) >= 30


def perturb_metric(g, rng):
    """One symmetric pair of Gram entries moved, or g if that degenerates it."""
    i, k = rng.randrange(g.dim), rng.randrange(g.dim)
    rows = [list(r) for r in g.gram.rows]
    delta = rand_fraction(rng, -2, 2, 2, nonzero=True)
    rows[i][k] += delta
    if i != k:
        rows[k][i] += delta
    try:
        return MetricForm(Matrix(rows))
    except HomLieError:
        return g


def hermitian_metric(rng, phi, j):
    """g + (phi J)^T g (phi J) for a random twist-invariant g, nondegenerate."""
    pj = phi @ j
    while True:
        g = symmetrized_invariant_metric(rng, phi).gram
        try:
            return MetricForm(g + pj.transpose() @ g @ pj)
        except HomLieError:
            continue


def compare_entrywise(c, phi, g, j, p, seen):
    """The entrywise checkers and the Nijenhuis witness on one structure."""
    agree(check_pseudo_riemannian, g, phi, seen=seen)
    agree(check_phi_selfadjoint, g, phi, seen=seen)
    agree(check_almost_complex, j, phi, seen=seen)
    agree(check_hermitian_compatibility, j, g, phi, seen=seen)
    agree(check_kahler, p, phi, j, seen=seen)
    agree(check_nijenhuis, c, phi, j, seen=seen)


ENTRYWISE_KINDS = {
    "pseudo-riemannian", "phi-selfadjoint", "almost-complex-square",
    "almost-complex-commute", "hermitian", "kahler-invariance", "nijenhuis",
}


def test_entrywise_checkers_agree_and_reach_every_kind():
    rng = random.Random("kernel-entrywise")
    seen = set()
    structures = []
    for inst in (catalog.kahler4(1, 1, 1), catalog.kahler4(2, 3, 1), catalog.hermitian4(2)):
        g = MetricForm(inst.metric)
        lc = levi_civita_product(inst.bracket, inst.phi, g).product
        structures.append((inst.bracket, inst.phi, g, inst.j, lc))
    for n in (2, 4, 6):
        phi, j = commuting_complex_pair(rng, n)
        p = rand_sparse_tensor(rng, n, 0.3)
        structures.append((commutator_bracket(p), phi, hermitian_metric(rng, phi, j), j, p))
    for c, phi, g, j, p in structures:
        s = rand_invertible(rng, phi.nrows)
        compare_entrywise(c, phi, g, j, p, seen)
        compare_entrywise(c, phi, symmetrized_invariant_metric(rng, phi), j, p, seen)
        compare_entrywise(c, phi, g, s @ j @ matrix_inverse(s), p, seen)
        for _ in range(3):
            compare_entrywise(c, phi, perturb_metric(g, rng), j, p, seen)
            compare_entrywise(c, phi, g, perturb_matrix(j, rng), p, seen)
            compare_entrywise(
                commutator_bracket(perturb_tensor(c, rng)), phi, g, j,
                perturb_tensor(p, rng), seen,
            )
    for n in (4, 6, 8) * 4:
        phi, j = commuting_complex_pair(rng, n)
        for density in (0.01, 0.03, 0.1):
            c = commutator_bracket(rand_sparse_tensor(rng, n, density))
            agree(check_nijenhuis, c, phi, j, seen=seen)
    kinds = {kind for kind, _ in seen}
    assert kinds >= ENTRYWISE_KINDS, ENTRYWISE_KINDS - kinds
    assert len(seen) >= 30


# ---------------------------------------------------------------------------
# the Koszul product: the shared form solve against the dense per-pair loop
# ---------------------------------------------------------------------------

KOSZUL_FIXTURES = [
    catalog.kahler4(1, 1, 1),
    catalog.kahler4(2, 3, 1),
    catalog.kahler4(Fraction(1, 2), 5, 2),
    catalog.kahler4(-1, Fraction(1, 2), 1),
    catalog.hermitian4(1),
    catalog.hermitian4(3),
    catalog.kahler2_case1(1, 1, -2),
    catalog.kahler2_case1(2, 1, -5),
    catalog.kahler2_case2(2, 1),
    catalog.kahler2_case2(3, 5),
]

# How a Koszul call can end: a product, or one of three errors.
KOSZUL_ENDS = {
    "levi-civita",
    "Koszul construction needs an invertible twist",
    "Koszul output fails the torsion identity; input is not a "
    "twist-invariant metric over this bracket",
    "Koszul output fails metric compatibility",
}


def koszul_end(c, phi, g):
    """Assert both Koszul routines agree; return how the call ended."""
    got = agree(levi_civita_product, c, phi, g)
    return got[2] if got[0] == "raises" else got[0]


def test_koszul_fixtures_and_perturbations_agree():
    """A symmetric metric over an antisymmetric bracket always passes both
    post-checks, so they are reached through brackets that are not."""
    rng = random.Random("kernel-koszul")
    ends = set()
    for inst in KOSZUL_FIXTURES:
        c, phi, g = inst.bracket, inst.phi, MetricForm(inst.metric)
        n = c.dim
        assert koszul_end(c, phi, g) == "levi-civita"
        for _ in range(2):
            ends.add(koszul_end(c, phi, perturb_metric(g, rng)))
            ends.add(koszul_end(perturb_tensor(c, rng), phi, g))
            ends.add(koszul_end(perturb_tensor(c, rng, diagonal=True), phi, g))
        ends.add(koszul_end(c, Matrix.diagonal([0] + [1] * (n - 1)), g))
    assert ends == KOSZUL_ENDS


@pytest.mark.parametrize("seed", range(14))
def test_koszul_on_random_invariant_metrics_agrees(seed):
    rng = random.Random(f"kernel-koszul:{seed}")
    n = 2 + seed % 7
    small = n <= 5
    c = commutator_bracket(rand_sparse_tensor(rng, n, 0.4 if small else 0.06))
    phi = rand_involutive_twist(rng, n) if small else signed_permutation(rng, n)
    g = symmetrized_invariant_metric(rng, phi)
    assert koszul_end(c, phi, g) == "levi-civita"
    other = rand_twist(rng, n) if small else signed_permutation(rng, n)
    assert koszul_end(c, other, perturb_metric(g, rng)) in KOSZUL_ENDS


def test_lowering_is_cached_on_the_object():
    ps = DOUBLES["imex"]()
    assert check_hom_left_symmetric(ps.product, ps.twist) is True
    table = ps.product._lowered
    assert check_morphism(ps.product, ps.twist) is True
    assert ps.product._lowered is table
    assert ps.product == Tensor3(ps.product.entries)


def test_phase_space_complex_witness_keeps_fraction_entries():
    result = check_phase_space_complex(DOUBLES["imex-unit"]())
    assert isinstance(result, Violation)
    assert all(type(x) is Fraction for x in result.lhs)
