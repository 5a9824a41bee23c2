"""Exact classification of structures on the nonabelian 2D algebra.

The only nonabelian bracket in dimension two is [e1, e2] = e2 up to
basis choice, and the involutive twists compatible with it fall into
three families: the identity, diag(1, -1), and the shear
e1 -> e1 + B e2, e2 -> -e2 with B != 0.  The solvers below decide which
of these admit almost complex structures, which metrics make them
Hermitian, and which products make them Kahler, constructively: the
linear commutant condition is solved exactly, and the quadratic
J^2 = -Id is shown to force a square to equal -1 whenever no structure
exists.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import record
from .errors import InvalidStructureError, NoComplexStructureError
from .linalg import Matrix, Tensor3, null_space, rat
from .metric import MetricForm, levi_civita_product
from .complexstruct import (
    check_almost_complex,
    check_hermitian_compatibility,
    check_kahler,
)

HAT = "hat"
BAR = "bar"
TILDE = "tilde"


@record
class TwistFamily2D:
    """One of the three involutive 2D twists; tilde carries its shear value."""

    tag: str
    shear: Fraction | None = None

    def __post_init__(self):
        if self.tag not in (HAT, BAR, TILDE):
            raise InvalidStructureError(f"unknown 2D twist tag {self.tag!r}")
        if self.tag == TILDE:
            if self.shear is None or rat(self.shear) == 0:
                raise InvalidStructureError("tilde twist needs a nonzero shear")
            object.__setattr__(self, "shear", rat(self.shear))
        elif self.shear is not None:
            raise InvalidStructureError(f"{self.tag} twist takes no shear value")

    def matrix(self) -> Matrix:
        if self.tag == HAT:
            return Matrix.identity(2)
        if self.tag == BAR:
            return Matrix.diagonal([1, -1])
        return Matrix([[1, 0], [self.shear, -1]])

    def label(self) -> str:
        if self.tag == TILDE:
            return f"tilde(B={self.shear})"
        return self.tag


def canonical_bracket_2d() -> Tensor3:
    """[e1, e2] = e2, the unique nonabelian 2D bracket in this normal form."""
    return Tensor3.from_table(2, {(1, 2): (0, 1)}, antisymmetric=True)


@record
class SolutionFamily:
    """Outcome of a 2D structure solve.

    kind "constrained" carries a parametrized family with a concrete
    sample; kind "none" carries the derivation showing nonexistence.
    """

    kind: str
    free_params: tuple = ()
    constraints: tuple = ()
    sample: Matrix | None = None
    product: Tensor3 | None = None
    derivation: tuple = ()

    @property
    def exists(self) -> bool:
        return self.kind == "constrained"


def _commutant_basis(phi: Matrix) -> list:
    """Basis of {X : X phi = phi X} inside 2x2 matrices, via exact null space.

    Unknown order (x11, x12, x21, x22).
    """
    rows = []
    for a in range(2):
        for b in range(2):
            row = []
            for c in range(2):
                for d in range(2):
                    coeff = Fraction(0)
                    if a == c:
                        coeff += phi[d, b]
                    if d == b:
                        coeff -= phi[a, c]
                    row.append(coeff)
            rows.append(row)
    return [Matrix([v[0:2], v[2:4]]) for v in null_space(Matrix(rows))]


def solve_almost_complex_2d(twist: TwistFamily2D) -> SolutionFamily:
    """All J with J^2 = -Id commuting with the given twist, or a proof of none."""
    phi = twist.matrix()
    kernel = _commutant_basis(phi)
    derivation = [
        f"commutant of {twist.label()} has dimension {len(kernel)}",
    ]
    if len(kernel) == 4:
        # Everything commutes.  Cayley-Hamilton: J^2 - tr(J) J + det(J) = 0,
        # so J^2 = -Id forces tr(J) = 0 (a scalar J would need a rational
        # square root of -1) and then det(J) = 1, i.e. j11^2 + j12*j21 = -1.
        derivation += [
            "trace must vanish: tr(J) J = (det(J) - 1) Id and a scalar J "
            "would square to a nonnegative multiple of Id",
            "with j22 = -j11 the square condition reads j11^2 + j12*j21 = -1",
        ]
        return SolutionFamily(
            kind="constrained",
            free_params=("j11", "j12", "j21"),
            constraints=("j22 = -j11", "j11^2 + j12*j21 = -1"),
            sample=Matrix([[0, -1], [1, 0]]),
            derivation=tuple(derivation),
        )
    # The proper twists leave only triangular candidates, whose squares
    # have nonnegative rational diagonal.
    if all(k[0, 1] == 0 for k in kernel):
        corner = "j12"
    elif all(k[1, 0] == 0 for k in kernel):
        corner = "j21"
    else:  # pragma: no cover - not reachable for the three known families
        raise InvalidStructureError("unexpected commutant shape")
    derivation += [
        f"commutation forces {corner} = 0, so every candidate is triangular",
        "a triangular J has (J^2)[1][1] = j11^2, and J^2 = -Id would need "
        "j11^2 = -1: no rational (or real) solution",
    ]
    return SolutionFamily(kind="none", derivation=tuple(derivation))


def hat_family_member(p, q) -> Matrix:
    """A member of the identity-twist family: j11 = p, j12-slot value q != 0.

    Column convention: J(e1) = p e1 + r e2 with r = -(1 + p^2)/q and
    J(e2) = q e1 - p e2, so the square constraint holds by construction.
    """
    p, q = rat(p), rat(q)
    if q == 0:
        raise InvalidStructureError("family member needs a nonzero off-diagonal")
    r = (-1 - p * p) / q
    return Matrix([[p, q], [r, -p]])


def solve_hermitian_2d(twist: TwistFamily2D, j: Matrix) -> SolutionFamily:
    """Metrics making (twist, J) Hermitian on the canonical 2D bracket.

    Requires J to be an almost complex structure for the twist (which
    confines the twist to the identity family).  One free parameter,
    the value <e1, e1>; the sample is normalized so the off-diagonal
    entry is 1 in the generic branch, 0 in the antidiagonal branch.
    """
    phi = twist.matrix()
    ac = check_almost_complex(j, phi)
    if not ac:
        raise NoComplexStructureError(
            f"J is not an almost complex structure for {twist.label()}: {ac}"
        )
    p = j[0, 0]
    q = j[0, 1]
    r = j[1, 0]
    if p != 0:
        # under the square constraint p^2 + q r = -1, both q and r are nonzero
        t = -r / p
        sample = Matrix([[t, -(p / r) * t], [-(p / r) * t, -(q / r) * t]])
        return SolutionFamily(
            kind="constrained",
            free_params=("m11",),
            constraints=(
                "m12 = -(j11/j21) m11",
                "m22 = -(j12/j21) m11",
                "m11 != 0",
            ),
            sample=sample,
            derivation=(
                "invariance of the metric under phi o J pins both m12 and m22 "
                "to multiples of m11",
                f"sample normalized with m11 = {t} so that m12 = 1",
            ),
        )
    sample = Matrix([[1, 0], [0, Fraction(1) / (r * r)]])
    return SolutionFamily(
        kind="constrained",
        free_params=("m11",),
        constraints=("m12 = 0", "m22 = m11 / j21^2", "m11 != 0"),
        sample=sample,
        derivation=(
            "with j11 = 0 the invariance equations force a diagonal metric "
            "with ratio 1/j21^2",
        ),
    )


def solve_kahler_2d(twist: TwistFamily2D, j: Matrix, g: MetricForm) -> SolutionFamily:
    """Decide the Kahler property of (twist, J, g) on the canonical bracket.

    Builds the metric product by the twisted Koszul formula and tests
    invariance of phi o J under left multiplications.  The product equals
    the closed-form table of its branch (generic j11 != 0, or
    antidiagonal), a theorem stated in ``tests/test_theorems.py``.  The
    Koszul product is invariant under scaling the metric, so the verdict
    is constant along each one-parameter Hermitian family.
    """
    phi = twist.matrix()
    herm = check_hermitian_compatibility(j, g, phi)
    if not herm:
        raise InvalidStructureError(
            "metric is not Hermitian-compatible with J", herm
        )
    product = levi_civita_product(canonical_bracket_2d(), phi, g)
    verdict = check_kahler(product, phi, j)
    if not verdict:  # pragma: no cover - Hermitian-compatible metrics are Kahler
        return SolutionFamily(
            kind="none",
            product=product,
            sample=g.gram,
            derivation=(
                "metric product does not commute with phi o J: " + str(verdict),
            ),
        )
    if j[0, 0] != 0:
        constraints = (
            "m11 = -j21/j11",
            "product matches the closed-form generic branch",
        )
    else:
        constraints = (
            "any m11 != 0 works in the antidiagonal branch",
            "e2.e2 = (1/j21^2) e1",
        )
    return SolutionFamily(
        kind="constrained",
        free_params=(),
        constraints=constraints,
        sample=g.gram,
        product=product,
    )


@record
class NonexistenceReport:
    """Almost-complex solves over every proper twist; must be all none."""

    results: dict = {}

    @property
    def all_none(self) -> bool:
        return all(fam.kind == "none" for fam in self.results.values())


PROPER_SHEAR_SAMPLES = (
    Fraction(1),
    Fraction(2),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(7),
)


def proper_nonexistence_report() -> NonexistenceReport:
    """Run the almost-complex solver over the proper (non-identity) twists.

    The identity twist is excluded by definition of proper; the shear
    parameter is sampled over a fixed spread of rationals.
    """
    results = {}
    bar = TwistFamily2D(BAR)
    results[bar.label()] = solve_almost_complex_2d(bar)
    for b in PROPER_SHEAR_SAMPLES:
        tw = TwistFamily2D(TILDE, b)
        results[tw.label()] = solve_almost_complex_2d(tw)
    return NonexistenceReport(results=results)
