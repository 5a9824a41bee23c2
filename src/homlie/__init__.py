"""homlie: exact verification and construction of twisted Lie-type structures.

Everything runs over arbitrary-precision rationals, complexified
computations included; every verdict is an exact equality, every failed
check comes with the first violating basis tuple.
"""

from .errors import (
    DegenerateFormError,
    DimensionMismatchError,
    HomLieError,
    InvalidStructureError,
    NoComplexStructureError,
    NonInvolutiveTwistError,
    NotAdmissibleError,
    NotLeftSymmetricError,
    OddDimensionError,
    SingularMatrixError,
    SingularTwistError,
)
from .linalg import (
    LinearSolution,
    Matrix,
    Rational,
    Tensor3,
    determinant,
    matrix_inverse,
    null_space,
    solve_linear,
)
from .structures import (
    HomAlgebra,
    HomLieAlgebra,
    Violation,
    check_antisymmetry,
    check_hom_bianchi,
    check_hom_jacobi,
    check_hom_left_symmetric,
    check_hom_lie_admissible,
    check_morphism,
    check_subalgebra,
    commutator_bracket,
    hom_jacobi_defect,
    tensor_curvature,
)
from .metric import (
    LeviCivitaProduct,
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
from .complexstruct import (
    ComplexSplit,
    IntegrabilityReport,
    check_almost_complex,
    check_hermitian_compatibility,
    check_integrability_equivalence,
    check_kahler,
    check_nijenhuis,
    complexify_and_split,
    induced_symplectic,
)
from .phase_space import (
    DualRepresentation,
    PhaseSpaceInstance,
    Representation,
    adjoint_rep,
    build_phase_space,
    check_admissible,
    check_phase_space_complex,
    check_representation,
    dual_rep,
    left_mult_rep,
)
from .dim2 import (
    NonexistenceReport,
    SolutionFamily,
    TwistFamily2D,
    canonical_bracket_2d,
    hat_family_member,
    proper_nonexistence_report,
    solve_almost_complex_2d,
    solve_hermitian_2d,
    solve_kahler_2d,
)
from .algfile import (
    BoundInstance,
    InstanceFile,
    ParamExpr,
    bind_params,
    parse_instance,
    serialize_instance,
)
from . import catalog

__version__ = "0.1.0"
