"""Basis tuples evaluated by a checker, computed from outside the program.

Every homlie checker walks a documented lexicographic domain of basis
tuples and stops at the first violation, which it returns with its
1-based witness.  So the work a call did follows from the dimension n
and the witness's rank in that domain: a pass evaluated the whole
domain, a failure evaluated everything up to and including the witness.

A domain is a list of segments scanned in order.  Each segment names
its tuple shape and the violation kinds it reports.  A precondition scan
that a checker runs through another wrapped checker (antisymmetry before
hom-jacobi, almost-complex before hermitian) is a span of its own and is
counted there, once.  Constructions never stop early and count their
whole domain.
"""

from __future__ import annotations

from math import comb


def _pairs_lt_before(n: int, i: int) -> int:
    """Pairs (a, b), a < b, whose first index a is below i (1-based)."""
    return (i - 1) * n - (i - 1) * i // 2


SHAPES = {
    # name: (domain size for n, 0-based rank of a 1-based tuple)
    "singles": (lambda n: n, lambda n, t: t[0] - 1),
    "pairs": (lambda n: n * n, lambda n, t: (t[0] - 1) * n + t[1] - 1),
    "pairs_le": (
        lambda n: n * (n + 1) // 2,
        lambda n, t: (t[0] - 1) * (n + 1) - (t[0] - 1) * t[0] // 2 + t[1] - t[0],
    ),
    "pairs_lt": (
        lambda n: n * (n - 1) // 2,
        lambda n, t: _pairs_lt_before(n, t[0]) + t[1] - t[0] - 1,
    ),
    "pairs_lt_k": (
        lambda n: n * n * (n - 1) // 2,
        lambda n, t: (_pairs_lt_before(n, t[0]) + t[1] - t[0] - 1) * n + t[2] - 1,
    ),
    "triples": (
        lambda n: n ** 3,
        lambda n, t: ((t[0] - 1) * n + t[1] - 1) * n + t[2] - 1,
    ),
    "triples_lt": (
        lambda n: comb(n, 3),
        lambda n, t: comb(n, 3) - comb(n - t[0] + 1, 3)
        + _pairs_lt_before(n - t[0], t[1] - t[0]) + t[2] - t[1] - 1,
    ),
}


def _dim(obj) -> int:
    """n of a Tensor3, Matrix, MetricForm, SymplecticForm or basis list."""
    if isinstance(obj, (list, tuple)):
        return len(obj)
    if hasattr(obj, "nrows"):
        return obj.nrows
    return obj.dim


def _base_dim(rep) -> int:
    return rep.base_dim


# function name -> (argument giving n, how to read n from it, segments)
# A segment is (shape, violation kinds it reports); constructions list no kinds.
DOMAINS = {
    # structures
    "check_antisymmetry": (0, _dim, [("pairs_le", ("antisymmetry",))]),
    "check_morphism": (0, _dim, [("pairs", ("morphism",))]),
    "check_hom_jacobi": (0, _dim, [("triples_lt", ("hom-jacobi",))]),
    "check_hom_left_symmetric": (0, _dim, [("pairs_lt_k", ("hom-left-symmetric",))]),
    "check_hom_bianchi": (0, _dim, [("triples_lt", ("hom-bianchi",))]),
    "check_subalgebra": (
        2, _dim, [("singles", ("subalgebra-twist",)), ("pairs", ("subalgebra-bracket",))]
    ),
    # metric
    "check_pseudo_riemannian": (0, _dim, [("pairs_le", ("pseudo-riemannian",))]),
    "check_phi_selfadjoint": (0, _dim, [("pairs", ("phi-selfadjoint",))]),
    "check_torsion": (0, _dim, [("pairs_lt", ("torsion",))]),
    "check_metric_compatibility": (0, _dim, [("triples", ("metric-compatibility",))]),
    "check_symplectic": (
        1, _dim,
        [("pairs_lt", ("symplectic-invariance",)), ("triples_lt", ("symplectic-cocycle",))],
    ),
    "levi_civita_product": (0, _dim, [("triples", ())]),
    "symplectic_left_symmetric": (1, _dim, [("triples", ())]),
    # complexstruct
    "check_almost_complex": (
        0, _dim,
        [("pairs", ("almost-complex-square",)), ("pairs", ("almost-complex-commute",))],
    ),
    "check_hermitian_compatibility": (1, _dim, [("pairs_le", ("hermitian",))]),
    "check_kahler": (0, _dim, [("triples", ("kahler-invariance",))]),
    "nijenhuis_tensor": (0, _dim, [("pairs", ())]),
    # phase_space
    "check_representation": (
        0, _base_dim,
        [("singles", ("representation-twist",)), ("pairs", ("representation-bracket",))],
    ),
    "check_admissible": (
        0, _base_dim,
        [("singles", ("admissible-twist",)), ("pairs", ("admissible-bracket",))],
    ),
    "check_phase_space_complex": (0, _dim, [("pairs_lt", ("phase-space-nijenhuis",))]),
}


def domain_size(name: str, n: int) -> int:
    return sum(SHAPES[shape][0](n) for shape, _ in DOMAINS[name][2])


def tuples_evaluated(name: str, n: int, outcome) -> int:
    """Tuples a call of checker ``name`` at dimension n evaluated.

    ``outcome`` is None when the call raised (every checker raises only
    in its preconditions, before its own scan), True for a pass or any
    return value that is not a violation, else ``(kind, witness)``.
    """
    if outcome is None:
        return 0
    segments = DOMAINS[name][2]
    if outcome is True:
        return domain_size(name, n)
    kind, witness = outcome
    done = 0
    for shape, kinds in segments:
        size, rank = SHAPES[shape]
        if kind in kinds:
            return done + rank(n, witness) + 1
        done += size(n)
    raise ValueError(f"{name} reported kind {kind!r} outside its domain")
