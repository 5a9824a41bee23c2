"""Command-line surface: verify instances, build derived structures, classify 2D.

    homlie verify  FILE [-p name=value]... [--checks a,b,...] [--json OUT]
    homlie build   FILE [-p name=value]... --target NAME [--json OUT]
    homlie classify2 (--twist hat|bar|tilde [--B VALUE] | --proper) [--json OUT]

Exit status: 0 when every requested verdict passes, 1 when any fails,
2 on input errors, 3 on an unexpected internal error.  Reports go to
stdout as text; --json additionally writes the machine-readable report.
Set HOMLIE_COLOR=0 to disable ANSI colors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .algfile import (
    AlgSyntaxError,
    BoundInstance,
    _check_literal,
    bind_params,
    parse_instance,
)
from .complexstruct import (
    check_almost_complex,
    check_hermitian_compatibility,
    check_integrability_equivalence,
    check_kahler,
    check_nijenhuis,
    complexify_and_split,
    induced_symplectic,
)
from .dim2 import (
    SolutionFamily,
    TwistFamily2D,
    proper_nonexistence_report,
    solve_almost_complex_2d,
    solve_hermitian_2d,
    solve_kahler_2d,
)
from .errors import HomLieError
from .linalg import Matrix, Tensor3
from .metric import (
    MetricForm,
    SymplecticForm,
    check_metric_compatibility,
    check_phi_selfadjoint,
    check_pseudo_riemannian,
    check_symplectic,
    check_torsion,
    levi_civita_product,
    symplectic_left_symmetric,
)
from .phase_space import (
    build_phase_space,
    check_phase_space_complex,
)
from .structures import (
    Violation,
    check_antisymmetry,
    check_hom_bianchi,
    check_hom_jacobi,
    check_hom_left_symmetric,
    check_hom_lie_admissible,
    check_morphism,
    commutator_bracket,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _s(x) -> str:
    """x as text, past the interpreter's int-to-text limit if need be.

    Every bound value is capped and every witness side is a polynomial
    of fixed degree in them, so the text stays bounded; the limit is
    lifted for that one conversion only.
    """
    try:
        return str(x)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(x)
        finally:
            sys.set_int_max_str_digits(limit)


def _vec_json(v):
    return [_s(x) for x in v]


def _matrix_json(m: Matrix):
    return [[_s(x) for x in row] for row in m.rows]


def _tensor_json(t: Tensor3):
    return [
        {"i": i, "j": j, "coeffs": _vec_json(col)}
        for (i, j), col in sorted(t.nonzero_table().items())
    ]


def _family_json(fam: SolutionFamily):
    out = {
        "kind": fam.kind,
        "free_params": list(fam.free_params),
        "constraints": list(fam.constraints),
        "derivation": list(fam.derivation),
    }
    if fam.sample is not None:
        out["sample"] = _matrix_json(fam.sample)
    if fam.product is not None:
        out["product"] = _tensor_json(fam.product)
    return out


def _violation_json(check: str, v: Violation):
    return {
        "check": check,
        "kind": v.kind,
        "witness": list(v.witness),
        "lhs": _vec_json(v.lhs),
        "rhs": _vec_json(v.rhs),
    }


class Report:
    """Accumulates verdicts, counterexamples and derived objects."""

    def __init__(self, instance: str, bindings: dict):
        self.instance = instance
        self.bindings = {k: _s(v) for k, v in sorted(bindings.items())}
        self.verdicts: dict = {}
        self.counterexamples: list = []
        self.derived: dict = {}

    def record(self, name: str, result):
        """Store True/Violation-style results under the check name."""
        self.verdicts[name] = "pass" if result or result is None else "fail"
        if isinstance(result, Violation):
            self.counterexamples.append(_violation_json(name, result))

    def record_error(self, name: str, exc: Exception):
        self.verdicts[name] = "fail"
        self.counterexamples.append({"check": name, "error": str(exc)})

    @property
    def all_pass(self) -> bool:
        return all(v == "pass" for v in self.verdicts.values())

    def to_json(self) -> dict:
        return {
            "instance": self.instance,
            "bindings": self.bindings,
            "verdicts": self.verdicts,
            "counterexamples": self.counterexamples,
            "derived": self.derived,
        }


def _use_color() -> bool:
    if os.environ.get("HOMLIE_COLOR", "") == "0":
        return False
    return sys.stdout.isatty()


def _render_text(report: Report) -> str:
    color = _use_color()

    def paint(verdict: str) -> str:
        label = verdict.upper()
        if not color:
            return label
        code = "32" if verdict == "pass" else "31"
        return f"\x1b[{code}m{label}\x1b[0m"

    lines = [f"instance: {report.instance}"]
    if report.bindings:
        binds = ", ".join(f"{k}={v}" for k, v in report.bindings.items())
        lines.append(f"bindings: {binds}")
    if report.verdicts:
        width = max(len(k) for k in report.verdicts)
        for name, verdict in report.verdicts.items():
            lines.append(f"  {name.ljust(width)}  {paint(verdict)}")
    for ce in report.counterexamples:
        if "error" in ce:
            lines.append(f"  ! {ce['check']}: {ce['error']}")
        else:
            lines.append(
                f"  ! {ce['check']}: {ce['kind']} at {tuple(ce['witness'])} "
                f"lhs={ce['lhs']} rhs={ce['rhs']}"
            )
    for key, value in report.derived.items():
        lines.append(f"derived {key}:")
        lines.append("  " + json.dumps(value, indent=2).replace("\n", "\n  "))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# verify and build
# ---------------------------------------------------------------------------

def _need(inst: BoundInstance, name: str, fields):
    for field in fields:
        if getattr(inst, field) is None:
            raise InputError(f"check {name!r} needs the instance to carry {field!r}")


def _build_levi_civita(inst: BoundInstance, report: Report):
    metric = MetricForm(inst.metric)
    product = levi_civita_product(inst.bracket, inst.phi, metric).product
    report.derived["levi-civita"] = {"product": _tensor_json(product)}
    report.record("torsion", check_torsion(product, inst.bracket))
    report.record(
        "metric-compatibility", check_metric_compatibility(product, metric, inst.phi)
    )


def _build_left_symmetric(inst: BoundInstance, report: Report):
    product = symplectic_left_symmetric(SymplecticForm(inst.omega), inst.bracket, inst.phi)
    report.derived["left-symmetric"] = {"product": _tensor_json(product)}
    report.record("hom-left-symmetric", check_hom_left_symmetric(product, inst.phi))
    report.record("torsion", check_torsion(product, inst.bracket))


def _base_product_for_phase_space(inst: BoundInstance) -> Tensor3:
    if inst.product is not None:
        return inst.product
    if inst.omega is not None and inst.bracket is not None:
        return symplectic_left_symmetric(
            SymplecticForm(inst.omega), inst.bracket, inst.phi
        )
    raise InputError(
        "phase-space target needs a product, or a bracket with omega to derive one"
    )


def _build_phase_space(inst: BoundInstance, report: Report):
    base = _base_product_for_phase_space(inst)
    metric = MetricForm(inst.metric) if inst.metric is not None else None
    ps = build_phase_space(base, inst.phi, metric)
    n2 = ps.dim
    report.derived["phase-space"] = {
        "dimension": n2,
        "product": _tensor_json(ps.product),
        "twist": _matrix_json(ps.twist),
        "omega": _matrix_json(ps.omega.omega),
        "complex_structure": _matrix_json(ps.j_cal),
    }
    report.record(
        "hom-left-symmetric", check_hom_left_symmetric(ps.product, ps.twist)
    )
    comm = commutator_bracket(ps.product)
    report.record("hom-jacobi", check_hom_jacobi(comm, ps.twist))
    report.record("twist-involutive", ps.twist @ ps.twist == Matrix.identity(n2))
    report.record("symplectic", check_symplectic(ps.omega, comm, ps.twist))
    minus_id = -Matrix.identity(n2)
    report.record("complex-square", ps.j_cal @ ps.j_cal == minus_id)
    report.record(
        "complex-twist-commute", ps.twist @ ps.j_cal == ps.j_cal @ ps.twist
    )
    report.record("nijenhuis", check_phase_space_complex(ps))


def _build_complexify(inst: BoundInstance, report: Report):
    bracket, j = inst.bracket, inst.j
    report.record("almost-complex", check_almost_complex(j, inst.phi))
    split = complexify_and_split(bracket, inst.phi, j)
    report.derived["complexify"] = {
        "rank": split.rank,
        "basis10": [{"re": _vec_json(a), "im": _vec_json(b)} for a, b in split.basis10],
        "basis01": [{"re": _vec_json(a), "im": _vec_json(b)} for a, b in split.basis01],
    }
    rep = check_integrability_equivalence(bracket, inst.phi, j)
    report.derived["complexify"]["integrability"] = {
        "subalgebra_10": rep.subalgebra_10,
        "subalgebra_01": rep.subalgebra_01,
        "nijenhuis_zero": rep.nijenhuis_zero,
    }
    report.record("integrability-consistent", rep.consistent)


def _build_induced_omega(inst: BoundInstance, report: Report):
    metric, j = MetricForm(inst.metric), inst.j
    report.record(
        "hermitian", check_hermitian_compatibility(j, metric, inst.phi)
    )
    omega = induced_symplectic(metric, inst.phi, j)
    report.derived["induced-omega"] = {"omega": _matrix_json(omega.omega)}
    if inst.bracket is not None:
        report.record("symplectic", check_symplectic(omega, inst.bracket, inst.phi))


# name: (the instance fields it needs, the builder)
BUILD_TARGETS = {
    "levi-civita": (("bracket", "metric"), _build_levi_civita),
    "left-symmetric": (("bracket", "omega"), _build_left_symmetric),
    "phase-space": ((), _build_phase_space),
    "complexify": (("bracket", "j"), _build_complexify),
    "induced-omega": (("metric", "j"), _build_induced_omega),
}


def _bianchi(inst: BoundInstance):
    tensor = inst.product if inst.product is not None else inst.bracket
    if tensor is None:
        raise InputError("check 'bianchi' needs a product or bracket")
    return check_hom_bianchi(tensor, inst.phi)


# name: (the instance fields it needs, whether it runs without --checks, the call).
# The middle item is True, False or a further condition on the instance ``i``.
# Listed in the order the default checks run.
CHECKS = {
    "antisymmetry": (("bracket",), True, lambda i: check_antisymmetry(i.bracket)),
    "morphism": (("bracket",), True, lambda i: check_morphism(i.bracket, i.phi)),
    "hom-jacobi": (("bracket",), True, lambda i: check_hom_jacobi(i.bracket, i.phi)),
    "jacobi": (
        ("bracket",), False, lambda i: check_hom_jacobi(i.bracket, Matrix.identity(i.dimension))
    ),
    "product-morphism": (("product",), True, lambda i: check_morphism(i.product, i.phi)),
    "hom-left-symmetric": (
        ("product",), True, lambda i: check_hom_left_symmetric(i.product, i.phi)
    ),
    "lie-admissible": (("product",), True, lambda i: check_hom_lie_admissible(i.product, i.phi)),
    "bianchi": ((), False, _bianchi),
    "pseudo-riemannian": (
        ("metric",), True, lambda i: check_pseudo_riemannian(MetricForm(i.metric), i.phi)
    ),
    "phi-selfadjoint": (
        ("metric",),
        lambda i: i.phi @ i.phi == Matrix.identity(i.dimension),
        lambda i: check_phi_selfadjoint(MetricForm(i.metric), i.phi),
    ),
    "symplectic": (
        ("omega", "bracket"),
        True,
        lambda i: check_symplectic(SymplecticForm(i.omega), i.bracket, i.phi),
    ),
    "almost-complex": (("j",), True, lambda i: check_almost_complex(i.j, i.phi)),
    "nijenhuis": (("bracket", "j"), True, lambda i: check_nijenhuis(i.bracket, i.phi, i.j)),
    "hermitian": (
        ("j", "metric"),
        True,
        lambda i: check_hermitian_compatibility(i.j, MetricForm(i.metric), i.phi),
    ),
    "kahler": (
        ("bracket", "metric", "j"),
        True,
        lambda i: check_kahler(
            levi_civita_product(i.bracket, i.phi, MetricForm(i.metric)).product, i.phi, i.j
        ),
    ),
    "integrability": (
        ("bracket", "j"),
        False,
        lambda i: check_integrability_equivalence(i.bracket, i.phi, i.j).consistent,
    ),
}


def cmd_verify(args) -> int:
    inst, report = _load_and_bind(args)
    if args.checks:
        names = list(dict.fromkeys(c.strip() for c in args.checks.split(",") if c.strip()))
        for name in names:
            if name not in CHECKS:
                raise InputError(f"unknown check {name!r}")
        for name in names:
            _need(inst, name, CHECKS[name][0])
    else:
        names = [
            name for name, (needs, default, _) in CHECKS.items()
            if default and all(getattr(inst, f) is not None for f in needs)
            and (default is True or default(inst))
        ]
    if not names:
        raise InputError("no checks requested and none applicable")
    for name in names:
        try:
            report.record(name, CHECKS[name][2](inst))
        except HomLieError as exc:
            report.record_error(name, exc)
    return _emit(report, args)


def cmd_build(args) -> int:
    inst, report = _load_and_bind(args)
    needs, builder = BUILD_TARGETS[args.target]
    _need(inst, args.target, needs)
    try:
        builder(inst, report)
    except HomLieError as exc:
        report.record_error(args.target, exc)
    return _emit(report, args)


# ---------------------------------------------------------------------------
# classify2
# ---------------------------------------------------------------------------

def cmd_classify2(args) -> int:
    if args.proper:
        report = Report("classify2:proper", {})
        never = proper_nonexistence_report()
        report.derived["families"] = {
            label: _family_json(fam) for label, fam in never.results.items()
        }
        report.record("proper-nonexistence", never.all_none)
        return _emit(report, args)
    if not args.twist:
        raise InputError("classify2 needs --twist or --proper")
    shear = _parse_rational(args.B) if args.B is not None else None
    try:
        twist = TwistFamily2D(args.twist, shear)
    except HomLieError as exc:
        raise InputError(str(exc)) from exc
    label = twist.label()
    report = Report(f"classify2:{label}", {})
    family = solve_almost_complex_2d(twist)
    report.derived["almost-complex"] = _family_json(family)
    report.record("classification", True)
    if family.exists:
        sample = family.sample
        report.record("sample-almost-complex", check_almost_complex(sample, twist.matrix()))
        hermitian = solve_hermitian_2d(twist, sample)
        report.derived["hermitian"] = _family_json(hermitian)
        metric = MetricForm(hermitian.sample)
        report.record(
            "sample-hermitian",
            check_hermitian_compatibility(sample, metric, twist.matrix()),
        )
        kahler = solve_kahler_2d(twist, sample, metric)
        report.derived["kahler"] = _family_json(kahler)
        report.record("sample-kahler", kahler.exists)
    return _emit(report, args)


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _parse_rational(text: str) -> Fraction:
    try:
        _check_literal(text)
        return Fraction(text)
    except AlgSyntaxError as exc:
        raise InputError(str(exc)) from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational value: {text!r}") from exc


def _parse_bindings(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise InputError(f"-p expects name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        name = name.strip()
        if not name:
            raise InputError(f"-p expects name=value, got {pair!r}")
        out[name] = _parse_rational(value.strip())
    return out


def _load_and_bind(args):
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {args.file}: {exc}") from exc
    bindings = _parse_bindings(args.param)
    try:
        instance = parse_instance(text)
        bound = bind_params(instance, bindings)
    except HomLieError as exc:
        raise InputError(str(exc)) from exc
    name = bound.name or os.path.basename(args.file)
    return bound, Report(name, bound.bindings)


def _check_writable(path):
    """Fail before any check runs when the --json report cannot be written."""
    if path is None:
        return
    existed = os.path.exists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    if not existed:
        os.remove(path)


def _emit(report: Report, args) -> int:
    print(_render_text(report))
    if getattr(args, "json", None):
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2)
            fh.write("\n")
    return EXIT_OK if report.all_pass else EXIT_FAIL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homlie",
        description="Exact verification and construction for twisted Lie-type algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run axiom checks on an instance file")
    verify.add_argument("file")
    verify.add_argument(
        "-p", "--param", action="append", metavar="NAME=VALUE",
        help="bind a declared parameter (repeatable)",
    )
    verify.add_argument("--checks", help="comma-separated check names")
    verify.add_argument("--json", metavar="PATH", help="also write a JSON report")

    build = sub.add_parser("build", help="construct a derived structure")
    build.add_argument("file")
    build.add_argument(
        "-p", "--param", action="append", metavar="NAME=VALUE",
        help="bind a declared parameter (repeatable)",
    )
    build.add_argument(
        "--target", required=True, choices=sorted(BUILD_TARGETS),
    )
    build.add_argument("--json", metavar="PATH", help="also write a JSON report")

    classify = sub.add_parser(
        "classify2", help="two-dimensional structure classification"
    )
    classify.add_argument("--twist", choices=["hat", "bar", "tilde"])
    classify.add_argument("--B", help="shear value for the tilde twist")
    classify.add_argument(
        "--proper", action="store_true",
        help="run the nonexistence report over all proper twists",
    )
    classify.add_argument("--json", metavar="PATH", help="also write a JSON report")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "build": cmd_build,
        "classify2": cmd_classify2,
    }
    try:
        _check_writable(args.json)
        return handlers[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
