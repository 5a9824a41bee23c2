"""homlie's result types are frozen records with dataclass-style behaviour."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import homlie
from homlie import _kernel
from homlie import (
    BoundInstance,
    HomAlgebra,
    LinearSolution,
    Matrix,
    NonexistenceReport,
    PhaseSpaceInstance,
    SolutionFamily,
    Tensor3,
    Violation,
    build_phase_space,
    solve_linear,
)
from homlie.errors import InvalidStructureError


def small_double():
    return build_phase_space(Tensor3.zeros(1), Matrix.identity(1))


# Each record next to the repr a frozen dataclass of the same fields prints.
REPRS = [
    (
        lambda: Violation("hom-jacobi", (1, 2, 3), (Fraction(1),), ()),
        "Violation(kind='hom-jacobi', witness=(1, 2, 3), lhs=(Fraction(1, 1),), rhs=())",
    ),
    (
        lambda: BoundInstance(dimension=1, phi=Matrix.identity(1)),
        "BoundInstance(dimension=1, phi=Matrix[1], name='', basis_names=None, "
        "bracket=None, product=None, metric=None, omega=None, j=None, bindings={})",
    ),
    (
        small_double,
        "PhaseSpaceInstance(base_dim=1, product=Tensor3.zeros(2), twist=Matrix[1 0; 0 1], "
        "omega=SymplecticForm(omega=Matrix[0 1; -1 0]), j_cal=Matrix[0 -1; 1 0], "
        "metric=MetricForm(gram=Matrix[1]))",
    ),
    (
        lambda: NonexistenceReport({"bar": SolutionFamily("none", derivation=("x",))}),
        "NonexistenceReport(results={'bar': SolutionFamily(kind='none', free_params=(), "
        "constraints=(), sample=None, product=None, derivation=('x',))})",
    ),
    (
        lambda: solve_linear(Matrix([[2, 0], [0, 4]]), [1, 1]),
        "LinearSolution(status='unique', x=(Fraction(1, 2), Fraction(1, 4)), kernel=None)",
    ),
]
BUILDERS = [build for build, _ in REPRS]
IDS = [text.split("(")[0] for _, text in REPRS]


@pytest.mark.parametrize("build, text", REPRS, ids=IDS)
def test_repr_matches_dataclass_form(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build", BUILDERS, ids=IDS)
def test_equality_and_copy(build):
    a, b = build(), build()
    assert a == b and not a != b
    assert a != tuple(a.__dict__.values())
    assert copy.copy(a) == a


@pytest.mark.parametrize("build", BUILDERS, ids=IDS)
def test_fields_are_frozen(build):
    rec = build()
    field = type(rec).__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(rec, field, None)
    with pytest.raises(AttributeError):
        delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_equality_and_hash_follow_fields():
    assert hash(small_double()) == hash(small_double())
    v = Violation("morphism", (1, 2), (0,), (1,))
    assert hash(v) == hash(Violation("morphism", (1, 2), (0,), (1,)))
    assert len({v, Violation("morphism", (1, 2), (0,), (1,)), Violation("x", ())}) == 2
    assert v != Violation("morphism", (2, 1), (0,), (1,))
    assert solve_linear(Matrix([[1]]), [1]) != solve_linear(Matrix([[1]]), [2])
    with pytest.raises(TypeError):  # a dict field is unhashable
        hash(NonexistenceReport())


def test_default_dicts_are_per_instance():
    a = BoundInstance(1, Matrix.identity(1))
    b = BoundInstance(1, Matrix.identity(1))
    assert a.bindings == {} and a.bindings is not b.bindings
    assert NonexistenceReport().results is not NonexistenceReport().results


def test_positional_and_keyword_construction():
    assert Violation("k", (1,), (2,)) == Violation(witness=(1,), kind="k", lhs=(2,), rhs=())
    assert Violation("k", (1,)).lhs == ()


@pytest.mark.parametrize(
    "call",
    [
        lambda: Violation("k"),
        lambda: Violation(witness=(1,)),
        lambda: Violation("k", (1,), (), (), ()),
        lambda: Violation("k", (1,), kind="j"),
        lambda: Violation("k", (1,), colour="red"),
        lambda: LinearSolution(),
        lambda: PhaseSpaceInstance(base_dim=1),
    ],
)
def test_bad_arguments_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_post_init_still_validates():
    product = Tensor3.from_table(2, {(1, 1): (0, 1)})
    HomAlgebra(product, Matrix.identity(2))
    with pytest.raises(InvalidStructureError) as err:
        HomAlgebra(product, Matrix.diagonal([2, 1]))
    assert isinstance(err.value.violation, Violation)


def test_match_args():
    match Violation("morphism", (1, 2)):
        case Violation(kind, witness):
            assert (kind, witness) == ("morphism", (1, 2))
        case _:
            pytest.fail("Violation did not match positionally")


@pytest.mark.parametrize(
    "rec",
    [
        Violation("hom-jacobi", (1, 2, 3), (Fraction(1, 2),), (Fraction(0),)),
        LinearSolution("non_unique", kernel=(Fraction(-2), Fraction(1))),
        NonexistenceReport({"bar": SolutionFamily("none", derivation=("x",))}),
    ],
    ids=["Violation", "LinearSolution", "NonexistenceReport"],
)
def test_pickle_round_trip(rec):
    again = pickle.loads(pickle.dumps(rec))
    assert again == rec and type(again) is type(rec)
    with pytest.raises(AttributeError):
        again.kind = "changed"


@pytest.mark.parametrize(
    "build",
    [
        lambda: Matrix([[Fraction(1, 2), -3], [0, 1]]),
        lambda: Tensor3.from_table(2, {(1, 2): (Fraction(2, 3), 1)}, antisymmetric=True),
        small_double,
    ],
    ids=["Matrix", "Tensor3", "PhaseSpaceInstance"],
)
@pytest.mark.parametrize(
    "clone",
    [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_containers_round_trip(build, clone):
    obj = build()
    again = clone(obj)
    assert again == obj and type(again) is type(obj)


def test_round_trip_drops_the_lowered_cache():
    m = Matrix([[0, Fraction(1, 2)], [1, 0]])
    _kernel.columns(m)
    again = pickle.loads(pickle.dumps(m))
    assert hasattr(m, "_lowered") and not hasattr(again, "_lowered")
    with pytest.raises(AttributeError):
        again.rows = ()


def test_import_generates_no_dataclass_code_and_parses_nothing():
    code = (
        "import sys, homlie\n"
        "assert 'dataclasses' not in sys.modules, 'dataclasses imported'\n"
        "assert not homlie.catalog._PARSED, 'fixtures parsed at import'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(homlie.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
