"""The traced run restores every name and accounts for every second."""

import pytest

import run
import tracer as tracing
from workloads import WORKLOADS


@pytest.fixture(scope="module")
def hl():
    return run.import_homlie()


def test_namespaces_identical_after_traced_run(hl, tmp_path):
    workload = WORKLOADS["cli-fixtures"]
    inputs = workload.setup(hl, 3, str(tmp_path))  # imports everything lazily loaded
    expected = run.load_expected()
    modules = run.homlie_modules()
    before = tracing.namespace_snapshot(modules)
    tracer = tracing.Tracer(hl.structures.Violation)
    with tracer.installed(modules):
        assert hl.structures.check_hom_jacobi is not before["homlie.structures"]["check_hom_jacobi"]
        samples, failures, _ = run.closed_loop(
            workload, hl, inputs, expected, count=len(inputs.items), tracer=tracer
        )
    after = tracing.namespace_snapshot(run.homlie_modules())
    assert after.keys() == before.keys()
    for name, bindings in before.items():
        assert after[name].keys() == bindings.keys()
        assert all(after[name][k] is v for k, v in bindings.items()), name
    assert failures == []
    assert tracer.accounting_gap() < 1e-9
    layers = {span.layer for span in tracer.spans}
    assert set(tracing.LAYER_NAMES) <= layers
    # cross-module names are wrapped too: cli's own binding of a checker
    names = {(s.layer, s.name) for s in tracer.spans if s.parent is not None
             and tracer.spans[s.parent].layer == "cli"}
    assert ("metric", "levi_civita_product") in names


def test_vector_helpers_and_methods_stay_unwrapped(hl):
    tracer = tracing.Tracer(hl.structures.Violation)
    modules = run.homlie_modules()
    with tracer.installed(modules):
        assert hl.linalg.vec_add.__module__ == "homlie.linalg"
        assert not hasattr(hl.linalg.vec_add, "__wrapped__")
        assert not hasattr(hl.metric.basis_vec, "__wrapped__")
        assert hasattr(hl.metric.matrix_inverse, "__wrapped__")
        assert hasattr(hl.linalg.independent_subset, "__wrapped__")
        hl.linalg.Tensor3.zeros(2).apply((1, 0), (0, 1))
    assert tracer.spans == []


@pytest.mark.parametrize("checker, helper, per_tuple", [
    ("check_hom_jacobi", "hom_jacobi_defect", 1),
    ("check_hom_left_symmetric", "twisted_associator", 2),
    ("check_hom_bianchi", "tensor_curvature", 3),
])
def test_tuple_count_matches_per_tuple_helper_calls(hl, checker, helper, per_tuple):
    """Counted from n and the witness rank = counted by the program's own helper."""
    inst = hl.catalog.kahler2_case1()
    kahler4 = hl.catalog.kahler4(a=2, b=3, big_a=1)
    cases = [
        (kahler4.bracket, hl.linalg.Matrix.identity(4)),  # jacobi fails early
        (kahler4.bracket, kahler4.phi),
        (inst.product, inst.phi),
    ]
    tracer = tracing.Tracer(hl.structures.Violation)
    modules = run.homlie_modules()
    for tensor, phi in cases:
        with tracer.installed(modules), tracer.instance(len(tracer.spans)):
            try:
                getattr(hl.structures, checker)(tensor, phi)
            except hl.pkg.HomLieError:
                pass
    for index, span in enumerate(tracer.spans):
        if span.name != checker:
            continue
        calls = sum(1 for s in tracer.spans if s.parent == index and s.name == helper)
        assert span.tuples() * per_tuple == calls
