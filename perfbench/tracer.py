"""Boundary tracer for the traced run: one span per call into a homlie layer.

``Tracer.installed`` replaces every public function bound in a homlie
namespace (its own module's, the package's, and every module that
imported it) with a wrapper that records a span, and restores every
replaced name on exit.  Calls between modules therefore cross a traced
boundary, as do the calls the benchmark makes.  linalg's vector helpers
and the ``Matrix``/``Tensor3`` methods stay unwrapped: they run millions
of times, and their time stays in the caller's self time.

Spans are kept in memory and written out once the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import types
from contextlib import contextmanager
from time import perf_counter

import work

LAYERS = {
    "homlie.algfile": "algfile",
    "homlie.catalog": "algfile",
    "homlie.linalg": "linalg",
    "homlie.structures": "structures",
    "homlie.metric": "metric",
    "homlie.complexstruct": "complexstruct",
    "homlie.phase_space": "phase_space",
    "homlie.dim2": "dim2",
    "homlie.cli": "cli",
}
LAYER_NAMES = (
    "algfile", "linalg", "structures", "metric",
    "complexstruct", "phase_space", "dim2", "cli",
)
# Layers whose checkers walk basis tuples (see work.DOMAINS).
TUPLE_LAYERS = ("structures", "metric", "complexstruct", "phase_space")
BENCH = "bench"

VECTOR_HELPERS = frozenset({
    "rat", "vec", "vec_add", "vec_sub", "vec_scale", "vec_neg", "is_zero_vec",
    "zero_vec", "basis_vec", "pairing", "conj_vec", "to_gaussian_vec",
})


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "instance", "n", "outcome")

    def __init__(self, name, layer, parent, instance):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.instance = instance
        self.start = self.end = 0.0
        self.n = None
        self.outcome = None  # None: raised or not counted; True: pass; (kind, witness)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def tuples(self) -> int:
        if self.n is None:
            return 0
        return work.tuples_evaluated(self.name, self.n, self.outcome)

    def domain(self) -> int:
        if self.n is None:
            return 0
        return work.domain_size(self.name, self.n)


def namespace_snapshot(modules) -> dict:
    """{module name: {attribute: object}}, to prove a restore is exact."""
    return {m.__name__: dict(vars(m)) for m in modules}


def namespaces_restored(before: dict) -> bool:
    """Every name bound in ``before`` is bound to the very same object again.

    Names added since (a submodule imported lazily during the run) are not
    the tracer's doing and are ignored.
    """
    for name, bindings in before.items():
        now = vars(sys.modules[name])
        if any(now.get(k, bindings) is not v for k, v in bindings.items()):
            return False
    return True


class Tracer:
    def __init__(self, violation_type):
        self.spans: list = []
        self._stack: list = []
        self._instance = None
        self._violation = violation_type
        self._patched: list = []

    @contextmanager
    def installed(self, modules):
        try:
            self._install(modules)
            yield self
        finally:
            for module, name, original in reversed(self._patched):
                setattr(module, name, original)
            self._patched.clear()

    def _install(self, modules):
        wrappers = {}
        for module in modules:
            for name, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType) or name.startswith("_"):
                    continue
                layer = LAYERS.get(obj.__module__)
                if layer is None or obj.__name__ in VECTOR_HELPERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, layer)
                self._patched.append((module, name, obj))
                setattr(module, name, wrappers[obj])

    def _wrap(self, fn, layer):
        spans, stack = self.spans, self._stack
        name = fn.__name__
        domain = work.DOMAINS.get(name)
        if domain is not None:
            arg_index, dim_of, _ = domain
            arg_name = list(inspect.signature(fn).parameters)[arg_index]
        violation = self._violation

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else None, self._instance)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if domain is not None:
                arg = args[arg_index] if len(args) > arg_index else kwargs[arg_name]
                span.n = dim_of(arg)
                span.outcome = (
                    (result.kind, result.witness)
                    if isinstance(result, violation)
                    else True
                )
            return result

        return traced

    @contextmanager
    def instance(self, instance_id):
        """Root span of one instance; every span inside it carries its id."""
        span = Span("instance", BENCH, None, instance_id)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        self._instance = instance_id
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()
            self._instance = None

    def self_times(self) -> list:
        """Each span's duration minus the part its child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def accounting_gap(self) -> float:
        """Largest |sum of self times - root duration| over all instances.

        Layer self times plus the benchmark's own time must add up to
        each instance's traced wall time; a span outside every instance
        or a broken parent link shows up here.
        """
        totals: dict = {}
        for span, own in zip(self.spans, self.self_times()):
            totals[span.instance] = totals.get(span.instance, 0.0) + own
        gap = 0.0
        for span in self.spans:
            if span.parent is None:
                if span.layer != BENCH:
                    return float("inf")
                gap = max(gap, abs(totals.pop(span.instance) - span.duration))
        return float("inf") if totals else gap

    def layer_summary(self, instances) -> dict:
        """Per-layer self time, calls, tuples and tuple domain over ``instances``."""
        out = {
            layer: {"self_s": 0.0, "calls": 0, "tuples": 0, "domain": 0}
            for layer in LAYER_NAMES + (BENCH,)
        }
        for span, own in zip(self.spans, self.self_times()):
            if span.instance not in instances:
                continue
            row = out[span.layer]
            row["self_s"] += own
            if span.layer != BENCH:
                row["calls"] += 1
            row["tuples"] += span.tuples()
            row["domain"] += span.domain()
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps([
                    span.name, span.layer, span.start, span.end, span.parent,
                    span.instance, span.n, span.tuples(),
                ]) + "\n")
