"""Ready-made instances built from the shipped fixture files.

These helpers bind the in-package .alg documents at chosen parameter
values, so library users and tests get the benchmark algebras with one
call while exercising the same parser the CLI uses.
"""

from __future__ import annotations

from fractions import Fraction
from importlib import resources

from .algfile import BoundInstance, InstanceFile, bind_params, parse_instance

FIXTURE_NAMES = (
    "imex",
    "kahler4",
    "hermitian4",
    "kahler2_case1",
    "kahler2_case2",
    "twist2_hat",
    "twist2_bar",
    "twist2_tilde",
)


def fixture_text(name: str) -> str:
    return (
        resources.files("homlie.fixtures").joinpath(f"{name}.alg").read_text("utf-8")
    )


# Fixtures parsed so far; an InstanceFile is frozen, so callers can share it.
_PARSED: dict = {}


def load_fixture(name: str) -> InstanceFile:
    """The parsed fixture; each is parsed once per import of homlie."""
    if name not in _PARSED:
        _PARSED[name] = parse_instance(fixture_text(name))
    return _PARSED[name]


def imex(a=1, b=1, big_a=1) -> BoundInstance:
    """4D symplectic instance; needs a, b nonzero for the full structure."""
    return bind_params(load_fixture("imex"), {"a": a, "b": b, "A": big_a})


def kahler4(a=1, b=1, big_a=1) -> BoundInstance:
    """The 4D instance carrying bracket, twist, metric, omega and J."""
    return bind_params(load_fixture("kahler4"), {"a": a, "b": b, "A": big_a})


def hermitian4(a=1) -> BoundInstance:
    """4D swap-twist instance with identity metric and an almost complex J."""
    return bind_params(load_fixture("hermitian4"), {"a": a})


def kahler2_case1(a=1, h=1, d=-2) -> BoundInstance:
    """Generic-branch 2D structure; requires a^2 + h d = -1 to be coherent."""
    if Fraction(a) ** 2 + Fraction(h) * Fraction(d) != -1:
        raise ValueError("case-1 parameters must satisfy a^2 + h*d = -1")
    return bind_params(load_fixture("kahler2_case1"), {"a": a, "h": h, "d": d})


def kahler2_case2(d=2, t=1) -> BoundInstance:
    """Antidiagonal-branch 2D structure with metric diag(t, t/d^2)."""
    return bind_params(load_fixture("kahler2_case2"), {"d": d, "t": t})
