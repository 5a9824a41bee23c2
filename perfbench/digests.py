"""Digests of program outputs, for comparison against the stored expectations.

Outputs that theory does not fix (failing witnesses, derived tensors, CLI
reports) were digested once and stored in ``expected.json``; a later
change that alters one of them shows up as a wrong instance.
"""

from __future__ import annotations

import hashlib
import json


def canon(x):
    """A JSON-able form: rationals as "p/q" strings, structures as nested lists."""
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if hasattr(x, "witness"):  # Violation
        return [x.kind, canon(x.witness), canon(x.lhs), canon(x.rhs)]
    if hasattr(x, "entries"):  # Tensor3
        return canon(x.entries)
    if hasattr(x, "rows"):  # Matrix
        return canon(x.rows)
    return str(x)


def digest(x) -> str:
    text = json.dumps(canon(x), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def report_digest(report: dict) -> str:
    """Digest of a CLI JSON report's verdicts, counterexamples and derived objects.

    The instance name and bindings are left out (they echo the input), and
    so is any block a later report schema may add.
    """
    return digest({k: report[k] for k in ("verdicts", "counterexamples", "derived")})
