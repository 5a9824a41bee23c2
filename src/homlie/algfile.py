"""Instance file format: JSON documents with rational-expression entries.

One document describes one algebra: a dimension, declared parameter
names, the twist matrix, a sparse bracket and/or a dense product table,
and optional metric / symplectic / complex-structure matrices.  Every
entry is an expression over the declared parameters with the grammar

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := rational | ident | '-' factor | '(' expr ')'

Binding all parameters to rationals yields concrete matrices and
tensors; division by zero is caught at bind time with the offending
expression reported.  Rationals serialize as strings "p/q" or "p".
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from ._record import record
from .errors import HomLieError
from .linalg import Matrix, Tensor3


class InstanceFormatError(HomLieError):
    """Structural problem in an instance document."""


# Characters quoted on each side of a syntax error, so input cannot flood stderr.
QUOTE_RADIUS = 30


class AlgSyntaxError(HomLieError):
    """Expression or JSON syntax error with position information."""

    def __init__(self, message, source=None, position=None):
        location = ""
        if source is not None and position is not None:
            start, end = max(0, position - QUOTE_RADIUS), position + QUOTE_RADIUS
            cut_left, cut_right = "..." * (start > 0), "..." * (end < len(source))
            quote = f"{cut_left}{source[start:end]!r}{cut_right}"
            location = f" in {quote} at column {position + 1}"
        super().__init__(message + location)
        self.source = source
        self.position = position


class UndeclaredParameterError(HomLieError):
    pass


class MissingBindingError(HomLieError):
    pass


class UnusedBindingError(HomLieError):
    pass


class BindingDivisionByZero(HomLieError):
    pass


class BindingOverflowError(HomLieError):
    """A value computed while binding has too many digits."""


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------

_OPS = set("+-*/()")
# Parentheses and unary minus nest the parser's recursion; beyond this
# depth an expression is rejected instead of exhausting the stack.
MAX_NESTING = 100
# Longest rational literal, in characters, and largest decimal exponent.
# A literal's value then has at most 2 * MAX_LITERAL digits, far below the
# 4,300-digit limit some interpreters put on int/str conversion.
MAX_LITERAL = 1000
# Bound on the numerator and denominator of every value met while binding.
# Checked at each operation, it also bounds the work of evaluating an entry.
_MAX_VALUE = 10 ** (2 * MAX_LITERAL)
_BINARY = ("add", "sub", "mul", "div")
_EXPONENT = re.compile(r"[eE]([-+]?\d(?:_?\d)*)\s*\Z")


def _check_literal(text: str, source=None, position=None):
    """Reject a rational literal too long or too finely scaled to handle."""
    if len(text) > MAX_LITERAL:
        raise AlgSyntaxError(
            f"numeric literal longer than {MAX_LITERAL} characters", source, position
        )
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent[1])) > MAX_LITERAL:
        raise AlgSyntaxError(
            f"numeric literal with a decimal exponent beyond {MAX_LITERAL}",
            source,
            position,
        )


def _json_int(text: str) -> int:
    _check_literal(text)
    return int(text)


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, i))
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < len(text) and text[i].isdigit():
                i += 1
            _check_literal(text[start:i], text, start)
            tokens.append(("num", start, text[start:i]))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("ident", start, text[start:i]))
            continue
        raise AlgSyntaxError(f"unexpected character {ch!r}", text, i)
    tokens.append(("end", len(text)))
    return tokens


class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise AlgSyntaxError("trailing input", self.text, tok[1])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def factor(self):
        tok = self.peek()
        if tok[0] == "num":
            self.advance()
            return ("num", Fraction(tok[2]))
        if tok[0] == "ident":
            self.advance()
            return ("param", tok[2])
        if tok[0] not in ("-", "("):
            raise AlgSyntaxError("expected a value", self.text, tok[1])
        self.advance()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise AlgSyntaxError(
                f"expression nested deeper than {MAX_NESTING}", self.text, tok[1]
            )
        if tok[0] == "-":
            node = ("neg", self.factor())
        else:
            node = self.expr()
            closing = self.advance()
            if closing[0] != ")":
                raise AlgSyntaxError("expected ')'", self.text, closing[1])
        self.depth -= 1
        return node


@record
class ParamExpr:
    """A parsed expression that remembers its source text for round trips."""

    source: str
    ast: tuple

    @classmethod
    def parse(cls, text) -> "ParamExpr":
        if isinstance(text, (int, Fraction)):
            text = str(text)
        if not isinstance(text, str):
            raise InstanceFormatError(f"expression must be a string, got {text!r}")
        return cls(source=text, ast=_ExprParser(text).parse())

    def parameters(self) -> frozenset:
        names = set()
        stack = [self.ast]
        while stack:
            node = stack.pop()
            if node[0] == "param":
                names.add(node[1])
            elif node[0] in ("neg",):
                stack.append(node[1])
            elif node[0] in ("add", "sub", "mul", "div"):
                stack.extend(node[1:])
        return frozenset(names)

    def evaluate(self, bindings: dict) -> Fraction:
        return self._eval(self.ast, bindings)

    def _eval(self, node, bindings):
        kind = node[0]
        if kind == "num":
            return node[1]
        if kind == "param":
            return self._bounded(bindings[node[1]])
        if kind == "neg":
            return -self._eval(node[1], bindings)
        # A chain such as 1+1+...+1 is a left-deep tree as deep as it has
        # terms.  Its left spine is walked in a loop, so recursion follows
        # only parentheses and unary minus, whose depth the parser caps.
        spine = []
        while node[0] in _BINARY:
            spine.append(node)
            node = node[1]
        value = self._eval(node, bindings)
        for kind, _, right in reversed(spine):
            right = self._eval(right, bindings)
            if kind == "add":
                value = value + right
            elif kind == "sub":
                value = value - right
            elif kind == "mul":
                value = value * right
            elif right == 0:
                raise BindingDivisionByZero(
                    f"division by zero while binding {self.source!r}"
                )
            else:
                value = value / right
            self._bounded(value)
        return value

    def _bounded(self, value):
        if abs(value.numerator) >= _MAX_VALUE or value.denominator >= _MAX_VALUE:
            raise BindingOverflowError(
                f"value with more than {2 * MAX_LITERAL} digits while binding "
                f"{self.source[:60]!r}{'...' * (len(self.source) > 60)}"
            )
        return value


# ---------------------------------------------------------------------------
# instance documents
# ---------------------------------------------------------------------------

MATRIX_FIELDS = ("phi", "metric", "omega", "J")


@record
class InstanceFile:
    """A parsed instance document, expressions left unbound."""

    dimension: int
    params: tuple
    phi: tuple
    name: str = ""
    basis_names: tuple | None = None
    bracket: tuple | None = None  # ((i, j, coeff exprs), ...) with i < j
    product: tuple | None = None  # ((i, j, coeff exprs), ...)
    metric: tuple | None = None
    omega: tuple | None = None
    j: tuple | None = None

    def declared(self) -> frozenset:
        return frozenset(self.params)

    def all_expressions(self):
        for matrix in (self.phi, self.metric, self.omega, self.j):
            if matrix is not None:
                for row in matrix:
                    yield from row
        for entries in (self.bracket, self.product):
            if entries is not None:
                for _, _, coeffs in entries:
                    yield from coeffs


def _parse_matrix(raw, n, label) -> tuple:
    if not isinstance(raw, list) or len(raw) != n:
        raise InstanceFormatError(f"{label} must be a {n}x{n} matrix of expressions")
    rows = []
    for row in raw:
        if not isinstance(row, list) or len(row) != n:
            raise InstanceFormatError(f"{label} must be a {n}x{n} matrix of expressions")
        rows.append(tuple(ParamExpr.parse(x) for x in row))
    return tuple(rows)


def _parse_entries(raw, n, label, antisymmetric) -> tuple:
    if not isinstance(raw, list):
        raise InstanceFormatError(f"{label} must be a list of entries")
    out = []
    seen = set()
    for item in raw:
        if not isinstance(item, dict) or not {"i", "j", "coeffs"} <= set(item):
            raise InstanceFormatError(
                f"{label} entries need keys i, j, coeffs: {item!r}"
            )
        i, j = item["i"], item["j"]
        if not (type(i) is int and type(j) is int):
            raise InstanceFormatError(f"{label} indices must be integers")
        if not (1 <= i <= n and 1 <= j <= n):
            raise InstanceFormatError(f"{label} entry ({i}, {j}) out of range 1..{n}")
        if antisymmetric and i >= j:
            raise InstanceFormatError(
                f"{label} stores only i < j entries; ({i}, {j}) is redundant"
            )
        if (i, j) in seen:
            raise InstanceFormatError(f"duplicate {label} entry ({i}, {j})")
        seen.add((i, j))
        coeffs = item["coeffs"]
        if not isinstance(coeffs, list) or len(coeffs) != n:
            raise InstanceFormatError(
                f"{label} entry ({i}, {j}) needs {n} coefficients"
            )
        out.append((i, j, tuple(ParamExpr.parse(x) for x in coeffs)))
    return tuple(out)


def parse_instance(text: str) -> InstanceFile:
    """Parse an instance document; errors carry positions where available."""
    try:
        doc = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise AlgSyntaxError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    if "dimension" not in doc or type(doc["dimension"]) is not int:
        raise InstanceFormatError("instance needs an integer dimension")
    n = doc["dimension"]
    if n < 1:
        raise InstanceFormatError("dimension must be positive")
    params = doc.get("params", [])
    if not isinstance(params, list) or not all(isinstance(p, str) for p in params):
        raise InstanceFormatError("params must be a list of names")
    if len(set(params)) != len(params):
        raise InstanceFormatError("duplicate parameter names")
    if "phi" not in doc:
        raise InstanceFormatError("instance needs a phi matrix")
    basis_names = doc.get("basis_names")
    if basis_names is not None:
        if (
            not isinstance(basis_names, list)
            or len(basis_names) != n
            or not all(isinstance(b, str) for b in basis_names)
        ):
            raise InstanceFormatError(f"basis_names must be {n} strings")
        basis_names = tuple(basis_names)
    inst = InstanceFile(
        dimension=n,
        params=tuple(params),
        name=doc.get("name", ""),
        basis_names=basis_names,
        phi=_parse_matrix(doc["phi"], n, "phi"),
        bracket=(
            _parse_entries(doc["bracket"], n, "bracket", antisymmetric=True)
            if "bracket" in doc
            else None
        ),
        product=(
            _parse_entries(doc["product"], n, "product", antisymmetric=False)
            if "product" in doc
            else None
        ),
        metric=_parse_matrix(doc["metric"], n, "metric") if "metric" in doc else None,
        omega=_parse_matrix(doc["omega"], n, "omega") if "omega" in doc else None,
        j=_parse_matrix(doc["J"], n, "J") if "J" in doc else None,
    )
    declared = inst.declared()
    for expr in inst.all_expressions():
        stray = expr.parameters() - declared
        if stray:
            raise UndeclaredParameterError(
                f"expression {expr.source!r} uses undeclared {sorted(stray)}"
            )
    return inst


def serialize_instance(inst: InstanceFile) -> str:
    """Canonical JSON text; parse(serialize(parse(text))) == parse(text)."""
    doc = {"dimension": inst.dimension}
    if inst.name:
        doc["name"] = inst.name
    doc["params"] = list(inst.params)
    if inst.basis_names is not None:
        doc["basis_names"] = list(inst.basis_names)
    doc["phi"] = [[e.source for e in row] for row in inst.phi]
    if inst.bracket is not None:
        doc["bracket"] = [
            {"i": i, "j": j, "coeffs": [e.source for e in coeffs]}
            for i, j, coeffs in inst.bracket
        ]
    if inst.product is not None:
        doc["product"] = [
            {"i": i, "j": j, "coeffs": [e.source for e in coeffs]}
            for i, j, coeffs in inst.product
        ]
    if inst.metric is not None:
        doc["metric"] = [[e.source for e in row] for row in inst.metric]
    if inst.omega is not None:
        doc["omega"] = [[e.source for e in row] for row in inst.omega]
    if inst.j is not None:
        doc["J"] = [[e.source for e in row] for row in inst.j]
    return json.dumps(doc, indent=2) + "\n"


@record
class BoundInstance:
    """An instance with every expression evaluated to a rational.

    Matrices are kept raw here; degeneracy and axiom failures are
    verdict-level findings, not binding errors.
    """

    dimension: int
    phi: Matrix
    name: str = ""
    basis_names: tuple | None = None
    bracket: Tensor3 | None = None
    product: Tensor3 | None = None
    metric: Matrix | None = None
    omega: Matrix | None = None
    j: Matrix | None = None
    bindings: dict = {}


def bind_params(inst: InstanceFile, bindings: dict) -> BoundInstance:
    """Evaluate every expression; bindings must match declared params exactly."""
    declared = inst.declared()
    given = {name: Fraction(value) for name, value in bindings.items()}
    missing = declared - set(given)
    if missing:
        raise MissingBindingError(f"missing bindings for {sorted(missing)}")
    unused = set(given) - declared
    if unused:
        raise UnusedBindingError(f"bindings for undeclared {sorted(unused)}")

    def eval_matrix(matrix):
        if matrix is None:
            return None
        return Matrix([[e.evaluate(given) for e in row] for row in matrix])

    def eval_entries(entries, antisymmetric):
        if entries is None:
            return None
        table = {
            (i, j): tuple(e.evaluate(given) for e in coeffs)
            for i, j, coeffs in entries
        }
        return Tensor3.from_table(inst.dimension, table, antisymmetric=antisymmetric)

    return BoundInstance(
        dimension=inst.dimension,
        name=inst.name,
        basis_names=inst.basis_names,
        phi=eval_matrix(inst.phi),
        bracket=eval_entries(inst.bracket, antisymmetric=True),
        product=eval_entries(inst.product, antisymmetric=False),
        metric=eval_matrix(inst.metric),
        omega=eval_matrix(inst.omega),
        j=eval_matrix(inst.j),
        bindings=given,
    )
