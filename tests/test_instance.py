from fractions import Fraction

import pytest

from homlie import catalog
from homlie.algfile import (
    AlgSyntaxError,
    BindingDivisionByZero,
    InstanceFormatError,
    MissingBindingError,
    ParamExpr,
    UndeclaredParameterError,
    UnusedBindingError,
    bind_params,
    parse_instance,
    serialize_instance,
)
from homlie.linalg import Matrix
from homlie.structures import check_hom_jacobi


class TestExpressionGrammar:
    def test_precedence(self):
        assert ParamExpr.parse("1+2*3").evaluate({}) == 7
        assert ParamExpr.parse("(1+2)*3").evaluate({}) == 9

    def test_rational_division(self):
        assert ParamExpr.parse("3/4").evaluate({}) == Fraction(3, 4)
        assert ParamExpr.parse("1/2/2").evaluate({}) == Fraction(1, 4)

    def test_unary_minus(self):
        assert ParamExpr.parse("-a/4").evaluate({"a": Fraction(2)}) == Fraction(-1, 2)
        assert ParamExpr.parse("--3").evaluate({}) == 3
        assert ParamExpr.parse("2*-3").evaluate({}) == -6

    def test_parameters_collected(self):
        expr = ParamExpr.parse("a/b*A + c")
        assert expr.parameters() == {"a", "b", "A", "c"}

    def test_whitespace_tolerated(self):
        assert ParamExpr.parse("  1 +  a * ( 2 - 1 ) ").evaluate({"a": 5}) == 6

    def test_syntax_error_position(self):
        with pytest.raises(AlgSyntaxError) as err:
            ParamExpr.parse("1 + * 2")
        assert "column 5" in str(err.value)

    @pytest.mark.parametrize("prefix", ["(", "-"])
    def test_syntax_error_quotes_a_bounded_window(self, prefix):
        tail = ")" * 3000 if prefix == "(" else ""
        with pytest.raises(AlgSyntaxError) as err:
            ParamExpr.parse(prefix * 3000 + "1" + tail)
        message = str(err.value)
        assert len(message) < 200
        assert "at column 101" in message
        assert "...'" in message and "'..." in message

    def test_short_expression_is_quoted_whole(self):
        with pytest.raises(AlgSyntaxError) as err:
            ParamExpr.parse("1 + * 2")
        assert str(err.value) == "expected a value in '1 + * 2' at column 5"

    def test_trailing_garbage(self):
        with pytest.raises(AlgSyntaxError):
            ParamExpr.parse("1 2")

    def test_bad_character(self):
        with pytest.raises(AlgSyntaxError):
            ParamExpr.parse("a ^ 2")

    def test_division_by_zero_at_bind_time(self):
        expr = ParamExpr.parse("a/(b-b)")
        with pytest.raises(BindingDivisionByZero):
            expr.evaluate({"a": Fraction(1), "b": Fraction(5)})

    def test_random_tree_roundtrip(self):
        import random

        rng = random.Random(20260809)
        bindings = {"x": Fraction(3, 2), "y": Fraction(-2), "z": Fraction(5, 7)}

        def build(depth):
            if depth == 0 or rng.random() < 0.35:
                if rng.random() < 0.5:
                    name = rng.choice(sorted(bindings))
                    return name, bindings[name]
                k = rng.randint(0, 9)
                return str(k), Fraction(k)
            op = rng.choice("+-*/")
            ls, lv = build(depth - 1)
            while True:
                rs, rv = build(depth - 1)
                if op != "/" or rv != 0:
                    break
            value = {
                "+": lv + rv, "-": lv - rv, "*": lv * rv,
                "/": lv / rv if rv != 0 else None,
            }[op]
            return f"({ls} {op} {rs})", value

        for _ in range(50):
            source, expected = build(4)
            assert ParamExpr.parse(source).evaluate(bindings) == expected


class TestParseInstance:
    def test_fixture_parses_with_expected_entry(self):
        inst = catalog.load_fixture("imex")
        assert inst.dimension == 4
        assert inst.params == ("a", "b", "A")
        entry = next(e for e in inst.bracket if (e[0], e[1]) == (1, 2))
        assert [c.source for c in entry[2]] == ["0", "0", "-a", "0"]

    def test_empty_bracket_is_abelian(self):
        text = """{"dimension": 2, "params": [], "phi": [["1","0"],["0","1"]],
                   "bracket": []}"""
        bound = bind_params(parse_instance(text), {})
        assert bound.bracket.is_zero()
        assert check_hom_jacobi(bound.bracket, bound.phi) is True

    def test_numeric_literals_accepted(self):
        text = '{"dimension": 1, "params": [], "phi": [[1]]}'
        bound = bind_params(parse_instance(text), {})
        assert bound.phi == Matrix([[1]])

    def test_undeclared_parameter_rejected(self):
        text = '{"dimension": 1, "params": [], "phi": [["q"]]}'
        with pytest.raises(UndeclaredParameterError):
            parse_instance(text)

    def test_json_error_reports_position(self):
        with pytest.raises(AlgSyntaxError) as err:
            parse_instance("{not json")
        assert "line 1" in str(err.value)

    def test_bracket_upper_triangle_only(self):
        text = """{"dimension": 2, "params": [], "phi": [["1","0"],["0","1"]],
                   "bracket": [{"i": 2, "j": 1, "coeffs": ["0", "1"]}]}"""
        with pytest.raises(InstanceFormatError):
            parse_instance(text)

    def test_duplicate_entry_rejected(self):
        text = """{"dimension": 2, "params": [], "phi": [["1","0"],["0","1"]],
                   "product": [{"i": 1, "j": 1, "coeffs": ["1", "0"]},
                               {"i": 1, "j": 1, "coeffs": ["0", "1"]}]}"""
        with pytest.raises(InstanceFormatError):
            parse_instance(text)

    def test_dimension_mismatch_in_matrix(self):
        text = '{"dimension": 2, "params": [], "phi": [["1","0"]]}'
        with pytest.raises(InstanceFormatError):
            parse_instance(text)

    def test_roundtrip_on_all_fixtures(self):
        for name in catalog.FIXTURE_NAMES:
            inst = catalog.load_fixture(name)
            again = parse_instance(serialize_instance(inst))
            assert again == inst


class TestBindParams:
    def test_imex_binding(self):
        bound = catalog.imex(1, 1, 1)
        assert bound.bracket.basis_product(0, 1) == (0, 0, -1, 0)
        assert bound.omega[0, 2] == -1
        assert bound.phi == Matrix.diagonal([-1, 1, -1, 1])

    def test_zero_binding_gives_plain_lie_algebra(self):
        bound = catalog.imex(0, 1, 1)
        assert check_hom_jacobi(bound.bracket, Matrix.identity(4)) is True
        assert check_hom_jacobi(bound.bracket, bound.phi) is True

    def test_missing_binding(self):
        inst = catalog.load_fixture("imex")
        with pytest.raises(MissingBindingError) as err:
            bind_params(inst, {"a": 1})
        assert "b" in str(err.value)

    def test_unused_binding(self):
        inst = catalog.load_fixture("imex")
        with pytest.raises(UnusedBindingError):
            bind_params(inst, {"a": 1, "b": 1, "A": 1, "zz": 3})

    def test_string_rational_bindings(self):
        inst = catalog.load_fixture("imex")
        bound = bind_params(inst, {"a": "1/2", "b": Fraction(2), "A": 1})
        assert bound.bracket.basis_product(0, 1) == (0, 0, Fraction(-1, 2), 0)

    def test_fixtures_are_parsed_once(self):
        for name in catalog.FIXTURE_NAMES:
            assert catalog.load_fixture(name) is catalog.load_fixture(name)

    def test_shared_parse_binds_like_a_fresh_one(self):
        inst = catalog.load_fixture("imex")
        params = {"a": 2, "b": "1/3", "A": 1}
        first = bind_params(inst, params)
        assert bind_params(inst, params) == first
        assert first.bindings is not bind_params(inst, params).bindings
        fresh = parse_instance(catalog.fixture_text("imex"))
        assert bind_params(fresh, params) == first == catalog.imex(2, "1/3", 1)

    def test_division_by_zero_reports_expression(self):
        text = """{"dimension": 1, "params": ["a", "b"], "phi": [["a/(b-b)"]]}"""
        inst = parse_instance(text)
        with pytest.raises(BindingDivisionByZero) as err:
            bind_params(inst, {"a": 1, "b": 7})
        assert "a/(b-b)" in str(err.value)

    def test_bindings_recorded(self):
        bound = catalog.kahler2_case2(2, 1)
        assert bound.bindings == {"d": Fraction(2), "t": Fraction(1)}

    def test_catalog_guards_incoherent_case1_parameters(self):
        with pytest.raises(ValueError):
            catalog.kahler2_case1(1, 1, 1)  # fails a^2 + h*d = -1
