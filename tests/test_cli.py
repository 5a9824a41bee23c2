import json
import re
import sys
from pathlib import Path

import pytest

from homlie import catalog, cli
from homlie.algfile import MAX_LITERAL


@pytest.fixture()
def fixture_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.alg"
        path.write_text(catalog.fixture_text(name), encoding="utf-8")
        return str(path)

    return write


def run(argv):
    return cli.main(argv)


class TestVerify:
    def test_requested_checks_pass(self, fixture_file, capsys):
        code = run(
            ["verify", fixture_file("imex"), "-p", "a=1", "-p", "b=1", "-p", "A=1",
             "--checks", "hom-jacobi,symplectic"]
        )
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "hom-jacobi" in out and "PASS" in out

    def test_default_checks(self, fixture_file, capsys):
        code = run(
            ["verify", fixture_file("kahler4"), "-p", "a=2", "-p", "b=3", "-p", "A=1"]
        )
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        for name in ("antisymmetry", "morphism", "hom-jacobi", "pseudo-riemannian",
                     "symplectic", "almost-complex", "nijenhuis", "hermitian",
                     "kahler"):
            assert name in out

    def test_failing_check_sets_exit_one(self, fixture_file, capsys):
        code = run(
            ["verify", fixture_file("imex"), "-p", "a=1", "-p", "b=1", "-p", "A=1",
             "--checks", "jacobi"]
        )
        out = capsys.readouterr().out
        assert code == cli.EXIT_FAIL
        assert "FAIL" in out
        assert "(1, 2, 4)" in out

    def test_degenerate_omega_is_a_verdict_failure(self, fixture_file, capsys):
        code = run(
            ["verify", fixture_file("imex"), "-p", "a=0", "-p", "b=1", "-p", "A=1",
             "--checks", "jacobi,symplectic"]
        )
        out = capsys.readouterr().out
        assert code == cli.EXIT_FAIL
        assert "jacobi" in out
        assert "degenerate" in out

    def test_missing_binding_is_input_error(self, fixture_file, capsys):
        code = run(["verify", fixture_file("imex"), "-p", "a=1"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_INPUT
        assert "missing bindings" in err

    def test_unknown_check_is_input_error(self, fixture_file, capsys):
        code = run(
            ["verify", fixture_file("imex"), "-p", "a=1", "-p", "b=1", "-p", "A=1",
             "--checks", "bogus"]
        )
        assert code == cli.EXIT_INPUT

    def test_absent_structure_is_input_error(self, fixture_file, capsys):
        code = run(
            ["verify", fixture_file("imex"), "-p", "a=1", "-p", "b=1", "-p", "A=1",
             "--checks", "hermitian"]
        )
        assert code == cli.EXIT_INPUT

    def test_missing_file_is_input_error(self, capsys):
        assert run(["verify", "/nonexistent.alg"]) == cli.EXIT_INPUT

    def test_bad_param_syntax_is_input_error(self, fixture_file):
        assert (
            run(["verify", fixture_file("imex"), "-p", "a"]) == cli.EXIT_INPUT
        )

    def test_json_report_written(self, fixture_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = run(
            ["verify", fixture_file("imex"), "-p", "a=1", "-p", "b=1", "-p", "A=1",
             "--checks", "hom-jacobi", "--json", str(out_path)]
        )
        assert code == cli.EXIT_OK
        doc = json.loads(out_path.read_text())
        assert doc["verdicts"] == {"hom-jacobi": "pass"}
        assert doc["bindings"] == {"A": "1", "a": "1", "b": "1"}
        assert doc["instance"] == "imex"
        assert doc["counterexamples"] == []

    def test_color_disabled_by_env(self, fixture_file, capsys, monkeypatch):
        monkeypatch.setenv("HOMLIE_COLOR", "0")
        run(
            ["verify", fixture_file("imex"), "-p", "a=1", "-p", "b=1", "-p", "A=1",
             "--checks", "hom-jacobi"]
        )
        out = capsys.readouterr().out
        assert "\x1b[" not in out

    def test_hermitian_fixture_passes(self, fixture_file, capsys):
        code = run(
            ["verify", fixture_file("hermitian4"), "-p", "a=1",
             "--checks", "antisymmetry,morphism,hom-jacobi,almost-complex,hermitian"]
        )
        assert code == cli.EXIT_OK

    def test_verdicts_stable_across_bindings(self, fixture_file):
        import random
        from fractions import Fraction

        rng = random.Random(991)
        path = fixture_file("imex")
        for _ in range(10):
            a = Fraction(rng.randint(1, 6), rng.randint(1, 3)) * rng.choice((1, -1))
            b = Fraction(rng.randint(1, 6), rng.randint(1, 3)) * rng.choice((1, -1))
            code = run(
                ["verify", path, "-p", f"a={a}", "-p", f"b={b}", "-p", "A=1",
                 "--checks", "antisymmetry,morphism,hom-jacobi,symplectic"]
            )
            assert code == cli.EXIT_OK

    def test_one_violation_among_passes_still_fails(self, fixture_file, capsys):
        code = run(
            ["verify", fixture_file("imex"), "-p", "a=1", "-p", "b=1", "-p", "A=1",
             "--checks", "antisymmetry,jacobi,hom-jacobi"]
        )
        out = capsys.readouterr().out
        assert code == cli.EXIT_FAIL
        assert out.count("PASS") == 2 and out.count("FAIL") == 1

    def test_bianchi_check(self, fixture_file):
        code = run(
            ["verify", fixture_file("kahler2_case1"),
             "-p", "a=1", "-p", "h=1", "-p", "d=-2", "--checks", "bianchi"]
        )
        assert code == cli.EXIT_OK

    def test_integrability_check(self, fixture_file, capsys):
        code = run(
            ["verify", fixture_file("kahler4"), "-p", "a=1", "-p", "b=1", "-p", "A=1",
             "--checks", "integrability"]
        )
        assert code == cli.EXIT_OK
        code = run(
            ["verify", fixture_file("hermitian4"), "-p", "a=1",
             "--checks", "integrability"]
        )
        # three-way agreement holds even when the structure is not integrable
        assert code == cli.EXIT_OK

    def test_curved_product_fails_left_symmetry_by_default(self, fixture_file, capsys):
        code = run(
            ["verify", fixture_file("kahler2_case1"),
             "-p", "a=1", "-p", "h=1", "-p", "d=-2"]
        )
        out = capsys.readouterr().out
        assert code == cli.EXIT_FAIL
        assert "hom-left-symmetric" in out
        assert "kahler" in out and out.count("FAIL") == 1


class TestCheckTable:
    # Default checks of each shipped fixture at the bindings of the README
    # (imex, kahler4) or of its catalog helper, as listed before the table.
    DEFAULTS = {
        "imex": (["a=1", "b=1", "A=1"], [
            "antisymmetry", "morphism", "hom-jacobi", "symplectic"]),
        "kahler4": (["a=1", "b=1", "A=1"], [
            "antisymmetry", "morphism", "hom-jacobi", "pseudo-riemannian",
            "phi-selfadjoint", "symplectic", "almost-complex", "nijenhuis",
            "hermitian", "kahler"]),
        "hermitian4": (["a=1"], [
            "antisymmetry", "morphism", "hom-jacobi", "pseudo-riemannian",
            "phi-selfadjoint", "almost-complex", "nijenhuis", "hermitian", "kahler"]),
        "kahler2_case1": (["a=1", "h=1", "d=-2"], [
            "antisymmetry", "morphism", "hom-jacobi", "product-morphism",
            "hom-left-symmetric", "lie-admissible", "pseudo-riemannian",
            "phi-selfadjoint", "almost-complex", "nijenhuis", "hermitian", "kahler"]),
        "kahler2_case2": (["d=2", "t=1"], [
            "antisymmetry", "morphism", "hom-jacobi", "product-morphism",
            "hom-left-symmetric", "lie-admissible", "pseudo-riemannian",
            "phi-selfadjoint", "almost-complex", "nijenhuis", "hermitian", "kahler"]),
        "twist2_hat": ([], [
            "antisymmetry", "morphism", "hom-jacobi", "pseudo-riemannian",
            "phi-selfadjoint"]),
        "twist2_bar": ([], [
            "antisymmetry", "morphism", "hom-jacobi", "pseudo-riemannian",
            "phi-selfadjoint"]),
        "twist2_tilde": (["B=1"], [
            "antisymmetry", "morphism", "hom-jacobi", "pseudo-riemannian",
            "phi-selfadjoint"]),
    }

    @staticmethod
    def verdicts(argv, tmp_path):
        out = tmp_path / "report.json"
        code = run(argv + ["--json", str(out)])
        return code, json.loads(out.read_text())

    def test_readme_lists_exactly_the_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        paragraph = readme.split("Verify checks:", 1)[1].split("\n\n", 1)[0]
        names = re.findall(r"`([a-z-]+)`", paragraph)
        assert sorted(names) == sorted(cli.CHECKS)

    @pytest.mark.parametrize("name", sorted(catalog.FIXTURE_NAMES))
    def test_default_checks_of_every_fixture(self, name, fixture_file, tmp_path, capsys):
        bindings, expected = self.DEFAULTS[name]
        argv = ["verify", fixture_file(name)]
        for binding in bindings:
            argv += ["-p", binding]
        _, report = self.verdicts(argv, tmp_path)
        assert list(report["verdicts"]) == expected

    def test_phi_selfadjoint_is_not_a_default_without_involutive_twist(
        self, tmp_path, capsys
    ):
        doc = json.loads(catalog.fixture_text("twist2_hat"))
        doc["phi"] = [["2", "0"], ["0", "1"]]
        path = tmp_path / "scaled.alg"
        path.write_text(json.dumps(doc), encoding="utf-8")
        _, report = self.verdicts(["verify", str(path)], tmp_path)
        assert "pseudo-riemannian" in report["verdicts"]
        assert "phi-selfadjoint" not in report["verdicts"]

    CASES = [
        (name, field)
        for name, (needs, _, _) in sorted(cli.CHECKS.items())
        for field in needs
    ]

    @pytest.mark.parametrize("name, field", CASES, ids=[f"{n}-{f}" for n, f in CASES])
    def test_dropping_a_required_field_is_an_input_error(
        self, name, field, tmp_path, capsys
    ):
        fixture = "kahler2_case1" if "product" in cli.CHECKS[name][0] else "kahler4"
        doc = json.loads(catalog.fixture_text(fixture))
        doc.pop("J" if field == "j" else field)
        path = tmp_path / "dropped.alg"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["verify", str(path), "--checks", name]
        for binding in self.DEFAULTS[fixture][0]:
            argv += ["-p", binding]
        assert run(argv) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert f"check {name!r} needs the instance to carry {field!r}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "target, field",
        [(t, f) for t, (needs, _) in sorted(cli.BUILD_TARGETS.items()) for f in needs],
    )
    def test_dropping_a_target_field_is_an_input_error(
        self, target, field, tmp_path, capsys
    ):
        doc = json.loads(catalog.fixture_text("kahler4"))
        doc.pop("J" if field == "j" else field)
        path = tmp_path / "dropped.alg"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["build", str(path), "--target", target, "-p", "a=1", "-p", "b=1", "-p", "A=1"]
        assert run(argv) == cli.EXIT_INPUT
        assert f"{target!r} needs the instance to carry {field!r}" in capsys.readouterr().err

    def test_bianchi_needs_a_product_or_bracket(self, tmp_path, capsys):
        doc = json.loads(catalog.fixture_text("twist2_hat"))
        doc.pop("bracket")
        path = tmp_path / "bare.alg"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run(["verify", str(path), "--checks", "bianchi"]) == cli.EXIT_INPUT
        assert "needs a product or bracket" in capsys.readouterr().err

    def test_every_name_is_validated_before_any_check_runs(
        self, fixture_file, monkeypatch, capsys
    ):
        calls = []
        needs, default, check = cli.CHECKS["jacobi"]
        monkeypatch.setitem(
            cli.CHECKS, "jacobi", (needs, default, lambda i: calls.append(1) or check(i))
        )
        code = run(
            ["verify", fixture_file("imex"), "-p", "a=1", "-p", "b=1", "-p", "A=1",
             "--checks", "jacobi,jacobi,nosuch"]
        )
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT
        assert "unknown check 'nosuch'" in captured.err
        assert calls == [] and captured.out == ""

    def test_a_repeated_name_runs_once(self, fixture_file, tmp_path, capsys):
        code, report = self.verdicts(
            ["verify", fixture_file("imex"), "-p", "a=1", "-p", "b=1", "-p", "A=1",
             "--checks", "jacobi,hom-jacobi,jacobi"],
            tmp_path,
        )
        assert code == cli.EXIT_FAIL
        assert list(report["verdicts"]) == ["jacobi", "hom-jacobi"]
        assert [ce["check"] for ce in report["counterexamples"]] == ["jacobi"]


class TestBuild:
    def test_levi_civita_product_table(self, fixture_file, tmp_path):
        out_path = tmp_path / "lc.json"
        code = run(
            ["build", fixture_file("kahler4"), "-p", "a=1", "-p", "b=1", "-p", "A=1",
             "--target", "levi-civita", "--json", str(out_path)]
        )
        assert code == cli.EXIT_OK
        doc = json.loads(out_path.read_text())
        table = {
            (e["i"], e["j"]): e["coeffs"]
            for e in doc["derived"]["levi-civita"]["product"]
        }
        assert table[(2, 1)] == ["0", "0", "1", "0"]
        assert doc["verdicts"]["torsion"] == "pass"

    def test_left_symmetric(self, fixture_file, tmp_path):
        out_path = tmp_path / "ls.json"
        code = run(
            ["build", fixture_file("imex"), "-p", "a=1", "-p", "b=1", "-p", "A=1",
             "--target", "left-symmetric", "--json", str(out_path)]
        )
        assert code == cli.EXIT_OK
        doc = json.loads(out_path.read_text())
        table = {
            (e["i"], e["j"]): e["coeffs"]
            for e in doc["derived"]["left-symmetric"]["product"]
        }
        assert table[(1, 1)] == ["0", "0", "0", "-1"]
        assert doc["verdicts"]["hom-left-symmetric"] == "pass"

    def test_phase_space_reports_honest_nijenhuis(self, fixture_file, tmp_path):
        out_path = tmp_path / "ps.json"
        code = run(
            ["build", fixture_file("imex"), "-p", "a=1", "-p", "b=1", "-p", "A=1",
             "--target", "phase-space", "--json", str(out_path)]
        )
        doc = json.loads(out_path.read_text())
        assert doc["derived"]["phase-space"]["dimension"] == 8
        assert doc["verdicts"]["hom-left-symmetric"] == "pass"
        assert doc["verdicts"]["symplectic"] == "pass"
        assert doc["verdicts"]["complex-square"] == "pass"
        # the cocycle-induced base is not metric compatible, so the
        # canonical complex structure is genuinely non-integrable here
        assert doc["verdicts"]["nijenhuis"] == "fail"
        assert code == cli.EXIT_FAIL

    def test_complexify(self, fixture_file, tmp_path):
        out_path = tmp_path / "cx.json"
        code = run(
            ["build", fixture_file("kahler4"), "-p", "a=1", "-p", "b=1", "-p", "A=1",
             "--target", "complexify", "--json", str(out_path)]
        )
        assert code == cli.EXIT_OK
        doc = json.loads(out_path.read_text())
        assert doc["derived"]["complexify"]["rank"] == 2
        assert doc["derived"]["complexify"]["integrability"]["nijenhuis_zero"] is True

    @pytest.mark.parametrize(
        "name, params, expected",
        [
            ("kahler4", ["a=1", "b=1", "A=1"], {
                "rank": 2,
                "basis10": [
                    {"re": ["1", "0", "0", "0"], "im": ["0", "0", "1", "0"]},
                    {"re": ["0", "1", "0", "0"], "im": ["0", "0", "0", "-1"]},
                ],
                "basis01": [
                    {"re": ["1", "0", "0", "0"], "im": ["0", "0", "-1", "0"]},
                    {"re": ["0", "1", "0", "0"], "im": ["0", "0", "0", "1"]},
                ],
                "integrability": {
                    "subalgebra_10": True, "subalgebra_01": True, "nijenhuis_zero": True,
                },
            }),
            ("hermitian4", ["a=1"], {
                "rank": 2,
                "basis10": [
                    {"re": ["1", "0", "0", "0"], "im": ["0", "0", "-1", "0"]},
                    {"re": ["0", "1", "0", "0"], "im": ["0", "0", "0", "-1"]},
                ],
                "basis01": [
                    {"re": ["1", "0", "0", "0"], "im": ["0", "0", "1", "0"]},
                    {"re": ["0", "1", "0", "0"], "im": ["0", "0", "0", "1"]},
                ],
                "integrability": {
                    "subalgebra_10": False, "subalgebra_01": False, "nijenhuis_zero": False,
                },
            }),
        ],
        ids=["kahler4", "hermitian4"],
    )
    def test_complexify_block_is_pinned(self, fixture_file, tmp_path, name, params, expected):
        out_path = tmp_path / "cx.json"
        p_args = [x for p in params for x in ("-p", p)]
        run(["build", fixture_file(name)] + p_args
            + ["--target", "complexify", "--json", str(out_path)])
        assert json.loads(out_path.read_text())["derived"]["complexify"] == expected

    def test_induced_omega_matches_fixture(self, fixture_file, tmp_path):
        out_path = tmp_path / "io.json"
        code = run(
            ["build", fixture_file("kahler4"), "-p", "a=1", "-p", "b=1", "-p", "A=1",
             "--target", "induced-omega", "--json", str(out_path)]
        )
        assert code == cli.EXIT_OK
        doc = json.loads(out_path.read_text())
        omega = doc["derived"]["induced-omega"]["omega"]
        assert omega[0][2] == "-1"
        assert omega[1][3] == "1"
        assert doc["verdicts"]["symplectic"] == "pass"

    def test_phase_space_needs_product_or_omega(self, fixture_file):
        code = run(
            ["build", fixture_file("twist2_hat"), "--target", "phase-space"]
        )
        assert code == cli.EXIT_INPUT


class TestClassify2:
    def test_bar_reports_none_and_exits_zero(self, capsys):
        code = run(["classify2", "--twist", "bar"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert '"kind": "none"' in out

    def test_tilde_with_shear(self, capsys):
        code = run(["classify2", "--twist", "tilde", "--B", "1/2"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert '"kind": "none"' in out

    def test_tilde_needs_nonzero_shear(self, capsys):
        assert run(["classify2", "--twist", "tilde", "--B", "0"]) == cli.EXIT_INPUT
        assert run(["classify2", "--twist", "tilde"]) == cli.EXIT_INPUT

    def test_hat_family_with_samples(self, tmp_path, capsys):
        out_path = tmp_path / "hat.json"
        code = run(["classify2", "--twist", "hat", "--json", str(out_path)])
        assert code == cli.EXIT_OK
        doc = json.loads(out_path.read_text())
        assert doc["derived"]["almost-complex"]["kind"] == "constrained"
        assert doc["verdicts"]["sample-hermitian"] == "pass"
        assert doc["verdicts"]["sample-kahler"] == "pass"

    def test_proper_report(self, tmp_path, capsys):
        out_path = tmp_path / "proper.json"
        code = run(["classify2", "--proper", "--json", str(out_path)])
        assert code == cli.EXIT_OK
        doc = json.loads(out_path.read_text())
        assert doc["verdicts"]["proper-nonexistence"] == "pass"
        assert set(doc["derived"]["families"]) == {
            "bar", "tilde(B=1)", "tilde(B=2)", "tilde(B=-1)",
            "tilde(B=1/2)", "tilde(B=7)",
        }

    def test_needs_twist_or_proper(self, capsys):
        assert run(["classify2"]) == cli.EXIT_INPUT


class TestHostileInput:
    IMEX = ["-p", "a=1", "-p", "b=1", "-p", "A=1"]

    @pytest.fixture()
    def variant(self, tmp_path):
        def write(edit):
            doc = json.loads(catalog.fixture_text("imex"))
            edit(doc)
            path = tmp_path / "variant.alg"
            path.write_text(json.dumps(doc), encoding="utf-8")
            return str(path)

        return write

    @pytest.mark.parametrize("prefix", ["(" * 3000, "-" * 3000], ids=["parens", "minus"])
    def test_deep_nesting_is_a_syntax_error(self, variant, capsys, prefix):
        tail = ")" * 3000 if prefix[0] == "(" else ""
        path = variant(lambda doc: doc["omega"][0].__setitem__(1, prefix + "1" + tail))
        assert run(["verify", path] + self.IMEX) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "nested deeper than 100" in err
        assert "at column 101" in err

    def test_nesting_at_the_limit_parses(self, variant, capsys):
        path = variant(lambda doc: doc["omega"][0].__setitem__(1, "(" * 100 + "0" + ")" * 100))
        assert run(["verify", path, "--checks", "symplectic"] + self.IMEX) == cli.EXIT_OK

    def test_long_flat_sum_evaluates(self, variant, capsys):
        # -A at A=1, as a left-deep tree 3,000 nodes deep
        minus_one = "-" + "-".join(["1/3000"] * 3000)
        path = variant(lambda doc: doc["omega"][0].__setitem__(2, minus_one))
        assert run(["verify", path, "--checks", "symplectic"] + self.IMEX) == cli.EXIT_OK

    def test_boolean_bracket_index_is_rejected(self, variant, capsys):
        path = variant(lambda doc: doc["bracket"][0].__setitem__("i", True))
        assert run(["verify", path] + self.IMEX) == cli.EXIT_INPUT
        assert "indices must be integers" in capsys.readouterr().err

    def test_boolean_dimension_is_rejected(self, variant, capsys):
        path = variant(lambda doc: doc.__setitem__("dimension", True))
        assert run(["verify", path] + self.IMEX) == cli.EXIT_INPUT
        assert "integer dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("as_string", [True, False], ids=["string", "json-integer"])
    def test_oversized_literal_is_an_input_error(self, variant, capsys, as_string):
        literal = "1" + "0" * MAX_LITERAL
        value = literal if as_string else int(literal)
        path = variant(lambda doc: doc["phi"][0].__setitem__(0, value))
        assert run(["verify", path] + self.IMEX) == cli.EXIT_INPUT
        assert f"longer than {MAX_LITERAL} characters" in capsys.readouterr().err

    def test_literal_at_the_bound_parses(self, variant, capsys):
        path = variant(lambda doc: doc["omega"][0].__setitem__(1, "0" * MAX_LITERAL))
        assert run(["verify", path, "--checks", "symplectic"] + self.IMEX) == cli.EXIT_OK

    @pytest.mark.parametrize(
        "value, message",
        [
            (f"1e{MAX_LITERAL + 1}", "decimal exponent beyond"),
            (f"1e-{MAX_LITERAL + 1}", "decimal exponent beyond"),
            ("1" * (MAX_LITERAL + 1), "characters"),
        ],
        ids=["exponent", "negative-exponent", "length"],
    )
    def test_oversized_binding_is_an_input_error(self, fixture_file, capsys, value, message):
        code = run(["verify", fixture_file("twist2_tilde"), "-p", f"B={value}"])
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert run(["classify2", "--twist", "tilde", "--B", value]) == cli.EXIT_INPUT

    def test_oversized_product_of_literals_is_an_input_error(self, variant, capsys):
        big = "*".join(["9" * MAX_LITERAL] * 5)

        def edit(doc):
            doc["omega"][0][1] = big
            doc["omega"][1][0] = f"-({big})"

        path = variant(edit)
        assert run(["verify", path, "--checks", "symplectic"] + self.IMEX) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert f"more than {2 * MAX_LITERAL} digits" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "entry, code",
        [("-A*x*x/(x*x)", cli.EXIT_OK), ("-A*x*x*x/(x*x*x)", cli.EXIT_INPUT)],
        ids=["square-at-the-bound", "cube"],
    )
    def test_values_computed_from_a_binding_are_bounded(self, variant, capsys, entry, code):
        def edit(doc):
            doc["params"].append("x")
            doc["omega"][0][2] = entry

        path = variant(edit)
        argv = ["verify", path, "--checks", "symplectic", "-p", "x=" + "9" * MAX_LITERAL]
        assert run(argv + self.IMEX) == code
        err = capsys.readouterr().err
        assert ("digits" in err) == (code == cli.EXIT_INPUT)

    def test_unexpected_exception_exits_three(self, fixture_file, monkeypatch, capsys):
        def boom(inst):
            raise RuntimeError("checker bug")

        monkeypatch.setitem(cli.CHECKS, "antisymmetry", (("bracket",), True, boom))
        code = run(["verify", fixture_file("imex")] + self.IMEX)
        err = capsys.readouterr().err
        assert code == cli.EXIT_INTERNAL
        assert err == "internal error: RuntimeError: checker bug\n"

    def test_witness_past_the_int_text_limit_is_printed(self, variant, capsys):
        # every entry is within the bound, but the failing witness has more
        # digits than the interpreter turns into text by default
        seven = int("7" * (MAX_LITERAL - 1))
        square = "*".join([str(seven)] * 2)

        def edit(doc):
            doc["phi"][0][0] = doc["phi"][2][2] = f"-({square})"

        path = variant(edit)
        big_a = int("9" * MAX_LITERAL)
        argv = ["verify", path, "--checks", "symplectic", "-p", "a=1", "-p", "b=1",
                "-p", f"A={big_a}"]
        limit = sys.get_int_max_str_digits()
        assert run(argv) == cli.EXIT_FAIL
        assert sys.get_int_max_str_digits() == limit
        # omega(phi e1, phi e3) = seven^4 * omega(e1, e3) against omega(e1, e3) = -A
        sys.set_int_max_str_digits(0)
        try:
            lhs = str(-big_a * seven**4)
        finally:
            sys.set_int_max_str_digits(limit)
        captured = capsys.readouterr()
        assert len(lhs) > 4300
        assert (
            f"! symplectic: symplectic-invariance at (1, 3) lhs=['{lhs}'] rhs=['-{big_a}']"
            in captured.out
        )
        assert captured.err == ""

    def test_unwritable_json_path_fails_before_checks(self, fixture_file, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "report.json"
        code = run(["verify", fixture_file("imex")] + self.IMEX + ["--json", str(target)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT
        assert "cannot write" in captured.err
        assert captured.out == ""
        assert run(["classify2", "--proper", "--json", str(tmp_path)]) == cli.EXIT_INPUT

    def test_probe_leaves_no_file_behind_on_input_error(self, fixture_file, tmp_path):
        target = tmp_path / "report.json"
        code = run(["verify", fixture_file("imex"), "-p", "a=1", "--json", str(target)])
        assert code == cli.EXIT_INPUT
        assert not target.exists()


def test_module_entry_point(fixture_file):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "homlie", "verify", fixture_file("imex"),
         "-p", "a=1", "-p", "b=1", "-p", "A=1", "--checks", "hom-jacobi"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "hom-jacobi" in proc.stdout
