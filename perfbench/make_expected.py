"""Write expected.json: digests of every outcome theory does not fix.

    python3 perfbench/make_expected.py

Run once, when the benchmark's input space is defined or changed -- never
to absorb a change in the program's output, which the benchmark exists to
catch.  Before writing, the outcomes are checked against what theory and
the README fix: the verdicts that hold by construction, the documented
failures, and the invariance of every verify verdict under a basis change.
"""

from __future__ import annotations

import json
import os
import tempfile

from digests import digest, report_digest
from run import HERE, OUT, import_homlie
from workloads import (
    CONJ_POOL, HERMITIAN_A, PARAM_GRID, SHEARS, CliFixtures, DoubleSparse, binding_key,
    cli_cases, imex,
)


def double_sparse(hl) -> dict:
    workload = DoubleSparse()
    table = {}
    for params in PARAM_GRID:
        key = binding_key(params)
        inst = imex(hl, params)
        verdicts, derived = workload.run(hl, (key, inst))
        assert all(verdicts[k] is True for k in workload.passing), (key, verdicts)
        witness = verdicts["phase-space-complex"]
        assert witness is not True and not witness, key
        table[key] = {"phase-space-complex": digest(witness)}
        table[key].update({k: digest(v) for k, v in derived.items()})
    return table


def run_cli(hl, argv, report_path):
    code = CliFixtures().run(hl, (None, argv + ["--json", report_path], report_path))
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    os.remove(report_path)
    return code, report


def cli_fixtures(hl, tmp) -> dict:
    fixture_dir = os.path.join(os.path.dirname(hl.catalog.__file__), "fixtures")
    report_path = os.path.join(tmp, "report.json")
    table, verdicts = {}, {}
    # 72 choices cover every (parameters, basis change) pair of kahler4 and
    # imex, every (a, basis change) pair of hermitian4 and every shear.
    for i in range(len(PARAM_GRID) * CONJ_POOL):
        q, r = divmod(i, CONJ_POOL)
        choice = {
            "kahler4": [(PARAM_GRID[q], r)], "imex": [(PARAM_GRID[q], r)],
            "hermitian4": [({"a": HERMITIAN_A[q % len(HERMITIAN_A)]}, r)],
            "shear": SHEARS[i % len(SHEARS)],
        }
        for key, argv in cli_cases(hl, fixture_dir, tmp, choice):
            if key in table:
                continue
            code, report = run_cli(hl, argv, report_path)
            assert code in (0, 1), (key, code, report)
            table[key] = {"exit": code, "report": report_digest(report)}
            verdicts[key] = (code, report["verdicts"])
    # README: the untwisted Jacobi identity fails for imex, and the stored
    # metric product of kahler2_case1 is not left-symmetric.
    assert verdicts["fixture:imex:verify:jacobi"] == (1, {"jacobi": "fail"})
    code, v = verdicts["fixture:kahler2_case1:verify"]
    assert code == 1 and v["hom-left-symmetric"] == "fail"
    # Basis-change invariance of every verify verdict.
    for key, outcome in verdicts.items():
        if key.startswith("conj:") and key.endswith(":verify"):
            name, binding = key.split(":")[1:3]
            assert outcome == verdicts[f"param:{name}:{binding}:verify"], key
    return table


def main():
    hl = import_homlie()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        expected = {"cli-fixtures": cli_fixtures(hl, tmp), "double-sparse": double_sparse(hl)}
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print({k: len(v) for k, v in expected.items()})


if __name__ == "__main__":
    main()
