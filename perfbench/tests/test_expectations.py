"""Stored digests catch a changed output; theory-fixed verdicts hold."""

import copy
import os
import time

import pytest

import run
from workloads import WORKLOADS, Inputs


@pytest.fixture(scope="module")
def hl():
    return run.import_homlie()


@pytest.fixture(scope="module")
def expected():
    return run.load_expected()


def test_perturbed_witness_digest_is_an_error(hl, expected):
    workload = WORKLOADS["double-sparse"]
    inputs = workload.setup(hl, 7, None)
    item = inputs.items[0]
    results = workload.run(hl, item)
    assert workload.check(item, results, expected) == []
    perturbed = copy.deepcopy(expected)
    entry = perturbed["double-sparse"][item[0]]
    entry["phase-space-complex"] = entry["phase-space-complex"][::-1]
    assert workload.check(item, results, perturbed) == ["phase-space-complex witness differs"]


def test_perturbed_cli_expectations_are_errors(hl, expected, tmp_path):
    workload = WORKLOADS["cli-fixtures"]
    inputs = workload.setup(hl, 7, str(tmp_path))
    item = next(i for i in inputs.items if i[0] == "fixture:imex:verify:jacobi")
    perturbed = copy.deepcopy(expected)
    perturbed["cli-fixtures"][item[0]]["exit"] = 0
    perturbed["cli-fixtures"][item[0]]["report"] = "0" * 24
    for table, errors in ((expected, []),
                          (perturbed, ["exit 1, expected 0", "report differs"])):
        code = workload.run(hl, item)
        assert workload.check(item, code, table) == errors
        assert not os.path.exists(item[2])


def test_closed_loop_counts_a_wrong_instance(hl, expected, tmp_path):
    workload = WORKLOADS["cli-fixtures"]
    inputs = workload.setup(hl, 7, str(tmp_path))
    perturbed = copy.deepcopy(expected)
    key = inputs.items[1][0]
    perturbed["cli-fixtures"][key]["report"] = "0" * 24
    samples, failures, _ = run.closed_loop(workload, hl, inputs, perturbed, count=3)
    assert len(samples) == 3
    assert failures == [(1, ["report differs"])]


@pytest.mark.parametrize("extra", [["--checks", "no-such-check"], ["--no-such-flag"]])
def test_input_error_exit_is_counted_not_fatal(hl, expected, tmp_path, extra):
    """An argv that homlie or argparse rejects exits 2, writes no report, and is one wrong instance."""
    workload = WORKLOADS["cli-fixtures"]
    inputs = workload.setup(hl, 7, str(tmp_path))
    index = next(i for i, item in enumerate(inputs.items) if item[1][0] == "verify")
    key, argv, report = inputs.items[index]
    inputs.items[index] = (key, argv + extra, report)
    samples, failures, _ = run.closed_loop(workload, hl, inputs, expected, count=index + 2)
    assert len(samples) == index + 2
    want = expected["cli-fixtures"][key]["exit"]
    assert failures == [(index, [f"exit 2, expected {want}", "no report written"])]


def test_pauses_come_between_strides_and_are_not_timed():
    class Sleeper:
        def run(self, hl, item):
            time.sleep(0.01)

        def check(self, item, result, expected):
            return []

    pauses = []
    samples, failures, wall = run.closed_loop(
        Sleeper(), None, Inputs([None], stride=2), {}, seconds=0.05,
        pause=lambda: (pauses.append(len(pauses)), time.sleep(0.05)),
    )
    assert failures == [] and len(samples) % 2 == 0
    assert len(pauses) == len(samples) // 2 - 1
    assert sum(samples) <= wall < sum(samples) + 0.01
