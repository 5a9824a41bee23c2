"""homlie benchmark: seeded workloads in a closed loop, checked against expectations.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one process, one thread: each instance starts only after the
previous one finished.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it runs the same instances untraced and then
traced, and reports per-layer metrics from the traced half (spans go to
``perfbench/out/``).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; earlier lines
starting with ``#`` give the inputs, the tail latency and the error ratio.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS_PER_STRIDE = 2
MODULES = (
    "algfile", "catalog", "linalg", "structures", "metric",
    "complexstruct", "phase_space", "dim2", "cli",
)


class BenchError(Exception):
    """The benchmark cannot run here (no homlie sources, bad arguments)."""


def homlie_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "homlie" or name.startswith("homlie.")]


def import_homlie():
    """Import homlie afresh from this checkout's ``src``; the modules by name."""
    if not (SRC / "homlie" / "__init__.py").is_file():
        raise BenchError(f"no homlie sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m.__name__ for m in homlie_modules()]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("homlie")
    if Path(pkg.__file__).resolve().parent != (SRC / "homlie").resolve():
        raise BenchError(f"homlie imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(
        pkg=pkg, **{m: importlib.import_module(f"homlie.{m}") for m in MODULES}
    )


def load_expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def closed_loop(workload, hl, inputs, expected, seconds=None, count=None, tracer=None,
                pause=None):
    """Run instances back to back; per-instance wall times, failures, loop wall time.

    Stops after ``count`` instances, or once ``seconds`` have passed at a
    multiple of ``inputs.stride``.  Only ``workload.run`` is in the
    per-instance times; the check against expectations runs outside them,
    but inside the loop's wall time.  ``pause`` is called at every stride
    boundary the loop goes on from; its time counts neither towards
    ``seconds`` nor in the loop's wall time.
    """
    items = inputs.items
    samples, failures = [], []
    start = perf_counter()
    paused = 0.0
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i and i % inputs.stride == 0:
            if perf_counter() - start - paused >= seconds:
                break
            if pause is not None:
                t0 = perf_counter()
                pause()
                paused += perf_counter() - t0
        item = items[i % len(items)]
        error = None
        t0 = perf_counter()
        try:
            if tracer is None:
                result = workload.run(hl, item)
            else:
                with tracer.instance(i):
                    result = workload.run(hl, item)
        except Exception as exc:  # an unexpected exception is a wrong instance
            error = [f"{type(exc).__name__}: {exc}"]
        samples.append(perf_counter() - t0)
        if error is None:
            error = workload.check(item, result, expected)
        if error:
            failures.append((i, error))
        i += 1
    return samples, failures, perf_counter() - start - paused


def end_to_end(workload, seed, seconds, expected, tmp):
    import_homlie()  # untimed: compiles homlie once, as an installed copy would be
    setup_times = []

    def set_up():
        gc.collect()  # each set-up starts without the previous one's garbage
        t0 = perf_counter()
        hl = import_homlie()
        inputs = workload.setup(hl, seed, tmp)
        setup_times.append(perf_counter() - t0)
        return hl, inputs

    def more_set_ups():
        for _ in range(SETUPS_PER_STRIDE):
            set_up()

    hl, inputs = set_up()
    print(f"# inputs: {json.dumps(workload.properties(hl, inputs))}")
    # Set-ups between strides sample the machine over the whole run, as the
    # instances do; the loop keeps using the first set-up's modules and inputs.
    samples, failures, wall = closed_loop(
        workload, hl, inputs, expected, seconds=seconds, pause=more_set_ups
    )
    # Printed, not a metric: a few seconds of slower CPU move it by half (README).
    pct, tail_value, n, beyond = stats.tail(samples)
    print(f"# verdict_s_tail: {tail_value!r} s at p{pct:g} of {n} samples, {beyond} beyond it")
    metrics = {
        "verdict_s_p50": (statistics.median(samples), "s"),
        "instances_per_s": (len(samples) / wall, "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return len(samples), failures, metrics, True


def per_layer(workload, seed, seconds, expected, tmp):
    hl = import_homlie()
    tracer = tracing.Tracer(hl.structures.Violation)

    def traced(fn):
        modules = homlie_modules()
        before = tracing.namespace_snapshot(modules)
        with tracer.installed(modules):
            result = fn()
        if not tracing.namespaces_restored(before):
            raise BenchError("homlie namespaces differ after the traced run")
        return result

    def setup():
        with tracer.instance("setup"):
            return workload.setup(hl, seed, tmp)

    inputs = traced(setup)
    print(f"# inputs: {json.dumps(workload.properties(hl, inputs))}")
    # An untraced warm-up stride first, so that neither half pays first-call costs.
    phases = [
        closed_loop(workload, hl, inputs, expected, count=inputs.stride),
        closed_loop(workload, hl, inputs, expected, seconds=seconds / 2),
    ]
    plain = phases[1][0]
    count = len(plain)
    phases.append(traced(lambda: closed_loop(
        workload, hl, inputs, expected, count=count, tracer=tracer
    )))
    traced_samples = phases[2][0]
    failures = [failure for _, fails, _ in phases for failure in fails]
    gap = tracer.accounting_gap()
    print(f"# self-time accounting gap: {gap:.3g} s")
    sound = gap <= 1e-6
    if not sound:
        print("error: self times do not add up to instance wall time", file=sys.stderr)
    tracer.write(OUT / f"spans-{workload.name}-{seed}.jsonl")

    summary = tracer.layer_summary(set(range(count)))
    metrics = {}
    for layer in tracing.LAYER_NAMES:
        metrics[f"{layer}.self_s"] = (summary[layer]["self_s"] / count, "s")
        metrics[f"{layer}.calls"] = (summary[layer]["calls"] / count, "count")
    for layer in tracing.TUPLE_LAYERS:
        row = summary[layer]
        metrics[f"{layer}.tuples"] = (row["tuples"] / count, "count")
        per_tuple = row["self_s"] * 1e6 / row["tuples"] if row["tuples"] else 0.0
        metrics[f"{layer}.us_per_tuple"] = (per_tuple, "us")
    metrics["bench.self_s"] = (summary[tracing.BENCH]["self_s"] / count, "s")
    row = summary["structures"]
    metrics["structures.scan_ratio"] = (
        row["tuples"] / row["domain"] if row["domain"] else 0.0, "ratio"
    )
    setup = tracer.layer_summary({"setup"})
    metrics["algfile.setup_self_s"] = (setup["algfile"]["self_s"], "s")
    metrics["trace.overhead_ratio"] = (sum(traced_samples) / sum(plain), "ratio")
    return sum(len(samples) for samples, _, _ in phases), failures, metrics, sound


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    try:
        expected = load_expected()
        OUT.mkdir(exist_ok=True)
        # Cache homlie's bytecode inside the checkout, whatever the environment
        # says, so that set-up times an import from bytecode everywhere.
        sys.dont_write_bytecode = False
        sys.pycache_prefix = str(OUT / "pycache")
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            run = per_layer if args.trace else end_to_end
            attempted, failures, metrics, sound = run(
                workload, args.seed, args.seconds, expected, tmp
            )
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for i, errors in failures[:10]:
        print(f"wrong instance {i}: {'; '.join(errors)}", file=sys.stderr)
    print(f"# error_ratio: {len(failures)}/{attempted}")
    print(json.dumps({
        "correct": sound and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
