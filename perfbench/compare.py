"""Compare benchmark runs: parent against change, or the same code against itself.

    python3 perfbench/compare.py pairs PARENT CHANGE [--pairs 10] [--workload W]...
    python3 perfbench/compare.py same [TREE] [--runs 10] [--workload W]...

PARENT, CHANGE and TREE are checkouts holding ``BENCHMARK.json``; every run
is its ``command`` with ``--workload --seed --seconds --trace 0`` in that
checkout.  ``pairs`` runs the two checkouts alternately, switching which
goes first, each pair on its own seed, and prints one row per workload and
end-to-end metric: each side's median and quartiles, the share of pairs the
change won (ties count for neither) and a verdict.  ``same`` makes two sets
of runs of one checkout on distinct seeds and checks them against the
benchmark's bounds: within each set the quartile spread of every metric
must stay within its bound, and the second set's median must not differ
from the first's, either way, by more than the bound.  Seeds start at
``FIRST_SEED``.  Exit status is 1 when a run fails or a check does not
hold.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import spread

RUN_TIMEOUT_S = 900
FIRST_SEED = 1000


def load_benchmark(tree: Path) -> dict:
    with open(tree / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def bench_files_digest(tree: Path, bench: dict) -> str:
    """Digest of the benchmark's own files, ignoring its outputs and caches."""
    h = hashlib.sha256((tree / "BENCHMARK.json").read_bytes())
    for rel in bench["paths"]:
        for path in sorted((tree / rel).rglob("*")):
            parts = path.relative_to(tree).parts
            if path.is_file() and "out" not in parts and "__pycache__" not in parts:
                h.update("/".join(parts).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_once(tree: Path, bench: dict, workload: str, seed: int) -> dict:
    argv = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(
        argv, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree} {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{tree} {workload} seed {seed}: wrong result {result}\n"
                           f"{proc.stderr[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values) -> tuple:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def worse_by(metric: dict, base: float, value: float) -> float:
    """How much worse ``value`` is than ``base``, as a share of ``base``."""
    change = (value - base) / base
    return change if metric["better"] == "lower" else -change


def cmd_pairs(args) -> int:
    parent, change = Path(args.parent).resolve(), Path(args.change).resolve()
    bench = load_benchmark(change)
    if bench_files_digest(parent, bench) != bench_files_digest(change, bench):
        print("error: the benchmark's files differ between the two trees", file=sys.stderr)
        return 2
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    runs = {(side, w): [] for side in ("parent", "change") for w in workloads}
    for i in range(args.pairs):
        seed = FIRST_SEED + i
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        for w in workloads:
            for side, tree in order:
                runs[(side, w)].append(run_once(tree, bench, w, seed))
                print(f"pair {i} {w} {side}: {_brief(runs[(side, w)][-1])}", file=sys.stderr)
    print(f"{'workload':14} {'metric':16} {'parent median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'won':>5}  verdict")
    for w in workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = [r[name] for r in runs[("parent", w)]]
            c = [r[name] for r in runs[("change", w)]]
            won = sum(worse_by(metric, pv, cv) < 0 for pv, cv in zip(p, c)) / len(p)
            (pm, p1, p3), (cm, c1, c3) = summary(p), summary(c)
            if won >= 0.9 and abs(cm - pm) > p3 - p1:
                verdict = "gain"
            elif worse_by(metric, pm, cm) > metric["bound"]:
                verdict = "regression"
            elif (p3 - p1) / pm > metric["bound"] and not all(
                worse_by(metric, pv, cv) < 0 for pv in p for cv in c
            ):
                verdict = "unresolved"
            else:
                verdict = "within bound"
            print(f"{w:14} {name:16} {pm:12.6g} [{p1:.6g}, {p3:.6g}]".ljust(66)
                  + f" {cm:12.6g} [{c1:.6g}, {c3:.6g}]".ljust(35)
                  + f" {won:5.2f}  {verdict}")
    _save(args.out, runs)
    return 0


def cmd_same(args) -> int:
    tree = Path(args.tree).resolve()
    bench = load_benchmark(tree)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    sets = [{w: [] for w in workloads} for _ in range(2)]
    for s, runs in enumerate(sets):
        for w in workloads:
            for r in range(args.runs):
                runs[w].append(run_once(tree, bench, w, FIRST_SEED + s * args.runs + r))
                print(f"set {s} {w} run {r}: {_brief(runs[w][-1])}", file=sys.stderr)
    ok = True
    print(f"{'workload':14} {'metric':16} {'median 1':>12} {'spread 1':>9} "
          f"{'median 2':>12} {'spread 2':>9} {'shift':>7} {'bound':>6}  check")
    for w in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = ([r[name] for r in runs[w]] for runs in sets)
            m1, m2 = statistics.median(first), statistics.median(second)
            s1, s2 = (spread(v) for v in (first, second))
            shift = (m2 - m1) / m1
            good = abs(shift) <= bound and max(s1, s2) <= bound
            ok &= good
            print(f"{w:14} {name:16} {m1:12.6g} {s1:9.4f} {m2:12.6g} {s2:9.4f} "
                  f"{shift:7.4f} {bound:6.3f}  {'ok' if good else 'FAIL'}")
    _save(args.out, {f"set{s}/{w}": v for s, runs in enumerate(sets) for w, v in runs.items()})
    return 0 if ok else 1


def _brief(metrics: dict) -> str:
    return " ".join(f"{k}={v:.4g}" for k, v in metrics.items())


def _save(path, runs):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({str(k): v for k, v in runs.items()}, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    pairs = sub.add_parser("pairs", help="parent against change, alternating")
    pairs.add_argument("parent")
    pairs.add_argument("change")
    pairs.add_argument("--pairs", type=int, default=10)
    same = sub.add_parser("same", help="two sets of runs of one tree against the bounds")
    same.add_argument("tree", nargs="?", default=".")
    same.add_argument("--runs", type=int, default=10)
    for p in (pairs, same):
        p.add_argument("--workload", action="append", help="default: every workload")
        p.add_argument("--out", help="also write every run's metrics to this JSON file")
    args = parser.parse_args(argv)
    if getattr(args, "pairs", 10) < 10:
        parser.error("a paired comparison needs at least ten pairs")
    if getattr(args, "runs", 2) < 2:
        parser.error("quartiles need at least two runs per set")
    try:
        return cmd_pairs(args) if args.mode == "pairs" else cmd_same(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
