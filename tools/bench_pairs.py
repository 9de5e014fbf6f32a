"""Paired, alternating benchmark runs of two checkouts of ewcontract.

    python tools/bench_pairs.py PARENT CHANGE --workloads expand verify \
        --pairs 10 --seed 0 --out BENCH_16.json

PARENT and CHANGE are the roots of two checkouts, each with its own
`perfbench/run.py`. Each side runs from a fresh copy of its checkout,
both copies in one temporary directory, removed at the end, so that
neither side runs from a working tree with its own caches and scratch
files: the copies leave out `.git`, `__pycache__`, `perfbench/.tmp`,
`.hypothesis` and `.pytest_cache`. For each workload, pair i runs the
benchmark command of CHANGE's `BENCHMARK.json` once in each copy, with
the copy as working directory and the arguments `--workload W --seed S
--seconds T --trace 0`, T being its `run_seconds`: the parent first on
even pairs, the change first on odd ones, so that a drift of the host's
speed falls on both sides alike (T. Kalibera and R. Jones, "Rigorous
benchmarking in reasonable time", ISMM 2013).

The output file has the layout of the earlier `BENCH_*.json` records:
`machine`; `end_to_end`, keyed `W/seedS`, which per metric of
`BENCHMARK.json` gives the median, q1, q3 (inclusive quartiles) and
minimum of each side, `change_wins` (the pairs in which the change is
better, in the metric's `better` direction; a tie is no win) and both
sides' runs in pair order, and per side the failed and attempted units
and whether every run was correct; `per_layer`, keyed like `end_to_end`,
which per side gives the metrics of one `--trace 1` run at the same seed
and seconds, made in each copy (parent first) after the workload's pairs;
and `runs`, every `--trace 0` run in the order it ran. `end_to_end` reads the `--trace 0`
runs only. The exit code is 1 when a run reports `correct: false` (the
file is still written) and 2 when a run gives no result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")

#: left out of a checkout's copy wherever they occur: version control and
#: caches (and `perfbench/.tmp`, the benchmark's scratch directory)
SKIPPED = {".git", "__pycache__", ".hypothesis", ".pytest_cache"}

#: the root cpuset's load-balancing switch under cgroup v1, read only
CPUSET_BALANCE = "/sys/fs/cgroup/cpuset/cpuset.sched_load_balance"


class RunError(Exception):
    """A benchmark run gave no result."""


def run_once(tree: Path, command: list, workload: str, seed: int,
             seconds: int, trace: int) -> dict:
    """The final JSON line of one run in `tree`."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunError(f"{tree}: {' '.join(argv)} exited {done.returncode}:\n"
                       f"{done.stderr.strip()}")
    return json.loads(lines[-1])


def copy_checkout(tree: Path, dest: Path) -> Path:
    """A fresh copy of the checkout `tree` at `dest`, without SKIPPED and
    `perfbench/.tmp`."""

    def ignored(directory: str, names: list) -> set:
        skip = SKIPPED.intersection(names)
        if Path(directory) == tree / "perfbench" and ".tmp" in names:
            skip.add(".tmp")
        return skip

    shutil.copytree(tree, dest, symlinks=True, ignore=ignored)
    return dest


def quartiles(values: list) -> dict:
    """Median, quartiles and minimum: on a host that switches between two
    speed levels the minimum reads the faster level alone."""
    if len(values) == 1:
        return dict.fromkeys(("median", "q1", "q3", "min"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values)}


def summary(runs: list, metrics: list) -> dict:
    """The `end_to_end` entry of one workload's runs."""
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    entry = {"pairs": len(by_side["change"])}
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in by_side[side]]
                  for side in SIDES}
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins = sum(sign * change < sign * parent
                   for parent, change in zip(values["parent"], values["change"]))
        entry[name] = {
            **{side: quartiles(values[side]) for side in SIDES},
            "change_wins": f"{wins}/{entry['pairs']}",
            **{f"{side}_runs": values[side] for side in SIDES},
        }
    for key, field in (("failed_units", "failed"),
                       ("attempted_units", "attempted")):
        entry[key] = {side: sum(r[field] for r in by_side[side])
                      for side in SIDES}
    entry["correct"] = {side: all(r["correct"] for r in by_side[side])
                        for side in SIDES}
    return entry


def usable_cpus() -> int:
    """The CPUs this process may run on, which `verify` sizes its lanes by."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    try:  # 0: the kernel moves no task between the cpuset's CPUs
        with open(CPUSET_BALANCE, encoding="utf-8") as fh:
            balance = int(fh.read())
    except (OSError, ValueError):
        balance = None
    return {"nproc": os.cpu_count(), "usable_cpus": usable_cpus(), "cpu": cpu,
            "cpuset_sched_load_balance": balance,
            "python": platform.python_version(), "numpy": numpy,
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        parser.error("--pairs must be >= 1 and --seed >= 0")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} holds no perfbench/run.py")
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs, end_to_end, per_layer, traced_correct = [], {}, {}, []
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        copies = {side: copy_checkout(tree, tmp / side)
                  for side, tree in trees.items()}
        for workload in args.workloads:
            done = []
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    result = run_once(copies[side], bench["command"], workload,
                                      args.seed, seconds, 0)
                    done.append({"side": side, "workload": workload,
                                 "seed": args.seed, "trace": 0, "pair": pair,
                                 "correct": result["correct"],
                                 "attempted": result["attempted"],
                                 "failed": result["failed"],
                                 "metrics": result["metrics"]})
                    print(f"{workload} pair {pair} {side}: " + ", ".join(
                        f"{name} {m['value']:.4g}"
                        for name, m in result["metrics"].items()), flush=True)
            runs += done
            key = f"{workload}/seed{args.seed}"
            end_to_end[key] = summary(done, bench["end_to_end"])
            per_layer[key] = {}
            for side in SIDES:
                result = run_once(copies[side], bench["command"], workload,
                                  args.seed, seconds, 1)
                per_layer[key][side] = result["metrics"]
                traced_correct.append(result["correct"])
                print(f"{workload} traced {side}: {len(result['metrics'])} "
                      "per-layer metrics", flush=True)
    except RunError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp)
    record = {
        "description": (f"perfbench/run.py --trace 0 --seconds {seconds}, "
                        f"{args.pairs} pairs per workload at seed {args.seed}, "
                        "parent first on even pairs and change first on odd "
                        "ones; then one --trace 1 run per side for per_layer; "
                        f"each side ran from a fresh copy of its checkout in "
                        f"{tmp}/parent and {tmp}/change (removed afterwards), "
                        "without " + ", ".join(sorted(SKIPPED))
                        + " and perfbench/.tmp"),
        "machine": machine(),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    correct = [run["correct"] for run in runs] + traced_correct
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
