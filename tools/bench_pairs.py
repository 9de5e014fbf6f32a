"""Paired, alternating benchmark runs of two checkouts of ewcontract.

    python tools/bench_pairs.py PARENT CHANGE --workloads expand verify \
        --pairs 10 --seed 0 --out BENCH_16.json

PARENT and CHANGE are the roots of two checkouts, each with its own
`perfbench/run.py`. For each workload, pair i runs the benchmark command
of CHANGE's `BENCHMARK.json` once in each checkout, with the checkout as
working directory and the arguments `--workload W --seed S --seconds T
--trace 0`, T being its `run_seconds`: the parent first on even pairs,
the change first on odd ones, so that a drift of the host's speed falls
on both sides alike (T. Kalibera and R. Jones, "Rigorous benchmarking in
reasonable time", ISMM 2013).

The output file has the layout of the earlier `BENCH_*.json` records:
`machine`; `end_to_end`, keyed `W/seedS`, which per metric of
`BENCHMARK.json` gives the median, q1 and q3 of each side (inclusive
quartiles), `change_wins` (the pairs in which the change is better, in the
metric's `better` direction; a tie is no win) and both sides' runs in pair
order, and per side the failed and attempted units and whether every run
was correct; and `runs`, every run in the order it ran. The exit code is 1
when a run reports `correct: false` (the file is still written) and 2 when
a run gives no result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


class RunError(Exception):
    """A benchmark run gave no result."""


def run_once(tree: Path, command: list, workload: str, seed: int,
             seconds: int) -> dict:
    """The final JSON line of one `--trace 0` run in `tree`."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunError(f"{tree}: {' '.join(argv)} exited {done.returncode}:\n"
                       f"{done.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list) -> dict:
    if len(values) == 1:
        return dict.fromkeys(("median", "q1", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


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
    return {"nproc": os.cpu_count(), "cpu": cpu,
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
    runs, end_to_end = [], {}
    try:
        for workload in args.workloads:
            done = []
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    result = run_once(trees[side], bench["command"], workload,
                                      args.seed, seconds)
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
            end_to_end[f"{workload}/seed{args.seed}"] = summary(
                done, bench["end_to_end"])
    except RunError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    record = {
        "description": (f"perfbench/run.py --trace 0 --seconds {seconds}, "
                        f"{args.pairs} pairs per workload at seed {args.seed}, "
                        "parent first on even pairs and change first on odd "
                        "ones"),
        "machine": machine(),
        "end_to_end": end_to_end,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
