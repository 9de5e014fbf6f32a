"""Benchmark of the ewcontract verifier: time to a verified answer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify|expand|spectrum \
        --seed N --seconds S --trace 0|1

One client in one process on one thread drives the user commands
in-process through ``ewcontract.cli.main`` in a closed loop. The command
list is fixed by the workload, ``--seed`` and ``--seconds``: command i uses
seed ``N + i``, and the count is ``--seconds`` divided by the command's
nominal cost on the reference machine, so the run measures about
``--seconds`` there and the same work everywhere.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
list untraced and then traced, and prints the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_PY = BENCH_DIR / "workload.py"
PROGRAM = ROOT / "src" / "ewcontract" / "cli.py"

#: nominal seconds per command on the reference machine (2-vCPU Xeon VM,
#: Python 3.11, numpy 2.4); they size the fixed command list
NOMINAL_S = {"verify": 7.5, "expand": 1.2, "spectrum": 0.2}

#: fresh interpreters started only to time set-up; the workload process
#: itself gives one more sample
SETUP_PROBES = 2

#: every process of a run must be done by then
DEADLINE_S = 170.0

THREAD_POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def command_count(workload: str, seconds: int) -> int:
    return max(1, round(seconds / NOMINAL_S[workload]))


def hermetic_env() -> dict:
    """No EWCONTRACT_* flag defaults; BLAS and OpenMP pools of one thread."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("EWCONTRACT_")}
    env.update({var: "1" for var in THREAD_POOL_VARS})
    return env


def _spawn(args, env: dict, deadline: float) -> str:
    """Run one workload-process mode to completion; return its stdout."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a process")
    try:
        done = subprocess.run(
            [sys.executable, "-I", str(WORKLOAD_PY), *args], env=env,
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process timed out after {exc.timeout:.0f} s")
    if done.returncode != 0:
        raise BenchError(f"workload process exited with {done.returncode}:\n"
                         f"{done.stderr.strip()}")
    return done.stdout


def setup_probe(env: dict, deadline: float) -> float:
    start = time.monotonic()
    ready = float(_spawn(["probe"], env, deadline).strip())
    return ready - start


def run_workload(spec: dict, env: dict, deadline: float):
    """Start the workload process; return (its result, its set-up seconds)."""
    start = time.monotonic()
    _spawn(["run", json.dumps(spec)], env, deadline)
    with open(spec["result"], "r", encoding="utf-8") as fh:
        result = json.load(fh)
    return result, result["ready"] - start


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not PROGRAM.is_file():
        raise BenchError(f"program source not found: {PROGRAM}")
    deadline = time.monotonic() + DEADLINE_S
    env = hermetic_env()
    scratch = BENCH_DIR / ".tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        setups = [setup_probe(env, deadline) for _ in range(SETUP_PROBES)]
        spec = {"workload": workload, "seed": seed, "trace": trace,
                "commands": command_count(workload, seconds),
                "tmpdir": str(tmp), "result": str(tmp / "result.json")}
        result, setup = run_workload(spec, env, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result["setup_samples"] = setups + [setup]
    result["commands"] = spec["commands"]
    return result


def end_to_end(result: dict) -> dict:
    return {
        "op_p90_s": (percentile(result["op_seconds"], 90), "s"),
        "wall_s": (result["wall_s"], "s"),
        "setup_s": (statistics.median(result["setup_samples"]), "s"),
        "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
    }


def report(workload: str, seed: int, result: dict, trace: bool) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    n = result["commands"]
    failed = result["failed"]
    m = result["machine"]
    print(f"workload {workload}: {n} commands, seeds {seed}..{seed + n - 1}, "
          "closed loop, 1 client, 1 thread")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']}")
    metrics = result["layers"] if trace else end_to_end(result)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    if not trace:
        # Printed, not in BENCHMARK.json: under a host whose speed flips
        # between two phases, the median of short commands jumps between
        # the phases from run to run (see README.md).
        print(f"  {'op_p50_s':44s} {statistics.median(result['op_seconds']):14.6g}"
              " s (not gated)")
        beyond = n - math.ceil(0.9 * n)
        print(f"  op_p90_s over {n} commands, {beyond} beyond it")
    else:
        print(f"  traced wall {result['traced_wall_s']:.4f} s, "
              f"self times sum to {result['self_s_total']:.4f} s")
    print(f"  fail_frac {len(failed)}/{result['attempted']} = "
          f"{len(failed) / result['attempted']:.4f} (units)")
    for why in failed:
        print(f"    failed: {why}")
    return {
        "correct": not result["wrong"],
        "attempted": result["attempted"],
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(NOMINAL_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args.workload, args.seed, result,
                            bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
