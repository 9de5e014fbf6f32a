"""Peak memory and wall time of each verification suite at a sample count.

    python tools/suite_peaks.py SRC [--count N] [--suite S ...]

For each suite the script runs `verify --suite S` on the ewcontract tree
SRC (put on PYTHONPATH) in a fresh child process, with every sample
count of the config set to N (default 10000, the largest accepted). It
reads the child's peak resident set size from `os.wait4` and prints one
line per suite: name, peak MiB, wall seconds and verdict (pass, FAIL, or
the exit code of a run that ended in an error). The default suites are
the four sampled ones, whose memory could grow with the count. The exit
code is 1 when a suite did not pass, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SAMPLED_SUITES = ("group", "invariance", "coordinate", "fermion")

_COUNT_KEYS = ("import json; from ewcontract.suites import SAMPLE_COUNTS; "
               "print(json.dumps(sorted(SAMPLE_COUNTS)))")


def peak(src: Path, suite: str, config: Path) -> tuple:
    """(peak MiB, wall s, exit code) of `verify --suite suite` in a child."""
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "ewcontract.cli", "verify",
            "--suite", suite, "--config", str(config)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    return usage.ru_maxrss / 1024.0, wall, proc.returncode  # ru_maxrss is KiB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path)
    parser.add_argument("--count", type=int, default=10000)
    parser.add_argument("--suite", action="append", default=None)
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "ewcontract" / "cli.py").is_file():
        parser.error(f"{args.src} holds no ewcontract package")
    keys = json.loads(subprocess.run(
        [sys.executable, "-c", _COUNT_KEYS], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True).stdout)
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "counts.json"
        config.write_text(json.dumps(
            {"sample_counts": {key: args.count for key in keys}}))
        print(f"{'suite':12s} {'peak MiB':>9s} {'wall s':>8s}  verdict")
        for suite in args.suite or SAMPLED_SUITES:
            mib, wall, code = peak(src, suite, config)
            verdict = {0: "pass", 1: "FAIL"}.get(code, f"exit {code}")
            failed |= code != 0
            print(f"{suite:12s} {mib:9.1f} {wall:8.2f}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
