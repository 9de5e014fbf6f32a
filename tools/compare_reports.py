"""Compare the reports of two source trees of ewcontract, seed by seed.

    python tools/compare_reports.py OLD_SRC NEW_SRC [--seeds 0-29]

For each seed the script draws couplings g, gp, R and h_e from that seed
(the ranges of the quadratic suite's mass sets) and runs, on both trees,
in fresh subprocesses with the tree on PYTHONPATH:

    verify                      (all suites)
    expand --n 6 --order 8
    spectrum

each at the drawn couplings, and verify and expand, the commands that
take --seed, at the seed. Per command it prints how many report numbers
are identical out of the total, the largest relative and the largest
absolute change of a number (a residual at round-off level
can change by a large fraction of itself and by a tiny amount), the
report paths whose numbers changed, and every verdict change: a `passed`
flag or an exit code that differs. The `timestamp` field is skipped. It
also compares each command's stdout with the other tree's, byte for byte
apart from the `"timestamp"` line of expand's dump, and lists the first
line that differs under "report differs"; a printed number that changes
in its printed digits is such a difference.

Once per invocation it also runs, on both trees, the CLI's surface
outside the reports:

    --help, verify --help, spectrum --help, expand --help
                                (each at COLUMNS=80 and COLUMNS=133)
    expand --n 0 --seed abc
    expand --n 0 --order abc
    spectrum --format xml

and compares stdout, stderr and the exit code byte for byte; each run
that differs is listed under "report differs" with its first differing
line. The exit code is 1 when a verdict, the structure of a report,
stdout or a surface run differs, else 0.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

#: argv of each compared command; {seed} stands for the seed of the run
COMMANDS = {
    "verify": ["verify", "--seed", "{seed}"],
    "expand": ["expand", "--n", "6", "--order", "8", "--seed", "{seed}"],
    "spectrum": ["spectrum"],
}

#: couplings are drawn uniformly from these ranges, in this order
COUPLING_RANGES = (("g", 0.3, 1.2), ("gp", 0.2, 0.8),
                   ("R", 0.4, 2.0), ("h_e", 0.5, 2.5))


#: (label, argv, environment added) of each surface run
SURFACE = [
    *((" ".join([*command, "--help"]) + f" at COLUMNS={columns}",
       [*command, "--help"], {"COLUMNS": str(columns)})
      for command in ([], ["verify"], ["spectrum"], ["expand"])
      for columns in (80, 133)),
    *((" ".join(argv), argv, {})
      for argv in (["expand", "--n", "0", "--seed", "abc"],
                   ["expand", "--n", "0", "--order", "abc"],
                   ["spectrum", "--format", "xml"])),
]


def seed_range(text: str) -> range:
    """'5' or '0-29' (inclusive)."""
    lo, _, hi = text.partition("-")
    try:
        first, last = int(lo), int(hi or lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}") from None
    if first < 0 or last < first:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}")
    return range(first, last + 1)


def couplings(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {name: float(rng.uniform(lo, hi)) for name, lo, hi in COUPLING_RANGES}


def mask_timestamp(stdout: str) -> str:
    """stdout with the value of expand's "timestamp" line, which differs
    from run to run, replaced by *."""
    return re.sub(r'^(\s*"timestamp": ).*$', r"\1*", stdout, flags=re.MULTILINE)


def run(src: Path, tag: str, command: str, seed: int, workdir: Path) -> tuple:
    """(exit code, report or None, stdout with the timestamp masked) of one
    command on the tree `tag`."""
    config = workdir / f"config_{seed}.json"
    config.write_text(json.dumps({"couplings": couplings(seed)}))
    out = workdir / f"{tag}_{command}_{seed}.json"
    code, stdout, stderr = run_cli(src, [
        *(arg.format(seed=seed) for arg in COMMANDS[command]),
        "--config", str(config), "--out", str(out)], {})
    if code not in (0, 1):
        sys.stderr.write(f"{src} {command} seed {seed} exited {code}:\n"
                         f"{stderr}")
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report, mask_timestamp(stdout)


def run_cli(src: Path, argv: list, env: dict) -> tuple:
    """(exit code, stdout, stderr) of one CLI run on the tree at src, with
    env added to the environment."""
    proc = subprocess.run([sys.executable, "-m", "ewcontract.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=str(src), **env),
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def surface_differences(old: dict, new: dict) -> list:
    """One line per surface run and stream in which the trees differ; old
    and new map each label to (exit code, stdout, stderr)."""
    lines = []
    for label in old:
        (old_rc, *old_streams), (new_rc, *new_streams) = old[label], new[label]
        if old_rc != new_rc:
            lines.append(f"{label}: exit code {old_rc} -> {new_rc}")
        for stream, x, y in zip(("stdout", "stderr"), old_streams, new_streams):
            if x != y:
                lines.append(f"{label}: {stream} {first_difference(x, y)}")
    return lines


def leaves(value, path: str = ""):
    """(path, value) of every scalar in a report, `timestamp` skipped."""
    if isinstance(value, dict):
        for key in sorted(value):
            if key != "timestamp":
                yield from leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def first_difference(old: str, new: str) -> str:
    """The first line in which two different texts differ, line endings
    kept, a missing line read as ''."""
    pairs = zip(old.splitlines(True) + [""], new.splitlines(True) + [""])
    for number, (x, y) in enumerate(pairs, 1):
        if x != y:
            return f"line {number} {x!r} -> {y!r}"


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class Tally:
    """What one command's reports share over all seeds."""

    def __init__(self):
        self.identical = self.total = 0
        self.largest = {"relative": (0.0, ""), "absolute": (0.0, "")}
        self.changed = collections.Counter()  # report path: seeds it changed on
        self.verdicts = []
        self.structure = []

    def add(self, seed: int, old: tuple, new: tuple) -> None:
        (old_rc, old_report, old_out), (new_rc, new_report, new_out) = old, new
        if old_rc != new_rc:
            self.verdicts.append(f"seed {seed}: exit code {old_rc} -> {new_rc}")
        if old_out != new_out:
            self.structure.append(f"seed {seed}: stdout "
                                  + first_difference(old_out, new_out))
        if old_report is None or new_report is None:
            if old_report is not new_report:
                self.structure.append(f"seed {seed}: report written by one tree only")
            return
        a, b = dict(leaves(old_report)), dict(leaves(new_report))
        for path in sorted(set(a) ^ set(b)):
            self.structure.append(f"seed {seed}: {path} in one report only")
        for path in sorted(set(a) & set(b)):
            x, y = a[path], b[path]
            if is_number(x) and is_number(y):
                self.total += 1
                if x == y:
                    self.identical += 1
                    continue
                self.changed[path] += 1
                for kind, change in (("relative", abs(x - y) / max(abs(x), abs(y))),
                                     ("absolute", abs(x - y))):
                    if change > self.largest[kind][0]:
                        self.largest[kind] = (change, f"seed {seed} {path}")
            elif x != y:
                if path.endswith("passed"):
                    self.verdicts.append(f"seed {seed}: {path} {x} -> {y}")
                else:
                    self.structure.append(f"seed {seed}: {path} {x!r} -> {y!r}")

    def print(self, command: str) -> None:
        print(f"{command}: {self.identical} of {self.total} numbers identical")
        for kind, (change, where) in self.largest.items():
            print(f"  largest {kind} change {change:.3g}"
                  + (f" ({where})" if where else ""))
        for path, seeds in sorted(self.changed.items()):
            print(f"  changed on {seeds} seed(s): {path}")
        for line in self.verdicts:
            print(f"  verdict change, {line}")
        for line in self.structure:
            print(f"  report differs, {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-29"))
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (src / "ewcontract" / "cli.py").is_file():
            parser.error(f"{src} holds no ewcontract package")
    tallies = {command: Tally() for command in COMMANDS}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for seed in args.seeds:
            for command, tally in tallies.items():
                tally.add(seed, *(run(src.resolve(), tag, command, seed, workdir)
                                  for src, tag in ((args.old_src, "old"),
                                                   (args.new_src, "new"))))
    old, new = ({label: run_cli(src.resolve(), argv, env)
                 for label, argv, env in SURFACE}
                for src in (args.old_src, args.new_src))
    for command, tally in tallies.items():
        tally.print(command)
    same = sum(old[label] == new[label] for label in old)
    print(f"surface: {same} of {len(SURFACE)} runs identical")
    differences = surface_differences(old, new)
    for line in differences:
        print(f"  report differs, {line}")
    changed = any(t.verdicts or t.structure for t in tallies.values())
    return 1 if changed or differences else 0


if __name__ == "__main__":
    sys.exit(main())
