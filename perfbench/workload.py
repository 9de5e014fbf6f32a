"""Workload process of the benchmark: one client, one thread, closed loop.

Started by ``run.py`` in a fresh interpreter (``python -I``) with a
hermetic environment. Usage::

    python -I perfbench/workload.py probe
    python -I perfbench/workload.py run '<json spec>'

Both modes first make the program ready for its first command (import
``ewcontract.cli``, one ``halton_points`` call) and note the monotonic
clock, which ``run.py`` turns into ``setup_s``. ``probe`` prints that
time and exits. ``run`` drives the fixed command list through
``ewcontract.cli.main`` in-process, each command only after the previous
one returned, then checks every output against its oracle outside the
timed span and writes one JSON result file.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH_DIR)]


def _ready() -> float:
    import ewcontract
    import ewcontract.cli  # noqa: F401  (numpy, scipy.stats.qmc)
    from ewcontract.spectrum import halton_points

    halton_points(seed=0)
    ready = time.monotonic()
    if not Path(ewcontract.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ewcontract imported from {ewcontract.__file__}, "
                         f"not from {SRC}")
    return ready


# The imports below come after the ready mark, so they are not set-up time.

import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Callable, List, Optional  # noqa: E402

from tracer import ROOT, SUITE_NAMES  # noqa: E402

#: program default tolerances the oracles use (suite_quadratic's
#: ``quadratic_form``, ``mass_rel`` and ``mass_zero``)
TOL_QUADRATIC_FORM = 1.0e-8
TOL_MASS_REL = 1.0e-8
TOL_MASS_ZERO = 1.0e-10

#: each suite verdict of a verify command is one unit
SUITES = SUITE_NAMES

EXPAND_N = 6
EXPAND_ORDER = 8

#: spectrum couplings are drawn from the quadratic suite's ranges
COUPLING_RANGES = (("g", 0.3, 1.2), ("gp", 0.2, 0.8),
                   ("R", 0.4, 2.0), ("h_e", 0.5, 2.5))

SUITE_LINE = re.compile(
    r"^suite\s+(\S+)\s+(pass|FAIL)\s+residual\s+(\S+)\s+\(tolerance\s+(\S+)\)",
    re.MULTILINE,
)


@dataclass
class Command:
    seed: int
    argv: List[str]
    report: Path
    couplings: Optional[dict] = None


@dataclass
class Outcome:
    seconds: float
    rc: Optional[int]
    error: Optional[str]
    output: str


@dataclass
class Check:
    """Units attempted and failed for one command; ``wrong`` lists outputs
    that disagree with an oracle (a subset of the failures)."""

    attempted: int
    failed: List[str] = field(default_factory=list)
    wrong: List[str] = field(default_factory=list)

    def fail(self, why: str, wrong: bool = False) -> None:
        self.failed.append(why)
        if wrong:
            self.wrong.append(why)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def build_commands(workload: str, seed: int, count: int,
                   outdir: Path) -> List[Command]:
    """The fixed command list: command i uses seed ``seed + i``."""
    import numpy as np

    outdir.mkdir(parents=True, exist_ok=True)
    commands = []
    for i in range(count):
        s = seed + i
        report = outdir / f"{workload}_{s}.json"
        if workload == "verify":
            argv = ["verify", "--seed", str(s), "--out", str(report)]
            commands.append(Command(s, argv, report))
        elif workload == "expand":
            argv = ["expand", "--n", str(EXPAND_N), "--order", str(EXPAND_ORDER),
                    "--seed", str(s), "--out", str(report)]
            commands.append(Command(s, argv, report))
        elif workload == "spectrum":
            rng = np.random.default_rng(s)
            couplings = {name: float(rng.uniform(lo, hi))
                         for name, lo, hi in COUPLING_RANGES}
            argv = ["spectrum", "--g", repr(couplings["g"]),
                    "--gp", repr(couplings["gp"]), "--R", repr(couplings["R"]),
                    "--h-e", repr(couplings["h_e"]), "--out", str(report)]
            commands.append(Command(s, argv, report, couplings))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return commands


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def run_one(main: Callable, argv: List[str]) -> Outcome:
    """One command; its output is captured and its time kept on failure."""
    buf = io.StringIO()
    rc, error = None, None
    start = perf_counter()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a failed unit, counted; the loop goes on
        error = f"{type(exc).__name__}: {exc}"
    return Outcome(perf_counter() - start, rc, error, buf.getvalue())


def run_list(commands: List[Command], tracer=None):
    """Run the list in order; return (outcomes, wall seconds)."""
    import ewcontract.cli

    main = ewcontract.cli.main
    step = run_one
    if tracer is not None:
        step = tracer.span(ROOT, run_one)
    start = perf_counter()
    outcomes = [step(main, c.argv) for c in commands]
    return outcomes, perf_counter() - start


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _load_report(path: Path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _rel_diff(x: complex, y: complex) -> float:
    return abs(x - y) / max(abs(x), abs(y), 1.0e-30)


def _report_verdicts(report):
    """suite -> (passed, residual, tolerance) from a verify report, or None
    when the report is missing or malformed."""
    try:
        return {name: (r["passed"] is True, float(r["residual"]),
                       float(r["tolerance"]))
                for name, r in report["suites"].items()}
    except (KeyError, TypeError, ValueError, AttributeError):
        return None


def check_verify(cmd: Command, out: Outcome) -> Check:
    check = Check(attempted=len(SUITES) + 1)
    printed = {m.group(1): (m.group(2) == "pass", float(m.group(3)),
                            float(m.group(4)))
               for m in SUITE_LINE.finditer(out.output)}
    report = _load_report(cmd.report)
    verdicts = _report_verdicts(report)
    if verdicts is not None:
        for name, (passed, _, _) in verdicts.items():
            if name in printed and printed[name][0] != passed:
                check.fail(f"seed {cmd.seed} {name}: printed and report "
                           "verdicts differ", True)
        all_passed = all(v[0] for v in verdicts.values())
        if report.get("passed") is not all_passed:
            check.fail(f"seed {cmd.seed} report: overall verdict disagrees "
                       "with suites", True)
        elif out.rc != (0 if all_passed else 1):
            check.fail(f"seed {cmd.seed} report: exit code {out.rc} "
                       "disagrees with verdicts", True)
    else:
        verdicts = printed
        why = out.error or f"exit code {out.rc}"
        check.fail(f"seed {cmd.seed} report: missing or unparseable ({why})")
    for name in SUITES:
        verdict = verdicts.get(name)
        if verdict is None:
            check.fail(f"seed {cmd.seed} {name}: no verdict")
        elif not verdict[0]:
            check.fail(f"seed {cmd.seed} {name}: FAIL residual "
                       f"{verdict[1]:.3e} tolerance {verdict[2]:.1e}")
        elif not verdict[1] <= verdict[2]:
            check.fail(f"seed {cmd.seed} {name}: pass with residual above "
                       "tolerance", True)
    return check


def _jet_grade(coefficients: list, n: int) -> complex:
    re_, im_ = coefficients[n]
    return complex(re_, im_)


def _command_report(cmd: Command, out: Outcome, check: Check):
    """The report of a command that exited 0, or None after failing its
    unit."""
    report = _load_report(cmd.report)
    if out.error or out.rc != 0 or not isinstance(report, dict):
        why = out.error or f"exit code {out.rc}"
        check.fail(f"seed {cmd.seed}: {why}"
                   f"{'' if isinstance(report, dict) else ', no report'}")
        return None
    return report


def check_expand(cmd: Command, out: Outcome) -> Check:
    """eps^2 coefficient at grades 0 and 2 vs the point-averaged
    ``spectrum.quadratic_form`` on the same configuration and points."""
    import numpy as np
    from ewcontract.cli import DEFAULT_COUPLINGS
    from ewcontract.fields import Couplings, sample_gauge, sample_psi
    from ewcontract.spectrum import (halton_points, quadratic_form,
                                     random_bosonic_config)

    check = Check(attempted=1)
    report = _command_report(cmd, out, check)
    if report is None:
        return check
    try:
        c2 = report["expansion"]["coefficients"]["2"]
        exact = [_jet_grade(c2, n) for n in (0, 2)]
    except (KeyError, IndexError, TypeError, ValueError):
        check.fail(f"seed {cmd.seed}: no eps^2 coefficient in report", True)
        return check
    c = Couplings(**DEFAULT_COUPLINGS)
    gauge, psi = random_bosonic_config(np.random.default_rng(cmd.seed))
    points = halton_points(seed=cmd.seed)
    forms = [quadratic_form(sample_gauge(gauge, x, EXPAND_ORDER),
                            sample_psi(psi, x, EXPAND_ORDER), c) for x in points]
    for n, value in zip((0, 2), exact):
        oracle = sum(f.grade(n) for f in forms) / len(forms)
        diff = _rel_diff(value, oracle)
        if not diff <= TOL_QUADRATIC_FORM:
            check.fail(f"seed {cmd.seed}: eps^2 grade {n} rel diff {diff:.2e}",
                       True)
    return check


def check_spectrum(cmd: Command, out: Outcome) -> Check:
    """Extracted masses vs the closed forms the report carries, which must
    themselves match the input couplings."""
    check = Check(attempted=1)
    report = _command_report(cmd, out, check)
    if report is None:
        return check
    k = cmd.couplings
    expected_closed = {
        "m_w": k["R"] * k["g"] / 2.0,
        "m_z": k["R"] * math.hypot(k["g"], k["gp"]) / 2.0,
        "m_e": k["h_e"] * k["R"],
    }
    try:
        spec = report["spectrum"]
        closed = spec["closed_form"]
        for name, value in expected_closed.items():
            if not _rel_diff(float(closed[name]), value) <= 1.0e-12:
                check.fail(f"seed {cmd.seed}: closed {name} does not match "
                           "the input couplings", True)
                return check
            diff = _rel_diff(float(spec[name]), float(closed[name]))
            if not diff <= TOL_MASS_REL:
                check.fail(f"seed {cmd.seed}: {name} rel diff {diff:.2e}", True)
        if not abs(float(spec["m_a"])) <= TOL_MASS_ZERO:
            check.fail(f"seed {cmd.seed}: m_a {spec['m_a']:.2e}", True)
    except (KeyError, TypeError, ValueError):
        check.fail(f"seed {cmd.seed}: masses missing from report", True)
    return check


CHECKS = {"verify": check_verify, "expand": check_expand,
          "spectrum": check_spectrum}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run(spec: dict, ready: float) -> dict:
    workload, seed, count = spec["workload"], spec["seed"], spec["commands"]
    tmp = Path(spec["tmpdir"])
    commands = build_commands(workload, seed, count, tmp / "plain")
    outcomes, wall = run_list(commands)
    result = {"ready": ready, "op_seconds": [o.seconds for o in outcomes],
              "wall_s": wall}

    if spec["trace"]:
        from ringbench import ring_microbench
        from tracer import Tracer

        commands = build_commands(workload, seed, count, tmp / "traced")
        tracer = Tracer()
        tracer.install()
        try:
            outcomes, traced_wall = run_list(commands, tracer)
        finally:
            tracer.restore()
        layers = tracer.metrics(count)
        layers.update(ring_microbench())
        layers["trace.overhead_frac"] = (traced_wall / wall - 1.0, "frac")
        result["layers"] = layers
        result["traced_wall_s"] = traced_wall
        result["self_s_total"] = sum(tracer.self_s.values())

    check = CHECKS[workload]
    checks = [check(c, o) for c, o in zip(commands, outcomes)]
    result.update(
        attempted=sum(c.attempted for c in checks),
        failed=[why for c in checks for why in c.failed],
        wrong=[why for c in checks for why in c.wrong],
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        machine=machine_info(),
    )
    return result


def main(argv: List[str]) -> int:
    ready = _ready()
    if argv[1:2] == ["probe"]:
        print(repr(ready))
        return 0
    if len(argv) != 3 or argv[1] != "run":
        print(__doc__, file=sys.stderr)
        return 2
    stray = [k for k in os.environ if k.startswith("EWCONTRACT_")]
    if stray:
        print(f"workload environment is not hermetic: {stray}", file=sys.stderr)
        return 2
    spec = json.loads(argv[2])
    result = run(spec, ready)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
