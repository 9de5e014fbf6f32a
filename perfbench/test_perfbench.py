"""Self-checks of the benchmark (not part of the repository's tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import workload  # noqa: E402
from tracer import LAYERS, Tracer, _package_modules  # noqa: E402

COUNTS = ("jets.jet_new", "jets.mul", "jets.matmul", "lagrangian.density_evals",
          "fields.samples", "spectrum.expand_calls", "spectrum.evals_per_expand")


@pytest.fixture(autouse=True)
def _hermetic(monkeypatch):
    for key in [k for k in os.environ if k.startswith("EWCONTRACT_")]:
        monkeypatch.delenv(key)


def traced_run(name: str, seed: int, count: int, tmp: Path):
    commands = workload.build_commands(name, seed, count, tmp)
    tracer = Tracer()
    tracer.install()
    try:
        outcomes, wall = workload.run_list(commands, tracer)
    finally:
        tracer.restore()
    return tracer, outcomes, wall


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced runs of the same short lists, keyed by workload."""
    runs = {}
    for name, count in (("spectrum", 2), ("expand", 1)):
        runs[name] = [traced_run(name, 3, count,
                                 tmp_path_factory.mktemp(f"{name}{i}"))
                      for i in range(2)]
    return runs


@pytest.mark.parametrize("name", ["spectrum", "expand"])
def test_traced_counts_repeat_exactly(traced, name):
    first, second = (t.metrics(1) for t, _, _ in traced[name])
    for key in COUNTS:
        assert first[key] == second[key], key
    assert first["lagrangian.density_evals"][0] > 0
    assert first["jets.mul"][0] > 0


@pytest.mark.parametrize("name", ["spectrum", "expand"])
def test_self_times_sum_to_traced_wall(traced, name):
    for tracer, outcomes, wall in traced[name]:
        total = sum(tracer.self_s.values())
        assert abs(total - wall) <= 0.01 * wall
        assert all(o.error is None and o.rc == 0 for o in outcomes)


@pytest.mark.parametrize("name", ["spectrum", "expand"])
def test_group_and_suites_idle_outside_verify(traced, name):
    metrics = traced[name][0][0].metrics(1)
    assert metrics["group.self_s"][0] == 0.0
    assert metrics["suites.self_s"][0] == 0.0


def _bindings():
    from ewcontract.jets import Jet, JetMatrix2

    snapshot = {}
    for module in _package_modules():
        for key, value in vars(module).items():
            snapshot[(module.__name__, key)] = value
            if isinstance(value, dict) and key != "__builtins__":
                for dkey, dvalue in value.items():
                    snapshot[(module.__name__, key, dkey)] = dvalue
    for cls in (Jet, JetMatrix2):
        for key, value in vars(cls).items():
            snapshot[(cls.__name__, key)] = value
    return snapshot


def test_restore_puts_back_every_original():
    import ewcontract.cli
    import ewcontract.suites

    before = _bindings()
    main = ewcontract.cli.main
    registry = dict(ewcontract.suites.REGISTRY)
    tracer = Tracer()
    tracer.install()
    try:
        assert ewcontract.cli.main is not main
        assert ewcontract.suites.REGISTRY["cubic"] is not registry["cubic"]
        assert ewcontract.spectrum.sample_gauge is not before[
            ("ewcontract.fields", "sample_gauge")]
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert ewcontract.cli.main is main


def test_every_layer_is_wrapped():
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = {layer for layer in LAYERS
                   if any(hasattr(value, "__wrapped__") for value in
                          vars(sys.modules[f"ewcontract.{layer}"]).values())}
    finally:
        tracer.restore()
    assert wrapped == set(LAYERS)


@pytest.mark.parametrize("report", [None, "", '{"suites": {"cubic": {}}}'])
def test_verify_oracle_reads_printed_verdicts_without_report(tmp_path, report):
    lines = "".join(
        f"suite {name:12s} {'FAIL' if name == 'cubic' else 'pass'}  "
        f"residual {5e-8 if name == 'cubic' else 1e-13:.3e}  "
        f"(tolerance {1e-8 if name == 'cubic' else 1e-12:.1e})\n"
        for name in workload.SUITES)
    cmd = workload.Command(2, [], tmp_path / "report.json")
    if report is not None:
        cmd.report.write_text(report)
    out = workload.Outcome(1.0, None, "TypeError: not serializable", lines)
    check = workload.check_verify(cmd, out)
    assert check.attempted == 9
    assert len(check.failed) == 2
    assert check.wrong == []


def test_spectrum_oracle_flags_a_wrong_mass(tmp_path):
    couplings = {"g": 0.7, "gp": 0.4, "R": 1.1, "h_e": 1.5}
    closed = {"m_w": 0.385, "m_z": 1.1 * (0.7**2 + 0.4**2) ** 0.5 / 2,
              "m_a": 0.0, "m_e": 1.65}
    spectrum = dict(closed, closed_form=closed)
    spectrum["m_z"] *= 1.0 + 1e-6
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"spectrum": spectrum}))
    cmd = workload.Command(0, [], path, couplings)
    check = workload.check_spectrum(cmd, workload.Outcome(0.1, 0, None, ""))
    assert len(check.wrong) == 1 and "m_z" in check.wrong[0]


def _run_bench(cwd: Path, *args: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_result_line_matches_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run_bench(ROOT, "--workload", "spectrum", "--seed", "5",
                      "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".tmp", "__pycache__"))
    done = _run_bench(tmp_path, "--workload", "spectrum", "--seed", "0",
                      "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "{" not in done.stdout


@pytest.mark.parametrize("check", [workload.check_expand,
                                   workload.check_spectrum])
def test_failed_command_is_a_failed_unit_not_a_wrong_output(tmp_path, check):
    cmd = workload.Command(0, [], tmp_path / "missing.json")
    result = check(cmd, workload.Outcome(0.1, 2, None, "error: bad flag"))
    assert result.attempted == 1
    assert len(result.failed) == 1 and result.wrong == []
