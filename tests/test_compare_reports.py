"""The report comparison of tools/compare_reports.py."""

import argparse
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"
_SPEC = importlib.util.spec_from_file_location("compare_reports", _PATH)
compare_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_reports)


def _report(residual=1.0e-16, passed=True, timestamp="t0"):
    return {"timestamp": timestamp, "seed": 3, "passed": passed,
            "suites": {"invariance": {"residual": residual, "passed": passed,
                                      "details": {"t_values": [0.1, 0.01]}}}}


def test_identical_reports_differ_only_in_the_timestamp():
    tally = compare_reports.Tally()
    tally.add(3, (0, _report(), ""), (0, _report(timestamp="t1"), ""))
    assert (tally.identical, tally.total) == (4, 4)
    assert not (tally.changed or tally.verdicts or tally.structure)


def test_a_changed_number_is_measured_and_located():
    tally = compare_reports.Tally()
    tally.add(3, (0, _report(4.0e-16), ""), (0, _report(3.0e-16), ""))
    assert (tally.identical, tally.total) == (3, 4)
    assert tally.largest["relative"] == (
        pytest.approx(0.25), "seed 3 suites.invariance.residual")
    assert tally.largest["absolute"][0] == pytest.approx(1.0e-16)
    assert tally.changed == {"suites.invariance.residual": 1}
    assert not (tally.verdicts or tally.structure)


def test_verdict_and_structure_changes_are_listed():
    tally = compare_reports.Tally()
    tally.add(3, (0, _report(), ""), (1, _report(passed=False), ""))
    assert tally.verdicts == ["seed 3: exit code 0 -> 1",
                              "seed 3: passed True -> False",
                              "seed 3: suites.invariance.passed True -> False"]
    tally.add(4, (0, _report(), ""), (0, None, ""))
    tally.add(5, (0, {"seed": 5}, ""), (0, {"seed": 5, "extra": 1}, ""))
    assert tally.structure == ["seed 4: report written by one tree only",
                               "seed 5: extra in one report only"]


def test_stdout_differences_are_listed():
    """A changed printed line counts as a report difference; the
    timestamp line of expand's dump is masked before the comparison."""
    dump = '{\n  "seed": 3,\n  "timestamp": "%s"\n}\n'
    masked = [compare_reports.mask_timestamp(dump % t)
              for t in ("2026-01-01T00:00:00Z", "2026-01-02T00:00:00Z")]
    assert masked[0] == masked[1] == '{\n  "seed": 3,\n  "timestamp": *\n}\n'
    tally = compare_reports.Tally()
    tally.add(3, (0, _report(), masked[0]), (0, _report(), masked[1]))
    assert not tally.structure
    table = "quantity\nm_w 0.3250000000\nm_z 0.3700000000\n"
    swapped = "quantity\nm_z 0.3700000000\nm_w 0.3250000000\n"
    tally.add(4, (0, _report(), table), (0, _report(), swapped))
    tally.add(5, (0, _report(), table), (0, _report(), table + "extra\n"))
    assert tally.structure == [
        "seed 4: stdout line 2 'm_w 0.3250000000\\n' -> 'm_z 0.3700000000\\n'",
        "seed 5: stdout line 4 '' -> 'extra\\n'"]
    assert (tally.identical, tally.total) == (12, 12)


def test_seed_ranges():
    assert compare_reports.seed_range("0-29") == range(30)
    assert compare_reports.seed_range("7") == range(7, 8)
    for bad in ("x", "5-2", "-1"):
        with pytest.raises(argparse.ArgumentTypeError):
            compare_reports.seed_range(bad)


def test_surface_runs_cover_help_and_environment_errors():
    argvs = [argv for _, argv, _ in compare_reports.SURFACE]
    for command in ([], ["verify"], ["spectrum"], ["expand"]):
        assert argvs.count([*command, "--help"]) == 2  # COLUMNS 80 and 133
    errors = {label: env for label, argv, env in compare_reports.SURFACE
              if "--help" not in argv}
    assert errors == {"expand --n 0 --seed abc": {},
                      "expand --n 0 --order abc": {},
                      "spectrum --format xml": {}}


def test_surface_differences_name_the_run_and_the_stream():
    """Exit code, stdout and stderr are each compared; an equal run gives
    no line."""
    usage = "usage: ewcontract [-h]\n"
    error = "error: argument --seed: invalid int value: 'abc'\n"
    old = {"help": (0, usage, ""), "seed": (2, "", error)}
    assert compare_reports.surface_differences(old, dict(old)) == []
    new = {"help": (0, usage.replace("[-h]", "[-h] {verify}"), ""),
           "seed": (1, "", error + "Traceback\n")}
    assert compare_reports.surface_differences(old, new) == [
        "help: stdout line 1 'usage: ewcontract [-h]\\n' -> "
        "'usage: ewcontract [-h] {verify}\\n'",
        "seed: exit code 2 -> 1",
        "seed: stderr line 2 '' -> 'Traceback\\n'"]


def test_a_surface_difference_fails_the_comparison(tmp_path, monkeypatch,
                                                   capsys):
    trees = []
    for tag in ("old", "new"):
        (tmp_path / tag / "ewcontract").mkdir(parents=True)
        (tmp_path / tag / "ewcontract" / "cli.py").write_text("")
        trees.append(str(tmp_path / tag))
    monkeypatch.setattr(compare_reports, "run",
                        lambda src, tag, command, seed, workdir: (0, None, ""))
    # only the --seed abc run names the tree in its stderr
    monkeypatch.setattr(compare_reports, "run_cli", lambda src, argv, env: (
        2, "", f"error: {src.name} abc\n" if "--seed" in argv else ""))
    assert compare_reports.main([*trees, "--seeds", "0"]) == 1
    out = capsys.readouterr().out
    assert f"surface: 10 of {len(compare_reports.SURFACE)} runs" in out
    assert ("  report differs, expand --n 0 --seed abc: stderr "
            "line 1 'error: old abc\\n' -> 'error: new abc\\n'") in out
