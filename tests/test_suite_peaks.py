"""The per-suite peak memory of tools/suite_peaks.py."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "suite_peaks", _ROOT / "tools" / "suite_peaks.py")
suite_peaks = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(suite_peaks)


def test_one_suite_is_measured_in_a_child(capsys):
    code = suite_peaks.main([str(_ROOT / "src"), "--count", "3", "--suite", "group"])
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["suite", "peak", "MiB", "wall", "s", "verdict"]
    name, mib, wall, verdict = row.split()
    assert (code, name, verdict) == (0, "group", "pass")
    # a child that imports numpy holds more than 10 MiB and needs some time
    assert float(mib) > 10.0 and float(wall) > 0.0
