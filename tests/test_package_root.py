"""The package root exports the README's entry points and nothing else."""

import contextlib
import io
import re
from pathlib import Path

import pytest

import ewcontract

README = Path(__file__).resolve().parents[1] / "README.md"


def test_root_exports_only_the_documented_entry_points():
    assert set(ewcontract.__all__) == {"Couplings", "mass_spectrum", "__version__"}
    for name in ewcontract.__all__:
        assert hasattr(ewcontract, name)


def test_readme_quick_start_runs():
    quick_start = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", quick_start, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    m_w = float(out.getvalue().split()[0])
    assert m_w == pytest.approx(0.1625, rel=1e-9)
