"""The package root exports the README's entry points and nothing else,
and every public function and class of the package has a caller."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

import ewcontract

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def test_every_public_function_and_class_has_a_caller():
    """Each public module-level def and class of the package is read as a
    name or an attribute somewhere in the package or the benchmark code;
    imports and tests are not uses."""
    package = sorted((ROOT / "src" / "ewcontract").glob("*.py"))
    bench = [p for p in sorted((ROOT / "perfbench").glob("*.py"))
             if not p.name.startswith("test_")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in package + bench}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    public = {f"{path.stem}.{node.name}" for path in package
              for node in trees[path].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    assert public
    assert sorted(name for name in public
                  if name.split(".")[1] not in used) == []
