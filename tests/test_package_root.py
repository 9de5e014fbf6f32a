"""The package root exports the README's entry points and nothing else,
every public function and class of the package has a caller, and every
public member of a public class is called by a command."""

import ast
import contextlib
import importlib
import inspect
import io
import re
import sys
from pathlib import Path

import pytest

import ewcontract
from ewcontract import cli

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


def _public_members() -> dict:
    """The code of every public method, property (its getter) and
    classmethod of a public class of the package, by Class.member."""
    members = {}
    for path in sorted((ROOT / "src" / "ewcontract").glob("*.py")):
        module = importlib.import_module(f"ewcontract.{path.stem}")
        for cls in vars(module).values():
            if not (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and not cls.__name__.startswith("_")):
                continue
            for name, attr in vars(cls).items():
                fn = attr.fget if isinstance(attr, property) else getattr(
                    attr, "__func__", attr)
                if not name.startswith("_") and inspect.isfunction(fn):
                    members[f"{cls.__name__}.{name}"] = fn.__code__
    return members


def test_every_public_member_of_a_public_class_is_called_by_a_command(
        monkeypatch):
    """verify, expand --n 6 --order 8 and spectrum, run in-process at their
    defaults, call each public method, property and classmethod of the
    package's public classes; a call from a test is not a use."""
    members = _public_members()
    assert members
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in (
                ["verify"], ["expand", "--n", "6", "--order", "8"], ["spectrum"])]
    finally:
        sys.setprofile(None)
    assert codes == [cli.EXIT_OK] * 3
    assert sorted(name for name, code in members.items()
                  if code not in called) == []
