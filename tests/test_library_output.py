"""The library never prints: only the command-line front end writes to the
standard streams; everything else reports through return values, exceptions
or ``logging.getLogger("nablats")``.  No module rebinds a global: what one
call hands the next goes through arguments and return values.  And every
public function has a reader outside the package's ``__init__``."""

import ast
from pathlib import Path

import nablats

PACKAGE = Path(nablats.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
STREAMS = {"stdout", "stderr", "__stdout__", "__stderr__"}


def stream_uses(path: Path) -> list[str]:
    """Each print call and each reference to sys.stdout or sys.stderr in a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            found.append(f"print at line {node.lineno}")
        elif (isinstance(node, ast.Attribute) and node.attr in STREAMS
              and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            found.append(f"sys.{node.attr} at line {node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            found += [f"from sys import {a.name} at line {node.lineno}"
                      for a in node.names if a.name in STREAMS]
    return found


def test_only_the_cli_writes_to_the_standard_streams():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "cli.py" in modules and len(modules) > 5
    offenders = {p.name: stream_uses(p) for p in modules if p.name != "cli.py"}
    assert {name: uses for name, uses in offenders.items() if uses} == {}


def test_the_scan_sees_the_cli_output():
    uses = stream_uses(PACKAGE / "cli.py")
    assert any(u.startswith("print") for u in uses)
    assert any(u.startswith("sys.stderr") for u in uses)


def test_the_scan_catches_each_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import sys\n"
        "from sys import stderr\n"
        "print('x')\n"
        "sys.stdout.write('y')\n"
        "def f(): print('z', file=sys.stderr)\n"
    )
    assert sorted(stream_uses(module)) == [
        "from sys import stderr at line 2",
        "print at line 3",
        "print at line 5",
        "sys.stderr at line 5",
        "sys.stdout at line 4",
    ]


def global_statements(path: Path) -> list[str]:
    """Each ``global`` statement in a module."""
    return [f"global {', '.join(node.names)} at line {node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(), str(path))) if isinstance(node, ast.Global)]


def test_no_module_rebinds_a_global():
    offenders = {p.name: global_statements(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_the_global_scan_catches_each_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "x = y = 0\n"
        "def f():\n"
        "    global x\n"
        "    x = 1\n"
        "class C:\n"
        "    def g(self):\n"
        "        global x, y\n"
    )
    assert sorted(global_statements(module)) == ["global x at line 3", "global x, y at line 7"]


def names_read(path: Path) -> set[str]:
    """Each name a module reads: as a Name, an Attribute, an exact string
    constant or an import (a dotted import also by each of its parts)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                found.update(alias.name.split("."))
    return found


def test_every_public_function_has_a_reader():
    # the CLI and library modules, the scripts, the benchmark and the paper's
    # claims; the package's __init__ only re-exports
    places = [p for p in sorted((ROOT / "src" / "nablats").glob("*.py")) if p.name != "__init__.py"]
    places += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    places.append(ROOT / "tests" / "test_acceptance.py")
    read = set().union(*map(names_read, places))
    functions = [name for name in nablats.__all__
                 if callable(getattr(nablats, name)) and not isinstance(getattr(nablats, name), type)]
    assert len(functions) > 20
    assert [name for name in functions if name not in read] == []


def test_the_reader_scan_catches_each_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os.path\n"
        "from json import loads as parse_json\n"
        "def defined(): return used(os.sep, 'a_constant', 'not exact')\n"
    )
    assert names_read(module) == {"os", "path", "loads", "used", "sep", "a_constant", "not exact"}
