"""Every name a ``modspec`` module imports is used in that module, and
every function it defines is referenced somewhere.

``__init__.py`` is exempt from the import check: its imports are the
package's public names.  A function or method counts as referenced when
its name occurs in ``src/``, ``tests/`` or ``perfbench/`` as a name, an
attribute, an imported name or a word of a string other than a docstring
(``perfbench`` looks functions up by dotted strings); dunder methods are
exempt.  The library import also leaves the CLI out, so that the cost of
building its argument parser falls on CLI callers only.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import modspec

SOURCES = sorted(
    p for p in Path(modspec.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
REPO = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_checker_sees_an_unused_import():
    source = "import os\nfrom math import gcd, lcm\n\nprint(os.sep, lcm(2, 3))\n"
    assert unused_imports(source) == ["gcd"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_functions(defining: dict[str, str], referencing: list[str]) -> list[str]:
    """``label:line name`` of each function or method defined in the
    ``defining`` sources whose name no ``referencing`` source mentions."""
    mentioned = set()
    for source in referencing:
        tree = ast.parse(source)
        docstrings = {
            id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)
        }
        for node in ast.walk(tree):
            if id(node) in docstrings:
                continue
            if isinstance(node, ast.Name):
                mentioned.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
            elif isinstance(node, ast.alias):
                mentioned.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                mentioned.update(re.findall(r"[A-Za-z_]\w*", node.value))
    out = []
    for label, source in defining.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                dunder = name.startswith("__") and name.endswith("__")
                if not dunder and name not in mentioned:
                    out.append(f"{label}:{node.lineno} {name}")
    return sorted(out)


def test_checker_sees_an_unreferenced_function():
    defining = {
        "m.py": (
            "def used():\n    pass\n\n\ndef unused():\n    used()\n\n\n"
            "class A:\n    def __len__(self):\n        return 0\n\n"
            "    def method(self):\n        pass\n\n"
            "    def by_string(self):\n        pass\n"
        )
    }
    caller = '"""unused"""\nA().method()\nTRACED = ("m.A.by_string",)\n'
    assert unreferenced_functions(defining, [defining["m.py"], caller]) == ["m.py:5 unused"]


def test_every_function_is_referenced():
    referencing = [
        path.read_text(encoding="utf-8")
        for tree in ("src", "tests", "perfbench")
        for path in sorted((REPO / tree).rglob("*.py"))
    ]
    defining = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(Path(modspec.__file__).parent.glob("*.py"))
    }
    assert unreferenced_functions(defining, referencing) == []


def loaded_after(statement: str, names: list[str]) -> list[str]:
    """Which of ``names`` a fresh interpreter has in sys.modules after
    running ``statement``."""
    probe = f"import sys; {statement}; print(sorted(set({names!r}) & set(sys.modules)))"
    src = str(Path(modspec.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    return ast.literal_eval(out.stdout.strip())


def test_library_import_leaves_out_the_cli():
    assert loaded_after("import modspec", ["argparse", "modspec.cli"]) == []


def test_cli_import_loads_no_fractions():
    # no module element is a fraction: the Pruefer group has no elements
    assert loaded_after("import modspec.cli", ["fractions"]) == []
