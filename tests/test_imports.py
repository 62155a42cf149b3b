"""Every name a ``modspec`` module imports is used in that module.

``__init__.py`` is exempt: its imports are the package's public names.
The library import also leaves the CLI out, so that the cost of building
its argument parser falls on CLI callers only.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modspec

SOURCES = sorted(
    p for p in Path(modspec.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


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


def test_library_import_leaves_out_the_cli():
    probe = "import sys, modspec; print(sorted({'argparse', 'modspec.cli'} & set(sys.modules)))"
    src = str(Path(modspec.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"
