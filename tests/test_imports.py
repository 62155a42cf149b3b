"""Every name a ``modspec`` module imports is used in that module, every
function it defines is referenced somewhere, and no function takes a
module beside an operand it could read the module off.

A function or method counts as referenced when its name occurs in
``src/``, ``tests/`` or ``perfbench/`` as a name, an attribute, an imported
name or a word of a string other than a docstring (``perfbench`` looks
functions up by dotted strings); dunder methods are exempt.

``import modspec`` loads no submodule: the package's public names load
lazily, so the cost of building the CLI's argument parser falls on CLI
callers only, and a CLI process loads only the modules its command runs.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import modspec

PACKAGE_FILES = sorted(Path(modspec.__file__).parent.glob("*.py"))
SUBMODULES = [f"modspec.{p.stem}" for p in PACKAGE_FILES if p.name != "__init__.py"]
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


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=[p.name for p in PACKAGE_FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# each of these knows its module: a submodule its parent, a point its
# submodule's parent, and an open set or a section its spectrum's module
OPERANDS = {"Submodule", "PrimeSubmodule", "OpenSet", "Spectrum", "Section"}


def module_beside_operand(source: str) -> list[str]:
    """Functions with a parameter annotated ``FgModule`` beside one
    annotated with an operand that already names the module: a caller
    could pass a module that disagrees with the operand."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            names = {
                n.id
                for arg in args
                if arg.annotation is not None
                for n in ast.walk(arg.annotation)
                if isinstance(n, ast.Name)
            }
            if "FgModule" in names and names & OPERANDS:
                out.append(node.name)
    return out


def test_checker_sees_a_module_beside_its_operand():
    source = (
        "def index(sub: Submodule, module: FgModule | None = None) -> int:\n    pass\n\n\n"
        "def spans(module: FgModule, f: int) -> bool:\n    pass\n\n\n"
        "def stalk_of(spectrum: Spectrum, p: int):\n    pass\n\n\n"
        "class A:\n    def over(self, module: FgModule, u: OpenSet):\n        pass\n"
    )
    assert module_beside_operand(source) == ["index", "over"]


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=[p.name for p in PACKAGE_FILES])
def test_no_module_beside_its_operand(path):
    assert module_beside_operand(path.read_text(encoding="utf-8")) == []


# fibers live as long as their module object, so a module made at import
# would keep them past every cache_clear and warm a cold query
MODULE_MAKERS = {
    "FgModule", "from_cyclic_orders", "normalize", "prufer_module", "zero_module",
    "direct_sum", "direct_sum_with_embeddings",
}


def import_time_modules(source: str) -> list[str]:
    """``line name`` of each call to a module maker that runs on import: in
    a module-level statement, a class body, a decorator or a default, but
    not in a function body."""
    out = []

    def visit(node):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in MODULE_MAKERS:
                out.append(f"{node.lineno} {name}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults = [*node.args.defaults, *filter(None, node.args.kw_defaults)]
            run = [*getattr(node, "decorator_list", ()), *defaults]
        else:
            run = ast.iter_child_nodes(node)
        for child in run:
            visit(child)

    visit(ast.parse(source))
    return out


def test_checker_sees_a_module_made_on_import():
    source = (
        "Z6 = FgModule(ZZ, (6,))\n"
        "def make(m=fgmodules.zero_module(ZZ)):\n    return FgModule(ZZ, (2,))\n"
        "class A:\n    CORPUS = [normalize(ZZ, 1, [])]\n\n"
        "    def pair(self, a, b):\n        return direct_sum(a, b)\n"
        "if True:\n    TABLE = {2: prufer_module(2)}\n"
        "EMPTY = lambda: zero_module(ZZ)\n"
    )
    assert import_time_modules(source) == [
        "1 FgModule", "2 zero_module", "5 normalize", "10 prufer_module"
    ]


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=[p.name for p in PACKAGE_FILES])
def test_no_module_is_made_on_import(path):
    assert import_time_modules(path.read_text(encoding="utf-8")) == []


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
        for path in PACKAGE_FILES
    }
    assert unreferenced_functions(defining, referencing) == []


def loaded_after(statement: str, names: list[str]) -> list[str]:
    """Which of ``names`` a fresh interpreter has in sys.modules after
    running ``statement`` (one or more lines)."""
    probe = f"import sys\n{statement}\nprint(sorted(set({names!r}) & set(sys.modules)))"
    src = str(Path(modspec.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    return ast.literal_eval(out.stdout.splitlines()[-1])


def test_library_import_leaves_out_the_cli():
    assert loaded_after("import modspec", ["argparse", *SUBMODULES]) == []


def test_cli_import_loads_no_fractions():
    # no module element is a fraction: the Pruefer group has no elements
    assert loaded_after("import modspec.cli", ["fractions"]) == []


# ---------------------------------------------------------------------------
# a process loads only the modules its command runs
# ---------------------------------------------------------------------------

CLI_BASE = ["modspec.arith", "modspec.cli", "modspec.fgmodules", "modspec.lattices",
            "modspec.spectrum"]
SHEAF = ["modspec.localization", "modspec.sheaf"]
COMMAND_ARGS = {
    "spec": [],
    "radical": ["--submodule", "4"],
    "colon": ["--submodule", "2"],
    "pradical": [],
    "localize": ["--at", "2"],
    "sheaf": ["--open", "D(2)"],
    "cover": ["--f", "1", "--hs", "4,9"],
    "iso": ["--f", "2", "--g", "10"],
    "verify": ["--suite", "3.1"],
}
COMMAND_EXTRA = {"localize": ["modspec.localization"], "sheaf": SHEAF, "cover": SHEAF, "iso": SHEAF}


def test_cli_import_loads_the_base_set():
    assert loaded_after("import modspec.cli", SUBMODULES) == CLI_BASE


def test_help_loads_the_base_set():
    statement = (
        "from modspec.cli import main\ntry:\n    main(['--help'])\nexcept SystemExit:\n    pass"
    )
    assert loaded_after(statement, SUBMODULES) == CLI_BASE


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_each_command_loads_only_what_it_runs(tmp_path, command):
    path = tmp_path / "z12.json"
    path.write_text(
        '{"ring": {"kind": "Z"}, "module": {"kind": "invariant_factors", "factors": [12]}}'
    )
    argv = ["--quiet", command, str(path), *COMMAND_ARGS[command]]
    statement = f"from modspec.cli import main\nassert main({argv!r}) == 0"
    expected = SUBMODULES if command == "verify" else CLI_BASE + COMMAND_EXTRA.get(command, [])
    assert loaded_after(statement, SUBMODULES) == sorted(expected)


# the names ``modspec`` exports, by home module
EXPORTS = {
    "arith": """BezoutDecomposition FactorBoundExceeded Ideal NotInRadicalError Ring
        RingMismatchError ZZ Zmod bezout_decompose ideal ideal_combine ideal_radical
        is_prime_ideal radical_membership_witness""",
    "corpus": "finite_corpus full_corpus prufer_corpus",
    "fgmodules": """CapExceededError FgModule LinearMap ModElement Submodule
        UnsupportedModuleError all_submodules colon direct_sum direct_sum_with_embeddings
        from_cyclic_orders iso_class_equal normalize prufer_module scalar_colon
        scalar_multiple_submodule submodule_from_generators zero_module""",
    "localization": """CorrespondenceError LocalizedModule MultSet PrimeCorrespondence
        TransferReport localize localize_bruteforce prime_correspondence relocalize
        verify_localization_transfer""",
    "sheaf": """CoverDecomposition CoverError Germ IsoCriterionResult PsiMapResult Section
        SectionSpace SheafAxiomsReport StalkResult cover_decompose iso_criterion psi_map
        restrict sections sheaf_axioms_check stalk""",
    "spectrum": """ClosedSet NaturalMapResult OpenSet PradicalResult PrimeSubmodule
        PropertyViolation Spectrum StrategyMismatchError basic_open is_pradical
        is_prime_submodule natural_map prime_radical spec_enumerate variety""",
}


def test_every_public_name_resolves_to_its_home_object():
    names = []
    for home, text in EXPORTS.items():
        module = importlib.import_module(f"modspec.{home}")
        for name in text.split():
            assert getattr(modspec, name) is getattr(module, name), name
            names.append(name)
    assert sorted(modspec.__all__) == sorted(names)
    assert set(names) <= set(dir(modspec))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        modspec.no_such_name
