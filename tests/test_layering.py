"""Imports inside the package point downward through its layers.

A module may import from a lower layer, or from its own package (the
ff_linalg modules import each other), but never from a module beside or
above it.  The `_`-prefixed names of ff_linalg, such as its elimination
kernel, stay inside that package, and no module uses numpy.random.
Checks in lower_bound are explicit raises, which python -O keeps.
"""

import ast
from pathlib import Path

import slword

LAYERS = [
    {"errors"},
    {"ff_linalg"},
    {"group_model", "bruhat"},
    {"word_builder", "lower_bound"},
    {"cli"},
]
RANK = {name: rank for rank, names in enumerate(LAYERS) for name in names}
ROOT = Path(slword.__file__).parent


def _imports(path: Path):
    """(unit, imported names) for each import from inside the package at `path`."""
    package = ("slword",) + path.relative_to(ROOT).parent.parts
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            base = package[: len(package) - node.level + 1]
            target = base + tuple(node.module.split(".") if node.module else ())
        elif node.module and node.module.split(".")[0] == "slword":
            target = tuple(node.module.split("."))
        else:
            continue
        if len(target) > 1:
            yield target[1], [alias.name for alias in node.names]


def _modules():
    for path in sorted(ROOT.rglob("*.py")):
        rel = path.relative_to(ROOT).parts
        if rel == ("__init__.py",):
            continue  # the package facade re-exports every layer
        yield path, rel[0].removesuffix(".py")


def test_every_module_has_a_layer():
    assert {unit for _, unit in _modules()} == set(RANK)


def test_imports_point_downward():
    upward = []
    for path, unit in _modules():
        for target, _ in _imports(path):
            if target != unit and RANK[target] >= RANK[unit]:
                upward.append(f"{path.relative_to(ROOT)} imports {target}")
    assert not upward, upward


def test_private_ff_linalg_names_stay_inside_it():
    leaked = []
    for path, unit in _modules():
        for target, names in _imports(path):
            private = [name for name in names if name.startswith("_")]
            if target == "ff_linalg" != unit and private:
                leaked.append(f"{path.relative_to(ROOT)} imports {private} from ff_linalg")
    assert not leaked, leaked


def _numpy_random_uses(tree: ast.AST):
    """Line numbers where a module imports or reaches into numpy.random."""
    numpy_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "numpy"
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = node.attr == "random" and isinstance(node.value, ast.Name) and node.value.id in numpy_names
        elif isinstance(node, ast.Import):
            hit = any(alias.name.startswith("numpy.random") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = module.startswith("numpy.random") or (
                module == "numpy" and any(alias.name == "random" for alias in node.names)
            )
        else:
            hit = False
        if hit:
            yield node.lineno


def test_no_module_uses_numpy_random():
    """Seeded draws come from the stdlib `random`; loading numpy.random costs memory."""
    uses = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted(ROOT.rglob("*.py"))
        for line in _numpy_random_uses(ast.parse(path.read_text()))
    ]
    assert not uses, uses


def test_lower_bound_has_no_assert():
    """python -O strips asserts, so lower_bound's checks must raise typed errors."""
    path = ROOT / "lower_bound.py"
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert not lines, [f"lower_bound.py:{line}" for line in lines]
