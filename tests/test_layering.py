"""Imports inside the package point downward through its layers.

A module may import from a lower layer, or from its own package (the
ff_linalg modules import each other), but never from a module beside or
above it.  The `_`-prefixed names of ff_linalg, such as its elimination
kernel, stay inside that package, and no module uses numpy.random.
Every module's checks are explicit raises, which python -O keeps, and no
module calls the builtin id().  A word's uses take no determinant: `BlockStep`
checks its payload's when the step is made.
"""

import ast
import importlib.util
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


def _private_top_level_names(path: Path):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            names = []
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def _names_used(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in node.names)


def test_word_builder_uses_no_private_ff_linalg_name():
    """The searches reach the linear algebra only through its public API.

    Catches a private kernel such as `_rref_in_place` or `_kernel_rows`
    however it is reached: imported by name, or read as a module attribute.
    """
    private = {name for path in (ROOT / "ff_linalg").glob("*.py") for name in _private_top_level_names(path)}
    assert {"_rref_in_place", "_kernel_rows"} <= private
    used = set(_names_used(ast.parse((ROOT / "word_builder.py").read_text())))
    assert not used & private, sorted(used & private)


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


def test_checked_modules_have_no_assert():
    """python -O strips asserts, so every module's checks must raise typed errors."""
    lines = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted(ROOT.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not lines, lines


def test_no_module_calls_id():
    """No module calls the builtin id().

    Ids are reused once an object is collected, so an id-keyed cache could
    hand one object's entry to another.
    """
    calls = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted(ROOT.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"
    ]
    assert not calls, calls


def test_every_benchmark_traced_layer_resolves():
    """Each layer the benchmark traces still exists under the name it traces.

    `perfbench/spans.py` reads a class's layer with `owner.__dict__[attr]` and
    a module's with `getattr`, so deleting or renaming a traced layer fails here.
    """
    path = ROOT.parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        name
        for name, owner, attr, _ in spans.TRACED
        if not (attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr))
    ]
    assert spans.TRACED and not missing, missing


def _calls(fn: ast.AST):
    """The names of everything `fn`'s body calls, as a plain name or as an attribute."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            func = node.func
            yield func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_uses_of_a_word_take_no_determinant():
    """The per-use block-step checks stay O(1): no determinant, no `check_payload`.

    `check_block_step` and its callers, which read a word each time it is
    used, must not put back the payload re-check that `BlockStep` made once.
    """
    consumers = {
        "group_model.py": {"check_block_step", "evaluate_word", "word_cost"},
        "lower_bound.py": {"potential_trace"},
    }
    found, hits = set(), []
    for module, names in consumers.items():
        for node in ast.parse((ROOT / module).read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name in names:
                found.add(node.name)
                called = set(_calls(node)) & {"det", "_compute_det", "check_payload", "embed"}
                hits += [f"{module}:{node.name} calls {name}" for name in sorted(called)]
    assert found == set().union(*consumers.values())
    assert not hits, hits
