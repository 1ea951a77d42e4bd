"""Lint for the public surface: every public name is used by a command, a
script or another library function, or it checks a stated paper result.

A public top-level function or class of ``src/kdframes`` counts as used when
some other top-level statement of the package (``__init__`` aside) or of
``scripts/`` names it. A public method or property counts as used only
through attribute access, so that a local variable of the same name cannot
hide it. The click commands are the entry points and need no caller.

The reference computations of ``tests/reference.py`` are the tests' oracle
and have no twin of the same name in the package.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import kdframes

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "kdframes"

# Public names no command or script calls, kept because a test checks the
# paper result they state; each maps to the criterion that uses it.
PAPER_RESULTS = {
    "kd_frobenius_norm": "Frobenius norm of the KD matrix is (d/n) times the Gram norm "
    "(test_bounds TestKdFrobenius)",
    "singular_interval": "trace/Frobenius interval for singular values "
    "(test_acceptance criterion 7, test_bounds TestSingularInterval)",
    "pure_state_margin": "pure-state spectral bound lies below 1 exactly when n > d "
    "(test_acceptance criterion 8, test_bounds TestPureStateMargin)",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _modules() -> dict[str, ast.Module]:
    return {path.stem: _parse(path) for path in sorted(SOURCE.glob("*.py"))}


def _scripts() -> list[ast.Module]:
    return [_parse(path) for path in sorted((ROOT / "scripts").glob("*.py"))]


def _loads(node) -> tuple[set[str], set[str]]:
    """(names, attribute names) read anywhere under node."""
    names, attributes = set(), set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            attributes.add(child.attr)
    return names, attributes


def _is_click_command(function) -> bool:
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in function.decorator_list
    )


def _unused() -> set[str]:
    library = [
        node for module, tree in _modules().items() if module != "__init__" for node in tree.body
    ]
    definitions = [
        node
        for node in library
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not (isinstance(node, ast.FunctionDef) and _is_click_command(node))
    ]
    statements = library + [node for tree in _scripts() for node in tree.body]
    loads = {id(node): _loads(node) for node in statements}
    unused = set()
    for definition in definitions:
        name = definition.name
        others = [loads[id(node)] for node in statements if node is not definition]
        if not any(name in names or name in attributes for names, attributes in others):
            unused.add(name)
        if not isinstance(definition, ast.ClassDef):
            continue
        for method in definition.body:
            if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                elsewhere = others + [_loads(m) for m in definition.body if m is not method]
                if not any(method.name in attributes for _, attributes in elsewhere):
                    unused.add(f"{name}.{method.name}")
    return unused


def test_every_public_name_is_used_or_a_paper_result():
    assert _unused() == set(PAPER_RESULTS)


def test_all_lists_exactly_the_imported_public_names():
    tree = _modules()["__init__"]
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    (exported,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    ]
    assert len(exported) == len(set(exported))
    assert set(exported) == imported


def test_reference_oracle_has_no_twin_in_the_package():
    reference = _parse(ROOT / "tests" / "reference.py")
    defined = {
        node.name
        for node in reference.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    namespaces = [kdframes] + [
        importlib.import_module(f"kdframes.{info.name}")
        for info in pkgutil.iter_modules(kdframes.__path__)
    ]
    assert {name for name in defined for ns in namespaces if hasattr(ns, name)} == set()


def test_one_json_writer():
    """JSON text with indentation comes only from ``_jsontext``: no call in the
    package passes ``indent=``."""
    calls = [
        f"{name}.py:{node.lineno}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords)
    ]
    assert calls == []
