"""Lint for the tolerance policy: the --tol-* flags govern the checks a report
prints, and every other guard uses one of the three constants in linalg.

The library keeps two float tolerance keywords, each set by some caller;
anything else that needs a tolerance reads STRUCTURAL_TOL, NUMERIC_TOL or
SATURATION_TOL, and no tolerance is written out as a literal.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "kdframes"
ALLOWED_KEYWORDS = {
    "Frame.__post_init__(norm_tol)",
    "is_equiangular(tol)",
}
CONSTANTS = {"STRUCTURAL_TOL", "NUMERIC_TOL", "SATURATION_TOL"}


def _modules():
    for path in sorted(SOURCE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def _functions(node, prefix=""):
    """(qualified name, function node) for every function, methods included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")


def test_tolerance_keywords_are_the_two_allowed():
    found = set()
    for _, tree in _modules():
        for name, function in _functions(tree):
            args = function.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                # a Tolerances value carries the --tol-* flags, it is not a keyword
                annotation = ast.unparse(arg.annotation) if arg.annotation else ""
                if arg.arg.endswith("tol") and annotation != "Tolerances":
                    found.add(f"{name}({arg.arg})")
    assert found == ALLOWED_KEYWORDS


def _constant_definitions(tree) -> set[int]:
    """ids of the literal values assigned to the three tolerance constants."""
    return {
        id(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id in CONSTANTS for t in node.targets)
    }


def test_no_tolerance_literals_outside_linalg_constants():
    offenders = []
    for filename, tree in _modules():
        allowed = _constant_definitions(tree) if filename == "linalg.py" else set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0.0 < abs(node.value) < 1e-6
                and id(node) not in allowed
            ):
                offenders.append(f"{filename}:{node.lineno}: {node.value!r}")
    assert offenders == []
