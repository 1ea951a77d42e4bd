"""Lint for the tolerance policy: the --tol-* flags set the tolerances of the
check rows a report prints and nothing else, and every other guard uses one
of the two constants in linalg.

The library keeps one float tolerance keyword, set by its caller; anything
else that needs a tolerance reads STRUCTURAL_TOL or NUMERIC_TOL, and no
tolerance is written out as a literal. Every row tolerance in the CLI is a
``Tolerances`` field or 0, and every ``--tol-<name>`` flag defaults to the
field ``name`` and refuses a negative or NaN value.
"""

import ast
from dataclasses import fields
from pathlib import Path

from helpers import cli_commands
from kdframes.cli import _tolerance, main
from kdframes.linalg import Tolerances

SOURCE = Path(__file__).resolve().parents[1] / "src" / "kdframes"
ALLOWED_KEYWORDS = {"Frame.__post_init__(norm_tol)"}
CONSTANTS = {"STRUCTURAL_TOL", "NUMERIC_TOL"}


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


def test_the_only_tolerance_keyword_is_frame_norm_tol():
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


def _row_tolerances(tree) -> list[ast.expr]:
    """The argument passed as ``tolerance`` in every call of a function of
    the module that has a ``tolerance`` parameter: the row builders."""
    position = {}
    for name, function in _functions(tree):
        params = [arg.arg for arg in function.args.posonlyargs + function.args.args]
        if "tolerance" in params:
            position[name.rpartition(".")[2]] = params.index("tolerance")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            index = position.get(node.func.id)
            if index is None:
                continue
            keyword = [k.value for k in node.keywords if k.arg == "tolerance"]
            found.append(node.args[index] if index < len(node.args) else keyword[0])
    return found


def test_every_row_tolerance_is_a_tolerances_field_or_zero():
    # a row builder may hand its own ``tolerance`` on: its callers are checked
    allowed = {f"tol.{field.name}" for field in fields(Tolerances)} | {"0", "0.0", "tolerance"}
    tree = ast.parse((SOURCE / "cli.py").read_text())
    tolerances = _row_tolerances(tree)
    offenders = [
        f"cli.py:{node.lineno}: {ast.unparse(node)}"
        for node in tolerances
        if ast.unparse(node) not in allowed
    ]
    assert offenders == []
    # every report's rows are built this way, so the check cannot pass on no calls
    assert len(tolerances) >= 20


def test_every_tol_flag_has_its_field_default_and_the_tolerance_callback():
    offered = [
        param
        for _, command in cli_commands(main)
        for param in command.params
        if any(opt.startswith("--tol-") for opt in param.opts)
    ]
    for param in offered:
        name = param.name.removeprefix("tol_")
        assert param.opts == [f"--tol-{name}"]
        assert param.default == getattr(Tolerances(), name)
        assert param.callback is _tolerance
    # the flags are exactly the Tolerances fields, each offered by some command
    assert {param.name for param in offered} == {f"tol_{f.name}" for f in fields(Tolerances)}
