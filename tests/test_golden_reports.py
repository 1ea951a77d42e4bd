"""Golden reports: every ``kdf`` report keeps its keys, values and exit code.

Each file under ``tests/golden/`` holds the arguments, exit code and JSON
report of one command run. Keys (in order), strings, booleans and nulls
must match exactly and every numeric leaf to 1e-12. The printed bytes are
exactly the stdlib's ``json.dumps(report, indent=2)``. After a deliberate
change of a report, regenerate the files with

    PYTHONPATH=src python tests/test_golden_reports.py

which rewrites only the files that are missing or no longer match, and
prints their case names, each followed by its leaf map: every leaf added
(``+``), removed (``-``) or moved by more than 1e-12 (``~``). It does the
same, without a leaf map, for ``bound-comparison.txt``, the stdout that
``tests/test_scripts.py`` pins for ``scripts/bound_comparison.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from helpers import TOL, assert_check_rows, assert_same, paley_frame
from kdframes import io
from kdframes._jsontext import _json_default
from kdframes.cli import build_bounds_report, build_kd_report, main
from kdframes.frames import complement_etf, random_density_matrix, sic_qubit

GOLDEN_DIR = Path(__file__).parent / "golden"
STATES = ("maximally-mixed", "frame-state:0")


FRAMES = {
    "sic2": sic_qubit,
    "sic2-complement": lambda: complement_etf(sic_qubit()),
    "paley7": lambda: paley_frame(7),
}


def golden_cases() -> dict[str, list[str]]:
    """Case name -> kdf arguments; a frame name stands for its frame file."""
    cases = {"reproduce-qubit-sic": ["reproduce", "qubit-sic"]}
    for name in FRAMES:
        cases[f"frame-check-{name}"] = ["frame", "check", name]
        for state in STATES:
            tag = f"{name}-{state.replace(':', '')}"
            cases[f"kd-{tag}"] = ["kd", name, "--state", state]
            cases[f"bounds-{tag}"] = ["bounds", name, "--state", state]
            cases[f"verify-extremality-{tag}"] = [
                "verify-extremality", name, "--state", state, "--samples", "20", "--seed", "3",
            ]
    return cases


def invoke_case(args: list[str], frame_dir: Path):
    for name, build in FRAMES.items():
        path = frame_dir / f"{name}.json"
        if name in args and not path.exists():
            io.dump_frame(build(), path)
    argv = [str(frame_dir / f"{a}.json") if a in FRAMES else a for a in args]
    return CliRunner().invoke(main, argv + ["--format", "json"], catch_exceptions=False)


def run_case(args: list[str], frame_dir: Path) -> dict:
    result = invoke_case(args, frame_dir)
    return {"args": args, "exit_code": result.exit_code, "report": json.loads(result.stdout)}


def assert_matches_golden(actual: dict, golden: dict) -> None:
    assert actual["args"] == golden["args"]
    assert actual["exit_code"] == golden["exit_code"]
    assert_same(actual["report"], golden["report"], "report")


def _item(index: int, item) -> str:
    """A list item's address: ``name=...`` or ``alpha=...`` when the item
    carries that key, so an inserted row moves no other; else its index."""
    for key in ("name", "alpha"):
        if isinstance(item, dict) and key in item:
            return f"{key}={item[key]}"
    return str(index)


def _leaves(node, path: str = ""):
    """(path, value) of every string, number, boolean and null in a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _leaves(value, f"{path}[{_item(index, value)}]")
    else:
        yield path, node


def _moved(old, new) -> bool:
    """Whether a leaf changed: a number by more than TOL, anything else at all."""
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (old, new)):
        return abs(old - new) > TOL
    return type(old) is not type(new) or old != new


def leaf_map(old: dict, new: dict) -> list[str]:
    """One line per leaf of ``old`` removed or moved by more than TOL in
    ``new``, in the order of ``old``, then one per leaf added, in the order of ``new``."""
    before, after = dict(_leaves(old)), dict(_leaves(new))
    lines = [
        f"- {path}: {value!r}" if path not in after else f"~ {path}: {value!r} -> {after[path]!r}"
        for path, value in before.items()
        if path not in after or _moved(value, after[path])
    ]
    return lines + [f"+ {path}: {value!r}" for path, value in after.items() if path not in before]


def test_leaf_map_names_each_added_removed_and_moved_leaf():
    old = {"a": 1.0, "b": [1, 2.0], "c": "x", "d": True, "gone": None}
    new = {"a": 1.0 + 1e-13, "b": [1, 2.5], "c": "y", "d": 1, "new": {"e": [0.5]}}
    assert leaf_map(old, new) == [
        "~ b[1]: 2.0 -> 2.5",
        "~ c: 'x' -> 'y'",
        "~ d: True -> 1",
        "- gone: None",
        "+ new.e[0]: 0.5",
    ]
    assert leaf_map(new, new) == []
    # list items with a name or alpha key match by it: an inserted row is
    # added, and the rows after it do not move
    rows = [{"alpha": "2", "bound": 1.0}, {"alpha": "5", "bound": 2.0}]
    checks = [{"name": "renyi:2", "slack": 0.0}, {"name": "renyi:5", "slack": 0.5}]
    old = {"renyi": rows, "checks": checks}
    new = {
        "renyi": [{"alpha": "0.5", "bound": 0.5}, *rows],
        "checks": [{"name": "renyi:0.5", "slack": 0.25}, checks[0], {**checks[1], "slack": 0.75}],
    }
    assert leaf_map(old, new) == [
        "~ checks[name=renyi:5].slack: 0.5 -> 0.75",
        "+ renyi[alpha=0.5].alpha: '0.5'",
        "+ renyi[alpha=0.5].bound: 0.5",
        "+ checks[name=renyi:0.5].name: 'renyi:0.5'",
        "+ checks[name=renyi:0.5].slack: 0.25",
    ]


@pytest.mark.parametrize("case", sorted(golden_cases()))
def test_report_matches_golden(case, tmp_path):
    golden = json.loads((GOLDEN_DIR / f"{case}.json").read_text())
    assert_matches_golden(run_case(golden_cases()[case], tmp_path), golden)


@pytest.mark.parametrize("case", sorted(golden_cases()))
def test_golden_check_rows_follow_the_row_contract(case):
    assert_check_rows(json.loads((GOLDEN_DIR / f"{case}.json").read_text())["report"])


@pytest.mark.parametrize("case", sorted(golden_cases()))
def test_report_bytes_are_the_stdlib_indent_2_dump(case, tmp_path):
    stdout = invoke_case(golden_cases()[case], tmp_path).stdout
    assert stdout == json.dumps(json.loads(stdout), indent=2) + "\n"


# Reports printed past the goldens' n = 7: command -> (extra kdf arguments,
# its report builder with that command's arguments after the state).
BYTE_CASES = {
    "kd": ([], build_kd_report),
    "bounds": (
        ["--alphas", "0.5,1,1.5,2,3,5,inf"],
        lambda frame, rho, state: build_bounds_report(
            frame, rho, state, [0.5, 1.0, 1.5, 2.0, 3.0, 5.0, np.inf]
        ),
    ),
}


@pytest.mark.parametrize("state", ["maximally-mixed", "frame-state:0", "matrix"])
@pytest.mark.parametrize("p", [19, 43])
@pytest.mark.parametrize("command", sorted(BYTE_CASES))
def test_kd_bytes_are_the_stdlib_dump_of_the_report(command, p, state, tmp_path):
    path = tmp_path / "paley.json"
    io.dump_frame(paley_frame(p), path)
    if state == "matrix":
        state_path = tmp_path / "state.json"
        rho = random_density_matrix(paley_frame(p).d, p).matrix
        state_path.write_text(json.dumps(io.complex_to_pairs(rho).tolist()))
        state = f"matrix:{state_path}"
    extra, build = BYTE_CASES[command]
    args = [command, str(path), "--state", state, *extra, "--format", "json"]
    stdout = CliRunner().invoke(main, args, catch_exceptions=False).stdout
    frame = io.load_frame(path)
    rho = io.resolve_state(state, frame)
    report = build(frame, rho, state)
    assert stdout == json.dumps(report, indent=2, default=_json_default) + "\n"


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case, args in golden_cases().items():
            document = run_case(args, Path(scratch))
            path = GOLDEN_DIR / f"{case}.json"
            old = json.loads(path.read_text()) if path.exists() else {}
            try:
                assert_matches_golden(document, old)
                continue
            except (KeyError, AssertionError):
                pass
            path.write_text(json.dumps(document, indent=1) + "\n")
            print(f"rewrote {case}")
            for line in leaf_map(old, document):
                print(f"  {line}")

    from test_scripts import BOUND_COMPARISON_GOLDEN, run_bound_comparison

    result = run_bound_comparison()
    if result.returncode != 0:
        raise SystemExit(result.stderr)
    if not BOUND_COMPARISON_GOLDEN.exists() or BOUND_COMPARISON_GOLDEN.read_text() != result.stdout:
        BOUND_COMPARISON_GOLDEN.write_text(result.stdout)
        print(f"rewrote {BOUND_COMPARISON_GOLDEN.stem}")
