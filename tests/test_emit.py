"""The JSON writer prints exactly what ``json.dumps(indent=2)`` prints.

``_jsontext._json_text`` formats float arrays in one pass instead of through
the stdlib's pure-Python indent encoder; every other value follows the
stdlib rules. The stdlib dump, with ``_json_default`` turning numpy arrays
and scalars into Python values, is the oracle for report-like trees and for
frame files. Reports keep their numeric arrays as numpy arrays up to the
writer.
"""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from helpers import assert_check_rows, paley_frame
from kdframes import io
from kdframes._jsontext import _DEDUP_MIN, _json_default, _json_text
from kdframes.cli import (
    _render_table,
    build_bounds_report,
    build_extremality_report,
    build_frame_check_report,
    build_kd_report,
    build_qubit_sic_report,
    main,
)
from kdframes.frames import complement_etf, sic_qubit

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5]

floats = st.floats() | st.sampled_from(EDGE_FLOATS)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
# Non-ASCII, control and escape characters in strings and keys.
text = st.text(st.characters() | st.sampled_from("\x00\x1f\"\\é \U0001f600"))
scalars = (
    floats
    | st.integers(-(10**40), 10**40)
    | st.booleans()
    | st.none()
    | text
    | st.floats().map(np.float64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
)
keys = text | floats | st.integers(-(10**20), 10**20) | st.booleans() | st.none()

ARRAY_LEAVES = [
    (float, finite_floats),
    (float, floats),
    (np.int64, st.integers(-(2**63), 2**63 - 1)),
    (bool, st.booleans()),
]


@st.composite
def arrays(draw):
    """A float, int or bool array of depth 1 to 3, possibly with zero-size dimensions."""
    shape = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    dtype, leaf = draw(st.sampled_from(ARRAY_LEAVES))
    flat = draw(st.lists(leaf, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(flat, dtype=dtype).reshape(shape)


trees = st.recursive(
    scalars | arrays() | arrays().map(np.ndarray.tolist),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(keys, children, max_size=4),
    max_leaves=30,
)


@settings(deadline=None, max_examples=300)
@given(trees)
@example([[1.0], [2.0, 3.0]])
@example([[1.0, 2], [3.0, 4.0]])
@example({"gram": [[[0.5, -0.0], [1e16, 5e-324]], [[1e-5, 2.0], [3.0, math.nan]]]})
@example({"gram": np.array([[[0.5, -0.0], [1e16, 5e-324]], [[1e-5, 2.0], [3.0, 4.0]]])})
@example([np.array([math.nan, math.inf, -math.inf]), np.array([-0.0, 5e-324])])
@example({"a": np.zeros((2, 0, 3)), "b": np.zeros(0), "c": np.zeros((0, 2))})
@example([np.array([[1, -2]]), np.array([True, False])])
@example([[], [1.0]])
@example({"a": [], "b": {}, "c": ()})
def test_writer_matches_stdlib_dump(tree):
    assert _json_text(tree) == json.dumps(tree, indent=2, default=_json_default)


# A pool of values for arrays long enough to reach the writer's magnitude table:
# both zeros, the smallest subnormal, and values whose repr switches form.
POOL = [0.0, -0.0, 5e-324, 1e-5, 1e16, 1e-17, 0.5, 1 / 3]


def signed_pool_array(shape, pool, seed: int) -> np.ndarray:
    """Entries drawn from pool, each with a random sign."""
    rng = np.random.default_rng(seed)
    size = math.prod(shape)
    return (rng.choice(pool, size) * rng.choice([-1.0, 1.0], size)).reshape(shape)


@st.composite
def repeating_arrays(draw):
    """A (k,), (k, k) or (k, k, 2) float array of a few repeated magnitudes."""
    k = draw(st.integers(1, 40))
    shape = draw(st.sampled_from([(k,), (k, k), (k, k, 2)]))
    pool = POOL + draw(st.lists(finite_floats, max_size=4))
    return signed_pool_array(shape, pool, draw(st.integers(0, 2**32 - 1)))


@settings(deadline=None, max_examples=200)
@given(repeating_arrays())
@example(signed_pool_array((_DEDUP_MIN - 1,), POOL, 0))
@example(signed_pool_array((_DEDUP_MIN,), POOL, 0))
@example(signed_pool_array((_DEDUP_MIN // 2, 2), POOL, 1))
def test_writer_matches_stdlib_dump_on_repeated_magnitudes(a):
    tree = [a, {"kd": a}]
    assert _json_text(tree) == json.dumps(tree, indent=2, default=_json_default)


def stdlib_frame_file(frame) -> str:
    return json.dumps(io.frame_to_dict(frame), indent=2, default=_json_default) + "\n"


@pytest.mark.parametrize("command", ["sic2", "complement"])
def test_frame_gen_prints_and_writes_the_stdlib_dump(command, tmp_path):
    sic_path = tmp_path / "sic.json"
    io.dump_frame(sic_qubit(), sic_path)
    if command == "sic2":
        args, frame = ["frame", "gen", "sic2"], sic_qubit()
    else:
        args = ["frame", "gen", "complement", str(sic_path)]
        frame = complement_etf(io.load_frame(sic_path))
    expected = stdlib_frame_file(frame)
    out = tmp_path / "out.json"
    printed = CliRunner().invoke(main, args, catch_exceptions=False)
    written = CliRunner().invoke(main, args + ["-o", str(out)], catch_exceptions=False)
    assert (printed.exit_code, written.exit_code) == (0, 0)
    assert printed.stdout == expected
    assert out.read_text() == expected


@pytest.mark.parametrize("p", [19, 43])
def test_dump_frame_writes_the_stdlib_dump(p, tmp_path):
    path = tmp_path / "paley.json"
    io.dump_frame(paley_frame(p), path)
    assert path.read_text() == stdlib_frame_file(paley_frame(p))


def numeric_lists(node, path: str) -> list[str]:
    """Paths of the Python lists under node whose leaves are all numbers."""

    def numeric(x) -> bool:
        if isinstance(x, list):
            return bool(x) and all(map(numeric, x))
        return isinstance(x, (int, float, np.number)) and not isinstance(x, bool)

    if isinstance(node, dict):
        return [p for key, value in node.items() for p in numeric_lists(value, f"{path}.{key}")]
    if isinstance(node, list):
        if numeric(node):
            return [path]
        return [p for i, value in enumerate(node) for p in numeric_lists(value, f"{path}[{i}]")]
    return []


def in_process_reports(frame) -> list[dict]:
    reports = [build_frame_check_report(frame.vectors)]
    for spec in ("maximally-mixed", "frame-state:0"):
        rho = io.resolve_state(spec, frame)
        reports += [
            build_kd_report(frame, rho, spec),
            build_bounds_report(frame, rho, spec, [0.5, 1.0, 2.0, 5.0, np.inf]),
            build_extremality_report(frame, rho, spec, 20, 0, [0.5, 1.0, 2.0, 5.0]),
        ]
    return reports


def numpy_scalars(node, path: str) -> list[str]:
    """Paths of the numpy scalars (``np.generic``) under node."""
    if isinstance(node, dict):
        return [p for key, value in node.items() for p in numpy_scalars(value, f"{path}.{key}")]
    if isinstance(node, (list, tuple)):
        return [p for i, value in enumerate(node) for p in numpy_scalars(value, f"{path}[{i}]")]
    return [path] if isinstance(node, np.generic) else []


@pytest.mark.parametrize("frame", [sic_qubit(), paley_frame(7)], ids=["sic2", "paley7"])
def test_report_arrays_stay_numpy_arrays(frame):
    reports = in_process_reports(frame) + [build_qubit_sic_report()]
    assert [p for r in reports for p in numeric_lists(r, r["command"])] == []
    # every scalar leaf is a Python value, so the table prints each flag as yes/no
    assert [p for r in reports for p in numpy_scalars(r, r["command"])] == []
    rows = [line.split() for r in reports for line in _render_table(r).splitlines()]
    assert [row for row in rows if row[-1] in ("True", "False")] == []
    assert ["tight", "yes"] in rows


@pytest.mark.parametrize("frame", [sic_qubit(), paley_frame(7)], ids=["sic2", "paley7"])
def test_in_process_check_rows_follow_the_row_contract(frame):
    for report in in_process_reports(frame) + [build_qubit_sic_report()]:
        assert_check_rows(report)
