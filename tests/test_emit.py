"""The report writer prints exactly what ``json.dumps(indent=2)`` prints.

``_jsontext._json_text`` formats nests of finite floats in one pass instead of
through the stdlib's pure-Python indent encoder; every other value follows
the stdlib rules. The stdlib dump is the oracle for report-like trees.
"""

import json
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from kdframes._jsontext import _json_default, _json_text

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


@st.composite
def float_nests(draw):
    """A rectangular nest of lists of depth 1 to 3, as ``ndarray.tolist`` gives."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    leaf = draw(st.sampled_from([finite_floats, floats]))
    flat = draw(st.lists(leaf, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(flat, dtype=float).reshape(shape).tolist()


trees = st.recursive(
    scalars | float_nests(),
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
@example([[], [1.0]])
@example({"a": [], "b": {}, "c": ()})
def test_writer_matches_stdlib_dump(tree):
    assert _json_text(tree) == json.dumps(tree, indent=2, default=_json_default)

