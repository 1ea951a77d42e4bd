"""The package's one JSON writer: exactly ``json.dumps(obj, indent=2)``, written faster.

Reports and frame files, on stdout and on disk, are printed by ``_json_text``,
and reports keep their numpy arrays until here. The stdlib's indent encoder
is pure Python and takes one generator step per token, which dominates
printing the (n, n, 2) Gram and KD arrays. Here every non-empty float64
array of finite values fills an indent-2 template of its shape, one ``%s``
per float, in a single ``%`` operation. From ``_DEDUP_MIN`` floats on, each
distinct magnitude is formatted once and signs are prefixed: the Gram
matrix is exactly Hermitian, so its off-diagonal magnitudes come in pairs,
and frame vectors repeat magnitudes too. Other arrays print as their
``.tolist()``, and all other values follow the stdlib rules.
The writer is its own module rather than part of ``cli.py``: a ``kdf``
process run without a bytecode cache compiles ``cli.py`` from source, and
these lines compiled there raised the peak RSS of each such run by about
0.45 MB (CPython 3.11, x86-64 Linux).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

import numpy as np


def _json_default(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _json_key(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring_ascii(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


# Below this many floats the magnitude table costs more than the reprs it saves:
# with 43 two-float disk centers, ``bounds`` emission took 1.25 ms instead of
# 0.65 ms. From here on the table pays off when each magnitude appears twice,
# and costs 1.1-1.25x one repr pass when all magnitudes differ.
_DEDUP_MIN = 256


def _layout(shape: tuple[int, ...], level: int) -> str:
    """Indent-2 JSON of an array of this shape at this level, with ``%s`` for each entry."""
    text = "%s"
    for depth in reversed(range(len(shape))):
        inner = "\n" + "  " * (level + depth + 1)
        close = "\n" + "  " * (level + depth) + "]"
        text = "[" + inner + ("," + inner).join([text] * shape[depth]) + close
    return text


def _reprs(flat: np.ndarray) -> list[str]:
    """``float.__repr__`` of each entry of a 1-d float64 array of finite values.

    From ``_DEDUP_MIN`` floats on, each distinct magnitude is formatted once:
    ``repr(-x) == "-" + repr(x)`` for every finite x, -0.0 included, so the
    table holds the sorted distinct |x| (0.0 and -0.0 are one entry), each
    entry is gathered from it, and the entries whose sign bit is set get a ``-``.
    """
    if flat.size < _DEDUP_MIN:
        return list(map(float.__repr__, flat.tolist()))
    magnitudes, inverse = np.unique(np.abs(flat), return_inverse=True)
    items = np.array(list(map(float.__repr__, magnitudes.tolist())), dtype=object)[inverse]
    negative = np.signbit(flat)
    items[negative] = "-" + items[negative]
    return items.tolist()


def _float_array(a: np.ndarray, level: int) -> str | None:
    """Indent-2 JSON of a non-empty float64 array of finite values; None for other arrays."""
    if a.dtype != np.float64 or not a.size or not np.isfinite(a).all():
        return None
    return _layout(a.shape, level) % tuple(_reprs(a.ravel()))


def _json_text(obj, level: int = 0) -> str:
    """Exactly ``json.dumps(obj, indent=2, default=_json_default)``, with float arrays fast."""
    if isinstance(obj, dict) and obj:
        items = (_json_key(k) + ": " + _json_text(v, level + 1) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)) and obj:
        items = (_json_text(x, level + 1) for x in obj)
    elif isinstance(obj, np.ndarray) and (text := _float_array(obj, level)) is not None:
        return text
    elif obj is None or isinstance(obj, (str, int, float, list, tuple, dict)):
        # scalars and empty containers print the same with or without indent
        return json.dumps(obj)
    else:
        return _json_text(_json_default(obj), level)
    inner = "\n" + "  " * (level + 1)
    open_, close = "{}" if isinstance(obj, dict) else "[]"
    return open_ + inner + ("," + inner).join(items) + "\n" + "  " * level + close
