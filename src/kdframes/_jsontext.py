"""The package's one JSON writer: exactly ``json.dumps(obj, indent=2)``, written faster.

Reports and frame files, on stdout and on disk, are printed by ``_json_text``,
and reports keep their numpy arrays until here. The stdlib's indent encoder
is pure Python and takes one generator step per token, which dominates
printing the (n, n, 2) Gram and KD arrays. Here every non-empty float64
array of finite values is formatted in one ``float.__repr__`` pass and
joined level by level along its shape; other arrays print as their
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


def _float_array(a: np.ndarray, level: int) -> str | None:
    """Indent-2 JSON of a non-empty float64 array of finite values; None for other arrays.

    Every float is formatted in one pass, then the rows are joined level by level.
    """
    if a.dtype != np.float64 or not a.size or not np.isfinite(a).all():
        return None
    items = map(float.__repr__, a.ravel().tolist())
    for depth in reversed(range(a.ndim)):
        inner = "\n" + "  " * (level + depth + 1)
        wrap = ("[" + inner + "{}\n" + "  " * (level + depth) + "]").format
        items = map(wrap, map(("," + inner).join, zip(*[iter(items)] * a.shape[depth])))
    return next(items)


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
