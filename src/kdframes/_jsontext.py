"""JSON text of reports: exactly ``json.dumps(obj, indent=2)``, written faster.

The stdlib's indent encoder is pure Python and takes one generator step per
token, which dominates printing the (n, n, 2) Gram and KD arrays. Here every
rectangular array of finite floats is formatted in one ``float.__repr__``
pass and joined level by level; all other values follow the stdlib rules.
The writer is its own module rather than part of ``cli.py``: a ``kdf``
process run without a bytecode cache compiles ``cli.py`` from source, and
these lines compiled there raised the peak RSS of each such run by about
0.45 MB (CPython 3.11, x86-64 Linux).
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _json_key(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring_ascii(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _float_array(node: list, level: int) -> str | None:
    """Indent-2 JSON of a rectangular nest of lists of finite floats; None for other lists.

    Every float is formatted in one pass, then the rows are joined level by level.
    """
    shape, leaves = [len(node)], node
    while (kinds := set(map(type, leaves))) == {list}:
        sizes = set(map(len, leaves))
        if len(sizes) > 1 or 0 in sizes:
            return None
        shape.append(sizes.pop())
        leaves = list(chain.from_iterable(leaves))
    if kinds != {float} or not all(map(math.isfinite, leaves)):
        return None
    items = map(float.__repr__, leaves)
    for depth in reversed(range(len(shape))):
        inner = "\n" + "  " * (level + depth + 1)
        wrap = ("[" + inner + "{}\n" + "  " * (level + depth) + "]").format
        items = map(wrap, map(("," + inner).join, zip(*[iter(items)] * shape[depth])))
    return next(items)


def _json_text(obj, level: int = 0) -> str:
    """Exactly ``json.dumps(obj, indent=2, default=_json_default)``, with float arrays fast."""
    if isinstance(obj, dict) and obj:
        items = (_json_key(k) + ": " + _json_text(v, level + 1) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)) and obj:
        if type(obj) is list and (text := _float_array(obj, level)) is not None:
            return text
        items = (_json_text(x, level + 1) for x in obj)
    elif obj is None or isinstance(obj, (str, int, float, list, tuple, dict)):
        # scalars and empty containers print the same with or without indent
        return json.dumps(obj)
    else:
        return _json_text(_json_default(obj), level)
    inner = "\n" + "  " * (level + 1)
    open_, close = "{}" if isinstance(obj, dict) else "[]"
    return open_ + inner + ("," + inner).join(items) + "\n" + "  " * level + close
