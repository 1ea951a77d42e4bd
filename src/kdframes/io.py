"""JSON serialization of frames, states and complex matrices.

Complex scalars are stored as two-element [re, im] arrays, held in memory as
a real array with a trailing axis of length 2. Frame files are written by
``_jsontext``, the package's one JSON writer. Floats are emitted in Python's
shortest round-trip decimal form (at most 17 significant digits), so
write -> read -> write is bit-stable.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from ._jsontext import _json_text
from .frames import DensityMatrix, Frame, frame_mixture
from .linalg import NUMERIC_TOL


class FrameFileError(ValueError):
    """The file cannot be read or written, or its document cannot be interpreted."""


def complex_to_pairs(m) -> np.ndarray:
    """The real (..., 2) array with every complex scalar expanded to [re, im]."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1)


def pairs_to_complex(data, name: str = "array") -> np.ndarray:
    """Inverse of complex_to_pairs, with schema validation."""
    try:
        a = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FrameFileError(f"{name} must be nested [re, im] arrays: {exc}") from None
    except OverflowError:
        raise FrameFileError(f"{name} holds an integer too large for a float") from None
    if a.ndim < 2 or a.shape[-1] != 2:
        raise FrameFileError(f"{name} must have [re, im] pairs innermost, got shape {a.shape}")
    # float() also reads the strings "0.5" and "nan" and the booleans true and false
    leaves = data
    for _ in range(a.ndim - 1):
        leaves = chain.from_iterable(leaves)
    if not {*map(type, leaves)}.isdisjoint((str, bool)):
        raise FrameFileError(f"{name} must hold JSON numbers, not strings or booleans")
    if not np.all(np.isfinite(a)):
        raise FrameFileError(f"{name} contains non-finite entries")
    return a[..., 0] + 1j * a[..., 1]


def frame_to_dict(f: Frame) -> dict:
    return {"d": f.d, "n": f.n, "vectors": complex_to_pairs(f.vectors)}


def raw_vectors_from_dict(data) -> np.ndarray:
    """Extract the (n, d) vector array without enforcing frame invariants."""
    if not isinstance(data, dict):
        raise FrameFileError("frame file must be a JSON object")
    for key in ("d", "n", "vectors"):
        if key not in data:
            raise FrameFileError(f"frame file is missing the '{key}' field")
    for key in ("n", "d"):
        # bool is an int subclass, but true/false is no size
        if type(data[key]) is not int:
            shown = json.dumps(data[key], default=repr)
            raise FrameFileError(f"frame file field '{key}' must be an integer, got {shown}")
    vectors = pairs_to_complex(data["vectors"], "vectors")
    if vectors.ndim != 2:
        raise FrameFileError(f"vectors must form an n-by-d array, got shape {vectors.shape}")
    n, d = vectors.shape
    if (n, d) != (data["n"], data["d"]):
        raise FrameFileError(
            f"declared size n={data['n']}, d={data['d']} does not match the "
            f"{n}-by-{d} vector array"
        )
    return vectors


def frame_from_dict(data) -> Frame:
    # Serialized unit vectors re-read to ~1e-16; NUMERIC_TOL leaves headroom
    # for hand-written files while still rejecting non-normalized input.
    return Frame(raw_vectors_from_dict(data), norm_tol=NUMERIC_TOL)


def load_json(path) -> dict:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise FrameFileError(f"cannot read {path}: {exc}") from None
    # JSON files are UTF-8 whatever the locale (RFC 8259); the decoder recurses
    # once per nesting level, so a deep enough file exhausts the stack.
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FrameFileError(f"{path} is not valid JSON: {exc}") from None


def load_frame(path) -> Frame:
    return frame_from_dict(load_json(path))


def dump_frame(f: Frame, path) -> None:
    try:
        Path(path).write_text(_json_text(frame_to_dict(f)) + "\n")
    except OSError as exc:
        raise FrameFileError(f"cannot write {path}: {exc}") from None


def resolve_state(spec: str, frame: Frame) -> DensityMatrix:
    """Build a density matrix from a state specification string.

    Accepted forms: "maximally-mixed"; "frame-state:<j>" for the pure state
    |phi_j><phi_j|; "mixture:<w0,w1,...>" for a convex mixture of the frame
    states; "matrix:<path>" for an explicit d-by-d Hermitian matrix stored
    as [re, im] pairs in a JSON file.
    """
    spec = spec.strip()
    if spec == "maximally-mixed":
        return DensityMatrix(np.eye(frame.d) / frame.d)
    if spec.startswith("frame-state:"):
        try:
            j = int(spec.split(":", 1)[1])
        except ValueError:
            raise FrameFileError(f"malformed frame-state index in {spec!r}") from None
        if not 0 <= j < frame.n:
            raise FrameFileError(f"frame-state index {j} out of range [0, {frame.n - 1}]")
        ket = frame.vectors[j]
        return DensityMatrix(np.outer(ket, ket.conj()))
    if spec.startswith("mixture:"):
        try:
            weights = [float(w) for w in spec.split(":", 1)[1].split(",")]
        except ValueError:
            raise FrameFileError(f"malformed mixture weights in {spec!r}") from None
        try:
            return frame_mixture(frame, weights)
        except ValueError as exc:
            raise FrameFileError(f"bad mixture weights: {exc}") from None
    if spec.startswith("matrix:"):
        path = spec.split(":", 1)[1]
        data = load_json(path)
        matrix = pairs_to_complex(data, "state matrix")
        if matrix.ndim != 2 or matrix.shape != (frame.d, frame.d):
            raise FrameFileError(
                f"state matrix must be {frame.d}-by-{frame.d}, got shape {matrix.shape}"
            )
        try:
            return DensityMatrix(matrix)
        except ValueError as exc:
            raise FrameFileError(f"invalid density matrix: {exc}") from None
    raise FrameFileError(
        f"unknown state spec {spec!r}; expected maximally-mixed, frame-state:<j>, "
        "mixture:<weights> or matrix:<path>"
    )
