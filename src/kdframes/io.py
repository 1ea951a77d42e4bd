"""JSON serialization of frames, states and complex matrices.

Complex scalars are stored as two-element [re, im] arrays. Floats are
emitted in Python's shortest round-trip decimal form (at most 17
significant digits), so write -> read -> write is bit-stable.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .frames import DensityMatrix, Frame, frame_mixture
from .linalg import NUMERIC_TOL


class FrameFileError(ValueError):
    """The file cannot be read or written, or its document cannot be interpreted."""


def complex_to_pairs(m) -> list:
    """Nested lists with every complex scalar expanded to [re, im]."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def pairs_to_complex(data, name: str = "array") -> np.ndarray:
    """Inverse of complex_to_pairs, with schema validation."""
    try:
        a = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FrameFileError(f"{name} must be nested [re, im] arrays: {exc}") from None
    if a.ndim < 2 or a.shape[-1] != 2:
        raise FrameFileError(f"{name} must have [re, im] pairs innermost, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise FrameFileError(f"{name} contains non-finite entries")
    return a[..., 0] + 1j * a[..., 1]


def frame_to_dict(f: Frame) -> dict:
    return {"d": f.d, "n": f.n, "vectors": complex_to_pairs(f.vectors)}


def raw_vectors_from_dict(data, name: str = "frame file") -> np.ndarray:
    """Extract the (n, d) vector array without enforcing frame invariants."""
    if not isinstance(data, dict):
        raise FrameFileError(f"{name} must be a JSON object")
    for key in ("d", "n", "vectors"):
        if key not in data:
            raise FrameFileError(f"{name} is missing the '{key}' field")
    vectors = pairs_to_complex(data["vectors"], "vectors")
    if vectors.ndim != 2:
        raise FrameFileError(f"vectors must form an n-by-d array, got shape {vectors.shape}")
    n, d = vectors.shape
    if (n, d) != (int(data["n"]), int(data["d"])):
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
        text = Path(path).read_text()
    except OSError as exc:
        raise FrameFileError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FrameFileError(f"{path} is not valid JSON: {exc}") from None


def load_frame(path) -> Frame:
    return frame_from_dict(load_json(path))


def dump_frame(f: Frame, path) -> None:
    try:
        Path(path).write_text(json.dumps(frame_to_dict(f), indent=2) + "\n")
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
