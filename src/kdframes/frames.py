"""Frames of unit vectors and the measurements they induce.

A frame is an ordered list of unit kets spanning C^d. Tight frames give a
rank-one resolution of the identity, the POVM of effects (d/n)|phi_j><phi_j|;
equiangular tight frames in addition share a single pairwise squared
overlap. This module certifies those properties, holds the frame, its
states and their Gram and frame operators, and constructs the qubit
tetrahedron (SIC) frame and ETF complements. The measurement statistics
are read off the Gram matrix of ``channels.frame_gram``, so no POVM stack
is built.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .linalg import (
    NUMERIC_TOL,
    STRUCTURAL_TOL,
    as_complex_matrix,
    require_hermitian,
    require_psd,
)


def coherence_constant(n: int, d: int) -> float:
    """Squared pairwise overlap (n - d) / ((n - 1) d) common to every ETF.

    Zero for an orthonormal basis (n = d) and 1/(d + 1) at the maximal
    size n = d^2 of a SIC measurement.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got d={d}")
    if n < d:
        raise ValueError(f"a frame has at least d vectors, got n={n} < d={d}")
    if n == d:
        return 0.0
    return (n - d) / ((n - 1) * d)


@dataclass(frozen=True)
class Frame:
    """Ordered set of n unit kets in C^d, stored as rows of an (n, d) array.

    Vector order is meaningful: index j labels measurement outcome j
    everywhere downstream, so reordering produces a different frame.
    Validation is eager; downstream operations assume the invariants.
    """

    vectors: np.ndarray
    norm_tol: InitVar[float] = STRUCTURAL_TOL

    def __post_init__(self, norm_tol: float) -> None:
        v = as_complex_matrix(self.vectors, "vectors")
        n, d = v.shape
        if d < 1:
            raise ValueError("ambient dimension must be at least 1")
        if n < d:
            raise ValueError(f"a frame needs n >= d vectors, got n={n} < d={d}")
        # finite entries can overflow (1e200 squares to inf): the deviation is then inf
        with np.errstate(over="ignore", invalid="ignore"):
            worst = float(np.abs(np.linalg.norm(v, axis=1) - 1.0).max())
        if worst > norm_tol:
            raise ValueError(
                f"frame vectors must be unit kets: max | ||v|| - 1 | = {worst:.3e}"
            )
        object.__setattr__(self, "vectors", v)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace positive semidefinite matrix on C^d."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = require_hermitian(self.matrix)
        trace = float(np.trace(m).real)
        if abs(trace - 1.0) > STRUCTURAL_TOL:
            raise ValueError(f"density matrix must have unit trace, got {trace!r}")
        require_psd(m, "density matrix")
        object.__setattr__(self, "matrix", m)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]


def frame_operator(f: Frame) -> np.ndarray:
    """Sum of the rank-one projectors onto the frame vectors.

    Its extreme eigenvalues are the optimal frame-condition constants; a
    tight frame has operator (n/d) I.
    """
    return f.vectors.T @ f.vectors.conj()


def gram_matrix(f: Frame) -> np.ndarray:
    """Pairwise overlaps <phi_i|phi_j> as an n-by-n matrix."""
    return f.vectors.conj() @ f.vectors.T


def tightness_deviation(operator: np.ndarray, n: int) -> float:
    """Relative distance ||S - (n/d) I||_F / (n/d) of the frame operator S of
    n vectors in C^d from that of a tight frame."""
    target = n / len(operator)
    return float(np.linalg.norm(operator - target * np.eye(len(operator))) / target)


def is_tight(f: Frame) -> bool:
    """Whether the frame operator equals (n/d) I within NUMERIC_TOL, relative."""
    return tightness_deviation(frame_operator(f), f.n) <= NUMERIC_TOL


def is_equiangular(f: Frame) -> float | None:
    """Common squared overlap |<phi_i|phi_j>|^2 if all agree within NUMERIC_TOL, else None."""
    if f.n < 2:
        raise ValueError("equiangularity needs at least two vectors")
    overlaps = np.abs(gram_matrix(f)) ** 2
    off = overlaps[~np.eye(f.n, dtype=bool)]
    # `not <=` also rejects a NaN spread, as overflowed (infinite) overlaps give
    if not float(off.max() - off.min()) <= NUMERIC_TOL:
        return None
    return float(off.mean())


def sic_qubit() -> Frame:
    """The tetrahedron frame: four unit kets in C^2, all squared overlaps 1/3.

    First ket is |0>; the other three are (|0> + sqrt(2) w^k |1>)/sqrt(3)
    with w a primitive cube root of unity. On the Bloch sphere the four
    states sit at the vertices of a regular tetrahedron.
    """
    w = np.exp(2j * np.pi / 3)
    s3 = 1.0 / np.sqrt(3.0)
    s23 = np.sqrt(2.0 / 3.0)
    vectors = np.array(
        [
            [1.0, 0.0],
            [s3, s23],
            [s3, s23 * w],
            [s3, s23 * w**2],
        ],
        dtype=complex,
    )
    return Frame(vectors)


def orthonormal_frame(d: int) -> Frame:
    """The computational basis of C^d viewed as a (trivially tight) frame."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    return Frame(np.eye(d, dtype=complex))


def complement_etf(f: Frame) -> Frame:
    """ETF with the same n vectors in the complementary dimension n - d.

    For a tight equiangular frame, I - (d/n) G with G the Gram matrix is a
    rank n - d projection. Factoring it through its unit-eigenvalue
    eigenvectors as L^dagger L with L of shape (n - d, n) and renormalizing
    the columns of L to unit norm yields the complement vectors. The unit
    eigenspace is (n - d)-fold degenerate, so any orthonormal basis of it
    may come back: the result is fixed only up to a unitary on C^(n - d),
    and only unitary-invariant properties (tightness, equiangularity,
    parameters, Gram moduli, reports) are contractual.
    """
    if f.n == f.d:
        raise ValueError("an orthonormal basis has an empty complement")
    if not is_tight(f):
        raise ValueError("complement construction needs a tight frame")
    if is_equiangular(f) is None:
        raise ValueError("complement construction needs an equiangular frame")
    n, d = f.n, f.d
    projector = np.eye(n) - (d / n) * gram_matrix(f)
    values, vectors = np.linalg.eigh(projector)
    if abs(values[d - 1]) > NUMERIC_TOL or abs(values[d] - 1.0) > NUMERIC_TOL:
        raise ValueError("complement projector is not a clean 0/1 projection")
    k = n - d
    rows = np.sqrt(n / k) * vectors[:, d:].conj()
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    out = Frame(rows)
    if not is_tight(out) or is_equiangular(out) is None:
        raise ValueError("complement construction failed its own certification")
    return out


def frame_mixture(f: Frame, weights) -> DensityMatrix:
    """Convex mixture of the pure frame states with the given weights."""
    w = np.asarray(weights, dtype=float).ravel()
    if w.shape != (f.n,):
        raise ValueError(f"need {f.n} weights, got {w.shape}")
    # `not >=` and `not <=` also reject NaN weights, and weights whose sum overflows
    with np.errstate(over="ignore"):
        if not (w.min() >= -STRUCTURAL_TOL and abs(w.sum() - 1.0) <= STRUCTURAL_TOL):
            raise ValueError("weights must be non-negative and sum to 1")
    rho = np.einsum("j,ja,jb->ab", w, f.vectors, f.vectors.conj())
    return DensityMatrix(rho)


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2): 1/d for the maximally mixed state, 1 for pure states."""
    return float(np.vdot(rho.matrix, rho.matrix).real)


def random_density_matrix(d: int, rng, rank: int | None = None) -> DensityMatrix:
    """Random state from the trace-normalized Ginibre ensemble.

    ``rank`` limits the number of Ginibre columns; rank 1 gives a Haar
    pure state. ``rng`` is a seed or a Generator, as in haar_unitary.
    """
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    r = d if rank is None else rank
    if not 1 <= r <= d:
        raise ValueError(f"rank must be in [1, {d}], got {rank}")
    g = gen.standard_normal((d, r)) + 1j * gen.standard_normal((d, r))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)

