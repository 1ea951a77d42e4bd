"""Frames of unit vectors and the measurements they induce.

A frame is an ordered list of unit kets spanning C^d. Tight frames give a
rank-one resolution of the identity (a POVM); equiangular tight frames in
addition share a single pairwise squared overlap. This module certifies
those properties, builds the induced POVM and its outcome statistics, and
constructs the qubit tetrahedron (SIC) frame and ETF complements.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .linalg import (
    NUMERIC_TOL,
    STRUCTURAL_TOL,
    as_complex_matrix,
    hermitian_eig,
    require_finite,
    require_hermitian,
    require_identity,
    require_psd,
    schatten_norm,
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
class EtfParameters:
    """Size parameters of an ETF: n vectors in dimension d.

    ``redundancy`` is n/d and ``coherence`` the squared overlap forced by
    tightness plus equiangularity.
    """

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.d < 1 or self.n < self.d:
            raise ValueError(f"need n >= d >= 1, got n={self.n}, d={self.d}")

    @property
    def redundancy(self) -> float:
        return self.n / self.d

    @property
    def coherence(self) -> float:
        return coherence_constant(self.n, self.d)

    @classmethod
    def of_frame(cls, f: Frame) -> "EtfParameters":
        return cls(f.n, f.d)


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


@dataclass(frozen=True)
class Povm:
    """Positive semidefinite effects summing to the identity."""

    elements: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.elements, dtype=complex)
        if e.ndim != 3 or e.shape[1] != e.shape[2]:
            raise ValueError(f"effects must be a stack of square matrices, got {e.shape}")
        require_psd(require_finite(e, "effects"), "effects")
        require_identity(e.sum(axis=0), "sum E")
        object.__setattr__(self, "elements", e)

    @property
    def n(self) -> int:
        return self.elements.shape[0]

    @property
    def d(self) -> int:
        return self.elements.shape[1]


def frame_operator(f: Frame) -> np.ndarray:
    """Sum of the rank-one projectors onto the frame vectors.

    Its extreme eigenvalues are the optimal frame-condition constants; a
    tight frame has operator (n/d) I.
    """
    return f.vectors.T @ f.vectors.conj()


def gram_matrix(f: Frame) -> np.ndarray:
    """Pairwise overlaps <phi_i|phi_j> as an n-by-n matrix."""
    return f.vectors.conj() @ f.vectors.T


def is_tight(f: Frame, tol: float = NUMERIC_TOL) -> bool:
    """Whether the frame operator equals (n/d) I within relative tolerance."""
    target = f.n / f.d
    deviation = schatten_norm(frame_operator(f) - target * np.eye(f.d), 2)
    return deviation <= tol * target


def is_equiangular(f: Frame, tol: float = NUMERIC_TOL) -> float | None:
    """Common squared overlap |<phi_i|phi_j>|^2 when one exists, else None."""
    if f.n < 2:
        raise ValueError("equiangularity needs at least two vectors")
    overlaps = np.abs(gram_matrix(f)) ** 2
    off = overlaps[~np.eye(f.n, dtype=bool)]
    if float(off.max() - off.min()) > tol:
        return None
    return float(off.mean())


def povm_from_frame(f: Frame, tol: float = NUMERIC_TOL) -> Povm:
    """Rank-one effects (d/n) |phi_j><phi_j| of a tight frame."""
    if not is_tight(f, tol):
        raise ValueError("POVM construction needs a tight frame, completeness would fail")
    elements = (f.d / f.n) * np.einsum("ja,jb->jab", f.vectors, f.vectors.conj())
    return Povm(elements)


def outcome_probabilities(p: Povm, rho: DensityMatrix) -> np.ndarray:
    """Outcome distribution tr(E_j rho)."""
    if p.d != rho.d:
        raise ValueError(f"dimension mismatch: POVM on C^{p.d}, state on C^{rho.d}")
    probs = np.einsum("jab,ba->j", p.elements, rho.matrix).real
    if float(probs.min()) < -STRUCTURAL_TOL:
        raise ValueError(f"negative outcome probability {probs.min():.3e}")
    total = float(probs.sum())
    if abs(total - 1.0) > NUMERIC_TOL:
        raise ValueError(f"outcome probabilities sum to {total!r}, not 1")
    return probs


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
    the columns of L to unit norm yields the complement vectors. Phases
    follow the hermitian_eig convention; only basis-invariant properties
    (tightness, equiangularity, parameters) are contractual.
    """
    if f.n == f.d:
        raise ValueError("an orthonormal basis has an empty complement")
    if not is_tight(f):
        raise ValueError("complement construction needs a tight frame")
    if is_equiangular(f) is None:
        raise ValueError("complement construction needs an equiangular frame")
    n, d = f.n, f.d
    projector = np.eye(n) - (d / n) * gram_matrix(f)
    spec = hermitian_eig(projector, tol=NUMERIC_TOL)
    k = n - d
    if abs(spec.eigenvalues[k - 1] - 1.0) > NUMERIC_TOL or abs(spec.eigenvalues[k]) > NUMERIC_TOL:
        raise ValueError("complement projector is not a clean 0/1 projection")
    rows = np.sqrt(n / k) * spec.eigenvectors[:, :k].conj()
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
    if float(w.min()) < -STRUCTURAL_TOL or abs(float(w.sum()) - 1.0) > STRUCTURAL_TOL:
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


def random_pure_state(d: int, rng) -> DensityMatrix:
    """Haar-random pure state on C^d."""
    return random_density_matrix(d, rng, rank=1)
