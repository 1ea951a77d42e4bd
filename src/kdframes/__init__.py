"""Tight-frame measurements, channel unravelings, Kirkwood-Dirac matrices
and the entropy and eigenvalue-location bounds they obey."""

from .bounds import (
    Interval,
    eigen_interval,
    etf_eigen_interval,
    gershgorin_disks,
    gershgorin_union,
    ic_upper_bound,
    renyi_uncertainty_bound,
    tsallis_uncertainty_bound,
)
from .channels import (
    Unraveling,
    frame_gram,
    mixed_probabilities,
    principal_kraus,
    unraveling_gram,
)
from .entropy import (
    index_of_coincidence,
    renyi_entropy,
    tsallis_entropy,
)
from .frames import (
    DensityMatrix,
    Frame,
    coherence_constant,
    complement_etf,
    frame_mixture,
    frame_operator,
    gram_matrix,
    is_equiangular,
    is_tight,
    orthonormal_frame,
    purity,
    random_density_matrix,
    sic_qubit,
)
from .linalg import (
    NUMERIC_TOL,
    STRUCTURAL_TOL,
    Tolerances,
    haar_unitary,
    hermitian_eigvals,
)

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix",
    "Frame",
    "Interval",
    "NUMERIC_TOL",
    "STRUCTURAL_TOL",
    "Tolerances",
    "Unraveling",
    "coherence_constant",
    "complement_etf",
    "eigen_interval",
    "etf_eigen_interval",
    "frame_gram",
    "frame_mixture",
    "frame_operator",
    "gershgorin_disks",
    "gershgorin_union",
    "gram_matrix",
    "haar_unitary",
    "hermitian_eigvals",
    "ic_upper_bound",
    "index_of_coincidence",
    "is_equiangular",
    "is_tight",
    "mixed_probabilities",
    "orthonormal_frame",
    "principal_kraus",
    "purity",
    "random_density_matrix",
    "renyi_entropy",
    "renyi_uncertainty_bound",
    "sic_qubit",
    "tsallis_entropy",
    "tsallis_uncertainty_bound",
    "unraveling_gram",
]
