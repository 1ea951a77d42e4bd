"""Independent output oracle, written with plain numpy.

Every expected value is computed from the generated inputs (frame vectors
and state matrices) without calling the package. For principal Kraus
operators A_j = sqrt(d/n) |phi_j><phi_j| of a tight frame,

    G_ij = tr(A_i^dag A_j rho) = (d/n) <phi_i|phi_j> <phi_j|rho|phi_i>,

the Kirkwood-Dirac matrix is (d/n) G and the extremal outcome
distribution is the spectrum of G. Each check returns a list of problems;
an empty list means the output agrees with the oracle.
"""

from __future__ import annotations

import json

import numpy as np

# Entrywise tolerance for matrices in a report (entries are O(1/n)).
MATRIX_TOL = 1e-12
# Tolerance for spectra, probabilities and scalar overlaps.
VALUE_TOL = 1e-10
# Eigenvalues this close to zero are reported as exactly zero.
CLAMP_TOL = 1e-12


def state(spec: str, vectors: np.ndarray, matrices: dict[str, np.ndarray]) -> np.ndarray:
    """Density matrix named by a --state spec, rebuilt from the inputs."""
    d = vectors.shape[1]
    if spec == "maximally-mixed":
        return np.eye(d) / d
    kind, _, arg = spec.partition(":")
    if kind == "frame-state":
        ket = vectors[int(arg)]
        return np.outer(ket, ket.conj())
    if kind == "matrix":
        return matrices[arg]
    raise ValueError(f"the oracle has no state {spec!r}")


def gram(vectors: np.ndarray, rho: np.ndarray) -> np.ndarray:
    n, d = vectors.shape
    overlaps = vectors.conj() @ vectors.T
    sandwich = vectors.conj() @ rho @ vectors.T
    return (d / n) * overlaps * sandwich.T


def spectrum(g: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(g)[::-1]


def pairs(data) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _close(name: str, got, want, tol: float) -> list[str]:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, oracle {want.shape}"]
    gap = float(np.abs(got - want).max()) if want.size else 0.0
    return [] if gap <= tol else [f"{name}: off the oracle by {gap:.3e} > {tol:.0e}"]


def parse_report(stdout: str) -> tuple[dict | None, list[str]]:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not a JSON report: {exc}"]
    if report.get("passed") is not True:
        return report, [f"report says passed={report.get('passed')!r}"]
    return report, []


def check_kd(report: dict, vectors: np.ndarray, rho: np.ndarray) -> list[str]:
    n, d = vectors.shape
    g = gram(vectors, rho)
    return (
        _close("gram", pairs(report["gram"]), g, MATRIX_TOL)
        + _close("kd", pairs(report["kd"]), (d / n) * g, MATRIX_TOL)
        + _close("gram_spectrum", report["gram_spectrum"], spectrum(g), VALUE_TOL)
    )


def check_bounds(report: dict, vectors: np.ndarray, rho: np.ndarray) -> list[str]:
    g = gram(vectors, rho)
    purity = float(np.vdot(rho, rho).real)
    return _close("true_spectrum", report["true_spectrum"], spectrum(g), VALUE_TOL) + _close(
        "purity", report["purity"], purity, VALUE_TOL
    )


def check_extremality(
    report: dict, vectors: np.ndarray, rho: np.ndarray, samples: int, seed: int
) -> list[str]:
    expected = spectrum(gram(vectors, rho))
    expected[np.abs(expected) <= CLAMP_TOL] = 0.0
    problems = _close(
        "extremal_probabilities", report["extremal_probabilities"], expected, VALUE_TOL
    )
    if (report.get("samples"), report.get("seed")) != (samples, seed):
        problems.append(
            f"ran samples={report.get('samples')} seed={report.get('seed')}, "
            f"asked for samples={samples} seed={seed}"
        )
    return problems


def check_frame_report(report: dict, vectors: np.ndarray) -> list[str]:
    n, d = vectors.shape
    overlaps = np.abs(vectors.conj() @ vectors.T) ** 2
    measured = float(overlaps[~np.eye(n, dtype=bool)].mean())
    problems = []
    if report.get("tight") is not True or report.get("equiangular") is not True:
        problems.append("frame check did not certify an ETF")
    return (
        problems
        + _close("measured_c", report["measured_c"], measured, VALUE_TOL)
        + _close("expected_c", report["expected_c"], (n - d) / ((n - 1) * d), VALUE_TOL)
        + _close("frame_operator_spectrum", report["frame_operator_spectrum"], [n / d] * d, VALUE_TOL)
    )


def check_frame_file(path, expected: np.ndarray) -> list[str]:
    with open(path) as handle:
        data = json.load(handle)
    if (data.get("n"), data.get("d")) != expected.shape:
        return [f"{path}: size ({data.get('n')}, {data.get('d')}), expected {expected.shape}"]
    return _close(str(path), pairs(data["vectors"]), expected, MATRIX_TOL)


def check_complement_file(path, vectors: np.ndarray) -> list[str]:
    """The complement of an ETF (n, d) is an ETF (n, n - d) whose Gram matrix
    has the moduli of (n / (n - d)) (I - (d / n) G)."""
    n, d = vectors.shape
    k = n - d
    with open(path) as handle:
        data = json.load(handle)
    if (data.get("n"), data.get("d")) != (n, k):
        return [f"{path}: size ({data.get('n')}, {data.get('d')}), expected ({n}, {k})"]
    comp = pairs(data["vectors"])
    target = (n / k) * (np.eye(n) - (d / n) * (vectors.conj() @ vectors.T))
    return _close(
        "complement gram moduli", np.abs(comp.conj() @ comp.T), np.abs(target), VALUE_TOL
    ) + _close("complement frame operator", comp.T @ comp.conj(), (n / k) * np.eye(k), VALUE_TOL)


def check_qubit_sic(report: dict, sic: np.ndarray) -> list[str]:
    pure = np.outer(sic[0], sic[0].conj())
    failed = [entry["name"] for entry in report["checks"] if entry["pass"] is not True]
    problems = [f"check failed: {name}" for name in failed]
    return (
        problems
        + _close("gram_mixed", pairs(report["gram_mixed"]), gram(sic, np.eye(2) / 2), MATRIX_TOL)
        + _close("gram_pure", pairs(report["gram_pure"]), gram(sic, pure), MATRIX_TOL)
    )
