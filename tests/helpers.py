"""Shared generators and report comparison for tests."""

from __future__ import annotations

import numpy as np


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_complex_matrix(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    a = random_complex_matrix(n, n, rng)
    return 0.5 * (a + a.conj().T)


def random_unit_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def spectrum_with_equal_tail(mu: float, t: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Hermitian matrix with eigenvalues (mu, t, ..., t) in a random basis."""
    from kdframes.linalg import haar_unitary

    u = haar_unitary(n, rng)
    diag = np.diag([mu] + [t] * (n - 1)).astype(complex)
    return u @ diag @ u.conj().T


def singular_interval(x):
    """Interval containing every singular value of x, the trace/Frobenius
    interval of its n = min(rows, cols) singular values.

    On a Hermitian PSD matrix, such as every Gram matrix a report builds, it
    equals ``eigen_interval``.
    """
    from kdframes.bounds import _trace_interval
    from kdframes.linalg import as_complex_matrix

    s = np.linalg.svd(as_complex_matrix(x, "x"), compute_uv=False)
    n = s.size
    trace_norm = float(s.sum())
    return _trace_interval(n, trace_norm, n * float(np.sum(s * s)) - trace_norm * trace_norm)


def paley_frame(p: int):
    """The (p, (p - 1)/2) Paley ETF: the p rows of the p-point DFT restricted to
    the nonzero quadratic residues mod p (sorted), scaled to unit norm.

    The residues of a prime p = 3 (mod 4) form a difference set, so the rows
    meet the Welch bound: they are tight and equiangular (Xia, Zhou and
    Giannakis, IEEE Trans. IT 51, 2005).
    """
    from kdframes.frames import Frame

    if p % 4 != 3 or any(p % k == 0 for k in range(2, int(p**0.5) + 1)):
        raise ValueError(f"Paley frames need a prime p = 3 (mod 4), got {p}")
    residues = sorted({k * k % p for k in range(1, p)})
    phases = np.outer(np.arange(p), residues) % p
    return Frame(np.exp(2j * np.pi * phases / p) / np.sqrt(len(residues)))


def operator_sum(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Channel output sum_j A_j rho A_j^dagger, written out with einsum."""
    return np.einsum("mab,bc,mdc->ad", kraus, rho, kraus.conj())


def extremal_probabilities(unraveling, rho) -> np.ndarray:
    """Outcome distribution of the Gram-diagonalizing unraveling: the Gram
    eigenvalues, with rounded zeros set to exactly zero as the reports do."""
    from kdframes.channels import unraveling_gram
    from kdframes.linalg import STRUCTURAL_TOL, hermitian_eigvals

    spectrum = hermitian_eigvals(unraveling_gram(unraveling, rho))
    return np.where(np.abs(spectrum) <= STRUCTURAL_TOL, 0.0, spectrum)


TOL = 1e-12


def assert_same(actual, expected, path: str) -> None:
    """Same keys in the same order, same strings, booleans and nulls, and
    every numeric leaf within TOL; arrays of the same shape with every
    element within TOL."""
    if isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray), f"{path}: expected an array"
        assert actual.shape == expected.shape, f"{path}: shape {actual.shape} != {expected.shape}"
        close = np.isclose(actual, expected, rtol=0.0, atol=TOL)
        assert close.all(), f"{path}: {actual[~close]!r} != {expected[~close]!r}"
    elif isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: expected an object"
        assert list(actual) == list(expected), f"{path}: keys {list(actual)} != {list(expected)}"
        for key, value in expected.items():
            assert_same(actual[key], value, f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), f"{path}: expected a list"
        assert len(actual) == len(expected), f"{path}: length {len(actual)} != {len(expected)}"
        for index, (a, e) in enumerate(zip(actual, expected)):
            assert_same(a, e, f"{path}[{index}]")
    elif isinstance(expected, (int, float)) and not isinstance(expected, bool):
        assert isinstance(actual, (int, float)) and not isinstance(actual, bool), path
        assert actual == expected or abs(actual - expected) <= TOL, (
            f"{path}: {actual!r} != {expected!r}"
        )
    else:
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"


ROW_KEYS = ["name", "slack", "tolerance", "pass"]


def assert_check_rows(report: dict) -> None:
    """The report ends in ``checks``, ``tolerances`` and ``passed``; each check
    row has a unique name and the keys name, slack, tolerance and pass, with
    ``saturated`` after them on the coincidence and entropy rows of ``bounds``
    and ``actual, expected`` after the name on ``reproduce`` rows; a row
    passes exactly when its slack is at least -tolerance, and a null slack
    fails; a row is saturated exactly when |slack| <= tolerance, so a
    saturated row passes."""
    command = report["command"]
    assert list(report)[-3:] == ["checks", "tolerances", "passed"], command
    rows = report["checks"]
    names = [row["name"] for row in rows]
    assert len(names) == len(set(names)), command
    for row in rows:
        keys = list(ROW_KEYS)
        family = row["name"].partition(":")[0]
        saturable = command == "bounds" and family in ("ic_bound", "renyi", "tsallis")
        if saturable:
            keys.append("saturated")
        if command == "reproduce qubit-sic":
            keys[1:1] = ["actual", "expected"]
        assert list(row) == keys, f"{command} {row['name']}"
        slack = row["slack"]
        assert row["pass"] is (slack is not None and slack >= -row["tolerance"]), row["name"]
        if saturable:
            saturated = slack is not None and abs(slack) <= row["tolerance"]
            assert row["saturated"] is saturated, row["name"]
    assert report["passed"] is all(row["pass"] for row in rows)


def failure_line(report: dict, label: str = "check failed") -> str:
    """The stderr line that names each failed check of a report with its slack and tolerance."""
    failed = [
        f"{row['name']} (slack {'null' if row['slack'] is None else repr(row['slack'])}"
        f" < -{row['tolerance']!r})"
        for row in report["checks"]
        if not row["pass"]
    ]
    return f"{label}: {', '.join(failed)}\n"


def cli_commands(group, path: tuple[str, ...] = ()):
    """(command line, command) of every command under a click group."""
    for name, command in group.commands.items():
        if hasattr(command, "commands"):
            yield from cli_commands(command, (*path, name))
        else:
            yield " ".join((*path, name)), command
