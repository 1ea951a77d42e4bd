"""Command-line interface.

Commands certify frames, emit Kirkwood-Dirac and Gram matrices, compare
eigenvalue-location and entropy bounds against achieved values, run the
extremality Monte Carlo and reproduce the built-in qubit-SIC example.

Reports are JSON on stdout; a human-readable table is added on stderr when
stderr is a terminal, and ``--format`` forces a single output. Exit codes:
0 success, 1 failed check or invariant, 2 unusable input or unwritable output.
A ``FrameFileError`` exits 2 wherever it is raised; any other ValueError
exits 1, its message after the label of the command's checks.
"""

from __future__ import annotations

import errno
import os
import sys

import click
import numpy as np

from . import io
from ._jsontext import _json_text
from .bounds import (
    etf_eigen_interval,
    eigen_interval,
    gershgorin_disks,
    gershgorin_union,
    ic_upper_bound,
    renyi_uncertainty_bound,
    tsallis_uncertainty_bound,
)
from .channels import frame_gram, mixed_probabilities, principal_kraus, unraveling_gram
from .entropy import clean_probabilities, index_of_coincidence, renyi_entropy, tsallis_entropy
from .frames import (
    DensityMatrix,
    Frame,
    coherence_constant,
    complement_etf,
    frame_operator,
    is_equiangular,
    purity,
    sic_qubit,
    tightness_deviation,
)
from .linalg import STRUCTURAL_TOL, Tolerances, haar_unitary, hermitian_eigvals


class InputError(click.ClickException):
    """Unusable input (parse or schema failure) or unwritable output: exit code 2."""

    exit_code = 2


def _tolerance(ctx, param, value: float) -> float:
    # FloatRange(min=0) would let NaN through; `not value >= 0` rejects it too
    if not value >= 0:
        raise click.BadParameter(f"must be zero, positive or inf, got {value}", ctx, param)
    return value


_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "table"]),
    default=None,
    help="Force one output format instead of JSON plus terminal table.",
)

# A command offers the --tol-* flags of the tolerances its check rows read.
_structural_option = click.option(
    "--tol-structural",
    type=float,
    default=Tolerances().structural,
    show_default=True,
    callback=_tolerance,
    help="Absolute tolerance for structural identities.",
)

_numeric_option = click.option(
    "--tol-numeric",
    type=float,
    default=Tolerances().numeric,
    show_default=True,
    callback=_tolerance,
    help="Tolerance for numerical comparisons and pass flags.",
)

_state_option = click.option(
    "--state",
    "state_spec",
    default="maximally-mixed",
    show_default=True,
    help="maximally-mixed | frame-state:<j> | mixture:<w,...> | matrix:<path>",
)

_alphas_option = click.option(
    "--alphas", default="0.5,1,2,5", show_default=True, help="Comma-separated entropy orders."
)


def _render_table(report: dict) -> str:
    lines: list[tuple[str, str]] = []

    def scalar(value) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return format(value, ".10g")
        return str(value)

    def walk(node, path) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, path + [str(key)])
        elif isinstance(node, np.ndarray) and node.ndim == 1:
            body = ", ".join(format(float(x), ".8g") for x in node)
            lines.append((".".join(path), f"[{body}]"))
        elif isinstance(node, np.ndarray):
            lines.append((".".join(path), f"<{len(node)}-row numeric array>"))
        elif isinstance(node, (list, tuple)):
            for index, value in enumerate(node):
                walk(value, path + [str(index)])
        else:
            lines.append((".".join(path), scalar(node)))

    walk(report, [])
    width = max((len(key) for key, _ in lines), default=0)
    return "\n".join(f"{key:<{width}}  {value}" for key, value in lines)


def _echo(text: str) -> None:
    """Write a line on stdout; a write that fails other than by a broken pipe
    is unusable output (exit 2). A broken pipe is left to click."""
    try:
        click.echo(text)
    except OSError as exc:
        if exc.errno == errno.EPIPE:
            raise
        # Drop what stays buffered, or the flush at exit fails a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise InputError(f"cannot write stdout: {exc}") from None


def _emit(report: dict, fmt: str | None) -> None:
    if fmt == "table":
        _echo(_render_table(report))
        return
    _echo(_json_text(report))
    if fmt is None and sys.stderr.isatty():
        click.echo(_render_table(report), err=True)


def _fail(label: str, message) -> None:
    """Print ``<label>: <message>`` on stderr and exit 1."""
    click.echo(f"{label}: {message}", err=True)
    sys.exit(1)


def _checked(call, *args, label: str = "check failed"):
    """Call a function; a FrameFileError from it is unusable input (exit 2),
    any other ValueError a failed check or invariant (exit 1)."""
    try:
        return call(*args)
    except io.FrameFileError as exc:
        raise InputError(str(exc)) from None
    except ValueError as exc:
        _fail(label, exc)


def _finish(fmt: str | None, build, *args, label: str = "check failed") -> None:
    """Build and emit a report; exit 1 naming each failed check with its slack
    and tolerance, or naming a guard's ValueError."""
    report = _checked(build, *args, label=label)
    _emit(report, fmt)
    failures = [
        f"{row['name']} (slack {'null' if row['slack'] is None else repr(row['slack'])}"
        f" < -{row['tolerance']!r})"
        for row in report["checks"]
        if not row["pass"]
    ]
    if failures:
        _fail(label, ", ".join(failures))


def _write_frame(f: Frame, output) -> None:
    if output:
        _checked(io.dump_frame, f, output)
    else:
        _echo(_json_text(io.frame_to_dict(f)))


def _load_frame(path) -> Frame:
    return _checked(io.load_frame, path, label="invariant failure")


def _parse_alphas(text: str) -> list[float]:
    try:
        alphas = [float(a) for a in text.split(",") if a.strip()]
    except ValueError:
        raise InputError(f"malformed alpha list {text!r}") from None
    if not alphas:
        raise InputError(f"no entropy order given in {text!r}")
    if any(np.isnan(a) or a <= 0 for a in alphas):
        raise InputError(f"entropy orders must be positive, got {text!r}")
    # one report row per distinct order, in the order first given
    return list(dict.fromkeys(alphas))


def _alpha_key(alpha: float) -> str:
    """Short label of an order; ``repr`` where six digits would merge distinct orders."""
    short = format(alpha, "g")
    return short if float(short) == alpha else repr(alpha)


def _orders(alphas: list[float]) -> list[tuple]:
    """The entropy rows of both the bounds and the extremality report, each
    (family, order, entropy, uncertainty bound): Tsallis at every finite
    order as given, then Renyi at every order and inf, ascending. An empty
    list gives no rows."""
    tsallis = [a for a in alphas if np.isfinite(a)]
    renyi = sorted({*alphas, np.inf}) if alphas else []
    return [("tsallis", a, tsallis_entropy, tsallis_uncertainty_bound) for a in tsallis] + [
        ("renyi", a, renyi_entropy, renyi_uncertainty_bound) for a in renyi
    ]


# Haar samples whose outcome distributions share one entropy evaluation per
# order; bounds the memory of verify-extremality independently of --samples.
_SAMPLE_BLOCK = 256

# Bytes of complex128 in one stack of Haar unitaries drawn and mixed together:
# a stack this small keeps the batched QR in cache. From n = 64 on a single
# unitary exceeds it, and each stack holds one.
_HAAR_CHUNK_BYTES = 1 << 16


def _relative_error(bound: float, true_max: float) -> float | None:
    return (bound - true_max) / true_max if true_max > 0 else None


def _clamp_zeros(spectrum: np.ndarray) -> np.ndarray:
    """Extremal outcome probabilities: the Gram spectrum with entries within
    STRUCTURAL_TOL of zero set to exactly zero, whatever the --tol-* flags."""
    return np.where(np.abs(spectrum) <= STRUCTURAL_TOL, 0.0, spectrum)


def _finite(value):
    """The value, or None (JSON null) if an overflow left inf or NaN in it."""
    return value if np.isfinite(value).all() else None


def _check(name: str, slack: float, tolerance: float, **measured) -> dict:
    """One check row, the values ``measured`` after its name. It passes when
    slack >= -tolerance, so a NaN or -inf slack fails; a slack that is not
    finite prints as null."""
    slack = float(slack) + 0.0  # a zero slack prints as 0.0, not -0.0
    row = {"name": name, **measured, "slack": _finite(slack), "tolerance": tolerance}
    return {**row, "pass": slack >= -tolerance}


def _verdict(report: dict, checks: list[dict], **tolerances: float) -> dict:
    """The report, ending in its check rows, the tolerances they read (those
    whose --tol-* flags its command offers) and whether every row passed."""
    report.update(checks=checks, tolerances=tolerances, passed=all(row["pass"] for row in checks))
    return report


# ----------------------------------------------------------------------
# report builders: pure functions returning a report that _verdict ends
# ----------------------------------------------------------------------


# Finite entries can overflow (1e200 squares to inf): such a frame fails its
# checks without numpy warnings, and its overflowed fields print as null.
@np.errstate(over="ignore", invalid="ignore")
def build_frame_check_report(raw_vectors: np.ndarray, tol: Tolerances = Tolerances()) -> dict:
    """Certify a raw vector array: unit norms, n >= d and, when n >= d, tightness."""
    n, d = raw_vectors.shape
    norm_dev = np.abs(np.linalg.norm(raw_vectors, axis=1) - 1.0).max()
    checks = [_check("unit_norms", -norm_dev, tol.numeric), _check("n_ge_d", n - d, 0.0)]
    report: dict = {"command": "frame check", "n": n, "d": d, "redundancy": n / d}
    if n >= d:
        frame = Frame(raw_vectors, norm_tol=np.inf)
        operator = frame_operator(frame)
        checks.append(_check("tight", -tightness_deviation(operator, n), tol.numeric))
        measured_c = is_equiangular(frame) if n >= 2 else None
        # Hermitian by construction; eigvalsh reads one triangle, so rounding cannot abort.
        spectrum = np.linalg.eigvalsh(operator)[::-1]
        report.update(
            {
                "tight": checks[-1]["pass"],
                "equiangular": measured_c is not None,
                "measured_c": measured_c,
                "expected_c": coherence_constant(n, d),
                "frame_operator_spectrum": _finite(spectrum),
            }
        )
    return _verdict(report, checks, numeric=tol.numeric)


def build_kd_report(
    frame: Frame, rho: DensityMatrix, state_spec: str, tol: Tolerances = Tolerances()
) -> dict:
    """Gram and Kirkwood-Dirac matrices, checked by their proportionality residual.

    For a tight frame the KD matrix tr(E_i E_j rho) is (d/n) times the Gram
    matrix, so both come from the closed form ``frame_gram`` and share one
    spectrum. The residual compares that closed form with the Kraus
    definition tr(A_i^dag A_j rho) of the Gram matrix (``unraveling_gram``
    on the principal Kraus operators): max |kd - (d/n) unraveling_gram|.
    """
    scale = frame.d / frame.n
    gram = frame_gram(frame, rho)
    kd = scale * gram
    spectrum = hermitian_eigvals(gram)
    residual = np.abs(kd - scale * unraveling_gram(principal_kraus(frame), rho)).max()
    report = {
        "command": "kd",
        "n": frame.n,
        "d": frame.d,
        "state": state_spec,
        "gram": io.complex_to_pairs(gram),
        "kd": io.complex_to_pairs(kd),
        "gram_spectrum": spectrum,
        "kd_spectrum": scale * spectrum,
    }
    checks = [_check("kd_vs_scaled_gram_residual", -residual, tol.structural)]
    return _verdict(report, checks, structural=tol.structural)


def build_bounds_report(
    frame: Frame,
    rho: DensityMatrix,
    state_spec: str,
    alphas: list[float],
    tol: Tolerances = Tolerances(),
) -> dict:
    """Eigenvalue-location and entropy bounds against achieved values.

    Each bound is one check row. An interval's slack is the least distance
    of any eigenvalue to its nearer end, so its row also checks the
    largest-eigenvalue bound, the interval's upper end. The coincidence and
    entropy rows also say whether the bound is saturated: |slack| <= tolerance.
    Entropy rows are those of ``_orders``, as in the extremality report.
    """
    gram = frame_gram(frame, rho)
    if frame.n < 2 or is_equiangular(frame) is None:
        raise ValueError("closed-form bounds need an equiangular tight frame")
    n, d = frame.n, frame.d
    spectrum = hermitian_eigvals(gram)
    true_max = float(spectrum[0])
    state_purity = purity(rho)
    probs = clean_probabilities(np.diagonal(gram).real)
    extremal = _clamp_zeros(spectrum)

    def saturable(name: str, slack: float) -> dict:
        return {**_check(name, slack, tol.numeric), "saturated": bool(abs(slack) <= tol.numeric)}

    ic_bound = ic_upper_bound(n, d, state_purity)
    ic_achieved = index_of_coincidence(probs)
    interval = eigen_interval(gram)
    centers, radii = gershgorin_disks(gram)
    union = gershgorin_union(centers, radii)
    closed_interval = etf_eigen_interval(n, d, state_purity)
    # each eigenvalue's depth inside its best disk; the worst eigenvalue counts
    g_slack = (radii - np.abs(spectrum[:, None] - centers)).max(axis=1).min()
    checks = [
        # The IC bound is an upper bound, so its slack is bound - achieved.
        saturable("ic_bound", ic_bound - ic_achieved),
        _check("eigen_interval", interval.slack(spectrum).min(), tol.numeric),
        _check("gershgorin", g_slack, tol.numeric),
        _check("closed_form_interval", closed_interval.slack(spectrum).min(), tol.numeric),
    ]

    # An uncertainty bound is a lower bound: slack is the smaller achieved value - bound.
    rows: dict = {"tsallis": [], "renyi": []}
    for family, alpha, entropy, uncertainty_bound in _orders(alphas):
        key = _alpha_key(alpha)
        bound = uncertainty_bound(n, d, state_purity, alpha)
        achieved = entropy(probs, alpha)
        achieved_extremal = entropy(extremal, alpha)
        rows[family].append(
            dict(alpha=key, bound=bound, achieved=achieved, achieved_extremal=achieved_extremal)
        )
        checks.append(saturable(f"{family}:{key}", min(achieved, achieved_extremal) - bound))

    report = {
        "command": "bounds",
        "n": n,
        "d": d,
        "state": state_spec,
        "purity": state_purity,
        "true_spectrum": spectrum,
        "index_of_coincidence": {"achieved": ic_achieved, "bound": ic_bound},
        "eigen_interval": {
            "lower": interval.lower,
            "upper": interval.upper,
            "relative_error_vs_max": _relative_error(interval.upper, true_max),
        },
        "gershgorin": {
            "disks": [
                {"center": center, "radius": radius}
                for center, radius in zip(io.complex_to_pairs(centers), radii.tolist())
            ],
            "union_lower": union.lower,
            "union_upper": union.upper,
            "relative_error_vs_max": _relative_error(union.upper, true_max),
        },
        "closed_form_interval": {"lower": closed_interval.lower, "upper": closed_interval.upper},
        **rows,
    }
    return _verdict(report, checks, numeric=tol.numeric)


def build_extremality_report(
    frame: Frame,
    rho: DensityMatrix,
    state_spec: str,
    samples: int,
    seed: int,
    alphas: list[float],
    tol: Tolerances = Tolerances(),
) -> dict:
    """Monte Carlo over re-unravelings: minimum entropy slack vs. the extremal one.

    Sample i uses the deterministic generator seeded with (seed, i), so
    reports are reproducible and independent of evaluation order. Its
    outcome distribution is diag(V^dag G V) for the closed-form Gram matrix
    G. The unitaries V are drawn and mixed in stacks of at most
    _HAAR_CHUNK_BYTES, and the entropies of up to _SAMPLE_BLOCK samples are
    evaluated together. Each entropy row of ``_orders`` keeps its extremal
    entropy, printed under its family and order, and the least sampled
    entropy; the check row ``<family>:<order>`` holds the least minus the
    extremal one.
    """
    gram = frame_gram(frame, rho)
    extremal_probs = _clamp_zeros(hermitian_eigvals(gram))
    rows = _orders(alphas)
    extremal = [entropy(extremal_probs, a) for _, a, entropy, _ in rows]
    least = [np.inf] * len(rows)

    n = frame.n
    chunk = max(1, _HAAR_CHUNK_BYTES // (np.dtype(complex).itemsize * n * n))

    def mixing(start: int, stop: int) -> np.ndarray:
        """The (stop - start, n, n) stack of Haar unitaries of those samples."""
        return haar_unitary(n, [np.random.default_rng([seed, i]) for i in range(start, stop)])

    for start in range(0, samples, _SAMPLE_BLOCK):
        stop = min(start + _SAMPLE_BLOCK, samples)
        block = np.concatenate(
            [
                mixed_probabilities(gram, mixing(i, min(i + chunk, stop)))
                for i in range(start, stop, chunk)
            ]
        )
        for i, (_, a, entropy, _) in enumerate(rows):
            least[i] = min(least[i], float(np.min(entropy(block, a))))

    report = {
        "command": "verify-extremality",
        "n": frame.n,
        "d": frame.d,
        "state": state_spec,
        "samples": samples,
        "seed": seed,
        "extremal_probabilities": extremal_probs,
        "tsallis": {},
        "renyi": {},
    }
    checks = []
    for (family, a, *_), floor, sampled in zip(rows, extremal, least):
        key = _alpha_key(a)
        report[family][key] = floor
        checks.append(_check(f"{family}:{key}", sampled - floor, tol.numeric))
    return _verdict(report, checks, numeric=tol.numeric)


def build_qubit_sic_report(tol: Tolerances = Tolerances()) -> dict:
    """Check the paper's qubit tetrahedron figures against the kd and bounds reports.

    Each check reads a value off ``build_kd_report`` or ``build_bounds_report``
    of ``sic_qubit()`` at the maximally mixed state and at frame state 0. Its
    slack is -max |actual - expected| elementwise, complex matrices compared
    as [re, im] pairs; "below 0.729" is one-sided, with slack 0.729 - bound
    at tolerance 0. The inner reports run at the default tolerances: no
    value read here depends on them, and ``tol`` governs the checks only.
    """
    frame = sic_qubit()
    n, d = frame.n, frame.d
    c = coherence_constant(n, d)

    def reports(spec: str) -> tuple[dict, dict]:
        rho = io.resolve_state(spec, frame)
        return build_kd_report(frame, rho, spec), build_bounds_report(frame, rho, spec, [])

    kd_mixed, bounds_mixed = reports("maximally-mixed")
    kd_pure, bounds_pure = reports("frame-state:0")
    interval, gershgorin = bounds_pure["eigen_interval"], bounds_pure["gershgorin"]

    w = 1j / np.sqrt(3.0)
    gram_pure = np.array([[3, 1, 1, 1], [1, 1, w, -w], [1, -w, 1, w], [1, w, -w, 1]]) / 6.0
    gram_mixed = ((1.0 - c) * np.eye(n) + c * np.ones((n, n))) / n
    pairs_pure, pairs_mixed = io.complex_to_pairs(gram_pure), io.complex_to_pairs(gram_mixed)
    frobenius = float(np.vdot(kd_mixed["gram"], kd_mixed["gram"]))
    frobenius_a = (d * d - 2 * d + n) / ((n - 1) * d * d)
    frobenius_b = (1.0 + (n - 1) * c * c) / n
    radii = np.array([disk["radius"] for disk in bounds_mixed["gershgorin"]["disks"]])
    bound = interval["upper"]
    root = float(np.sqrt(11.0 / 3.0))
    closed = bounds_pure["closed_form_interval"]
    radius = 0.5 * (closed["upper"] - closed["lower"])
    union = np.array([gershgorin["union_lower"], gershgorin["union_upper"]])
    errors = np.array([interval["relative_error_vs_max"], gershgorin["relative_error_vs_max"]])
    exact_errors = np.array([3.0 * (1.0 + root) / 8.0 - 1.0, 0.5])  # about 9.3% and 50%

    def check(name: str, actual, expected, tolerance: float) -> dict:
        slack = -np.max(np.abs(np.subtract(actual, expected)))
        return _check(name, slack, tolerance, actual=actual, expected=expected)

    checks = [
        check("mixed-state gram matrix", kd_mixed["gram"], pairs_mixed, tol.structural),
        check("mixed-state gershgorin radius 1/4", radii, (n - 1) * c / n, tol.structural),
        check("mixed-state squared Frobenius norm", frobenius, frobenius_a, tol.numeric),
        # closed form b against closed form a
        check(
            "mixed-state squared Frobenius norm, two closed forms agree",
            frobenius_b,
            frobenius_a,
            tol.structural,
        ),
        check("pure-frame-state gram matrix", kd_pure["gram"], pairs_pure, tol.structural),
        check(
            "pure-frame-state spectrum (2/3, 1/3, 0, 0)",
            kd_pure["gram_spectrum"],
            np.array([2.0 / 3.0, 1.0 / 3.0, 0.0, 0.0]),
            tol.numeric,
        ),
        check("largest-eigenvalue bound (1 + sqrt(11/3))/4", bound, (1 + root) / 4, tol.structural),
        # one-sided: a bound at or below 0.729 passes
        _check(
            "largest-eigenvalue bound below 0.729", 0.729 - bound, 0.0, actual=bound, expected=0.729
        ),
        check("purity-based interval radius sqrt(11/3)/4", radius, root / 4.0, tol.structural),
        check("gershgorin union [0, 1]", union, np.array([0.0, 1.0]), tol.numeric),
        check("relative errors 3(1 + sqrt(11/3))/8 - 1 and 1/2", errors, exact_errors, tol.numeric),
    ]
    report = {
        "command": "reproduce qubit-sic",
        "n": n,
        "d": d,
        "coherence": c,
        "gram_mixed": kd_mixed["gram"],
        "gram_pure": kd_pure["gram"],
    }
    return _verdict(report, checks, structural=tol.structural, numeric=tol.numeric)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


@click.group()
def main() -> None:
    """Tight-frame measurements, Kirkwood-Dirac matrices and their bounds."""


@main.group()
def frame() -> None:
    """Frame certification and generation."""


@frame.command("check")
@click.argument("frame_file", type=click.Path(dir_okay=False))
@_numeric_option
@_format_option
def frame_check(frame_file, tol_numeric, fmt) -> None:
    """Certify tightness and equiangularity of a frame file."""
    raw = _checked(io.raw_vectors_from_dict, _checked(io.load_json, frame_file))
    tol = Tolerances(numeric=tol_numeric)
    _finish(fmt, build_frame_check_report, raw, tol, label="invariant failure")


@frame.group("gen")
def frame_gen() -> None:
    """Generate built-in frames as frame files."""


@frame_gen.command("sic2")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
def gen_sic2(output) -> None:
    """Write the qubit tetrahedron frame (n=4, d=2)."""
    _write_frame(sic_qubit(), output)


@frame_gen.command("complement")
@click.argument("frame_file", type=click.Path(dir_okay=False))
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
def gen_complement(frame_file, output) -> None:
    """Write the complement ETF of an equiangular tight frame file."""
    _write_frame(_checked(complement_etf, _load_frame(frame_file)), output)


@main.command("kd")
@click.argument("frame_file", type=click.Path(dir_okay=False))
@_state_option
@_structural_option
@_format_option
def kd_command(frame_file, state_spec, tol_structural, fmt) -> None:
    """Emit the Gram and Kirkwood-Dirac matrices of a tight frame and a state."""
    loaded = _load_frame(frame_file)
    rho = _checked(io.resolve_state, state_spec, loaded)
    tol = Tolerances(structural=tol_structural)
    _finish(fmt, build_kd_report, loaded, rho, state_spec, tol)


@main.command("bounds")
@click.argument("frame_file", type=click.Path(dir_okay=False))
@_state_option
@_alphas_option
@_numeric_option
@_format_option
def bounds_command(frame_file, state_spec, alphas, tol_numeric, fmt) -> None:
    """Compare eigenvalue-location and entropy bounds against achieved values."""
    loaded = _load_frame(frame_file)
    rho = _checked(io.resolve_state, state_spec, loaded)
    orders, tol = _parse_alphas(alphas), Tolerances(numeric=tol_numeric)
    _finish(fmt, build_bounds_report, loaded, rho, state_spec, orders, tol)


@main.command("verify-extremality")
@click.argument("frame_file", type=click.Path(dir_okay=False))
@_state_option
@click.option("--samples", type=click.IntRange(min=1), default=200, show_default=True)
@click.option(
    "--seed",
    type=click.IntRange(min=0),
    default=0,
    show_default=True,
    help="RNG seed.",
)
@_alphas_option
@_numeric_option
@_format_option
def verify_extremality(frame_file, state_spec, samples, seed, alphas, tol_numeric, fmt) -> None:
    """Check that the extremal unraveling minimizes the sampled entropies."""
    loaded = _load_frame(frame_file)
    rho = _checked(io.resolve_state, state_spec, loaded)
    orders, tol = _parse_alphas(alphas), Tolerances(numeric=tol_numeric)
    _finish(fmt, build_extremality_report, loaded, rho, state_spec, samples, seed, orders, tol)


@main.group("reproduce")
def reproduce() -> None:
    """Reproduce built-in worked examples."""


@reproduce.command("qubit-sic")
@_numeric_option
@_structural_option
@_format_option
def reproduce_qubit_sic(tol_numeric, tol_structural, fmt) -> None:
    """Run every qubit tetrahedron check: matrices, spectrum, bounds, errors."""
    tol = Tolerances(structural=tol_structural, numeric=tol_numeric)
    _finish(fmt, build_qubit_sic_report, tol)


if __name__ == "__main__":
    main()
