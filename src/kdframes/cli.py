"""Command-line interface.

Commands certify frames, emit Kirkwood-Dirac and Gram matrices, compare
eigenvalue-location and entropy bounds against achieved values, run the
extremality Monte Carlo and reproduce the built-in qubit-SIC example.

Reports are JSON on stdout; a human-readable table is added on stderr when
stderr is a terminal, and ``--format`` forces a single output. Exit codes:
0 success, 1 failed check or invariant, 2 unusable input.
"""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from . import io
from .bounds import (
    BoundReport,
    etf_eigen_interval,
    etf_spectral_bound,
    eigen_interval,
    gershgorin_disks,
    gershgorin_union,
    ic_upper_bound,
    max_eig_upper_bound,
    renyi_uncertainty_bound,
    tsallis_uncertainty_bound,
)
from .channels import (
    extremal_unraveling,
    kd_matrix,
    principal_kraus,
    transform_unraveling,
    unraveling_gram,
    unraveling_probabilities,
)
from .entropy import index_of_coincidence, renyi_entropy, tsallis_entropy
from .frames import (
    DensityMatrix,
    EtfParameters,
    Frame,
    coherence_constant,
    complement_etf,
    frame_operator,
    is_equiangular,
    is_tight,
    povm_from_frame,
    purity,
    sic_qubit,
)
from .linalg import (
    NUMERIC_TOL,
    SATURATION_TOL,
    STRUCTURAL_TOL,
    Tolerances,
    haar_unitary,
    hermitian_eig,
)


class InputError(click.ClickException):
    """Unusable input (parse or schema failure): exit code 2."""

    exit_code = 2


class CheckFailure(Exception):
    """A named verification failed: exit code 1."""


def report_options(f):
    """Add --format and the --tol-* options; the command gets ``fmt`` and one ``tol``."""

    def command(fmt, tol_structural, tol_numeric, tol_saturation, **params) -> None:
        f(fmt=fmt, tol=Tolerances(tol_structural, tol_numeric, tol_saturation), **params)

    command.__doc__ = f.__doc__
    command = click.option(
        "--format",
        "fmt",
        type=click.Choice(["json", "table"]),
        default=None,
        help="Force one output format instead of JSON plus terminal table.",
    )(command)
    command = click.option(
        "--tol-structural",
        type=float,
        default=STRUCTURAL_TOL,
        show_default=True,
        help="Absolute tolerance for structural identities.",
    )(command)
    command = click.option(
        "--tol-numeric",
        type=float,
        default=NUMERIC_TOL,
        show_default=True,
        help="Tolerance for numerical comparisons and pass flags.",
    )(command)
    command = click.option(
        "--tol-saturation",
        type=float,
        default=SATURATION_TOL,
        show_default=True,
        help="Tolerance below which a bound counts as saturated.",
    )(command)
    return command


def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values).ravel()]


def _numeric_leaves(node) -> bool:
    if isinstance(node, (list, tuple)):
        return bool(node) and all(_numeric_leaves(x) for x in node)
    return isinstance(node, (int, float)) and not isinstance(node, bool)


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
        elif isinstance(node, (list, tuple)):
            flat = all(not isinstance(x, (list, tuple, dict)) for x in node)
            if flat and _numeric_leaves(list(node)):
                body = ", ".join(format(float(x), ".8g") for x in node)
                lines.append((".".join(path), f"[{body}]"))
            elif _numeric_leaves(list(node)):
                lines.append((".".join(path), f"<{len(node)}-row numeric array>"))
            else:
                for index, value in enumerate(node):
                    walk(value, path + [str(index)])
        else:
            lines.append((".".join(path), scalar(node)))

    walk(report, [])
    width = max((len(key) for key, _ in lines), default=0)
    return "\n".join(f"{key:<{width}}  {value}" for key, value in lines)


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(report: dict, fmt: str | None) -> None:
    if fmt == "table":
        click.echo(_render_table(report))
        return
    click.echo(json.dumps(report, indent=2, default=_json_default))
    if fmt is None and sys.stderr.isatty():
        click.echo(_render_table(report), err=True)


def _finish(fmt: str | None, build, *args, label: str = "check failed") -> None:
    """Build a report, emit it, and exit 1 naming the failed checks, if any."""
    try:
        report, failures = build(*args)
    except CheckFailure as exc:
        click.echo(f"{label}: {exc}", err=True)
        sys.exit(1)
    _emit(report, fmt)
    if failures:
        click.echo(f"{label}: {', '.join(failures)}", err=True)
        sys.exit(1)


def _write_frame(f: Frame, output) -> None:
    if output:
        _call_io(io.dump_frame, f, output)
    else:
        click.echo(json.dumps(io.frame_to_dict(f), indent=2))


def _call_io(call, *args):
    """Call an io function; a FrameFileError from it is unusable input (exit 2)."""
    try:
        return call(*args)
    except io.FrameFileError as exc:
        raise InputError(str(exc)) from None


def _load_frame(path) -> Frame:
    try:
        return _call_io(io.load_frame, path)
    except ValueError as exc:
        click.echo(f"invariant failure: {exc}", err=True)
        sys.exit(1)


def _parse_alphas(text: str) -> list[float]:
    try:
        alphas = [float(a) for a in text.split(",") if a.strip()]
    except ValueError:
        raise InputError(f"malformed alpha list {text!r}") from None
    if not alphas or any(np.isnan(a) or a <= 0 for a in alphas):
        raise InputError(f"entropy orders must be positive, got {text!r}")
    return alphas


def _alpha_key(alpha: float) -> str:
    return format(alpha, "g")


def _require_tight(frame: Frame, tol: Tolerances) -> None:
    if not is_tight(frame, tol.numeric):
        raise CheckFailure("frame is not tight, it induces no POVM")


def _relative_error(bound: float, true_max: float) -> float | None:
    return (bound - true_max) / true_max if true_max > 0 else None


# ----------------------------------------------------------------------
# report builders: pure functions returning (report, failed check names)
# ----------------------------------------------------------------------


def build_frame_check_report(
    raw_vectors: np.ndarray, tol: Tolerances = Tolerances()
) -> tuple[dict, list[str]]:
    """Certify a raw vector array; returns (report, failed invariant names)."""
    n, d = raw_vectors.shape
    norm_dev = float(np.abs(np.linalg.norm(raw_vectors, axis=1) - 1.0).max())
    invariants = {
        "unit_norms": {"pass": norm_dev <= tol.numeric, "max_deviation": norm_dev},
        "n_ge_d": {"pass": bool(n >= d)},
    }
    report: dict = {
        "command": "frame check",
        "n": n,
        "d": d,
        "redundancy": n / d,
        "invariants": invariants,
        "tolerances": tol.as_dict(),
    }
    if n >= d:
        frame = Frame(raw_vectors, norm_tol=np.inf)
        measured_c = is_equiangular(frame, tol.numeric) if n >= 2 else None
        # Hermitian by construction; eigvalsh reads one triangle, so rounding cannot abort.
        spectrum = np.linalg.eigvalsh(frame_operator(frame))[::-1]
        report.update(
            {
                "tight": is_tight(frame, tol.numeric),
                "equiangular": measured_c is not None,
                "measured_c": measured_c,
                "expected_c": coherence_constant(n, d),
                "frame_operator_spectrum": _floats(spectrum),
            }
        )
    failures = [name for name, entry in invariants.items() if not entry["pass"]]
    report["passed"] = not failures
    return report, failures


def build_kd_report(
    frame: Frame, rho: DensityMatrix, state_spec: str, tol: Tolerances = Tolerances()
) -> tuple[dict, list[str]]:
    """Gram and Kirkwood-Dirac matrices plus their proportionality residual."""
    _require_tight(frame, tol)
    unraveling = principal_kraus(frame, tol.numeric)
    gram = unraveling_gram(unraveling, rho)
    kd = kd_matrix(povm_from_frame(frame, tol.numeric), rho)
    residual = float(np.abs(kd - (frame.d / frame.n) * gram).max())
    failures = [] if residual <= tol.structural else ["kd_vs_scaled_gram_residual"]
    report = {
        "command": "kd",
        "n": frame.n,
        "d": frame.d,
        "state": state_spec,
        "gram": io.complex_to_pairs(gram),
        "kd": io.complex_to_pairs(kd),
        "gram_spectrum": _floats(hermitian_eig(gram).eigenvalues),
        "kd_spectrum": _floats(hermitian_eig(kd).eigenvalues),
        "kd_vs_scaled_gram_residual": residual,
        "tolerances": tol.as_dict(),
        "passed": not failures,
    }
    return report, failures


def build_bounds_report(
    frame: Frame,
    rho: DensityMatrix,
    state_spec: str,
    alphas: list[float],
    tol: Tolerances = Tolerances(),
) -> tuple[dict, list[str]]:
    """Eigenvalue-location and entropy bounds against achieved values."""
    _require_tight(frame, tol)
    if frame.n < 2 or is_equiangular(frame, tol.numeric) is None:
        raise CheckFailure("closed-form bounds need an equiangular tight frame")
    params = EtfParameters.of_frame(frame)
    unraveling = principal_kraus(frame, tol.numeric)
    gram = unraveling_gram(unraveling, rho)
    spectrum = hermitian_eig(gram).eigenvalues
    true_max = float(spectrum[0])
    state_purity = purity(rho)
    probs = unraveling_probabilities(unraveling, rho)
    extremal = spectrum.copy()
    extremal[np.abs(extremal) <= tol.structural] = 0.0

    ic = BoundReport.upper(
        ic_upper_bound(params, state_purity), index_of_coincidence(probs), tol.saturation
    )

    interval = eigen_interval(gram, tol=tol.numeric)
    interval_slack = min(float(interval.slack(v)) for v in spectrum)
    max_bound = max_eig_upper_bound(gram)

    disks = gershgorin_disks(gram)
    union = gershgorin_union(gram)
    g_slack = min(
        max(radius - abs(v - center) for center, radius in disks)
        for v in spectrum
    )

    closed_interval = etf_eigen_interval(params, state_purity)
    closed_slack = min(float(closed_interval.slack(v)) for v in spectrum)
    spectral_bound = etf_spectral_bound(params, state_purity)

    # Entropy family -> (uncertainty bound, entropy, orders the bound covers).
    families = {
        "renyi": (renyi_uncertainty_bound, renyi_entropy, lambda a: a >= 2.0),
        "tsallis": (
            tsallis_uncertainty_bound, tsallis_entropy, lambda a: np.isfinite(a) and a <= 2.0
        ),
    }
    rows: dict = {family: [] for family in families}
    for family, (bound_of, entropy, covers) in families.items():
        for alpha in filter(covers, alphas):
            achieved = entropy(probs, alpha)
            achieved_extremal = entropy(extremal, alpha)
            row = BoundReport.lower(
                bound_of(params, state_purity, alpha),
                min(achieved, achieved_extremal),
                tol.saturation,
            )
            rows[family].append(
                {
                    "alpha": _alpha_key(alpha),
                    "bound": row.bound_value,
                    "achieved": achieved,
                    "achieved_extremal": achieved_extremal,
                    "slack": row.slack,
                    "saturated": row.saturated,
                    "pass": row.slack >= -tol.numeric,
                }
            )

    checks = {
        "ic_bound": ic.slack >= -tol.numeric,
        "eigen_interval": interval_slack >= -tol.numeric,
        "gershgorin": g_slack >= -tol.numeric,
        "closed_form_interval": closed_slack >= -tol.numeric,
        "spectral_bound": spectral_bound - true_max >= -tol.numeric,
        "max_eig_bound": max_bound - true_max >= -tol.numeric,
        "entropy_bounds": all(r["pass"] for r in rows["renyi"] + rows["tsallis"]),
    }
    failures = [name for name, ok in checks.items() if not ok]
    report = {
        "command": "bounds",
        "n": frame.n,
        "d": frame.d,
        "state": state_spec,
        "purity": state_purity,
        "true_spectrum": _floats(spectrum),
        "index_of_coincidence": {
            "achieved": ic.achieved_value,
            "bound": ic.bound_value,
            "slack": ic.slack,
            "saturated": ic.saturated,
        },
        "eigen_interval": {
            "lower": interval.lower,
            "upper": interval.upper,
            "containment_slack": interval_slack,
            "max_eig_bound": max_bound,
            "relative_error_vs_max": _relative_error(interval.upper, true_max),
        },
        "gershgorin": {
            "disks": [
                {"center": [center.real, center.imag], "radius": radius}
                for center, radius in disks
            ],
            "union_lower": union.lower,
            "union_upper": union.upper,
            "containment_slack": g_slack,
            "relative_error_vs_max": _relative_error(union.upper, true_max),
        },
        "closed_form_interval": {
            "lower": closed_interval.lower,
            "upper": closed_interval.upper,
            "containment_slack": closed_slack,
            "spectral_bound": spectral_bound,
        },
        "renyi": rows["renyi"],
        "tsallis": rows["tsallis"],
        "checks": checks,
        "tolerances": tol.as_dict(),
        "passed": not failures,
    }
    return report, failures


def build_extremality_report(
    frame: Frame,
    rho: DensityMatrix,
    state_spec: str,
    samples: int,
    seed: int,
    alphas: list[float],
    identity: bool = False,
    tol: Tolerances = Tolerances(),
) -> tuple[dict, list[str]]:
    """Monte Carlo over re-unravelings: minimum entropy slack vs. the extremal one.

    Sample i uses the deterministic generator seeded with (seed, i), so
    reports are reproducible and independent of evaluation order. Renyi
    slacks are only evaluated at orders where extremality is guaranteed
    (alpha <= 1, alpha = 2 and alpha = inf).
    """
    _require_tight(frame, tol)
    unraveling = principal_kraus(frame, tol.numeric)
    _, extremal_probs = extremal_unraveling(unraveling, rho, clamp_tol=tol.structural)
    tsallis_alphas = [a for a in alphas if np.isfinite(a)]
    renyi_alphas = sorted({a for a in alphas if a <= 1.0 or a == 2.0} | {np.inf})
    base_tsallis = {a: tsallis_entropy(extremal_probs, a) for a in tsallis_alphas}
    base_renyi = {a: renyi_entropy(extremal_probs, a) for a in renyi_alphas}
    min_tsallis = {a: np.inf for a in tsallis_alphas}
    min_renyi = {a: np.inf for a in renyi_alphas}

    for i in range(samples):
        if identity:
            mix = np.eye(unraveling.m, dtype=complex)
        else:
            mix = haar_unitary(unraveling.m, np.random.default_rng([seed, i]))
        probs = unraveling_probabilities(transform_unraveling(unraveling, mix), rho)
        for a in tsallis_alphas:
            min_tsallis[a] = min(min_tsallis[a], tsallis_entropy(probs, a) - base_tsallis[a])
        for a in renyi_alphas:
            min_renyi[a] = min(min_renyi[a], renyi_entropy(probs, a) - base_renyi[a])

    failures = [
        f"{family}:{_alpha_key(a)}"
        for family, slacks in (("tsallis", min_tsallis), ("renyi", min_renyi))
        for a, slack in slacks.items()
        if not slack >= -tol.numeric
    ]
    report = {
        "command": "verify-extremality",
        "n": frame.n,
        "d": frame.d,
        "state": state_spec,
        "samples": samples,
        "seed": seed,
        "identity_mixing": identity,
        "extremal_probabilities": _floats(extremal_probs),
        "tsallis": {
            _alpha_key(a): {"extremal": base_tsallis[a], "min_slack": float(min_tsallis[a])}
            for a in tsallis_alphas
        },
        "renyi": {
            _alpha_key(a): {"extremal": base_renyi[a], "min_slack": float(min_renyi[a])}
            for a in renyi_alphas
        },
        "tolerances": tol.as_dict(),
        "passed": not failures,
    }
    return report, failures


def build_qubit_sic_report(tol: Tolerances = Tolerances()) -> tuple[dict, list[str]]:
    """Run every check of the built-in qubit tetrahedron example."""
    frame = sic_qubit()
    n, d = frame.n, frame.d
    params = EtfParameters.of_frame(frame)
    c = params.coherence
    unraveling = principal_kraus(frame)
    checks: list[dict] = []

    def add(name: str, ok: bool, **info) -> None:
        entry = {"name": name, "pass": bool(ok)}
        entry.update(info)
        checks.append(entry)

    rho_star = DensityMatrix(np.eye(d) / d)
    gram_star = unraveling_gram(unraveling, rho_star)
    expected_star = ((1.0 - c) * np.eye(n) + c * np.ones((n, n))) / n
    deviation = float(np.abs(gram_star - expected_star).max())
    add("mixed-state gram matrix", deviation <= tol.structural, max_deviation=deviation)

    radius_expected = (n - 1) * c / n
    radii = [radius for _, radius in gershgorin_disks(gram_star)]
    deviation = max(abs(r - radius_expected) for r in radii)
    add(
        "mixed-state gershgorin radius 1/4",
        deviation <= tol.structural,
        expected=radius_expected,
        max_deviation=deviation,
    )

    closed_form_a = (d * d - 2 * d + n) / ((n - 1) * d * d)
    closed_form_b = (1.0 + (n - 1) * c * c) / n
    actual = float(np.vdot(gram_star, gram_star).real)
    add(
        "mixed-state squared Frobenius norm, two closed forms agree",
        abs(closed_form_a - closed_form_b) <= 1e-12 and abs(actual - closed_form_a) <= tol.numeric,
        closed_form_a=closed_form_a,
        closed_form_b=closed_form_b,
        actual=actual,
    )

    ket = frame.vectors[0]
    rho_pure = DensityMatrix(np.outer(ket, ket.conj()))
    gram_pure = unraveling_gram(unraveling, rho_pure)
    s3 = 1.0 / np.sqrt(3.0)
    expected_pure = (
        np.array(
            [
                [3.0, 1.0, 1.0, 1.0],
                [1.0, 1.0, 1j * s3, -1j * s3],
                [1.0, -1j * s3, 1.0, 1j * s3],
                [1.0, 1j * s3, -1j * s3, 1.0],
            ],
            dtype=complex,
        )
        / 6.0
    )
    deviation = float(np.abs(gram_pure - expected_pure).max())
    add("pure-frame-state gram matrix", deviation <= tol.structural, max_deviation=deviation)

    spectrum = hermitian_eig(gram_pure).eigenvalues
    target = np.array([2.0 / 3.0, 1.0 / 3.0, 0.0, 0.0])
    deviation = float(np.abs(spectrum - target).max())
    add(
        "pure-frame-state spectrum (2/3, 1/3, 0, 0)",
        deviation <= tol.numeric,
        eigenvalues=_floats(spectrum),
        max_deviation=deviation,
    )

    bound = max_eig_upper_bound(gram_pure)
    closed_bound = (1.0 + np.sqrt(11.0 / 3.0)) / 4.0
    add(
        "largest-eigenvalue bound (1 + sqrt(11/3))/4 below 0.729",
        abs(bound - closed_bound) <= 1e-12 and bound < 0.729,
        bound=bound,
        closed_form=closed_bound,
    )

    radius = etf_eigen_interval(params, 1.0).radius
    add(
        "purity-based interval radius sqrt(11/3)/4",
        abs(radius - np.sqrt(11.0 / 3.0) / 4.0) <= 1e-12,
        radius=radius,
    )

    union = gershgorin_union(gram_pure)
    add(
        "gershgorin union [0, 1]",
        abs(union.upper - 1.0) <= tol.numeric and union.lower <= tol.numeric,
        lower=union.lower,
        upper=union.upper,
    )

    true_max = float(spectrum[0])
    relative_new = (bound - true_max) / true_max
    relative_gershgorin = (union.upper - true_max) / true_max
    add(
        "relative errors about 9.3% and 50%",
        abs(relative_new - 0.093) <= 1e-3 and abs(relative_gershgorin - 0.5) <= 1e-3,
        interval_bound_error=relative_new,
        gershgorin_error=relative_gershgorin,
    )

    failures = [entry["name"] for entry in checks if not entry["pass"]]
    report = {
        "command": "reproduce qubit-sic",
        "n": n,
        "d": d,
        "coherence": c,
        "checks": checks,
        "gram_mixed": io.complex_to_pairs(gram_star),
        "gram_pure": io.complex_to_pairs(gram_pure),
        "tolerances": tol.as_dict(),
        "passed": not failures,
    }
    return report, failures


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
@report_options
def frame_check(frame_file, fmt, tol) -> None:
    """Certify tightness and equiangularity of a frame file."""
    raw = _call_io(io.raw_vectors_from_dict, _call_io(io.load_json, frame_file))
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
    loaded = _load_frame(frame_file)
    try:
        result = complement_etf(loaded)
    except ValueError as exc:
        click.echo(f"check failed: {exc}", err=True)
        sys.exit(1)
    _write_frame(result, output)


@main.command("kd")
@click.argument("frame_file", type=click.Path(dir_okay=False))
@click.option(
    "--state",
    "state_spec",
    default="maximally-mixed",
    show_default=True,
    help="maximally-mixed | frame-state:<j> | mixture:<w,...> | matrix:<path>",
)
@report_options
def kd_command(frame_file, state_spec, fmt, tol) -> None:
    """Emit the Gram and Kirkwood-Dirac matrices of a tight frame and a state."""
    loaded = _load_frame(frame_file)
    rho = _call_io(io.resolve_state, state_spec, loaded)
    _finish(fmt, build_kd_report, loaded, rho, state_spec, tol)


@main.command("bounds")
@click.argument("frame_file", type=click.Path(dir_okay=False))
@click.option("--state", "state_spec", default="maximally-mixed", show_default=True)
@click.option(
    "--alphas",
    default="0.5,1,2,5,inf",
    show_default=True,
    help="Comma-separated entropy orders.",
)
@report_options
def bounds_command(frame_file, state_spec, alphas, fmt, tol) -> None:
    """Compare eigenvalue-location and entropy bounds against achieved values."""
    loaded = _load_frame(frame_file)
    rho = _call_io(io.resolve_state, state_spec, loaded)
    _finish(fmt, build_bounds_report, loaded, rho, state_spec, _parse_alphas(alphas), tol)


@main.command("verify-extremality")
@click.argument("frame_file", type=click.Path(dir_okay=False))
@click.option("--state", "state_spec", default="maximally-mixed", show_default=True)
@click.option("--samples", type=int, default=200, show_default=True)
@click.option(
    "--seed",
    type=int,
    default=0,
    show_default=True,
    envvar="KDF_SEED",
    help="RNG seed; falls back to the KDF_SEED environment variable.",
)
@click.option(
    "--identity",
    is_flag=True,
    help="Use the identity mixing matrix for every sample instead of Haar draws.",
)
@click.option("--alphas", default="0.5,1,2,5", show_default=True)
@report_options
def verify_extremality(frame_file, state_spec, samples, seed, identity, alphas, fmt, tol) -> None:
    """Check that the extremal unraveling minimizes the sampled entropies."""
    if samples < 1:
        raise InputError(f"--samples must be at least 1, got {samples}")
    loaded = _load_frame(frame_file)
    rho = _call_io(io.resolve_state, state_spec, loaded)
    orders = _parse_alphas(alphas)
    _finish(
        fmt, build_extremality_report, loaded, rho, state_spec, samples, seed, orders, identity, tol
    )


@main.group("reproduce")
def reproduce() -> None:
    """Reproduce built-in worked examples."""


@reproduce.command("qubit-sic")
@report_options
def reproduce_qubit_sic(fmt, tol) -> None:
    """Run every qubit tetrahedron check: matrices, spectrum, bounds, errors."""
    _finish(fmt, build_qubit_sic_report, tol)


if __name__ == "__main__":
    main()
