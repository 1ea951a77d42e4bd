"""Reports and the Gram kernel on Paley ETFs beyond the qubit sizes.

The (19, 9) and (43, 21) Paley frames and their Naimark complements
(19, 10) and (43, 22) have coherence far from the (4, 2) cases, so every
bound, the Gram kernel and the extremality Monte Carlo get checked where a
wrong reshape or a d-dependent constant would show. The entropy-order sweep
also runs on the golden frames.
"""

import functools
import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import kdframes.cli
from helpers import extremal_probabilities, paley_frame
from kdframes import io
from kdframes.bounds import gram_frobenius_sq, ic_upper_bound
from kdframes.channels import frame_gram, mixed_probabilities, principal_kraus, unraveling_gram
from kdframes.cli import build_bounds_report, build_extremality_report, build_kd_report
from kdframes.entropy import alpha_log, renyi_entropy, tsallis_entropy
from kdframes.frames import DensityMatrix, complement_etf, purity, random_density_matrix, sic_qubit
from kdframes.linalg import haar_unitary
from reference import kd_matrix, povm_from_frame, transform_unraveling, unraveling_probabilities

# (p, whether to take the Naimark complement of the Paley frame)
FRAMES = [(19, False), (43, False), (19, True), (43, True)]
STATES = ["maximally-mixed", "frame-state:0", "random"]


def state_of(frame, spec: str) -> DensityMatrix:
    if spec == "maximally-mixed":
        return DensityMatrix(np.eye(frame.d) / frame.d)
    if spec == "frame-state:0":
        ket = frame.vectors[0]
        return DensityMatrix(np.outer(ket, ket.conj()))
    return random_density_matrix(frame.d, frame.n)


def rank_one_gram(frame, rho: DensityMatrix) -> np.ndarray:
    """(d/n) <phi_i|phi_j> <phi_j|rho|phi_i> for frame vectors phi as rows."""
    v = frame.vectors
    overlaps = v.conj() @ v.T
    sandwich = v.conj() @ rho.matrix @ v.T
    return (frame.d / frame.n) * overlaps * sandwich.T


@pytest.fixture(
    scope="module",
    params=FRAMES,
    ids=lambda case: f"paley{case[0]}" + ("-complement" if case[1] else ""),
)
def frame(request):
    p, complement = request.param
    return complement_etf(paley_frame(p)) if complement else paley_frame(p)


@pytest.mark.parametrize("spec", STATES)
def test_gram_matches_rank_one_closed_form(frame, spec):
    rho = state_of(frame, spec)
    gram = unraveling_gram(principal_kraus(frame), rho)
    assert np.abs(gram - rank_one_gram(frame, rho)).max() <= 1e-12


@pytest.mark.parametrize("spec", STATES)
def test_bounds_report_passes_every_check(frame, spec):
    rho = state_of(frame, spec)
    report = build_bounds_report(frame, rho, spec, [0.5, 1.0, 2.0, 5.0, np.inf])
    assert report["passed"]
    expected = np.linalg.eigvalsh(rank_one_gram(frame, rho))[::-1]
    assert np.abs(np.array(report["true_spectrum"]) - expected).max() <= 1e-12
    # reference for the Gershgorin containment slack: a plain loop over eigenvalues and disks
    disks = [(complex(*disk["center"]), disk["radius"]) for disk in report["gershgorin"]["disks"]]
    loop_slack = min(
        max(radius - abs(v - center) for center, radius in disks)
        for v in report["true_spectrum"]
    )
    (gershgorin,) = [row for row in report["checks"] if row["name"] == "gershgorin"]
    assert abs(gershgorin["slack"] - loop_slack) <= 1e-12


# The golden frames and the Paley (19, 9) frame and its complement.
SWEEP_FRAMES = {
    "sic2": sic_qubit,
    "sic2-complement": lambda: complement_etf(sic_qubit()),
    "paley7": lambda: paley_frame(7),
    "paley19": lambda: paley_frame(19),
    "paley19-complement": lambda: complement_etf(paley_frame(19)),
}


@functools.cache
def sweep_frame(name: str):
    return SWEEP_FRAMES[name]()


@settings(deadline=None, max_examples=1000)
@given(
    name=st.sampled_from(sorted(SWEEP_FRAMES)),
    kind=st.sampled_from(["maximally-mixed", "frame-state", "random"]),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.one_of(st.floats(0.0, 50.0, exclude_min=True), st.just(np.inf)),
)
def test_entropy_bounds_hold_at_every_order(name, kind, seed, alpha):
    """Every entropy row of ``bounds`` passes at every order alpha in (0, 50]
    and at inf, and each Tsallis bound is the deformed logarithm of exp of
    the Renyi bound; up to alpha = 2, of 1/F, F the Frobenius bound."""
    frame = sweep_frame(name)
    n, d = frame.n, frame.d
    if kind == "random":
        spec = f"random:{seed}"
        rho = random_density_matrix(d, seed, rank=1 + seed % d)
    else:
        spec = f"frame-state:{seed % n}" if kind == "frame-state" else kind
        rho = io.resolve_state(spec, frame)
    report = build_bounds_report(frame, rho, spec, [alpha])
    checks = {row["name"]: row for row in report["checks"]}
    for family in ("tsallis", "renyi"):
        for row in report[family]:
            check = checks[f"{family}:{row['alpha']}"]
            assert check["slack"] >= -check["tolerance"], check
    assert report["passed"]
    renyi = {row["alpha"]: row["bound"] for row in report["renyi"]}
    p = purity(rho)
    frobenius = gram_frobenius_sq(n, d, ic_upper_bound(n, d, p), p)
    for row in report["tsallis"]:
        assert row["bound"] == alpha_log(np.exp(renyi[row["alpha"]]), alpha)
        if alpha <= 2.0:
            assert abs(row["bound"] - alpha_log(1.0 / frobenius, alpha)) <= 1e-12


@pytest.mark.parametrize("p", [19, 43])
def test_bounds_report_diagonalizes_the_gram_matrix_once(monkeypatch, p):
    frame = paley_frame(p)
    rho = state_of(frame, "frame-state:0")
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(m):
        calls.append(m.shape)
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    build_bounds_report(frame, rho, "frame-state:0", [0.5, 1.0, 2.0, 5.0, np.inf])
    assert calls == [(frame.n, frame.n)]


@pytest.mark.parametrize("spec", STATES)
def test_kd_report_passes(frame, spec):
    rho = state_of(frame, spec)
    report = build_kd_report(frame, rho, spec)
    assert report["passed"]
    (residual,) = report["checks"]
    assert residual["name"] == "kd_vs_scaled_gram_residual" and -residual["slack"] <= 1e-12
    # the KD matrix from its effect definition tr(E_i E_j rho)
    expected = kd_matrix(povm_from_frame(frame), rho)
    assert np.abs(io.pairs_to_complex(report["kd"]) - expected).max() <= 1e-12
    expected_spectrum = np.linalg.eigvalsh(expected)[::-1]
    assert np.abs(np.array(report["kd_spectrum"]) - expected_spectrum).max() <= 1e-12


@pytest.mark.parametrize("spec", STATES)
@pytest.mark.parametrize("p", [2, 7, 19, 43], ids=lambda p: "sic2" if p == 2 else f"paley{p}")
def test_gram_and_kd_are_exactly_hermitian(p, spec):
    """G[j, i] equals conj(G[i, j]) exactly, and the diagonal's imaginary part
    is +0.0; so do the printed [re, im] pairs of G and of the KD matrix.

    Equal nonzero floats have equal bits; a zero may carry either sign, as
    an imaginary part that cancels exactly sums to +0.0 on both sides.
    """
    frame = sic_qubit() if p == 2 else paley_frame(p)
    rho = state_of(frame, spec)
    gram = frame_gram(frame, rho)
    assert np.array_equal(gram, gram.conj().T)
    report = build_kd_report(frame, rho, spec)
    for key in ("gram", "kd"):
        pairs = report[key]
        mirrored = np.stack([pairs[..., 0].T, -pairs[..., 1].T], axis=-1)
        assert np.array_equal(mirrored, pairs), key
        assert np.diagonal(pairs[..., 1]).tobytes() == np.zeros(frame.n).tobytes(), key


def test_kd_report_diagonalizes_once_and_builds_one_stack(monkeypatch, frame):
    rho = state_of(frame, "frame-state:0")
    calls, stacks = [], []
    eigvalsh = np.linalg.eigvalsh
    kraus = kdframes.cli.principal_kraus

    def counted(m):
        calls.append(m.shape)
        return eigvalsh(m)

    def spy(f):
        stacks.append(f.n)
        return kraus(f)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(kdframes.cli, "principal_kraus", spy)
    build_kd_report(frame, rho, "frame-state:0")
    assert calls == [(frame.n, frame.n)]
    assert stacks == [frame.n]


@pytest.mark.parametrize("spec", STATES)
def test_extremality_report_passes(frame, spec):
    rho = state_of(frame, spec)
    report = build_extremality_report(frame, rho, spec, 10, 3, [0.5, 1.0, 2.0, 5.0])
    assert report["passed"]
    expected = np.linalg.eigvalsh(rank_one_gram(frame, rho))[::-1]
    assert np.abs(np.array(report["extremal_probabilities"]) - expected).max() <= 1e-12


def general_path_min_slacks(frame, rho, samples, seed, alphas) -> dict:
    """Minimum entropy slacks written out on the general Kraus path: for each
    sample, the re-unraveled Kraus stack, its outcome distribution and one
    scalar entropy per order."""
    u = principal_kraus(frame)
    extremal = extremal_probabilities(u, rho)
    orders = {
        "tsallis": (tsallis_entropy, [a for a in alphas if np.isfinite(a)]),
        "renyi": (renyi_entropy, sorted({*alphas, np.inf})),
    }
    sampled = [
        unraveling_probabilities(
            transform_unraveling(u, haar_unitary(u.m, np.random.default_rng([seed, i]))), rho
        )
        for i in range(samples)
    ]
    slacks = {}
    for family, (entropy, family_orders) in orders.items():
        slacks[family] = {
            a: min(entropy(probs, a) - entropy(extremal, a) for probs in sampled)
            for a in family_orders
        }
    return slacks


def assert_matches(report: dict, expected: dict) -> None:
    """The report's rows are the expected orders, each slack within 1e-12."""
    reported = {row["name"]: row["slack"] for row in report["checks"]}
    for family, slacks in expected.items():
        assert list(report[family]) == [format(a, "g") for a in slacks]
        for a, slack in slacks.items():
            assert abs(reported[f"{family}:{format(a, 'g')}"] - slack) <= 1e-12


# 7 samples span three blocks of 3, the last one partial, and Haar stacks
# of 2 straddle those blocks; a single sample pins the generator of sample 0.
# The second order list is unsorted, repeats inf and has Renyi orders in
# (1, 2) and above 2, which every block must fill in too.
@pytest.mark.parametrize("samples", [1, 7])
@pytest.mark.parametrize(
    "block, chunk",
    [(None, None), (3, None), (3, 2)],
    ids=["one-block", "blocks-of-3", "blocks-of-3-chunks-of-2"],
)
@pytest.mark.parametrize(
    "alphas",
    [[0.5, 1.0, 2.0, 5.0], [3.0, 1.5, np.inf]],
    ids=["orders-0.5-1-2-5", "orders-3-1.5-inf"],
)
@pytest.mark.parametrize("complement", [False, True], ids=["paley19", "paley19-complement"])
def test_extremality_matches_the_general_path(
    monkeypatch, complement, alphas, block, chunk, samples
):
    frame = complement_etf(paley_frame(19)) if complement else paley_frame(19)
    if block is not None:
        monkeypatch.setattr(kdframes.cli, "_SAMPLE_BLOCK", block)
    if chunk is not None:
        monkeypatch.setattr(kdframes.cli, "_HAAR_CHUNK_BYTES", chunk * 16 * frame.n**2)
    rho = state_of(frame, "frame-state:0")
    report = build_extremality_report(frame, rho, "frame-state:0", samples, 5, alphas)
    assert_matches(report, general_path_min_slacks(frame, rho, samples, 5, alphas))


def test_every_renyi_order_asked_for_gets_a_row(tmp_path):
    """--alphas reaches the builder: orders in (1, 2) and above 2 get Renyi rows."""
    path = tmp_path / "paley19.json"
    io.dump_frame(paley_frame(19), path)
    args = ["verify-extremality", str(path), "--state", "frame-state:0", "--samples", "7"]
    args += ["--seed", "5", "--alphas", "1.5,3", "--format", "json"]
    result = CliRunner().invoke(kdframes.cli.main, args, catch_exceptions=False)
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert list(report["renyi"]) == ["1.5", "3", "inf"]


@pytest.mark.parametrize(
    "frame_of, spec",
    [
        (sic_qubit, "frame-state:0"),
        (lambda: paley_frame(19), "frame-state:0"),
        (lambda: paley_frame(19), "maximally-mixed"),
    ],
    ids=["sic2-frame-state0", "paley19-frame-state0", "paley19-maximally-mixed"],
)
def test_principal_unraveling_gap(frame_of, spec):
    """The unmixed (principal) unraveling's outcome distribution is diag G,
    and its entropy sits at or above the extremal one at every order."""
    frame = frame_of()
    rho = io.resolve_state(spec, frame)
    gram = frame_gram(frame, rho)
    principal = mixed_probabilities(gram, np.eye(frame.n))
    assert np.array_equal(principal, np.diagonal(gram).real)
    u = principal_kraus(frame)
    stack_probs = unraveling_probabilities(u, rho)
    extremal = extremal_probabilities(u, rho)
    for entropy, orders in (
        (renyi_entropy, [0.5, 1.0, 2.0, 5.0, np.inf]),
        (tsallis_entropy, [0.5, 1.0, 2.0, 5.0]),
    ):
        for a in orders:
            gap = entropy(principal, a) - entropy(extremal, a)
            assert gap >= 0.0
            assert abs(gap - (entropy(stack_probs, a) - entropy(extremal, a))) <= 1e-12


# Samples per Haar stack: at most 64 KB of complex128 at n = 19 and 43; from
# n = 64 on one unitary alone exceeds 64 KB and each stack holds one.
@pytest.mark.parametrize("p, per_stack", [(19, 11), (43, 2), (103, 1)])
def test_haar_stacks_stay_within_64_kb(monkeypatch, p, per_stack):
    frame = paley_frame(p)
    stacks = []

    def spy(n, rng):
        stacks.append((n, len(rng)))
        return haar_unitary(n, rng)

    monkeypatch.setattr(kdframes.cli, "haar_unitary", spy)
    samples = 12
    build_extremality_report(frame, state_of(frame, "frame-state:0"), "s", samples, 3, [2.0])
    assert sum(k for _, k in stacks) == samples
    assert all(n == p and (k == 1 or 16 * n * n * k <= 65536) for n, k in stacks)
    assert max(k for _, k in stacks) == per_stack
