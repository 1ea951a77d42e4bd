"""Tests of the benchmark itself: oracle, failure accounting, tracer and layer map.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import etf  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

import kdframes  # noqa: E402
import kdframes.channels  # noqa: E402
import kdframes.cli  # noqa: E402
from kdframes import DensityMatrix, Frame, principal_kraus, unraveling_gram  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Layer groups each workload must exercise (nonzero calls or self time),
# and groups it must leave idle (no span at all).
BUSY = {
    "reports-etf43": [
        "linalg.hermitian_eig", "linalg.validate", "frames.construct", "frames.certify",
        "frames.povm", "channels.gram", "channels.kd", "channels.kraus", "channels.probs",
        "entropy", "bounds", "io.read", "io.write", "cli.build", "cli.emit",
    ],
    "extremality-etf19": [
        "linalg.hermitian_eig", "linalg.haar_unitary", "linalg.validate", "frames.construct",
        "frames.certify", "channels.gram", "channels.kraus", "channels.transform",
        "channels.probs", "entropy", "io.read", "cli.build", "cli.emit",
    ],
    "cli-cold": [
        "linalg.hermitian_eig", "linalg.haar_unitary", "linalg.validate", "frames.construct",
        "frames.certify", "frames.povm", "channels.gram", "channels.kd", "channels.kraus",
        "channels.transform", "channels.probs", "entropy", "bounds", "io.read", "io.write",
        "cli.build", "cli.emit", "cli.startup",
    ],
}
IDLE = {
    "reports-etf43": ["linalg.haar_unitary", "channels.transform", "cli.startup"],
    "extremality-etf19": ["channels.kd", "frames.povm", "bounds", "io.write", "cli.startup"],
    "cli-cold": [],
}


def activity(metrics: dict, group: str) -> float:
    for suffix in (".calls", ".self_ms", "_ms"):
        if group + suffix in metrics:
            return metrics[group + suffix][0]
    raise KeyError(group)


@pytest.fixture(scope="module", autouse=True)
def program_env():
    saved = {k: os.environ.get(k) for k in ("PYTHONPATH", *worker.THREAD_VARS)}
    os.environ["PYTHONPATH"] = str(worker.ROOT / "src")
    for var in worker.THREAD_VARS:
        os.environ[var] = "1"
    yield
    for key, value in saved.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


@pytest.fixture(scope="module")
def traced_runs() -> dict:
    return {
        name: worker.run(name, 3, 0.5, trace=True, setup_only=False, spawn_ns=time.monotonic_ns())
        for name in worker.WORKLOADS
    }


def test_paley_frames_certify_and_bad_ones_are_named():
    for p in (7, 19, 43):
        etf.certify(etf.paley_vectors(p), f"Paley({p})")
    etf.certify(etf.sic_qubit_vectors(), "qubit SIC")
    with pytest.raises(ValueError):
        etf.paley_vectors(13)
    bent = etf.paley_vectors(7)
    bent[0, 0] *= 1j
    with pytest.raises(etf.EtfCertificationError, match="Paley"):
        etf.certify(bent, "bent Paley(7)")


def test_oracle_gram_matches_the_program():
    vectors = etf.paley_vectors(43)
    kraus = principal_kraus(Frame(vectors))
    rng = np.random.default_rng(0)
    for rho in (np.eye(21) / 21, np.outer(vectors[5], vectors[5].conj()), worker.random_state(21, rng)):
        gap = np.abs(oracle.gram(vectors, rho) - unraveling_gram(kraus, DensityMatrix(rho))).max()
        # About 1e-16 for mixed states and 6e-14 for a pure frame state,
        # whose Gram entries reach 0.49: well inside the check tolerance.
        assert gap < oracle.MATRIX_TOL / 10


@pytest.mark.parametrize(
    "workload, kind, field",
    [("reports-etf43", "bounds", "true_spectrum"), ("reports-etf43", "kd", "kd"),
     ("reports-etf43", "kd", "gram"), ("extremality-etf19", "extremality", "extremal_probabilities")],
)
def test_corrupted_output_is_counted_as_failed(tmp_path, workload, kind, field):
    case = worker.WORKLOADS[workload](tmp_path, np.random.default_rng(1))
    ops = [op for op in case.warmup()[0] if op.kind == kind]
    clean = worker.Loop(case, worker.InProcessRunner(None), None)
    clean.run_round(ops, traced=False, timed=True)
    assert clean.failures == [] and clean.timed_completed == 1

    class Corrupting(worker.InProcessRunner):
        def run(self, op, traced):
            result = super().run(op, traced)
            report = json.loads(result.stdout)
            value = np.asarray(report[field], dtype=float)
            value.flat[-1] += 1e-6
            report[field] = value.tolist()
            result.stdout = json.dumps(report)
            return result

    corrupted = worker.Loop(case, Corrupting(None), None)
    corrupted.run_round(ops, traced=False, timed=True)
    assert len(corrupted.failures) == 1 and corrupted.timed_completed == 0
    assert f"{field}: off the oracle" in corrupted.failures[0]


def test_wrong_exit_code_is_counted_as_failed(tmp_path):
    case = worker.CliCold(tmp_path, np.random.default_rng(1))
    ops = [op for [op] in case.rounds(0) if op.expected_exit != 0]
    assert [op.expected_exit for op in ops] == [2, 2, 1]
    for op in ops:
        op.expected_exit = 0
    loop = worker.Loop(case, worker.SubprocessRunner(None, tmp_path), None)
    loop.run_round(ops, traced=False, timed=True)
    assert len(loop.failures) == 3 and loop.timed_completed == 0


def test_tracer_patches_every_namespace_and_restores():
    original = kdframes.channels.unraveling_gram
    tracer = Tracer()
    tracer.install()
    try:
        for namespace in (kdframes, kdframes.channels, kdframes.cli):
            assert namespace.unraveling_gram is not original
            assert namespace.unraveling_gram.__wrapped__ is original
        assert kdframes.frames.Frame.__post_init__.__wrapped__ is not None
        vectors = etf.paley_vectors(7)
        tracer.new_op()
        kdframes.cli.build_kd_report(Frame(vectors), DensityMatrix(np.eye(3) / 3), "maximally-mixed")
    finally:
        tracer.uninstall()
    assert kdframes.cli.unraveling_gram is original
    assert not hasattr(kdframes.frames.Frame.__post_init__, "__wrapped__")
    names = {span[0] for span in tracer.spans}
    assert {"cli.build_kd_report", "channels.unraveling_gram", "frames.Frame", "frames.is_tight"} <= names


def test_per_layer_names_match_benchmark_json(traced_runs):
    expected = [m["name"] for m in BENCHMARK["per_layer"]]
    for name, result in traced_runs.items():
        assert list(result["per_layer"]) == expected, name
        units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        assert all(units[k] == unit for k, (_, unit) in result["per_layer"].items())
        assert result["failures"] == [], name


@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
def test_busy_and_idle_layers(traced_runs, workload):
    metrics = traced_runs[workload]["per_layer"]
    for group in BUSY[workload]:
        assert activity(metrics, group) > 0, group
    for group in IDLE[workload]:
        assert activity(metrics, group) == 0, group


@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
def test_self_times_cover_the_traced_op(traced_runs, workload):
    m = {k: v for k, (v, _) in traced_runs[workload]["per_layer"].items()}
    # Self times partition the time inside the spans; only the runner's
    # glue around the root span (and, for subprocesses, the tracer's own
    # install) is outside them.
    assert 0.95 * m["op.traced_ms"] <= m["layers.self_sum_ms"] <= m["op.traced_ms"]
    layer_sum = sum(m[f"{layer}.self_ms"] for layer in worker.LAYERS)
    assert layer_sum == pytest.approx(m["layers.self_sum_ms"], rel=1e-9)
    assert m["op.traced_ms"] == pytest.approx(m["op.untraced_ms"] * (1 + m["trace_overhead_frac"]))


def group_times(metrics: dict) -> dict:
    """Self time per group; layer totals of layers with several groups left out."""
    totals = {f"{layer}.self_ms" for layer in worker.LAYERS} - {"entropy.self_ms", "bounds.self_ms"}
    return {
        k: v for k, (v, _) in metrics.items()
        if (k.endswith(".self_ms") and k not in totals) or k in ("cli.startup_ms", "cli.exit_ms")
    }


def test_seed_facts(traced_runs):
    reports = group_times(traced_runs["reports-etf43"]["per_layer"])
    assert set(sorted(reports, key=reports.get)[-2:]) == {"channels.gram.self_ms", "channels.kd.self_ms"}
    ext = {k: v for k, (v, _) in traced_runs["extremality-etf19"]["per_layer"].items()}
    assert ext["channels.gram.self_ms"] < 0.05 * ext["op.traced_ms"]
    assert ext["channels.unraveling_builds_per_sample"] == pytest.approx(1.01)
    cold_times = group_times(traced_runs["cli-cold"]["per_layer"])
    assert max(cold_times, key=cold_times.get) == "cli.startup_ms"
    # Negative controls raise on purpose, the same number of times every cycle:
    # two input errors leave io, and all three end in a nonzero exit from cli.
    cold = {k: v for k, (v, _) in traced_runs["cli-cold"]["per_layer"].items()}
    assert cold["io.raised"] == pytest.approx(2 / 11)
    assert cold["cli.raised"] == pytest.approx(3 / 11)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
