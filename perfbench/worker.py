"""One benchmark run of one workload: set up, warm up, time a closed loop, check.

run.py starts this script once per set-up sample. It prints one JSON
object as the last line of its output. Every op is checked against the
oracle; an op fails if its exit code is wrong, its report does not say
``passed: true``, or its output disagrees with the oracle.

Workloads (one caller, one process, closed loop):

- reports-etf43: in-process ``kdf bounds`` then ``kdf kd`` on the Paley
  ETF (43, 21), rotating over frame-state:<j>, maximally-mixed and seeded
  random states given as matrix:<path>. One round is the pair.
- extremality-etf19: in-process ``kdf verify-extremality --samples 200``
  on Paley (19, 9), alternating frame-state:0 and maximally-mixed, with a
  --seed drawn from the workload seed. One round is one command.
- cli-cold: ``python -m kdframes.cli`` subprocesses, one at a time, on the
  qubit SIC (4, 2), its complement and Paley (7, 3), with three negative
  controls. One round is one subprocess.

With --trace 1 the loop alternates untraced and traced cycles of the same
ops, so the tracing overhead is measured on the same mix.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import etf
import kdframes
import oracle
from kdframes.cli import main as kdf_main
from tracer import LAYERS, Tracer, aggregate, exit_code

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

EXTREMALITY_SAMPLES = 200
CLI_SAMPLES = 20
RANDOM_STATES = 4
# Enough untraced rounds for a tail percentile with ten samples beyond it.
MIN_ROUNDS = 20
OP_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Op:
    kind: str  # timing family: bounds, kd, extremality or cli
    args: list[str]
    expected_exit: int = 0
    check: Callable[[str], list[str]] | None = None  # stdout -> problems
    samples: int = 0  # Haar samples the command draws


@dataclass
class Result:
    code: int | None
    stdout: str
    stderr: str
    wall_ns: int
    startup_ns: int = 0
    exit_ns: int = 0


def report_check(check, *inputs) -> Callable[[str], list[str]]:
    def run(stdout: str) -> list[str]:
        report, problems = oracle.parse_report(stdout)
        if report is None:
            return problems
        try:
            return problems + check(report, *inputs)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return problems + [f"report does not have the expected form: {exc!r}"]

    return run


def file_check(check, path, *inputs) -> Callable[[str], list[str]]:
    def run(stdout: str) -> list[str]:
        try:
            return check(path, *inputs)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            return [f"{path}: {exc!r}"]

    return run


def write_json(path: Path, document) -> None:
    path.write_text(json.dumps(document) + "\n")


def complex_pairs(a: np.ndarray) -> list:
    return np.stack([a.real, a.imag], axis=-1).tolist()


def write_frame(path: Path, vectors: np.ndarray) -> None:
    n, d = vectors.shape
    write_json(path, {"d": d, "n": n, "vectors": complex_pairs(vectors)})


def random_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank state from the trace-normalized Ginibre ensemble."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def write_states(workdir: Path, stem: str, d: int, rng) -> dict[str, np.ndarray]:
    matrices = {}
    for k in range(RANDOM_STATES):
        path = workdir / f"{stem}-state{k}.json"
        matrices[str(path)] = random_state(d, rng)
        write_json(path, complex_pairs(matrices[str(path)]))
    return matrices


class ReportsEtf43:
    name = "reports-etf43"
    in_process = True

    def __init__(self, workdir: Path, rng: np.random.Generator) -> None:
        self.vectors = etf.paley_vectors(43)
        etf.certify(self.vectors, "Paley(43)")
        self.frame_path = workdir / "paley43.json"
        write_frame(self.frame_path, self.vectors)
        self.matrices = write_states(workdir, "paley43", self.vectors.shape[1], rng)
        self.frame_states = rng.permutation(self.vectors.shape[0])

    def _pair(self, spec: str) -> list[Op]:
        rho = oracle.state(spec, self.vectors, self.matrices)
        common = [str(self.frame_path), "--state", spec, "--format", "json"]
        return [
            Op("bounds", ["bounds", *common], check=report_check(oracle.check_bounds, self.vectors, rho)),
            Op("kd", ["kd", *common], check=report_check(oracle.check_kd, self.vectors, rho)),
        ]

    def rounds(self, cycle: int) -> list[list[Op]]:
        paths = list(self.matrices)
        specs = [
            f"frame-state:{self.frame_states[cycle % len(self.frame_states)]}",
            "maximally-mixed",
            f"matrix:{paths[cycle % len(paths)]}",
        ]
        return [self._pair(spec) for spec in specs]

    def warmup(self) -> list[list[Op]]:
        return [self._pair(f"matrix:{next(iter(self.matrices))}")]


class ExtremalityEtf19:
    name = "extremality-etf19"
    in_process = True

    def __init__(self, workdir: Path, rng: np.random.Generator) -> None:
        self.vectors = etf.paley_vectors(19)
        etf.certify(self.vectors, "Paley(19)")
        self.frame_path = workdir / "paley19.json"
        write_frame(self.frame_path, self.vectors)
        self.rng = rng

    def _op(self, spec: str) -> Op:
        seed = int(self.rng.integers(2**31))
        rho = oracle.state(spec, self.vectors, {})
        args = [
            "verify-extremality", str(self.frame_path), "--state", spec,
            "--samples", str(EXTREMALITY_SAMPLES), "--seed", str(seed), "--format", "json",
        ]
        check = report_check(oracle.check_extremality, self.vectors, rho, EXTREMALITY_SAMPLES, seed)
        return Op("extremality", args, check=check, samples=EXTREMALITY_SAMPLES)

    def rounds(self, cycle: int) -> list[list[Op]]:
        return [[self._op("frame-state:0")], [self._op("maximally-mixed")]]

    def warmup(self) -> list[list[Op]]:
        return [[self._op("frame-state:0")]]


class CliCold:
    name = "cli-cold"
    in_process = False

    def __init__(self, workdir: Path, rng: np.random.Generator) -> None:
        self.sic = etf.sic_qubit_vectors()
        etf.certify(self.sic, "qubit SIC")
        self.p7 = etf.paley_vectors(7)
        etf.certify(self.p7, "Paley(7)")
        self.rng = rng
        self.sic_path = workdir / "sic.json"
        self.complement_path = workdir / "sic-complement.json"
        self.p7_path = workdir / "paley7.json"
        write_frame(self.p7_path, self.p7)
        self.matrices = write_states(workdir, "paley7", 3, rng)
        self.malformed_path = workdir / "malformed.json"
        self.malformed_path.write_text('{"d": 2, "n": 2, "vectors": [[[1.0, 0.0], [0.0')
        # Unit vectors e0, e1 and (e0 + e1)/sqrt(2): the frame operator is
        # [[1.5, 0.5], [0.5, 1.5]], not (3/2) I.
        self.nontight_path = workdir / "nontight.json"
        s = np.sqrt(0.5)
        write_frame(self.nontight_path, np.array([[1, 0], [0, 1], [s, s]], dtype=complex))

    def _report(self, args: list[str], check, *inputs, samples: int = 0) -> Op:
        return Op("cli", [*args, "--format", "json"], check=report_check(check, *inputs), samples=samples)

    def _complement_bounds(self, spec: str) -> Op:
        def check(stdout: str) -> list[str]:
            try:
                with open(self.complement_path) as handle:
                    vectors = oracle.pairs(json.load(handle)["vectors"])
            except (OSError, KeyError, ValueError) as exc:
                return [f"{self.complement_path}: {exc!r}"]
            rho = oracle.state(spec, vectors, {})
            return report_check(oracle.check_bounds, vectors, rho)(stdout)

        return Op("cli", ["bounds", str(self.complement_path), "--state", spec, "--format", "json"],
                  check=check)

    def rounds(self, cycle: int) -> list[list[Op]]:
        sic, comp, p7 = str(self.sic_path), str(self.complement_path), str(self.p7_path)
        j_sic, j_comp, j_p7 = (int(self.rng.integers(n)) for n in (4, 4, 7))
        seed = int(self.rng.integers(2**31))
        p7_state = f"matrix:{list(self.matrices)[cycle % RANDOM_STATES]}" if cycle % 2 else "maximally-mixed"
        sic_rho = oracle.state(f"frame-state:{j_sic}", self.sic, {})
        p7_rho = oracle.state(p7_state, self.p7, self.matrices)
        p7_pure = oracle.state(f"frame-state:{j_p7}", self.p7, {})
        ops = [
            Op("cli", ["frame", "gen", "sic2", "-o", sic],
               check=file_check(oracle.check_frame_file, sic, self.sic)),
            Op("cli", ["frame", "gen", "complement", sic, "-o", comp],
               check=file_check(oracle.check_complement_file, comp, self.sic)),
            self._report(["frame", "check", p7], oracle.check_frame_report, self.p7),
            self._report(["kd", sic, "--state", f"frame-state:{j_sic}"], oracle.check_kd, self.sic, sic_rho),
            self._report(["bounds", p7, "--state", p7_state], oracle.check_bounds, self.p7, p7_rho),
            self._complement_bounds(f"frame-state:{j_comp}"),
            self._report(
                ["verify-extremality", p7, "--state", f"frame-state:{j_p7}",
                 "--samples", str(CLI_SAMPLES), "--seed", str(seed)],
                oracle.check_extremality, self.p7, p7_pure, CLI_SAMPLES, seed, samples=CLI_SAMPLES,
            ),
            self._report(["reproduce", "qubit-sic"], oracle.check_qubit_sic, self.sic),
            # Negative controls with settled exit codes: 2 for unusable input,
            # 1 for a failed check.
            Op("cli", ["kd", str(self.malformed_path), "--format", "json"], expected_exit=2),
            Op("cli", ["kd", p7, "--state", "frame-state:7", "--format", "json"], expected_exit=2),
            Op("cli", ["bounds", str(self.nontight_path), "--format", "json"], expected_exit=1),
        ]
        return [[op] for op in ops]

    def warmup(self) -> list[list[Op]]:
        sic = str(self.sic_path)
        return [
            [Op("cli", ["frame", "gen", "sic2", "-o", sic],
                check=file_check(oracle.check_frame_file, sic, self.sic))],
            [self._report(["reproduce", "qubit-sic"], oracle.check_qubit_sic, self.sic)],
        ]


WORKLOADS = {w.name: w for w in (ReportsEtf43, ExtremalityEtf19, CliCold)}


class InProcessRunner:
    """Calls the click entry point in this process, as ``kdf`` would run it."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.traced_main = tracer.wrap("cli.command", kdf_main) if tracer else None
        # One pair of buffers for every op: click caches a wrapper per
        # stream object and keeps each one alive, so a fresh buffer per op
        # would grow the heap by one report per op.
        self.out, self.err = io.StringIO(), io.StringIO()

    def run(self, op: Op, traced: bool) -> Result:
        out, err = self.out, self.err
        for buffer in (out, err):
            buffer.seek(0)
            buffer.truncate()
        command = self.traced_main if traced else kdf_main
        code: int | None = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                command(op.args, prog_name="kdf")
            except SystemExit as exc:
                code = exit_code(exc)
            except Exception as exc:  # a crash is a failed op, not a failed run
                code = None
                err.write(f"uncaught {exc!r}")
            wall = time.perf_counter_ns() - start
        return Result(code, out.getvalue(), err.getvalue(), wall)


class SubprocessRunner:
    """Starts a fresh interpreter per command; traced commands go through cli_shim.py."""

    def __init__(self, tracer: Tracer | None, workdir: Path) -> None:
        self.tracer = tracer
        self.spans_path = str(workdir / "shim-spans.json")

    def run(self, op: Op, traced: bool) -> Result:
        spawn = time.monotonic_ns()
        if traced:
            cmd = [sys.executable, str(HERE / "cli_shim.py"), self.spans_path, str(spawn), "--", *op.args]
        else:
            cmd = [sys.executable, "-m", "kdframes.cli", *op.args]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=OP_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired as exc:
            return Result(None, "", f"timed out: {exc}", time.monotonic_ns() - spawn)
        end = time.monotonic_ns()
        result = Result(proc.returncode, proc.stdout, proc.stderr, end - spawn)
        if traced and os.path.exists(self.spans_path):  # absent if the shim crashed
            with open(self.spans_path) as handle:
                record = json.load(handle)
            os.remove(self.spans_path)
            self.tracer.absorb(record["spans"], self.tracer.op)
            result.startup_ns = record["startup_ns"]
            result.exit_ns = end - record["returned_ns"]
        return result


def verify(op: Op, result: Result) -> list[str]:
    if result.code != op.expected_exit:
        return [f"exit code {result.code}, expected {op.expected_exit}: {result.stderr.strip()[-300:]}"]
    return op.check(result.stdout) if op.check else []


def tail(values: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return {"value": ordered[-1], "percentile": 100.0, "n": n}
    return {"value": ordered[n - 11], "percentile": round(100.0 * (n - 10) / n, 1), "n": n}


class Loop:
    """Closed loop over whole cycles of a workload, with per-op bookkeeping."""

    def __init__(self, workload, runner, tracer: Tracer | None) -> None:
        self.workload = workload
        self.runner = runner
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.timed_completed = 0
        self.rounds_ms: list[float] = []
        self.ops_ms: dict[str, list[float]] = defaultdict(list)
        # Traced/untraced op totals for the per-layer metrics.
        self.side = {
            side: {"ops": 0, "wall_ns": 0, "startup_ns": 0, "exit_ns": 0, "samples": 0, "stdout_bytes": 0}
            for side in (False, True)
        }

    def run_round(self, ops: list[Op], traced: bool, timed: bool) -> None:
        round_ns = 0
        for op in ops:
            if traced:
                self.tracer.new_op()
            result = self.runner.run(op, traced)
            self.attempted += 1
            problems = verify(op, result)
            if problems:
                self.failures.append(f"{' '.join(op.args[:3])}: {'; '.join(problems)}")
            round_ns += result.wall_ns
            if timed:
                self.timed_completed += not problems
                side = self.side[traced]
                side["ops"] += 1
                side["wall_ns"] += result.wall_ns
                side["startup_ns"] += result.startup_ns
                side["exit_ns"] += result.exit_ns
                side["samples"] += op.samples
                side["stdout_bytes"] += len(result.stdout.encode())
                if not traced:
                    self.ops_ms[op.kind].append(result.wall_ns / 1e6)
        if timed and not traced:
            self.rounds_ms.append(round_ns / 1e6)

    def warmup(self) -> None:
        for ops in self.workload.warmup():
            self.run_round(ops, traced=False, timed=False)

    def measure(self, seconds: float) -> float:
        """Run whole cycles for at least ``seconds``; returns the loop wall time."""
        trace = self.tracer is not None
        start = time.perf_counter()
        cycle = 0
        while True:
            traced = trace and cycle % 2 == 1
            if traced:
                self.tracer.install()
            try:
                for ops in self.workload.rounds(cycle):
                    self.run_round(ops, traced, timed=True)
            finally:
                if traced:
                    self.tracer.uninstall()
            cycle += 1
            if time.perf_counter() - start < seconds:
                continue
            if (trace and cycle % 2 == 0) or (not trace and len(self.rounds_ms) >= MIN_ROUNDS):
                return time.perf_counter() - start

    def end_to_end(self, wall_s: float, peak_rss_kb: int) -> tuple[dict, dict]:
        """The contract metrics, and the per-command detail behind them."""
        round_tail = tail(self.rounds_ms)
        metrics = {
            "round_ms_p50": (statistics.median(self.rounds_ms), "ms"),
            "round_ms_tail": (round_tail["value"], "ms"),
            "ops_per_s": (self.timed_completed / wall_s, "1/s"),
            "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        }
        detail = {
            "round_ms_tail": round_tail,
            "failed_frac": len(self.failures) / self.attempted,
            "loop_s": wall_s,
        }
        for kind, values in self.ops_ms.items():
            detail[f"{kind}_ms_p50"] = statistics.median(values)
            detail[f"{kind}_ms_tail"] = tail(values)
        if "extremality" in self.ops_ms:
            walls = self.ops_ms["extremality"]
            detail["samples_per_s"] = EXTREMALITY_SAMPLES * len(walls) / (sum(walls) / 1e3)
        return metrics, detail

    def per_layer(self) -> dict:
        agg = aggregate(self.tracer.spans)
        groups = agg["groups"]
        traced, untraced = self.side[True], self.side[False]
        ops = traced["ops"]

        def per_op(value) -> float:
            return value / ops

        def calls(group: str) -> tuple:
            return per_op(groups.get(group, {}).get("calls", 0)), "calls/op"

        def self_ms(*names: str) -> tuple:
            return per_op(sum(groups.get(g, {}).get("self_ns", 0) for g in names)) / 1e6, "ms/op"

        def layer_groups(layer: str) -> list[str]:
            return [g for g in groups if g == layer or g.startswith(layer + ".")]

        process_ns = traced["startup_ns"] + traced["exit_ns"]
        traced_ms = per_op(traced["wall_ns"]) / 1e6
        untraced_ms = untraced["wall_ns"] / untraced["ops"] / 1e6
        m = {
            "linalg.hermitian_eig.calls": calls("linalg.hermitian_eig"),
            "linalg.hermitian_eig.self_ms": self_ms("linalg.hermitian_eig"),
            "linalg.haar_unitary.calls": calls("linalg.haar_unitary"),
            "linalg.haar_unitary.self_ms": self_ms("linalg.haar_unitary"),
            "linalg.validate.self_ms": self_ms("linalg.validate"),
            "frames.construct.calls": calls("frames.construct"),
            "frames.construct.self_ms": self_ms("frames.construct"),
            "frames.certify.calls": calls("frames.certify"),
            "frames.certify.self_ms": self_ms("frames.certify"),
            "frames.is_tight.calls_per_op": (per_op(agg["calls_by_name"].get("frames.is_tight", 0)), "calls/op"),
            "frames.povm.self_ms": self_ms("frames.povm"),
            "channels.gram.calls": calls("channels.gram"),
            "channels.gram.self_ms": self_ms("channels.gram"),
            "channels.kd.self_ms": self_ms("channels.kd"),
            "channels.kraus.self_ms": self_ms("channels.kraus"),
            "channels.transform.calls": calls("channels.transform"),
            "channels.transform.self_ms": self_ms("channels.transform"),
            "channels.probs.self_ms": self_ms("channels.probs"),
            "channels.unraveling_builds_per_sample": (
                groups.get("channels.unraveling", {}).get("calls", 0) / traced["samples"]
                if traced["samples"] else 0.0,
                "builds/sample",
            ),
            "entropy.calls": calls("entropy"),
            "entropy.self_ms": self_ms("entropy"),
            "bounds.calls": calls("bounds"),
            "bounds.self_ms": self_ms("bounds"),
            "io.read.self_ms": self_ms("io.read"),
            "io.read.bytes": (per_op(groups.get("io.read", {}).get("bytes", 0)), "B/op"),
            "io.write.self_ms": self_ms("io.write"),
            "io.write.bytes": (per_op(groups.get("io.write", {}).get("bytes", 0)), "B/op"),
            "cli.build.self_ms": self_ms("cli.build"),
            "cli.emit.self_ms": self_ms("cli.emit"),
            "cli.emit.bytes": (per_op(traced["stdout_bytes"]), "B/op"),
            "cli.command.self_ms": self_ms("cli.command"),
            "cli.startup_ms": (per_op(traced["startup_ns"]) / 1e6, "ms/op"),
            "cli.exit_ms": (per_op(traced["exit_ns"]) / 1e6, "ms/op"),
        }
        for layer in LAYERS:
            total_ms = self_ms(*layer_groups(layer))[0]
            if layer == "cli":
                total_ms += per_op(process_ns) / 1e6
            m[f"{layer}.self_ms"] = (total_ms, "ms/op")
            m[f"{layer}.raised"] = (per_op(agg["raised"].get(layer, 0)), "raised/op")
        m["layers.self_sum_ms"] = (
            self_ms(*groups)[0] + per_op(process_ns) / 1e6, "ms/op"
        )
        m["op.traced_ms"] = (traced_ms, "ms/op")
        m["op.untraced_ms"] = (untraced_ms, "ms/op")
        m["trace_overhead_frac"] = (traced_ms / untraced_ms - 1.0, "frac")
        return m


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kdframes").glob("*.py")):
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kdframes": kdframes.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit or "unavailable: the checkout is not a git repository",
        "source_sha256": digest.hexdigest(),
        "waiting": "none recorded: one caller, single-threaded, no queues; cli-cold "
        "spawn time is inside cli.startup_ms",
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, setup_only: bool,
        spawn_ns: int) -> dict:
    source = Path(kdframes.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise RuntimeError(f"kdframes was imported from {source}, not from this checkout's src/")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload_name}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[workload_name](workdir, np.random.default_rng(seed))
        tracer = Tracer() if trace else None
        runner = (
            InProcessRunner(tracer) if workload.in_process else SubprocessRunner(tracer, workdir)
        )
        loop = Loop(workload, runner, tracer)
        loop.warmup()
        setup_s = (time.monotonic_ns() - spawn_ns) / 1e9
        result = {"setup_s": setup_s, "attempted": loop.attempted, "failures": loop.failures}
        if setup_only:
            return result
        wall_s = loop.measure(seconds)
        who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
        peak_rss_kb = resource.getrusage(who).ru_maxrss
        result["attempted"] = loop.attempted
        if trace:
            result["per_layer"] = loop.per_layer()
            tracer.dump(OUT / f"spans-{workload_name}-seed{seed}.jsonl.gz")
        else:
            result["end_to_end"], result["detail"] = loop.end_to_end(wall_s, peak_rss_kb)
        result["facts"] = machine_facts()
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawn-ns", type=int, required=True)
    args = parser.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.setup_only, args.spawn_ns)
    except etf.EtfCertificationError as exc:
        print(f"EtfCertificationError: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
