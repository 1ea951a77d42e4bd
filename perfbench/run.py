"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Runs one workload of worker.py from the root of a checkout: the program is
imported from the checkout's own src/. With --trace 0 it starts
SETUP_SAMPLES workers, the first ones only to time set-up, and reports the
median set-up time next to the last worker's end-to-end metrics. With
--trace 1 it starts one worker that alternates traced and untraced cycles
and reports per-layer metrics. It prints each metric by name with its
unit, and as its last line one JSON object with the keys correct,
attempted, failed and metrics. Details are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("reports-etf43", "extremality-etf19", "cli-cold")
SETUP_SAMPLES = 5
# Every run must end within 180 s; stop the worker before that.
DEADLINE_S = 170
# One BLAS thread: the ops are small, and a second thread only adds
# scheduling noise on a shared machine (the limit is nproc).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class RunError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    # The program gets its seed only from --seed.
    env.pop("KDF_SEED", None)
    return env


def run_worker(args, setup_only: bool, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"worker did not finish within {DEADLINE_S} s") from None
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def show(name: str, value, unit: str = "") -> None:
    if isinstance(value, dict):
        value = f"{value['value']:.6g} (p{value['percentile']:g} of {value['n']})"
    elif isinstance(value, float):
        value = f"{value:.6g}"
    print(f"{name:<40} {value} {unit}".rstrip())


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description="kdframes benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "kdframes" / "cli.py").is_file():
        print(f"no kdframes source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        probes = [] if args.trace else [run_worker(args, True, deadline) for _ in range(SETUP_SAMPLES - 1)]
        result = run_worker(args, False, deadline)
    except (RunError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setup_samples = [probe["setup_s"] for probe in probes] + [result["setup_s"]]
    attempted = sum(r["attempted"] for r in probes) + result["attempted"]
    failures = [f for r in probes for f in r["failures"]] + result["failures"]
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {"setup_s": (statistics.median(setup_samples), "s"), **result["end_to_end"]}
        for name, value in result["detail"].items():
            show(name, value)
        show("setup_s samples", ", ".join(f"{s:.4f}" for s in setup_samples), "s")
    for name, (value, unit) in metrics.items():
        show(name, value, unit)
    for name, value in result["facts"].items():
        show(f"fact.{name}", json.dumps(value) if isinstance(value, dict) else value)
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(summary, workload=args.workload, seed=args.seed, trace=args.trace,
                  setup_samples=setup_samples, failures=failures,
                  detail=result.get("detail"), facts=result["facts"])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
