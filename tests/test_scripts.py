"""The scripts under scripts/ run to completion and print what they printed before."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOUND_COMPARISON_GOLDEN = ROOT / "tests" / "golden" / "bound-comparison.txt"


def run_bound_comparison() -> subprocess.CompletedProcess:
    """``scripts/bound_comparison.py --states 3 --seed 0``, the run the golden pins."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = ROOT / "scripts" / "bound_comparison.py"
    return subprocess.run(
        [sys.executable, str(script), "--states", "3", "--seed", "0"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_bound_comparison_runs():
    result = run_bound_comparison()
    assert result.returncode == 0, result.stderr
    assert result.stdout == BOUND_COMPARISON_GOLDEN.read_text()
