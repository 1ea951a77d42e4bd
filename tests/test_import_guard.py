"""Importing the CLI loads no third-party package beyond numpy and click.

Every `kdf` call pays the import, so a heavy dependency pulled in by a
kernel (scipy, opt_einsum, ...) would slow every shell command.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import sys
before = set(sys.modules)
import kdframes.cli
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(added - set(sys.stdlib_module_names) - {"kdframes"})))
"""


def run_probe(probe: str) -> list[str]:
    """The words a probe prints, run in a fresh interpreter on this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_cli_import_loads_only_numpy_and_click():
    assert set(run_probe(PROBE)) <= {"click", "numpy"}


# numpy and click are loaded first, so only the package's own imports count.
EXACT_PROBE = """
import sys
import click, numpy
before = set(sys.modules)
import kdframes.cli
print(" ".join(sorted({"fractions", "decimal"} & (set(sys.modules) - before))))
"""


def test_cli_import_loads_no_exact_arithmetic_modules():
    """fractions and decimal cost every cold `kdf` process milliseconds of import."""
    assert run_probe(EXACT_PROBE) == []
