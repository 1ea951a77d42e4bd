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


def test_cli_import_loads_only_numpy_and_click():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert set(result.stdout.split()) <= {"click", "numpy"}, result.stdout
