"""Run one ``kdf`` command in a fresh interpreter under the tracer.

Usage: python cli_shim.py SPANS_OUT SPAWN_NS -- ARGS...

SPAWN_NS is the parent's ``time.monotonic_ns()`` just before it started
this process. SPANS_OUT receives the start-up time (spawn to the end of
``import kdframes.cli``), the monotonic time at which the command
returned, and the command's spans. The exit code is the command's.
"""

import json
import sys
import time


def main() -> int:
    spans_out, spawn_ns = sys.argv[1], int(sys.argv[2])
    args = sys.argv[sys.argv.index("--") + 1 :]
    # Imported here, not at the top, so that start-up ends where the
    # command's own import ends.
    import kdframes.cli

    imported_ns = time.monotonic_ns()
    from tracer import Tracer, exit_code

    tracer = Tracer()
    tracer.install()
    tracer.new_op()
    code = 0
    try:
        tracer.wrap("cli.command", kdframes.cli.main)(args, prog_name="kdf")
    except SystemExit as exc:
        code = exit_code(exc)
    sys.stdout.flush()
    record = {
        "startup_ns": imported_ns - spawn_ns,
        "returned_ns": time.monotonic_ns(),
        "spans": tracer.spans,
    }
    with open(spans_out, "w") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
