"""Span tracer that wraps the package's public functions from outside.

Each public function of a layer module, the ``__post_init__`` validation
of each dataclass and the emitter ``cli._emit`` get a wrapper that records
one span: name, op id, parent span, start, end, whether an exception left
it, and a byte count where one applies. The wrapper replaces the function
in every ``kdframes`` namespace that holds it, because ``cli`` imports
names with ``from .channels import ...`` and calls them through its own
globals. Spans stay in memory until the benchmark writes them out.

The tracer needs only the standard library, so the traced CLI entry point
can load it without adding imports that the program does not make.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("linalg", "frames", "channels", "entropy", "bounds", "io", "cli")

# Private functions that still mark a layer boundary.
PRIVATE_SPANS = {"cli._emit"}

# Span name -> reported group. Unlisted spans of entropy and bounds go to
# the layer itself; other unlisted spans go to "<layer>.other".
GROUPS = {
    "linalg.hermitian_eig": "linalg.hermitian_eig",
    "linalg.haar_unitary": "linalg.haar_unitary",
    "linalg.as_complex_matrix": "linalg.validate",
    "linalg.require_hermitian": "linalg.validate",
    "frames.Frame": "frames.construct",
    "frames.DensityMatrix": "frames.construct",
    "frames.Povm": "frames.construct",
    "frames.is_tight": "frames.certify",
    "frames.is_equiangular": "frames.certify",
    "frames.coherence_constant": "frames.certify",
    "frames.frame_operator": "frames.certify",
    "frames.gram_matrix": "frames.certify",
    "frames.povm_from_frame": "frames.povm",
    "frames.outcome_probabilities": "frames.povm",
    "channels.principal_kraus": "channels.kraus",
    "channels.unraveling_gram": "channels.gram",
    "channels.kd_matrix": "channels.kd",
    "channels.transform_unraveling": "channels.transform",
    "channels.unraveling_probabilities": "channels.probs",
    "channels.Unraveling": "channels.unraveling",
    "io.complex_to_pairs": "io.write",
    "io.frame_to_dict": "io.write",
    "io.dump_frame": "io.write",
    "cli._emit": "cli.emit",
    "cli.command": "cli.command",
}
WHOLE_LAYER_GROUPS = ("entropy", "bounds")


def group_of(name: str) -> str:
    layer, _, rest = name.partition(".")
    if layer in WHOLE_LAYER_GROUPS:
        return layer
    if layer == "io" and name not in GROUPS:
        return "io.read"
    if layer == "cli" and rest.startswith("build_"):
        return "cli.build"
    return GROUPS.get(name, f"{layer}.other")


def layer_of(name: str) -> str:
    return name.partition(".")[0]


def exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


def _file_size(args, kwargs) -> int:
    path = args[0] if args else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _complex_bytes(args, kwargs) -> int:
    # Computed from the array size at 16 bytes per complex128 entry.
    return 16 * int(getattr(args[0] if args else kwargs.get("m"), "size", 0))


BYTE_COUNTERS = {"io.load_json": _file_size, "io.complex_to_pairs": _complex_bytes}


class Tracer:
    """Records spans of wrapped calls; ``install`` patches, ``uninstall`` restores."""

    def __init__(self) -> None:
        # (name, op, parent index, start ns, end ns, raised, bytes)
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}

    def new_op(self) -> None:
        self.op += 1

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        count_bytes = BYTE_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            raised = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except SystemExit as exc:
                raised = exit_code(exc) != 0
                raise
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                parent = stack[-1] if stack else -1
                nbytes = count_bytes(args, kwargs) if count_bytes else 0
                spans[index] = (name, self.op, parent, start, end, raised, nbytes)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            return
        if not self._wrappers:
            for layer in LAYERS:
                module = importlib.import_module(f"kdframes.{layer}")
                for attr, obj in vars(module).items():
                    if getattr(obj, "__module__", None) != module.__name__:
                        continue
                    name = f"{layer}.{attr}"
                    if inspect.isfunction(obj) and (
                        not attr.startswith("_") or name in PRIVATE_SPANS
                    ):
                        self._wrappers[id(obj)] = (obj, self.wrap(name, obj))
                    elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                        post_init = vars(obj)["__post_init__"]
                        self._wrappers[id(post_init)] = (post_init, self.wrap(name, post_init))
        for module_name, module in list(sys.modules.items()):
            if module_name != "kdframes" and not module_name.startswith("kdframes."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(module, attr, entry[1])
                elif inspect.isclass(obj) and obj.__module__ == module_name:
                    post_init = vars(obj).get("__post_init__")
                    entry = self._wrappers.get(id(post_init))
                    if entry is not None and entry[0] is post_init:
                        self._patch(obj, "__post_init__", entry[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def absorb(self, spans: list, op: int) -> None:
        """Append spans recorded in another process under op id ``op``."""
        offset = len(self.spans)
        for name, _, parent, start, end, raised, nbytes in spans:
            self.spans.append(
                (name, op, parent + offset if parent >= 0 else -1, start, end, raised, nbytes)
            )

    def dump(self, path) -> None:
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps(["name", "op", "parent", "start_ns", "end_ns", "raised", "bytes"]))
            handle.write("\n")
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


def aggregate(spans: list) -> dict:
    """Totals per group: calls, self time, bytes; exceptions per layer; calls per span name.

    A span's self time is its duration minus the time its child spans
    cover. An exception counts against a layer once, when it leaves the
    outermost span of that layer.
    """
    child_ns = [0] * len(spans)
    for name, _, parent, start, end, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    groups: dict = defaultdict(lambda: {"calls": 0, "self_ns": 0, "bytes": 0})
    raised: dict = defaultdict(int)
    calls_by_name: dict = defaultdict(int)
    for index, (name, _, parent, start, end, was_raised, nbytes) in enumerate(spans):
        entry = groups[group_of(name)]
        entry["calls"] += 1
        entry["self_ns"] += end - start - child_ns[index]
        entry["bytes"] += nbytes
        calls_by_name[name] += 1
        layer = layer_of(name)
        if was_raised and (parent < 0 or layer_of(spans[parent][0]) != layer):
            raised[layer] += 1
    return {"groups": dict(groups), "raised": dict(raised), "calls_by_name": dict(calls_by_name)}
