"""Spans recorded from outside the program, around calls into each layer.

The benchmark does not rely on the program's own tracing.  In a traced run
it wraps the public entry points of each layer (listed in :data:`SPANS`) in
place, keeps per-name call counts, total and *self* wall time in memory
(self = total minus the time of wrapped calls nested inside), and removes
the wrappers again.  Spans are recorded in the benchmark process only: code
running in pool workers or in the daemon process is not seen.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time

#: (layer, module, attribute path, further modules holding the same function
#: under the same name).  Functions imported by name into other modules are
#: patched there too, with the *same* wrapper, so identity checks such as
#: ``ServiceClient.map``'s ``fn is execute_spec`` still hold.
SPANS = (
    ("session", "repro.runtime.session", "Session.run", ()),
    ("session", "repro.runtime.session", "Session.sweep", ()),
    ("spec", "repro.runtime.spec", "RunSpec.content_key", ()),
    ("spec", "repro.runtime.spec", "RunSpec.to_dict", ()),
    ("spec", "repro.runtime.spec", "RunSpec.from_dict", ()),
    ("cache", "repro.runtime.cache", "ResultCache.get", ()),
    ("cache", "repro.runtime.cache", "ResultCache.put_encoded", ()),
    ("executor", "repro.runtime.executor", "execute_spec", ("repro.runtime.session",)),
    ("pool", "repro.runtime.executor", "ProcessExecutor.map_specs", ()),
    ("compile", "repro.compile.pipeline", "compile_problem", ()),
    ("program", "repro.compile.program", "CompiledProgram.run", ()),
    ("results", "repro.runtime.results", "encode_result", ()),
    ("results", "repro.runtime.results", "decode_result",
     ("repro.runtime.session", "repro.runtime.cache")),
    ("client", "repro.service.client", "ServiceClient.submit_payloads", ()),
    ("client", "repro.service.client", "ServiceClient.wait", ()),
    ("client", "repro.service.client", "ServiceClient.result", ()),
    ("protocol", "repro.service.client", "request", ()),
    ("protocol", "repro.service.client", "outcome_from_wire", ()),
)


class Tracer:
    """In-memory span totals for the wrapped layer entry points."""

    def __init__(self):
        self.totals: "dict[str, list]" = {}  # name -> [layer, calls, total_s, self_s]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: "list[tuple[object, str, object]]" = []

    def install(self) -> None:
        for layer, module_name, path, aliases in SPANS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            raw = inspect.getattr_static(owner, attr)
            binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            wrapper = self._wrap(raw.__func__ if binder else raw, layer, path)
            self._patch(owner, attr, binder(wrapper) if binder else wrapper)
            for alias in aliases:
                self._patch(importlib.import_module(alias), attr, wrapper)

    def remove(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, layer: str, name: str):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    entry = tracer.totals.setdefault(name, [layer, 0, 0.0, 0.0])
                    entry[1] += 1
                    entry[2] += elapsed
                    entry[3] += elapsed - nested

        return span

    def self_seconds(self, layer: str) -> float:
        return sum(e[3] for e in self.totals.values() if e[0] == layer)

    def table(self, points: int) -> "list[str]":
        """Human-readable span totals, largest self time first."""
        lines = [f"  {'span':34s} {'layer':9s} {'calls':>7s} {'total ms':>10s} "
                 f"{'self ms':>10s} {'self ms/pt':>10s}"]
        for name, (layer, calls, total, own) in sorted(
            self.totals.items(), key=lambda item: -item[1][3]
        ):
            lines.append(
                f"  {name:34s} {layer:9s} {calls:7d} {total * 1e3:10.1f} "
                f"{own * 1e3:10.1f} {own * 1e3 / max(points, 1):10.4f}"
            )
        return lines
