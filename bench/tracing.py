"""Run-time tracing of erasurekit's public functions, with no source edits.

``Tracer.install`` replaces every public function of the traced modules, in
every erasurekit namespace that holds it, with a wrapper that records a span
(name, start, end, parent span, request id); ``uninstall`` puts the originals
back. Spans stay in memory until the pass they belong to is summarised.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "erasurekit"
MODULES = ("cli", "serialize", "channels", "numerics", "probes", "erasure", "optimizer", "scenarios")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.stack: list[int] = []
        self.request = -1
        # totals read off arguments or results: ascent steps, oracle samples, bytes
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []
        self.names: set[str] = set(MODULES)  # the modules and every function install wraps

    def _observe(self, name: str, index: int, bind, result) -> None:
        if name == "optimizer.optimize_erasure":
            steps = sum(1 for _, iteration, _ in result.trace if iteration > 0)
            self.counts["ascent_steps"] += steps
        elif name == "optimizer.sample_oracle":
            self.counts["oracle_samples"] += bind().arguments.get("samples", 1)
        elif name.startswith("serialize.") and isinstance(result, str):
            parent = self.spans[index][3]
            if parent < 0 or not self.spans[parent][0].startswith("serialize."):
                self.counts["serialize_bytes"] += len(result.encode())

    def _wrap(self, name: str, fn):
        spans, stack, observe = self.spans, self.stack, self._observe
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            observe(name, index, lambda: signature.bind(*args, **kwargs), result)
            return result

        return traced

    def install(self) -> None:
        namespaces = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for short in MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                self.names.add(f"{short}.{attr}")
                wrapped = self._wrap(f"{short}.{attr}", fn)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is fn:
                            self._patched.append((namespace, key, fn))
                            setattr(namespace, key, wrapped)

    def uninstall(self) -> None:
        for namespace, key, fn in reversed(self._patched):
            setattr(namespace, key, fn)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> dict:
        """Calls and self milliseconds per function and per module, plus counts."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            duration = end - start
            calls[name] += 1
            self_s[name] += duration
            if parent >= 0:
                self_s[self.spans[parent][0]] -= duration
        out = {"calls": dict(calls), "self_ms": {k: v * 1e3 for k, v in self_s.items()}, "counts": dict(self.counts)}
        for short in MODULES:
            names = [n for n in calls if n.startswith(short + ".")]
            out["calls"][short] = sum(calls[n] for n in names)
            out["self_ms"][short] = sum(out["self_ms"][n] for n in names)
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_us,end_us,parent,request\n")
            origin = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(f"{i},{name},{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f},{parent},{request}\n")

