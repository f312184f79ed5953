"""Timing spans around entloc's public functions, kept in the benchmark.

``Tracer.install`` replaces each listed function with a wrapper that records
a span (name, start, end, parent). A name that another entloc module imported
by value (``from .states import embed_operator``) is replaced there too, so
every call site goes through the wrapper. ``Tracer.remove`` puts the
originals back. Spans stay in memory; ``summary`` folds them into per-layer
calls and self time, where self time is a span's duration minus the time
its direct children cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute path) of every traced public function
TRACED = (
    ("cli", "main"),
    ("serialize", "load_state"),
    ("serialize", "load_protocol"),
    ("localize", "optimize_le"),
    ("localize", "average_root_entanglement"),
    ("states", "conditional_state"),
    ("states", "embed_operator"),
    ("states", "partial_trace"),
    ("jamiolkowski", "from_state"),
    ("jamiolkowski", "JamiolkowskiMap.branch"),
    ("measures", "RootMeasure.density"),
    ("measures", "wootters_concurrence"),
    ("measures", "gconcurrence_pure"),
    ("roof", "gconcurrence_mixed"),
    ("protocols", "evaluate_protocol"),
    ("protocols", "apply_instrument"),
)
SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TRACED)
ITERATIONS = "localize.iterations"


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.iterations = 0  # sum of LEResult.iterations over optimize_le calls
        self._stack = []
        self._patched = []   # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if name == "localize.optimize_le":
                self.iterations += result.iterations
            return result

        return traced

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "entloc" or name.startswith("entloc.")}
        for mod_name, attr in TRACED:
            name = f"{mod_name}.{attr}"
            owner = modules[f"entloc.{mod_name}"]
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.iterations = 0

    def summary(self) -> dict:
        """Per span name: calls and self seconds; plus top-level seconds."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        child_s = [0.0] * len(self.spans)
        top_level = 0.0
        # a child is recorded after its parent, so a reverse pass folds every
        # child into its parent before the parent itself is visited
        for idx in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent = self.spans[idx]
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - child_s[idx]
            if parent >= 0:
                child_s[parent] += dur
            else:
                top_level += dur
        return {"calls": calls, "self_s": self_s, "top_level_s": top_level,
                "iterations": self.iterations}

    def dump(self, path) -> None:
        """Write the spans as [name index, start, end, parent index] rows."""
        index = {name: i for i, name in enumerate(SPAN_NAMES)}
        with open(path, "w") as fh:
            json.dump({"names": SPAN_NAMES,
                       "spans": [[index[n], s, e, p] for n, s, e, p in self.spans]}, fh)
