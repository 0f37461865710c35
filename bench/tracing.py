"""Per-layer tracing of the scatterfit package from outside its source.

``Tracer.install`` replaces the public functions and methods of every
scatterfit module with thin wrappers. Each call becomes a span with a name
(``<module>.<function>``), a start, an end and a link to the span that was
open when it began. ``Tracer.remove`` puts every original object back, so the
package's files and, after removal, its namespaces are exactly as before.

Spans are aggregated as they close (calls, busy time, self time) so a long
run needs constant memory; only the first ``KEEP_SPANS`` raw spans are kept
for the result file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

# The package modules, one layer each; spans are named after them.
LAYERS = ("waveform", "scatterer", "geometry", "model", "loss", "estimate", "sim", "cli")

PACKAGE = "scatterfit"
KEEP_SPANS = 2000  # raw spans kept for the result file; the aggregates see every span

# Private functions that carry a layer's hot path. gradient_descent calls
# _line_search directly, never the public line_search wrapper around it.
PRIVATE = {("estimate", "_line_search"): "estimate.line_search"}


def _span_name(layer: str, attr: str) -> str:
    if (layer, attr) in PRIVATE:
        return PRIVATE[(layer, attr)]
    if layer == "cli" and attr.startswith("cmd_"):
        attr = attr[len("cmd_"):]
    return f"{layer}.{attr}"


class Tracer:
    """Span recorder that patches the scatterfit namespaces while installed."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)  # outermost spans of a name only
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[list] = []  # open spans: [id, time covered by children]
        self._depth: dict[str, int] = defaultdict(int)
        self._next_id = 0

    # ------------------------------------------------------------ spans ---

    def _on_call(self, name: str, args: tuple) -> None:
        if name == "waveform.autocorr":
            self.counts["waveform.autocorr.lags"] += int(np.size(args[1]))
        elif name == "loss.batch_loss" and self._depth["estimate.line_search"]:
            self.counts["estimate.line_search.evals"] += 1

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._on_call(name, args)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                elapsed = end - start
                self.calls[name] += 1
                self.self_time[name] += elapsed - frame[1]
                if depth[name] == 0:
                    self.busy[name] += elapsed
                if parent is not None:
                    parent[1] += elapsed
                if len(self.spans) < KEEP_SPANS:
                    self.spans.append((span_id, parent[0] if parent else None, name, start, end))

        return traced

    # ----------------------------------------------------------- patching ---

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (not attr.startswith("_") or (layer, attr) in PRIVATE):
                    wrappers[obj] = self._wrap(_span_name(layer, attr), obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        if getattr(fn, "__isabstractmethod__", False):
                            continue
                        self._patch(obj, meth, self._wrap(f"{layer}.{meth}", fn))
        # modules import each other's functions by name, so rebind every alias
        namespaces = [importlib.import_module(PACKAGE), *modules.values()]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        return self

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()
