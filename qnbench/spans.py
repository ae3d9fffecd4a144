"""Span tracing from outside the program.

`Tracer.install` wraps each public function in LAYERS in every qnbudget
module namespace that holds a reference to it, so calls between modules
(`limits` calling its imported `effective_internal_loss`, `validation`
calling its imported `squeeze_matrix`) are traced as well.  Each span
records name, start, end, parent span and request id in compact arrays that
stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# layer (module) -> {span name suffix: function names it covers}
LAYERS = {
    "cli": {"main": ("main",), "run_budget": ("run_budget",),
            "BudgetRequest": ("BudgetRequest",)},
    "config": {"load_config": ("load_config",), "value_at": ("value_at",)},
    "curves": {"evaluate_curve": ("evaluate_curve",)},
    "ifo": {name: (name,) for name in (
        "effective_src_loss", "effective_internal_loss", "loop_matrix",
        "io_relation", "optimal_spectrum", "homodyne_spectrum",
        "qcrb_lossless")},
    "quadrature": {name: (name,) for name in (
        "squeeze_matrix", "rotation_matrix", "mat_inv",
        "ponderomotive_decompose")},
    "limits": {"loss_limit": ("loss_limit",), "sql": ("sql",),
               "taylor": ("taylor_qcrb_internal", "taylor_qcrb_no_internal",
                          "taylor_loss_internal", "taylor_loss_no_internal")},
    "fdt": {"loss_floor_fdt": ("loss_floor_fdt",)},
    "validation": {"run_validation": ("run_validation",)},
}

SPAN_NAMES = tuple(f"{layer}.{span}" for layer, spans in LAYERS.items()
                   for span in spans)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the time its children cover.

    The wrappers nest strictly on one thread, so every child lies inside
    its parent and no two children of a span overlap.
    """
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child],
                          minlength=len(duration))
    return duration - covered


class Tracer:
    """Records spans around the wrapped functions of the loaded program."""

    def __init__(self, max_spans: int):
        self.max_spans = max_spans
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.ifo_errors = 0
        self._last_error = None
        self.request_id = -1
        self._stack = [-1]
        self._patches = []

    @property
    def full(self) -> bool:
        return len(self.start) >= self.max_spans

    def _wrap(self, fn, nid: int, counts_errors: bool):
        ids, start, end = self.name_id, self.start, self.end
        parent, request, stack = self.parent, self.request, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            ids.append(nid)
            parent.append(stack[-1])
            request.append(self.request_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # one exception counts once, in the innermost ifo span it
                # leaves, however many ifo spans it then passes through
                if counts_errors and exc is not self._last_error:
                    self._last_error = exc
                    self.ifo_errors += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every LAYERS function in every qnbudget namespace holding it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "qnbudget" or name.startswith("qnbudget.")]
        for layer, spans in LAYERS.items():
            home = sys.modules[f"qnbudget.{layer}"]
            for span, fn_names in spans.items():
                nid = SPAN_NAMES.index(f"{layer}.{span}")
                for fn_name in fn_names:
                    orig = getattr(home, fn_name)
                    if isinstance(orig, type):
                        # a request class: its parse and checks run in
                        # __post_init__, and the class itself stays intact
                        self._patch(orig, "__post_init__",
                                    self._wrap(orig.__post_init__, nid,
                                               layer == "ifo"))
                        continue
                    traced = self._wrap(orig, nid, layer == "ifo")
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is orig:
                                self._patch(module, attr, traced)

    def uninstall(self) -> None:
        self._last_error = None
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict:
        """{span name: (calls, self seconds)} over all spans."""
        ids = np.frombuffer(self.name_id, dtype=np.uint16)
        own = self_times(self.start, self.end, self.parent)
        calls = np.bincount(ids, minlength=len(SPAN_NAMES))
        busy = np.bincount(ids, weights=own, minlength=len(SPAN_NAMES))
        return {name: (int(calls[i]), float(busy[i]))
                for i, name in enumerate(SPAN_NAMES)}

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(SPAN_NAMES),
                 name_id=np.frombuffer(self.name_id, dtype=np.uint16),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 request=np.frombuffer(self.request, dtype=np.int32))
