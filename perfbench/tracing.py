"""Spans and counts at the public boundaries of the `addspline` modules.

The wrappers live here, not in the package: `install` replaces each public
function in every `addspline` module namespace that binds it, and the traced
methods on their classes, and `uninstall` puts the originals back.  Spans are
kept in memory with the index of their parent span; a layer's self time is its
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc

MODULES = ("dataio", "basis", "penalty", "bandmat", "backfit", "inference", "sim", "svg", "cli")

# Methods traced on their classes, and the layer name each reports under.
METHODS = {
    ("bandmat", "BandedCholesky", "__init__"): "bandmat.BandedCholesky.factor",
    ("bandmat", "BandedCholesky", "solve"): "bandmat.BandedCholesky.solve",
    ("backfit", "NormalEquations", "__init__"): "backfit.NormalEquations",
    ("inference", "StageSmoother", "__init__"): "inference.StageSmoother",
    ("inference", "StageSmoother", "component_weights"): "inference.component_weights",
    ("dataio", "RunReport", "save"): "dataio.RunReport.save",
}
# Helpers reported as part of the layer that calls them: the sweep loops and
# their evaluation as one layer, and the dense Hessian with its check.
ALIASES = {
    "backfit.backfit_stages": "backfit.backfit",
    "backfit.predict": "backfit.backfit",
    "backfit.assemble_hessian": "backfit.hessian_check",
}
# Called once per CSV cell; a span each would cost more than the work it times.
UNTRACED = {"dataio.format_float"}
# Counters read from return values: counter name, function of the result.
COUNTERS = {
    "basis.design_matrix": ("basis.design_bytes", lambda r: r.values.nbytes),
    "backfit.backfit": ("backfit.stages", lambda r: r.stages),
    "backfit.backfit_stages": ("backfit.stages", lambda r: r.stages),
}
# Callables whose peak traced allocation the memory pass reports.
MEMORY = ("dataio.load_csv", "basis.design_matrix", "backfit.NormalEquations",
          "inference.StageSmoother", "backfit.hessian_check")


def _targets():
    """(owner, attribute, original, qualified name, layer name) of each traced callable."""
    out = []
    for short in MODULES:
        mod = sys.modules[f"addspline.{short}"]
        for name in mod.__all__:
            obj = getattr(mod, name)
            qual = f"{short}.{name}"
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and qual not in UNTRACED:
                out.append((mod, name, obj, qual, ALIASES.get(qual, qual)))
    for (short, cls_name, meth), layer in METHODS.items():
        cls = getattr(sys.modules[f"addspline.{short}"], cls_name)
        out.append((cls, meth, cls.__dict__[meth], f"{short}.{cls_name}.{meth}", layer))
    return out


class _Patches:
    """Replace callables by wrappers everywhere they are bound; undo on `uninstall`."""

    def __init__(self):
        self._undo = []

    def install(self, make_wrapper, only=None) -> None:
        namespaces = [m for k, m in sys.modules.items()
                      if k == "addspline" or k.startswith("addspline.")]
        for owner, attr, original, qual, layer in _targets():
            if only is not None and layer not in only:
                continue
            wrapper = functools.wraps(original)(make_wrapper(original, qual, layer))
            if inspect.isclass(owner):
                self._set(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._set(ns, key, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer(_Patches):
    """Records a span per traced call: [layer, parent index, start, end]."""

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def install(self) -> None:
        super().install(self._wrap)

    def _wrap(self, fn, qual, layer):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(qual)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if counter is not None:
                counts[counter[0]] = counts.get(counter[0], 0) + int(counter[1](result))
            return result

        return wrapper

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def layer_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per layer: calls, self_s (duration minus children) and total_s.

    total_s counts only the outermost span of a layer, so a layer that reaches
    itself again (an alias, or recursion) is not counted twice.
    """
    child = [0.0] * len(spans)
    for layer, parent, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    stats: dict[str, dict[str, float]] = {}
    for i, (layer, parent, t0, t1) in enumerate(spans):
        s = stats.setdefault(layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        s["calls"] += 1
        s["self_s"] += (t1 - t0) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != layer:
            p = spans[p][1]
        if p < 0:
            s["total_s"] += t1 - t0
    return stats


class MemoryTracer(_Patches):
    """Peak `tracemalloc` bytes allocated during each call of the MEMORY callables.

    A call's peak is measured from the traced memory at its entry.  Entering a
    nested call resets tracemalloc's peak, so the peak seen so far is first
    handed to every open call.
    """

    def __init__(self):
        super().__init__()
        self.peaks: dict[str, int] = {}
        self._open: list[list] = []  # [layer, bytes at entry, highest peak seen]

    def install(self) -> None:
        super().install(self._wrap, only=MEMORY)

    def _wrap(self, fn, qual, layer):
        def wrapper(*args, **kwargs):
            self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return wrapper

    def _enter(self, layer: str) -> None:
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._open:
            frame[2] = max(frame[2], peak)
        tracemalloc.reset_peak()
        self._open.append([layer, current, current])

    def _exit(self) -> None:
        _, peak = tracemalloc.get_traced_memory()
        layer, base, top = self._open.pop()
        top = max(top, peak)
        for frame in self._open:
            frame[2] = max(frame[2], top)
        self.peaks[layer] = max(self.peaks.get(layer, 0), top - base)
