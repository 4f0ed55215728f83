"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` replaces each function in ``LAYERS`` with a wrapper in
every ``streamgp`` module that holds it, so a call through an imported name
(``update`` inside ``optimizer``, ``kernel_matrix`` inside ``model``...) is
seen as well.  ``uninstall`` puts the originals back, so untraced work runs
the library exactly as shipped.  Spans (name, start, end, parent) stay in
memory until ``write``.

``kernel.K_RR_builds`` counts the K_RR = k(R, R) builds that the posterior
needs, the ones a cache of one prior per parameter vector would remove;
the builds inside ``kernel.kernel_matrix_grad`` (derivative matrices) are
left out.  ``kernel.K_RR_builds_per_theta`` divides them by the distinct
parameter vectors seen in each installed period, so that one build per
parameter vector reads 1.0 however many traced units a run has.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

import numpy as np

# <module>.<function> for every layer the benchmark reports.
LAYERS = (
    "optimizer.srgp_fit",
    "optimizer.fixed_theta_pass",
    "optimizer.adam_step",
    "inference.init_state",
    "inference.update",
    "inference.update_with_geometry",
    "inference.predict",
    "gradients.init_gradient_state",
    "gradients.compute_adjoints",
    "gradients.propagate",
    "model.batch_geometry",
    "kernel.kernel_matrix",
    "linalg.chol_with_jitter",
    "data.load_dataset",
    "checkpoint.load_checkpoint",
    "checkpoint.save_checkpoint",
)

# Counters kept beside the spans, with their units.
COUNTERS = {
    "gradients.state_bytes": "bytes-computed",
    "kernel.K_RR_builds": "count",
    "kernel.K_RR_builds_per_theta": "ratio",
    "linalg.chol_with_jitter.jittered": "count",
    "inference.predict.rows": "rows",
    "data.load_dataset.rows": "rows",
}


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    """Argument ``name`` (positional index ``pos``), or None if not passed."""
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _same(a, b: np.ndarray) -> bool:
    return a is b or (np.shape(a) == b.shape and np.array_equal(a, b))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.state_bytes = 0
        self._thetas: set[tuple[int, bytes]] = set()
        self._installs = 0
        self._patched: list[tuple] = []

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        self._installs += 1
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "streamgp"]
        for layer in LAYERS:
            mod_name, fn_name = layer.split(".")
            original = getattr(importlib.import_module(f"streamgp.{mod_name}"), fn_name)
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([layer, time.perf_counter(), 0.0, self._open[-1] if self._open else -1])
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx][2] = time.perf_counter()
            self._count(layer, args, kwargs, result, sys._getframe(1).f_globals.get("__name__"))
            return result

        return wrapper

    def _count(self, layer: str, args: tuple, kwargs: dict, result, caller: str | None) -> None:
        if layer == "kernel.kernel_matrix":
            if caller == "streamgp.kernel":
                return
            A, B, h = _arg(args, kwargs, 0, "A"), _arg(args, kwargs, 1, "B"), _arg(args, kwargs, 2, "h")
            R = getattr(h, "inducing_inputs", None)
            if R is not None and _same(A, R) and _same(B, R):
                self.counts["kernel.K_RR_builds"] += 1
                self._thetas.add((self._installs, h.to_vector().tobytes()))
        elif layer == "linalg.chol_with_jitter":
            if getattr(result, "jitter", 0.0) > 0.0:
                self.counts["linalg.chol_with_jitter.jittered"] += 1
        elif layer == "inference.predict":
            self.counts["inference.predict.rows"] += len(_arg(args, kwargs, 1, "X_star"))
        elif layer == "data.load_dataset":
            self.counts["data.load_dataset.rows"] += result.n
        elif layer == "gradients.init_gradient_state":
            # Computed, not measured: d_Lambda (P, M, M) plus d_eta (P, M) in float64.
            h = _arg(args, kwargs, 0, "h")
            P, M = h.n_params, h.num_inducing
            self.state_bytes = max(self.state_bytes, P * M * M * 8 + P * M * 8)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """calls, busy_s and self_s per layer, then the counters."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: Counter = Counter()
        busy: Counter = Counter()
        own: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child_s[i]
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.busy_s"] = (busy[layer], "s")
            out[f"{layer}.self_s"] = (own[layer], "s")
        builds = self.counts["kernel.K_RR_builds"]
        values = {
            "gradients.state_bytes": self.state_bytes,
            "kernel.K_RR_builds": builds,
            "kernel.K_RR_builds_per_theta": builds / len(self._thetas) if self._thetas else 0.0,
            "linalg.chol_with_jitter.jittered": self.counts["linalg.chol_with_jitter.jittered"],
            "inference.predict.rows": self.counts["inference.predict.rows"],
            "data.load_dataset.rows": self.counts["data.load_dataset.rows"],
        }
        for name, unit in COUNTERS.items():
            out[name] = (values[name], unit)
        return out

    def write(self, path) -> None:
        """One JSON list per span: name, start, end, parent (seconds, perf_counter)."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
