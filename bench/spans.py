"""Span tracing of the program's layers, from outside the program.

The layers are the package's modules.  ``Tracer.install`` wraps every
public function of each layer module, and the public methods (plus
``__init__`` / ``__post_init__``) of its public classes, and puts the
wrapper wherever a ``transrisk`` module holds the function by name, so
``cholesky_with_jitter`` is counted whether ``gaussian``,
``gauss_transfer``, ``mc`` or ``regression`` calls it.

Each wrapped call records one span: the function, its start and end,
and the span that was open when it began.  Spans stay in flat arrays in
memory; ``save`` writes them out and ``layer_metrics`` reduces them.  A
layer's self time is the time inside its spans that no child span
covers, so time in numpy or scipy counts for the layer that called it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "docio", "gaussian", "gauss_transfer", "risk", "mc",
          "signature", "regression", "divergence", "portfolio")

# per-layer metrics beyond <layer>.calls and <layer>.self_s:
# name -> (kind, functions); "calls" counts calls, "seconds" sums span time
NAMED = {
    "gaussian.cholesky": ("calls", ("gaussian.cholesky_with_jitter",)),
    "gaussian.chol_solves": ("calls", ("gaussian.chol_solve",)),
    "gaussian.sqrtm": ("calls", ("gaussian.sqrtm_psd",)),
    "mc.normals_s": ("seconds", ("mc.SeededStream.normals",)),
    "docio.validate_s": ("seconds", ("docio.validate_spec", "docio.validate_report")),
    "docio.csv_reads": ("calls", ("docio.read_price_volume_csv", "docio.read_returns_csv",
                                  "docio.read_risk_rows_csv")),
    "signature.windows": ("calls", ("signature.signature_of_path",)),
    "regression.ridge_solves": ("calls", ("regression.ridge_fit",)),
    "portfolio.solves": ("calls", ("portfolio.sharpe_optimize",)),
    "portfolio.projections": ("calls", ("portfolio.project_simplex",)),
}
# metrics read from arguments or results rather than from spans, with units
VALUES = {"mc.normals": "count", "docio.report_bytes": "bytes", "cli.verify_exit4": "count"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.values: Counter = Counter()

    def _wrap(self, layer: str, qualname: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(f"{layer}.{qualname}")
        self.layer_of.append(LAYERS.index(layer))
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _hooks(self):
        values = self.values

        def normals(args, result):
            values["mc.normals"] += int(args[1])

        def report_bytes(args, result):
            values["docio.report_bytes"] += len(result.encode())

        def exit4(args, result):
            values["cli.verify_exit4"] += int(result == 4)

        return {"mc.SeededStream.normals": normals,
                "docio.canonical_json": report_bytes,
                "cli.main": exit4}

    def install(self) -> None:
        """Wrap the layers of the already-imported ``transrisk`` package."""
        hooks = self._hooks()
        modules = [m for name, m in sys.modules.items()
                   if (name == "transrisk" or name.startswith("transrisk.")) and m is not None]
        for layer in LAYERS:
            module = importlib.import_module(f"transrisk.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(layer, name, obj, hooks.get(f"{layer}.{name}"))
                    for holder in modules:
                        for attr, value in list(vars(holder).items()):
                            if value is obj:
                                setattr(holder, attr, wrapped)
                elif inspect.isclass(obj):
                    for attr, raw in list(vars(obj).items()):
                        public = not attr.startswith("_") or attr in ("__init__", "__post_init__")
                        if public and inspect.isfunction(raw):
                            qual = f"{name}.{attr}"
                            setattr(obj, attr, self._wrap(layer, qual, raw,
                                                          hooks.get(f"{layer}.{qual}")))

    def _spans(self):
        ids = np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return ids, parent, dur

    def save(self, path) -> None:
        ids, parent, _ = self._spans()
        np.savez_compressed(path, names=np.array(self.names), name_id=ids, parent=parent,
                            start=np.frombuffer(self.start, dtype=float),
                            end=np.frombuffer(self.end, dtype=float))

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, per round of operations."""
        ids, parent, dur = self._spans()
        n_names = len(self.names)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        self_time = dur - child[:len(dur)]
        layer = np.asarray(self.layer_of, dtype=np.int64)[ids] if len(ids) else ids
        calls_by_name = np.bincount(ids, minlength=n_names)
        secs_by_name = np.bincount(ids, weights=dur, minlength=n_names)
        index = {name: i for i, name in enumerate(self.names)}

        out: dict[str, tuple[float, str]] = {}
        for i, name in enumerate(LAYERS):
            mask = layer == i
            out[f"{name}.calls"] = (int(mask.sum()) / rounds, "count")
            out[f"{name}.self_s"] = (float(self_time[mask].sum()) / rounds, "s")
        for metric, (kind, functions) in NAMED.items():
            rows = [index[f] for f in functions if f in index]
            if kind == "calls":
                out[metric] = (int(calls_by_name[rows].sum()) / rounds, "count")
            else:
                out[metric] = (float(secs_by_name[rows].sum()) / rounds, "s")
        for metric, unit in VALUES.items():
            out[metric] = (self.values[metric] / rounds, unit)
        return out
