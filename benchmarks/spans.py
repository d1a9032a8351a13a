"""Span tracing around the calls into lognet's public functions.

The tracer wraps each traced function at every module binding that holds
it (a function imported by name into another module is wrapped there
too), records one span per call and per-call counts computed from the
arguments and the result.  Spans stay in memory until ``write``.  Nothing
is changed inside ``src/``: the wrappers replace module attributes and are
removed again by ``uninstall``.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict

import numpy as np

from lognet import calib, cli, io, lognum, nn, tensor, train

MODULES = {"lognum": lognum, "tensor": tensor, "nn": nn, "train": train,
           "calib": calib, "io": io, "cli": cli}


def _terms_method2(args, kwargs, result):
    x, w = args[0], args[1]
    n, k = x.esteps.shape
    return {"terms": n * k * w.esteps.shape[1]}


def _terms_method1(args, kwargs, result):
    x, w_real = args[0], args[1]
    n, k = x.esteps.shape
    return {"terms": n * k * w_real.shape[1]}


def _terms_shifted(args, kwargs, result):
    x_real, w = args[0], args[1]
    n, k = x_real.shape
    return {"terms": n * k * w.esteps.shape[1]}


def _values_arg0(args, kwargs, result):
    return {"values": int(np.size(args[0]))}


def _im2col_bytes(args, kwargs, result):
    return {"bytes": int(result[0].nbytes)}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _one_call(args, kwargs, result):
    return {"calls": 1}


# (module, function) -> count function; every traced function yields a span
TRACED = {
    ("lognum", "logquant_array"): _values_arg0,
    ("lognum", "dequantize_array"): _values_arg0,
    ("lognum", "linquant_array"): None,
    ("lognum", "log_accumulate_raw"): _one_call,
    ("tensor", "im2col_array"): _im2col_bytes,
    ("nn", "method2_matmul"): _terms_method2,
    ("nn", "method2_matmul_logaccum"): None,
    ("nn", "method1_matmul"): _terms_method1,
    ("nn", "shifted_input_matmul"): _terms_shifted,
    ("nn", "forward"): None,
    ("nn", "batchnorm_array"): None,
    ("nn", "maxpool_array"): None,
    ("nn", "collect_quantizer_inputs"): None,
    ("cli", "predict_scores"): None,
    ("train", "train_minibatch"): None,
    ("train", "col2im_array"): None,
    ("train", "optimizer_step"): None,
    ("train", "evaluate"): None,
    ("train", "reestimate_bn_stats"): None,
    ("calib", "calibrate_layers"): None,
    ("calib", "error_histogram"): None,
    ("io", "read_model"): None,
    ("io", "write_model"): _written_bytes,
}
# a class is traced through its constructor, patched on the class itself
TRACED_INIT = {("nn", "QuantizedOperand"): None}


class Tracer:
    """Records spans (name, start, end, parent) and per-name counts."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._undo: list[tuple[object, str, object]] = []
        self._next_id = 0

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, count_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:  # a worker thread's span belongs to the caller's open span
                main = tracer._main_stack
                parent = main[-1] if main else -1
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            stack.append(span_id)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            counts = count_fn(args, kwargs, result) if count_fn else {}
            with tracer._lock:
                tracer.spans.append((span_id, name, t0, t1, parent))
                for key, value in counts.items():
                    tracer.counts[f"{name}.{key}"] += value
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for (mod_name, attr), count_fn in TRACED.items():
            original = getattr(MODULES[mod_name], attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original, count_fn)
            for module in MODULES.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)
        for (mod_name, cls_name), count_fn in TRACED_INIT.items():
            cls = getattr(MODULES[mod_name], cls_name)
            original = cls.__init__
            self._undo.append((cls, "__init__", original))
            cls.__init__ = self._wrap(f"{mod_name}.{cls_name}", original, count_fn)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-name sum of span duration minus the union of child spans."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, t0, t1, parent in self.spans:
            if parent >= 0:
                children[parent].append((t0, t1))
        totals: dict[str, float] = defaultdict(float)
        for span_id, name, t0, t1, _ in self.spans:
            covered, reach = 0.0, t0
            for c0, c1 in sorted(children.get(span_id, ())):
                c0, c1 = max(c0, reach), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            totals[name] += (t1 - t0) - covered
        return totals

    def write(self, path: str) -> None:
        """Spans as JSON lines: id, name, start, end, parent (-1 = root)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for span_id, name, t0, t1, parent in sorted(self.spans):
                f.write(json.dumps({"id": span_id, "name": name, "start": t0,
                                    "end": t1, "parent": parent}) + "\n")
