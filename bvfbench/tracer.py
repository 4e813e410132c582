"""Spans around the public functions of each bvfourier module.

Run as a script, this file is one traced program process::

    python3 bvfbench/tracer.py SPANS.json <bvf arguments...>

It imports ``bvfourier.cli``, wraps every function named in ``LAYERS``
(and each suite of ``bvf verify``) in every bvfourier module that binds
it, so calls the package makes internally are traced too, then runs
``cli.main(argv)`` in-process and exits with its return code.  Spans
stay in memory and are written to SPANS.json once, at the end.

A span records its name, thread, start, end, the span that caused it and
an optional work count.  A span opened on a pool thread with no open span
of its own is caused by the innermost open span of the main thread (the
call blocked on the pool).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

import numpy as np

LAYERS = {
    "cli": ("main",),
    "grids": ("read_samples_csv", "sample", "derivative", "total_variation"),
    "radial": (
        "read_radial_csv",
        "fractional_integral",
        "radial_ft_leray",
        "radial_ft_ibp",
        "radial_ft_oracle",
        "leray_condition",
    ),
    "fourier": (
        "transform_values",
        "fourier_transform",
        "l1_norm_ft",
        "h1_report",
        "hardy_check",
        "fourier_coefficients",
        "conjugate_coefficient_check",
    ),
    "hilbert": (
        "hilbert_pv",
        "hilbert_multiplier",
        "modified_hilbert",
        "periodic_conjugate",
        "kernel_difference",
    ),
    "verification": ("conjugate_derivative_defect", "ibp_consistency", "classify_l1_growth"),
}
SUITES = ("hilbert", "lemma-dc", "hardy", "hardy-littlewood", "periodic", "radial")
# work counts recorded with a span: frequency nodes evaluated
WORK = {"fourier.transform_values": lambda args, kwargs: int(np.asarray(args[1]).size)}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            with self._lock:
                span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                record = {
                    "id": span_id,
                    "name": name,
                    "thread": threading.current_thread().name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                }
                if work is not None:
                    record["work"] = work(args, kwargs)
                with self._lock:
                    self.spans.append(record)

        return traced


def install(tracer: Tracer) -> None:
    """Replace every binding of the listed functions in bvfourier's modules."""
    modules = {name: importlib.import_module(f"bvfourier.{name}") for name in (*LAYERS, "suites")}
    wrapped = {}
    for mod, names in LAYERS.items():
        for fn_name in names:
            orig = getattr(modules[mod], fn_name)
            key = f"{mod}.{fn_name}"
            wrapped[id(orig)] = (orig, tracer.wrap(key, orig, WORK.get(key)))
    for module in [sys.modules["bvfourier"], *modules.values()]:
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    methods = modules["cli"]._HILBERT_METHODS
    for key, fn in methods.items():
        methods[key] = wrapped[id(fn)][1]
    registry = modules["suites"]._SUITE_FUNCS
    for suite in SUITES:
        registry[suite] = tracer.wrap(f"suites.{suite}", registry[suite])


def self_times(spans: list[dict]) -> dict[int, float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    import bvfourier.cli

    tracer = Tracer()
    install(tracer)
    try:
        rc = bvfourier.cli.main(cli_argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
