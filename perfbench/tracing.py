"""Spans around the program's public functions, recorded from outside it.

Tracer.install() rebinds each wrapped function in every loaded wickweights
module that holds it, so a call is seen wherever its caller looks it up:
weights.gaussian_trace_moment as well as wick.gaussian_trace_moment.  A
span is a dict with name, start, end, parent (index into the span list, or
-1) and attrs; spans stay in memory until the caller writes them out.

layer_metrics() turns span lists into the per-layer metrics.  A time
metric is the self time of the layer's spans: duration minus the part
covered by child spans, so that the layers' times add up to the traced
wall time instead of counting nested calls twice.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time


def _invariant_power(invariants) -> int:
    return sum(sum(p) for p in invariants)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _trace_attrs(args, kwargs, result) -> dict:
    return {"degree": 2 * _invariant_power(_arg(args, kwargs, 1, "invariants"))}


def _open_attrs(args, kwargs, result) -> dict:
    slots = _arg(args, kwargs, 1, "slots")
    return {"degree": 2 * _invariant_power(_arg(args, kwargs, 2, "invariants")) + len(slots)}


def _solve_attrs(args, kwargs, result) -> dict:
    return {"size": len(_arg(args, kwargs, 0, "matrix"))}


def _load_attrs(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _store_attrs(args, kwargs, result) -> dict:
    from wickweights import cache

    path = cache.cache_dir() / _arg(args, kwargs, 0, "name")
    return {"bytes": path.stat().st_size if path.exists() else 0}


def _mc_attrs(args, kwargs, result) -> dict:
    return {"ensemble": _arg(args, kwargs, 0, "ensemble").value,
            "samples": _arg(args, kwargs, 3, "samples")}


# (module, function, span name, attrs from the arguments and result)
WRAPPED = (
    ("wick", "gaussian_trace_moment", "wick.trace_moment", _trace_attrs),
    ("wick", "moment_with_invariants", "wick.open_moment", _open_attrs),
    ("algebra", "solve_linear_system", "algebra.solve", _solve_attrs),
    ("weights", "solve_weight", "weights.solve_weight", None),
    ("weights", "build_gram_system", "weights.build_gram", None),
    ("weights", "verify_conditions", "weights.verify_conditions", None),
    ("weights", "weighted_moment", "weights.weighted_moment", None),
    ("integrate", "error_order", "integrate.error_order", None),
    ("integrate", "integrate_gram_product", "integrate.gram_product", None),
    ("cache", "load_json", "cache.load", _load_attrs),
    ("cache", "store_json", "cache.store", _store_attrs),
    ("sampling", "mc_integrate", "sampling.mc_integrate", _mc_attrs),
)


class Tracer:
    """Records one span per call of a wrapped function while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, func, name, attrs_fn):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._open[-1] if self._open else -1, "attrs": {}}
            self.spans.append(span)
            self._open.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if attrs_fn is not None:
                span["attrs"] = attrs_fn(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import importlib

        for short, func_name, span_name, attrs_fn in WRAPPED:
            original = getattr(importlib.import_module(f"wickweights.{short}"), func_name)
            traced = self._wrap(original, span_name, attrs_fn)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "wickweights" or mod is None:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


# -- per-layer metrics --------------------------------------------------------------------

def _degree_bucket(degree: int) -> str:
    """Total degree 12 or less, 14, or 16 and above."""
    if degree <= 12:
        return "d_le12"
    return "d14" if degree <= 14 else "d16"


def _kappa_bucket(size: int) -> str:
    # Gram size is the number of partitions of weight <= kappa: 12 at 4, 19 at 5, 30 at 6
    if size <= 12:
        return "k_le4"
    return "k5" if size <= 19 else "k6"


def self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(span_lists: list[list[dict]]) -> dict[str, float]:
    """Per-layer counts and self times from one or more processes' spans."""
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    samples: dict[str, float] = {}
    sample_time: dict[str, float] = {}
    for spans in span_lists:
        for span, own in zip(spans, self_times(spans)):
            name, attrs = span["name"], span["attrs"]
            add(f"{name}.calls", 1)
            add(f"{name}.s", own)
            if name == "wick.trace_moment":
                add(f"{name}.{_degree_bucket(attrs['degree'])}.s", own)
            elif name == "wick.open_moment":
                add(f"{name}.{_degree_bucket(attrs['degree'])}.s", own)
            elif name == "algebra.solve":
                add(f"{name}.{_kappa_bucket(attrs['size'])}.s", own)
            elif name == "cache.load":
                add("cache.load.hits", int(attrs["hit"]))
            elif name == "cache.store":
                add("cache.bytes_written", attrs["bytes"])
            elif name == "sampling.mc_integrate":
                ens = attrs["ensemble"]
                samples[ens] = samples.get(ens, 0) + attrs["samples"]
                sample_time[ens] = sample_time.get(ens, 0) + span["end"] - span["start"]
    for ens, count in samples.items():
        out[f"sampling.samples_per_s.{ens}"] = count / sample_time[ens]
    return out


def write_spans(path: str, spans: list[dict], **extra) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": spans, **extra}, fh)


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def span_cost(calls: int = 20_000) -> float:
    """Seconds the tracer adds to one call: a wrapped no-op against a bare one."""

    def noop():
        return None

    traced = Tracer()._wrap(noop, "noop", None)
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    wrapped = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    return max(wrapped - (time.perf_counter() - start), 0.0) / calls


def cpu_seconds() -> float:
    """User plus system time of this process and of every child waited for."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system
