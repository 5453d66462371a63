"""Per-layer spans for fracops, recorded from outside the package.

``Tracer.install`` wraps every public function that a fracops layer module
defines, in every fracops namespace that holds it: the package itself and each
module that imported the name (``transmute.rl_integral_shifted``,
``rl_nd.product_quadrature_weights``), so calls between modules are seen.
Spans (name, parent, start, end) stay in memory and are written once by
``dump``. A name in ``FUNCTION_METRICS`` that the package no longer defines is
reported absent; it never raises.

Self time is a span's duration minus the durations of its direct children.
Calls run on one thread, so children never overlap inside their parent.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import statistics
import sys
import time
from pathlib import Path

# (function, metrics) pairs; each metric should move an end-to-end metric
# named in README.md
FUNCTION_METRICS = (
    ("rl_core.rl_integral", ("calls", "self_s", "distinct_frac", "macs_per_s")),
    ("rl_core.product_quadrature_weights", ("self_s",)),
    ("rl_nd.rl_integral_nd", ("self_s", "macs_per_s")),
    ("rl_nd.truncated_convolution", ("self_s",)),
    ("riesz.riesz_potential", ("calls", "self_s")),
    ("transmute.rl_wrt_phi_direct", ("self_s",)),
    ("transmute.compose_Q", ("self_s",)),
    ("transmute.pullback_to_image", ("self_s",)),
    ("transforms.semigroup_table", ("self_s",)),
    ("transforms.laplace_transform", ("self_s",)),
    ("transforms.fit_affine", ("self_s",)),
    ("transforms.semigroup_table_nd", ("self_s",)),
    ("transforms.laplace_transform_nd", ("self_s",)),
    ("transforms.fit_affine_nd", ("self_s",)),
    ("grid.sample", ("self_s",)),
)
UNITS = {
    "calls": "count",
    "self_s": "s",
    "distinct_frac": "ratio",
    "macs_per_s": "computed_MAC/s",
}

# span fields
NAME, PARENT, START, END, MACS, KEY = range(6)


def _macs(n: int, rows: int) -> int:
    """Multiply-adds of one product-quadrature sweep over rows of n + 1 nodes."""
    return rows * n * (n + 1)


def _rl_integral_work(arguments: dict) -> tuple[int, tuple]:
    f = arguments["f"]
    n = f.values.shape[-1] - 1
    key = (float(arguments["alpha"]), f.grid, f.values)
    return _macs(n, f.values.size // (n + 1)), key


def _rl_integral_nd_work(arguments: dict) -> tuple[int, None]:
    f = arguments["f"]
    shape = f.values.shape
    macs = sum(
        _macs(shape[axis] - 1, f.values.size // shape[axis])
        for axis, a in enumerate(arguments["alpha"])
        if a != 0.0
    )
    return macs, None


# work counted from the arguments, before the call runs
WORK = {
    "rl_core.rl_integral": _rl_integral_work,
    "rl_nd.rl_integral_nd": _rl_integral_nd_work,
}


class Tracer:
    """Wraps the public functions of fracops' layer modules and records spans."""

    def __init__(self, package, layers: tuple[str, ...]):
        self.package = package
        self.layers = layers
        self.spans: list[list] = []
        self.wrapped: set[str] = set()
        self.uninspected = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        prefix = self.package.__name__ + "."
        namespaces = [self.package] + [
            mod for name, mod in sorted(sys.modules.items())
            if name.startswith(prefix) and mod is not None
        ]
        for layer in self.layers:
            mod = sys.modules.get(prefix + layer)
            if mod is None:
                continue
            for attr, obj in sorted(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, obj)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, key, wrapper)
                            self._patched.append((ns, key, obj))
                self.wrapped.add(name)

    def uninstall(self) -> None:
        for ns, key, obj in reversed(self._patched):
            setattr(ns, key, obj)
        self._patched.clear()

    def absent(self) -> list[str]:
        return sorted(name for name, _ in FUNCTION_METRICS if name not in self.wrapped)

    def _inspect(self, work, signature, args, kwargs) -> tuple[int, object]:
        try:
            return work(signature.bind(*args, **kwargs).arguments)
        except (TypeError, KeyError, AttributeError, IndexError):
            self.uninspected += 1  # the signature changed; time the call anyway
            return 0, None

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        work = WORK.get(name)
        signature = inspect.signature(fn) if work is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0, None]
            if work is not None:
                span[MACS], span[KEY] = self._inspect(work, signature, args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def pass_stats(self, first: int) -> dict[str, dict]:
        """Per-name calls, self time, work and distinct inputs of spans[first:].

        Input arrays held for the distinct count are replaced by their digest,
        so a pass keeps no array alive after it is summarised.
        """
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= first:
                child_time[span[PARENT] - first] += span[END] - span[START]
        stats: dict[str, dict] = {}
        for span, inner in zip(spans, child_time):
            entry = stats.setdefault(
                span[NAME], {"calls": 0, "self_s": 0.0, "macs": 0, "keys": set()}
            )
            entry["calls"] += 1
            entry["self_s"] += span[END] - span[START] - inner
            entry["macs"] += span[MACS]
            if span[KEY] is not None:
                alpha, grid, values = span[KEY]
                digest = hashlib.blake2b(values.tobytes()).hexdigest()
                span[KEY] = (alpha, grid, digest)
                entry["keys"].add(span[KEY])
        return stats

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                record = {
                    "id": i,
                    "parent": span[PARENT],
                    "name": span[NAME],
                    "start": span[START],
                    "end": span[END],
                }
                if span[MACS]:
                    record["macs"] = span[MACS]
                fh.write(json.dumps(record) + "\n")


def layer_metrics(passes: list[dict[str, dict]], layers: tuple[str, ...]) -> dict:
    """Per-layer metrics from per-pass stats: medians per pass, rates over all passes."""

    def per_pass(names, field) -> float:
        return statistics.median(
            sum(stats.get(n, {}).get(field, 0) for n in names) for stats in passes
        )

    metrics = {}
    for name, fields in FUNCTION_METRICS:
        for field in fields:
            if field in ("calls", "self_s"):
                value = per_pass([name], field)
            elif field == "distinct_frac":
                value = statistics.median(
                    len(stats[name]["keys"]) / stats[name]["calls"] if name in stats else 0.0
                    for stats in passes
                )
            else:  # macs_per_s
                busy = sum(stats.get(name, {}).get("self_s", 0.0) for stats in passes)
                macs = sum(stats.get(name, {}).get("macs", 0) for stats in passes)
                value = macs / busy if busy > 0.0 else 0.0
            metrics[f"{name}.{field}"] = {"value": value, "unit": UNITS[field]}
    for layer in layers:
        names = {n for stats in passes for n in stats if n.startswith(layer + ".")}
        for field in ("calls", "self_s"):
            metrics[f"{layer}.{field}"] = {
                "value": per_pass(names, field),
                "unit": UNITS[field],
            }
    return metrics
