"""Spans and counters around holoext's layer calls, installed from outside.

``install_layer_spans`` replaces each public layer function by a wrapper in
every module namespace that holds it (the defining module, each module that
imported it by name, and the package root), and each layer method on its
class, so calls are traced wherever they are looked up.  A span records a
name, a start, an end and its parent span; spans stay in memory in flat
arrays until ``save``.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name, fn, args=(), kwargs=None, count=None):
        """Run fn(*args, **kwargs) inside a span; then count(counters, args,
        kwargs, result, nested) where nested says whether a span of the same
        name is open around this one."""
        kwargs = kwargs or {}
        nid = self._id(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1
        if count is not None:
            nested = any(self.name_id[i] == nid for i in self._stack)
            count(self.counters, args, kwargs, result, nested)
        return result

    def wrap(self, name, fn, count=None):
        """fn wrapped in a span; ``name`` may be a callable of (args, kwargs)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            return self.call(span, fn, args, kwargs, count)

        return traced

    def patch_function(self, module, attr, name, count=None, namespaces=()):
        original = getattr(module, attr)
        traced = self.wrap(name, original, count)
        for ns in (module, *namespaces):
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, key, value))
                    setattr(ns, key, traced)

    def patch_method(self, cls, attr, name, count=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, count))

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        start, end = np.frombuffer(self.start), np.frombuffer(self.end)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        dur = end - start
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        per_name = np.bincount(name_id, weights=dur - child, minlength=len(self.names))
        return {name: float(per_name[i]) for i, name in enumerate(self.names)}

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            counters=json.dumps(dict(self.counters)),
        )


# ---------------------------------------------------------------------------
# The layer calls of holoext
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _count_samples(pos):
    def count(c, args, kwargs, result, nested):
        c["integrate.mc_draws"] += int(_arg(args, kwargs, pos, "samples"))

    return count


def _count_quad(c, args, kwargs, result, nested):
    c["integrate.quad_calls"] += 1
    c["integrate.quad_nodes"] += int(result[2])


def _gram_span(args, kwargs):
    method = kwargs.get("method", args[3] if len(args) > 3 else "radial_exact")
    return "bergman.gram_mc" if method == "monte_carlo" else "bergman.gram_radial"


def _count_gram(c, args, kwargs, result, nested):
    if _gram_span(args, kwargs) == "bergman.gram_mc":
        samples = kwargs.get("samples", args[4] if len(args) > 4 else 500_000)
        c["integrate.mc_draws"] += int(samples)
    else:
        c["bergman.gram_entries"] += len(_arg(args, kwargs, 2, "basis"))


def _count_contains(c, args, kwargs, result, nested):
    # Only the outermost domain test counts; a lift tests its base inside.
    if not nested:
        c["geometry.points_tested"] += len(args[1])
        c["geometry.points_inside"] += int(np.count_nonzero(result))


def _counter(key):
    def count(c, args, kwargs, result, nested):
        c[key] += 1

    return count


def _count_green(c, args, kwargs, result, nested):
    c["green.green_points"] += len(args[1])


def install_layer_spans(tracer: Tracer):
    """Wrap the public layer calls of integrate, geometry, weights, green,
    bergman, bounds and scenarios in every loaded holoext module."""
    from holoext import bergman, bounds, geometry, green, integrate, scenarios, weights

    spaces = [m for n, m in sorted(sys.modules.items()) if n.startswith("holoext")]
    functions = [
        (integrate, "mc_integrate", "integrate.mc", _count_samples(2)),
        (integrate, "volume", "integrate.mc", None),
        (integrate, "fubini_mc_oracle", "integrate.mc", None),
        (green, "sublevel_scaling", "integrate.mc", _count_samples(3)),
        (integrate, "adaptive_gauss", "integrate.quad", _count_quad),
        (bergman, "gram_matrix", _gram_span, _count_gram),
        (bergman, "monomial_values", "bergman.monomial_values", None),
        (bergman, "min_norm_extension", "bergman.solve", _counter("bergman.solve_calls")),
        (bergman, "kernel_diag_at", "bergman.kernel_diag", None),
        (bounds, "lift_route_rhs", "bounds.lift_route", None),
        (scenarios, "run_scenario", "scenarios.run", None),
    ]
    for module, attr, name, count in functions:
        tracer.patch_function(module, attr, name, count, namespaces=spaces)

    for cls in (geometry.Ball, geometry.Polydisc, geometry.HartogsLift):
        tracer.patch_method(cls, "contains_batch", "geometry.contains_batch", _count_contains)
    for cls in (
        weights.TrivialWeight,
        weights.BallStandardWeight,
        weights.RadialWeight,
        weights.EpsilonRegularizedWeight,
    ):
        tracer.patch_method(cls, "value_batch", "weights.value_batch")
    for cls in weights.RadialProfile.__subclasses__():
        for attr, key in (("value", "weights.profile_value"), ("inverse", "weights.profile_inverse")):
            if attr in cls.__dict__:
                tracer.patch_method(cls, attr, key, _counter(key + "_calls"))
    for cls in (green.BallPointModel, green.BallPairModel, green.RadialLiftModel):
        tracer.patch_method(cls, "green_batch", "green.green_batch", _count_green)
