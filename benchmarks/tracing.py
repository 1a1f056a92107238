"""Per-layer spans recorded from outside the program.

``Tracer.installed`` replaces every public function name that
``steinhaus.cli`` and ``steinhaus.verify`` look up in their module namespaces
with a timing wrapper, and puts the originals back when the block ends, even
on error. No file of the package changes. Calls a module makes inside itself,
or into ``steinhaus.spectrum`` internals, stay unwrapped, so their time is the
self time of the nearest wrapped caller. ``steinhaus.bitseq`` is not wrapped
either: ``BitSeq`` is a class, and its cost lands in its caller's self time.

Wrapped functions are called only from the thread that runs ``cli.main``;
the engine's worker threads run unwrapped spectrum internals.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass

HIST = ("full_spectrum", "symmetry_reduced_spectrum")
COLLECT = ("level_sets_low", "level_sets_high", "members_at_weights", "find_weight")
CHECKS = ("verify_level", "check_conjecture", "verify_family_weights",
          "verify_ek", "verify_small_n")


def lanes_swept(name: str, args: tuple, kwargs: dict) -> int:
    """Generators an enumeration call sweeps: 2^n per pass over all lanes."""
    if name not in HIST + COLLECT:
        return 0
    n = args[0] if args else kwargs["n"]
    passes = 1
    if name.startswith("level_sets") and kwargs.get("spectrum") is None:
        passes = 2  # it computes the histogram itself first
    return passes << n


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    lanes: int = 0


class Tracer:
    """A span stack: a span's self time is its duration minus its children's."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.results: dict[str, object] = {}  # last return value per span
        self._stack: list[list[float]] = []  # [start, time covered by children]

    def call(self, key: str, fn, args: tuple, kwargs: dict):
        self._stack.append([time.perf_counter(), 0.0])
        try:
            result = fn(*args, **kwargs)
        finally:
            start, children = self._stack.pop()
            duration = time.perf_counter() - start
            if self._stack:
                self._stack[-1][1] += duration
            s = self.stats.setdefault(key, SpanStats())
            s.calls += 1
            s.total_s += duration
            s.self_s += duration - children
            s.lanes += lanes_swept(fn.__name__, args, kwargs)
        self.results[key] = result
        return result

    def wrap(self, fn):
        key = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        def wrapper(*args, **kwargs):
            return self.call(key, fn, args, kwargs)
        return wrapper

    @contextmanager
    def installed(self, *modules):
        """Wrap the public package functions each module's namespace holds."""
        saved = []
        try:
            for mod in modules:
                for name, obj in list(vars(mod).items()):
                    if (not name.startswith("_") and inspect.isfunction(obj)
                            and obj.__module__.startswith("steinhaus.")):
                        saved.append((mod, name, obj))
                        setattr(mod, name, self.wrap(obj))
            yield self
        finally:
            for mod, name, obj in reversed(saved):
                setattr(mod, name, obj)

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for key, s in self.stats.items():
            layer = key.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + s.self_s
        return out


def _sum(tracer: Tracer, keys, field: str) -> float:
    return sum(getattr(tracer.stats[k], field) for k in keys if k in tracer.stats)


def _mgen_s(lanes: int, seconds: float) -> float:
    return lanes / seconds / 1e6 if seconds > 0 else 0.0


def op_layer_metrics(tracer: Tracer, op_wall_s: float, asked_lanes: int) -> dict[str, float]:
    """Per-layer metrics of one traced operation, rooted at span ``cli.main``."""
    hist = [f"spectrum.{f}" for f in HIST]
    collect = [f"spectrum.{f}" for f in COLLECT]
    hist_s, collect_s = _sum(tracer, hist, "self_s"), _sum(tracer, collect, "self_s")
    hist_lanes, collect_lanes = _sum(tracer, hist, "lanes"), _sum(tracer, collect, "lanes")
    layers = tracer.layer_self_s()
    report = tracer.results.get("verify.verify_all")
    all_s = _sum(tracer, ["verify.verify_all"], "total_s")
    elapsed = sum(r.elapsed for r in report.records) if report is not None else 0.0
    return {
        "spectrum.hist_s": hist_s,
        "spectrum.hist_calls": _sum(tracer, hist, "calls"),
        "spectrum.hist_mgen_s": _mgen_s(hist_lanes, hist_s),
        "spectrum.collect_s": collect_s,
        "spectrum.collect_calls": _sum(tracer, collect, "calls"),
        "spectrum.collect_mgen_s": _mgen_s(collect_lanes, collect_s),
        "spectrum.sweep_ratio": (hist_lanes + collect_lanes) / asked_lanes,
        "verify.all_s": all_s,
        "verify.self_s": layers.get("verify", 0.0),
        "verify.s3_s": _sum(tracer, ["verify.verify_s3"], "self_s"),
        "verify.checks_s": _sum(tracer, [f"verify.{f}" for f in CHECKS], "self_s"),
        "verify.records": len(report.records) if report is not None else 0,
        "verify.elapsed_coverage": elapsed / all_s if all_s > 0 else 0.0,
        "cli.self_s": layers.get("cli", 0.0),
        "triangle.weight_calls": _sum(tracer, ["triangle.triangle_weight"], "calls"),
        "triangle.weight_s": _sum(tracer, ["triangle.triangle_weight"], "self_s"),
        "symmetry.orbit_calls": _sum(tracer, ["symmetry.orbit"], "calls"),
        "symmetry.orbit_s": _sum(tracer, ["symmetry.orbit"], "self_s"),
        "families.s": layers.get("families", 0.0),
        "trace.op_s": op_wall_s,
        "trace.self_sum_ratio": sum(layers.values()) / op_wall_s,
    }
