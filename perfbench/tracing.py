"""Spans around the program's public functions, installed from outside.

The package's modules import each other's functions by name
(``from .x import y``), so a wrapper set on the defining module alone would
miss most calls.  :func:`install` replaces the function object in every
loaded ``cellbounds`` module that binds it, and patches methods on their
class, then hands back a function that restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "cellbounds"

# Public functions that get a span, as (module, attribute).  The list
# covers every layer the verifier and the sweeps pass through, so the self
# times of the spans account for the whole of an invocation.
FUNCTIONS = (
    ("kernels", "matern_keep_mask"),
    ("kernels", "bounded_power_law_sum"),
    ("kernels", "min_same_mark_sq_dist"),
    ("pointset", "gen_matern_ii"),
    ("pointset", "gen_triangular_lattice"),
    ("pointset", "color_lattice"),
    ("pointset", "ball_count"),
    ("pointset", "nearest_index"),
    ("pointset", "verify_hardcore"),
    ("montecarlo", "check_ball_regulation"),
    ("montecarlo", "check_interference_bound"),
    ("montecarlo", "check_scheduled_bound"),
    ("montecarlo", "trial_seed"),
    ("bounds", "interference_bound"),
    ("bounds", "legacy_bound"),
    ("guarantees", "theta"),
    ("guarantees", "solve_critical_hk"),
    ("guarantees", "critical_power"),
    ("hexnet", "hex_rate_sweep"),
)
METHODS = (("pathloss", "BoundedPowerLaw", "eval"),)


def _points_in(counts, name, args, kwargs, result):
    counts[name + ".points_in"] += len(args[0] if args else kwargs["points"])


def _points_in_and_kept(counts, name, args, kwargs, result):
    _points_in(counts, name, args, kwargs, result)
    counts[name + ".kept"] += int(result.sum())


# Work counters recorded at the same boundary as the span.
COUNTERS = {
    "kernels.matern_keep_mask": _points_in_and_kept,
    "kernels.bounded_power_law_sum": _points_in,
}


class Tracer:
    """Per-name totals of spans: calls, inclusive and self seconds.

    A span's self time is its duration minus the durations of its direct
    child spans, so the self times of all spans add up to the durations of
    the outermost ones.  Inclusive time counts only the outermost span of a
    name, so a name that re-enters itself is not counted twice.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self._children = []  # child seconds of each open span, innermost last
        self._open = defaultdict(int)

    def wrap(self, name, fn, count=None):
        children = self._children
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans[name] += 1
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                own_children = children.pop()
                if children:
                    children[-1] += duration
                open_spans[name] -= 1
                self.calls[name] += 1
                self.self_seconds[name] += duration - own_children
                if not open_spans[name]:
                    self.seconds[name] += duration
            if count is not None:
                count(self.counts, name, args, kwargs, result)
            return result

        return traced

    def attributed_seconds(self) -> float:
        return sum(self.self_seconds.values())

    def per_invocation(self, names, invocations: int) -> dict[str, float]:
        """Every figure for the given span names, divided by invocations."""
        out = {}
        for name in names:
            out[f"{name}.calls"] = self.calls[name] / invocations
            out[f"{name}.s"] = self.seconds[name] / invocations
            out[f"{name}.self_s"] = self.self_seconds[name] / invocations
        for name in COUNTERS:
            key = f"{name}.points_in"
            out[key] = self.counts[key] / invocations
        thinned = self.counts["kernels.matern_keep_mask.points_in"]
        kept = self.counts["kernels.matern_keep_mask.kept"]
        out["kernels.matern_keep_mask.kept_ratio"] = (kept / thinned
                                                      if thinned else 0.0)
        return out


def span_names() -> list[str]:
    return ([f"{m}.{a}" for m, a in FUNCTIONS]
            + [f"{m}.{c}.{a}" for m, c, a in METHODS])


def install(tracer: Tracer):
    """Wrap every name in FUNCTIONS and METHODS that the package still has.

    Returns ``(restore, missing)``: a function that puts the originals
    back, and the names that could not be found.
    """
    patches = []
    missing = []
    targets = []
    for mod, attr in FUNCTIONS:
        module = _module(mod)
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{mod}.{attr}")
        else:
            targets.append((f"{mod}.{attr}", original))
    modules = [m for n, m in list(sys.modules.items())
               if n == PACKAGE or n.startswith(PACKAGE + ".")]
    for name, original in targets:
        wrapper = tracer.wrap(name, original, COUNTERS.get(name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, key, original))
                    setattr(module, key, wrapper)
    for mod, cls_name, attr in METHODS:
        name = f"{mod}.{cls_name}.{attr}"
        cls = getattr(_module(mod), cls_name, None)
        original = vars(cls).get(attr) if cls is not None else None
        if original is None:
            missing.append(name)
            continue
        patches.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(name, original))

    def restore():
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)

    return restore, missing


def _module(name):
    try:
        return importlib.import_module(f"{PACKAGE}.{name}")
    except ModuleNotFoundError:
        return None
