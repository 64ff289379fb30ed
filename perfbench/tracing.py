"""Per-layer spans for the traced run.

Wrappers are installed from the benchmark's files, around the public entry
points of hultman's modules, at every module binding that resolves them
(`classify` imports `bruhat_graph` by name, `chamber_count` looks up
`intersection_poset` as a global, and so on).  Nested calls therefore give
nested spans, and a layer's self time is its span minus its children.
Spans stay in memory until the run ends.  The hot primitive `window_leq`
gets a counter only.  The untraced run never installs anything.
"""
from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from functools import cached_property

# (layer, module, attribute, value taken from each call's result)
SPAN_TARGETS = (
    ("groups.elements", "hultman.groups", "GroupContext.elements", None),
    ("groups.reflections", "hultman.groups", "GroupContext.reflections", None),
    ("bruhat.bruhat_graph", "hultman.bruhat", "bruhat_graph", lambda g: g.edge_count),
    ("bruhat.group_rank_grids", "hultman.bruhat", "group_rank_grids", None),
    ("bruhat.interval_size", "hultman.bruhat", "interval_size", int),
    ("bruhat.directed_distances_to", "hultman.bruhat", "directed_distances_to", None),
    ("arrangements.chamber_count", "hultman.arrangements", "chamber_count", int),
    ("arrangements.inversion_arrangement", "hultman.arrangements", "inversion_arrangement", len),
    ("arrangements.intersection_poset", "hultman.arrangements", "intersection_poset",
     lambda poset: len(poset.flats)),
    ("diagrams.hull", "hultman.diagrams", "hull_relaxed_counterexample", lambda c: c is not None),
    ("diagrams.hull", "hultman.diagrams", "right_hull_counterexample", lambda c: c is not None),
    ("diagrams.violated_boxes", "hultman.diagrams", "violated_boxes", None),
    ("diagrams.is_defined_by_inclusions", "hultman.diagrams", "is_defined_by_inclusions", None),
    ("diagrams.is_defined_by_pseudo_inclusions", "hultman.diagrams",
     "is_defined_by_pseudo_inclusions", None),
    ("patterns.bp_contains", "hultman.patterns", "bp_contains", lambda e: e is not None),
    ("patterns.avoids_condition5_list", "hultman.patterns", "avoids_condition5_list", None),
    ("classify.classify", "hultman.classify", "classify", None),
    ("classify.group_absolute_lengths", "hultman.classify", "group_absolute_lengths", None),
    ("classify.find_minimal_non_hultman", "hultman.classify", "find_minimal_non_hultman", None),
)
# Called once per hull window (about 200,000 times in a hull-B5 sample,
# millions on larger hulls): counted at diagrams' binding only, never timed.
COUNT_TARGETS = (("bruhat.window_leq", "hultman.diagrams", "window_leq"),)

# The outermost span of each of these layers is charged to a condition.
CONDITION_OF = {
    "arrangements.chamber_count": 1,
    "bruhat.interval_size": 1,
    "bruhat.bruhat_graph": 2,
    "bruhat.directed_distances_to": 2,
    "bruhat.group_rank_grids": 2,
    "classify.group_absolute_lengths": 2,
    "diagrams.violated_boxes": 3,
    "diagrams.is_defined_by_inclusions": 3,
    "diagrams.is_defined_by_pseudo_inclusions": 3,
    "diagrams.hull": 4,
    "patterns.avoids_condition5_list": 5,
    "patterns.bp_contains": 5,
}

PERCALL = ("bruhat.interval_size", "arrangements.chamber_count", "diagrams.hull",
           "patterns.avoids_condition5_list", "classify.classify")
TOTALS = ("groups.elements", "groups.reflections", "bruhat.bruhat_graph",
          "bruhat.group_rank_grids", "classify.group_absolute_lengths",
          "bruhat.directed_distances_to", "arrangements.inversion_arrangement",
          "arrangements.intersection_poset", "diagrams.violated_boxes",
          "diagrams.is_defined_by_inclusions", "diagrams.is_defined_by_pseudo_inclusions",
          "patterns.bp_contains") + PERCALL

# Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = {f"{layer}_s": "s" for layer in TOTALS}
for _layer in PERCALL:
    PER_LAYER_UNITS.update({f"{_layer}_p50_ms": "ms", f"{_layer}_tail_ms": "ms",
                            f"{_layer}_tail_pct": "%"})
PER_LAYER_UNITS.update({
    "bruhat.graph_edges": "count",
    "bruhat.interval_elements": "count",
    "bruhat.interval_hit_ratio": "ratio",
    "bruhat.directed_distances_to_calls": "count",
    "bruhat.window_leq_calls": "count",
    "arrangements.chamber_count_calls": "count",
    "arrangements.inverse_reuse_ratio": "ratio",
    "arrangements.hyperplanes": "count",
    "arrangements.flats": "count",
    "arrangements.chambers": "count",
    "diagrams.hull_counterexamples": "count",
    "patterns.bp_contains_calls": "count",
    "patterns.bp_hit_ratio": "ratio",
    "classify.classify_self_s": "s",
    "classify.find_minimal_non_hultman_self_s": "s",
    **{f"conditions.c{c}_s": "s" for c in range(1, 6)},
    "trace.overhead_s": "s",
})


class Tracer:
    """Spans as [layer, start, end, parent index, value] in call order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._open: list[int] = []

    def timed(self, layer: str, fn, value):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [layer, clock(), 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()
            if value is not None:
                rec[4] = value(result)
            return result

        return wrapper

    def counted(self, layer: str, fn):
        counts = self.counts
        counts[layer] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target; a target that no longer resolves is recorded
        in `missing` and its metrics stay at zero."""
        for layer, module, attr, value in SPAN_TARGETS:
            mod = sys.modules.get(module)
            cls_name, _, prop = attr.rpartition(".")
            if cls_name:
                cls = getattr(mod, cls_name, None)
                orig = getattr(cls, "__dict__", {}).get(prop)
                if not isinstance(orig, cached_property):
                    self.missing.append(f"{module}.{attr}")
                    continue
                new = cached_property(self.timed(layer, orig.func, value))
                new.__set_name__(cls, prop)
                setattr(cls, prop, new)
                continue
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self.timed(layer, fn, value)
            for m in _package_modules():
                for name, bound in list(vars(m).items()):
                    if bound is fn:
                        setattr(m, name, wrapper)
        for layer, module, attr in COUNT_TARGETS:
            mod = sys.modules.get(module)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, self.counted(layer, fn))

    def dump(self) -> list[list]:
        return [[s[0], s[1], s[2], s[3]] for s in self.spans]


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hultman" or name.startswith("hultman."))]


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest of the listed percentiles with at
    least ten calls beyond it; the maximum (100) when there are too few."""
    if not durations:
        return 0.0, 0.0
    ordered = sorted(durations)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100 - pct) / 100 >= 10:
            return ordered[math.ceil(pct / 100 * n) - 1], pct
    return ordered[-1], 100.0


def layer_metrics(tracer: Tracer, conditions: tuple[int, ...], group_order: int) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s, from one traced sweep."""
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    children = [0.0] * len(spans)
    in_condition = [False] * len(spans)
    by_cond = dict.fromkeys(range(1, 6), 0.0)
    per_layer: dict[str, list[int]] = {}
    for i, (layer, _, _, parent, _) in enumerate(spans):
        per_layer.setdefault(layer, []).append(i)
        if parent >= 0:
            children[parent] += dur[i]
        inherited = parent >= 0 and in_condition[parent]
        cond = CONDITION_OF.get(layer)
        if cond is not None and not inherited:
            by_cond[cond] += dur[i]
        in_condition[i] = inherited or cond is not None

    def calls(layer):
        return per_layer.get(layer, [])

    def values(layer):
        return [spans[i][4] for i in calls(layer)]

    out: dict[str, float] = {}
    for layer in TOTALS:
        out[f"{layer}_s"] = sum(dur[i] for i in calls(layer))
    for layer in PERCALL:
        ds = [dur[i] for i in calls(layer)]
        value, pct = tail(ds)
        out[f"{layer}_p50_ms"] = statistics.median(ds) * 1e3 if ds else 0.0
        out[f"{layer}_tail_ms"] = value * 1e3
        out[f"{layer}_tail_pct"] = pct

    def self_time(layer):
        return sum(dur[i] - children[i] for i in calls(layer))

    n_classify = len(calls("classify.classify"))
    n_interval = len(calls("bruhat.interval_size"))
    n_chamber = len(calls("arrangements.chamber_count"))
    n_bp = len(calls("patterns.bp_contains"))
    interval_elements = sum(values("bruhat.interval_size"))
    out.update({
        "bruhat.graph_edges": max(values("bruhat.bruhat_graph"), default=0),
        "bruhat.interval_elements": interval_elements,
        "bruhat.interval_hit_ratio": interval_elements / (n_interval * group_order) if n_interval else 0.0,
        "bruhat.directed_distances_to_calls": len(calls("bruhat.directed_distances_to")),
        "bruhat.window_leq_calls": tracer.counts.get("bruhat.window_leq", 0),
        "arrangements.chamber_count_calls": n_chamber,
        "arrangements.inverse_reuse_ratio": (
            1 - n_chamber / n_classify if n_classify and 1 in conditions else 0.0),
        "arrangements.hyperplanes": sum(values("arrangements.inversion_arrangement")),
        "arrangements.flats": sum(values("arrangements.intersection_poset")),
        "arrangements.chambers": sum(values("arrangements.chamber_count")),
        "diagrams.hull_counterexamples": sum(values("diagrams.hull")),
        "patterns.bp_contains_calls": n_bp,
        "patterns.bp_hit_ratio": sum(values("patterns.bp_contains")) / n_bp if n_bp else 0.0,
        "classify.classify_self_s": self_time("classify.classify"),
        "classify.find_minimal_non_hultman_self_s": self_time("classify.find_minimal_non_hultman"),
    })
    # classify's self time holds the private witness scan of condition 2
    if 2 in conditions:
        by_cond[2] += out["classify.classify_self_s"]
    out.update({f"conditions.c{c}_s": t for c, t in by_cond.items()})
    return out
