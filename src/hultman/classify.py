"""Five-way classification of Hultman elements and the exhaustive
verification, minimal-pattern, and witness-table harnesses.

The five conditions are computed by independent code paths; their
agreement is the content of the theorem being verified, so a disagreement
is report material, never silently reconciled.

Condition numbering (CLI `--conditions`):
  1 chambers          c(w) = s(w)
  2 distance          l_D(u,w) = l_T(u,w) for all u <= w
  3 pseudo_inclusions defined by (pseudo-)inclusions
  4 relaxed_hull      (relaxed) right hull condition, decided exactly by
                      one order-preserving dynamic program per coessential
                      box and board, O(N^2) each (type A: the plain right
                      hull condition)
  5 bp_avoidance      BP avoidance of the 31 listed patterns (type A: the
                      four classical patterns)
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import arrangements, bruhat, diagrams, patterns
from .bruhat import BruhatGraph, bruhat_graph
from .bruhat import group_absolute_lengths  # noqa: F401  (still importable from here)
from .diagrams import CoessBox
from .groups import (
    Element,
    GroupContext,
    Window,
    context,
    coxeter_length,
    format_window,
    parse_element,
)

CONDITION_NAMES = {
    1: "chambers",
    2: "distance",
    3: "pseudo_inclusions",
    4: "relaxed_hull",
    5: "bp_avoidance",
}
ALL_CONDITIONS = (1, 2, 3, 4, 5)


@dataclass
class ClassificationReport:
    element: Element
    conditions: dict[str, bool] = field(default_factory=dict)
    c: int | None = None
    s: int | None = None
    distance_witness: tuple[Element, int, int] | None = None  # (u, l_D, l_T)
    violations: tuple[CoessBox, ...] = ()
    hull_counterexample: Window | None = None
    matched_pattern: tuple[Element, patterns.ParabolicEmbedding] | None = None
    seconds: dict[str, float] = field(default_factory=dict)  # per condition

    @property
    def consistent(self) -> bool:
        return len(set(self.conditions.values())) <= 1

    @property
    def is_hultman(self) -> bool | None:
        """The common verdict; None when no condition was computed or the
        computed conditions disagree."""
        if not self.conditions or not self.consistent:
            return None
        return next(iter(self.conditions.values()))

    def to_json_dict(self) -> dict:
        witness = self.distance_witness
        return {
            "element": str(self.element),
            "family": self.element.ctx.family,
            "rank": self.element.ctx.rank,
            "conditions": dict(self.conditions),
            "c": self.c,
            "s": self.s,
            "witnesses": (
                [{"u": str(witness[0]), "lD": witness[1], "lT": witness[2]}]
                if witness
                else []
            ),
            "violations": [
                {"p": b.p, "q": b.q, "r": b.r} for b in self.violations
            ],
            "hull_counterexample": (
                format_window(self.hull_counterexample)
                if self.hull_counterexample is not None
                else None
            ),
            "matched_pattern": (
                {
                    "pattern": str(self.matched_pattern[0]),
                    "family": self.matched_pattern[0].ctx.family,
                    "rank": self.matched_pattern[0].ctx.rank,
                    "indices": list(self.matched_pattern[1].indices),
                }
                if self.matched_pattern
                else None
            ),
        }


# One orbit memo entry: condition number -> its values for one element,
# (c, s) for condition 1 and the first distance witness, as (row, l_D, l_T)
# or None, for condition 2.
OrbitMemo = dict[tuple[GroupContext, Window], dict[int, object]]


def _orbit_images(
    ctx: GroupContext, row: int
) -> list[tuple[np.ndarray, tuple[GroupContext, Window]]]:
    """(row map, memo key) of each image of ctx.elements[row] under
    `bruhat.symmetry_rows`, one per distinct image other than itself."""
    seen = {row}
    images = []
    for phi in bruhat.symmetry_rows(ctx):
        image = int(phi[row])
        if image not in seen:
            seen.add(image)
            images.append((phi, (ctx, ctx.elements[image].window)))
    return images


def classify(
    w: Element,
    conditions: tuple[int, ...] = ALL_CONDITIONS,
    *,
    graph: BruhatGraph | None = None,
    chamber_cache: OrbitMemo | None = None,
) -> ClassificationReport:
    """Evaluate the requested conditions independently and cross-check.
    Every verdict is a definite bool.

    `chamber_cache` is an orbit memo for conditions 1 and 2, shared by the
    calls of one sweep; it kept its name from when it held c(w) alone.
    `bruhat.symmetry_rows` maps w onto the other elements of its orbit
    under Bruhat-graph automorphisms that keep l_T, so c, s and the
    distances are the same along an orbit.  After computing c and s, or
    the distances, for w, classify writes them under each image's key
    (ctx, window); the image's first witness is the least image row of
    w's witnesses, with the same (l_D, l_T).  A call that finds its own key
    takes the values it needs and drops them, so the memo holds only
    orbit members not yet visited.  Every element whose distances are
    computed runs all the checks of `interval_distances`; an image inherits
    the same values, so its checks would give the same result.  When s(w)
    and the distances are both at hand, the number of rows the distance
    sweep reached must be s(w), or classify raises ArithmeticError.
    """
    report = ClassificationReport(w)
    ctx = w.ctx
    key = (ctx, w.window)  # groups of equal degree share windows
    memo = chamber_cache.pop(key, {}) if chamber_cache is not None else {}
    shared = {1, 2}.intersection(conditions).difference(memo)  # computed here
    images = []
    if 2 in shared or (shared and chamber_cache is not None):
        row = int(bruhat.element_rows(ctx, w.window)[0])  # looked up once
        images = _orbit_images(ctx, row) if chamber_cache is not None else []
    reached = None  # #[id, w] as the distance sweep counts it
    for num in conditions:
        name = CONDITION_NAMES[num]
        start = time.perf_counter()
        if num == 1:
            if 1 in memo:
                report.c, report.s = memo.pop(1)
            else:
                report.c = arrangements.chamber_count(w)
                report.s = bruhat.interval_size(w)
                for _, image in images:
                    chamber_cache.setdefault(image, {})[1] = (report.c, report.s)
            if report.c > report.s:
                # c(w) <= s(w) holds for every w (Hultman, JCTA 2011;
                # Hultman-Linusson-Shareshian-Sjostrand, JCTA 2009)
                raise ArithmeticError(f"{w}: c(w) = {report.c} > s(w) = {report.s}")
            report.conditions[name] = report.c == report.s
        elif num == 2:
            if 2 in memo:
                witness = memo.pop(2)
            else:
                graph = graph or bruhat_graph(ctx)
                if graph.ctx != ctx:
                    raise ValueError(f"{w} is not an element of the graph's group")
                rows, l_d, l_t = bruhat.interval_distances(graph, row)
                reached = len(rows)
                found = l_d != l_t
                rows, l_d, l_t = rows[found], l_d[found], l_t[found]
                witness = _first_witness(rows, l_d, l_t)
                for phi, image in images:
                    chamber_cache.setdefault(image, {})[2] = _first_witness(
                        phi[rows], l_d, l_t
                    )
            if witness is not None:
                u_row, l_d_u, l_t_u = witness
                witness = (ctx.elements[u_row], l_d_u, l_t_u)
            report.distance_witness = witness
            report.conditions[name] = witness is None
        elif num == 3:
            report.violations = diagrams.violated_boxes(w)
            if w.ctx.family == "A":
                report.conditions[name] = not report.violations
            else:
                report.conditions[name] = diagrams.is_defined_by_pseudo_inclusions(w)
        elif num == 4:
            if w.ctx.family == "A":
                cex = diagrams.right_hull_counterexample(w)
            else:
                cex = diagrams.hull_relaxed_counterexample(w)
            report.conditions[name] = cex is None
            report.hull_counterexample = cex
        elif num == 5:
            ok, matched = patterns.avoids_condition5_list(w)
            report.conditions[name] = ok
            report.matched_pattern = matched
        else:
            raise ValueError(f"unknown condition {num}")
        report.seconds[name] = time.perf_counter() - start
    if reached is not None and report.s is not None and reached != report.s:
        # the tableau criterion and the graph search find [id, w] apart
        raise ArithmeticError(
            f"{w}: s(w) = {report.s}, but the distance sweep reached {reached} rows"
        )
    if memo:
        chamber_cache[key] = memo  # values for conditions not asked for here
    return report


def _first_witness(
    rows: np.ndarray, l_d: np.ndarray, l_t: np.ndarray
) -> tuple[int, int, int] | None:
    """(row, l_D, l_T) of the least of the witness rows, or None if there
    are none.  Rows follow graded order, so the least row has minimal
    length."""
    if not len(rows):
        return None
    k = int(np.argmin(rows))
    return int(rows[k]), int(l_d[k]), int(l_t[k])


@dataclass
class VerificationSummary:
    ctx: GroupContext
    conditions: tuple[int, ...]
    total: int = 0
    hultman_count: int = 0
    disagreements: list[ClassificationReport] = field(default_factory=list)
    reports: list[ClassificationReport] = field(default_factory=list)
    elapsed: float = 0.0
    seconds: dict[str, float] = field(default_factory=dict)  # per condition
    # per condition: rows whose values were computed; the others took them
    # from an orbit image through the memo of `classify`
    rows_computed: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def to_json_dict(self) -> dict:
        return {
            "family": self.ctx.family,
            "rank": self.ctx.rank,
            "conditions": [CONDITION_NAMES[c] for c in self.conditions],
            "total": self.total,
            "hultman_count": self.hultman_count,
            "elapsed_s": self.elapsed,
            "seconds": dict(self.seconds),
            "rows_computed": dict(self.rows_computed),
            "rows_from_orbit": {
                name: self.total - rows for name, rows in self.rows_computed.items()
            },
            "disagreements": [r.to_json_dict() for r in self.disagreements],
            "elements": [r.to_json_dict() for r in self.reports],
        }


def verify_equivalence(
    ctx: GroupContext,
    conditions: tuple[int, ...] = ALL_CONDITIONS,
    *,
    keep_reports: bool = False,
) -> VerificationSummary:
    """Decide every requested condition on every group element and check
    that they agree.

    Each condition fills one verdict array by row of ctx.elements.
    Conditions 3 and 5 come from one whole-group pass each
    (`diagrams.defined_by_inclusions_mask`, `patterns.condition5_matches`);
    conditions 1, 2 and 4 from `classify`, one element at a time.  The
    calls share one orbit memo, so conditions 1 and 2 are computed once per
    orbit of `bruhat.symmetry_rows`, at its first row.  Full reports are
    built only for disagreeing rows, or for every row with `keep_reports`.
    """
    start = time.perf_counter()
    summary = VerificationSummary(ctx, tuple(conditions))
    summary.seconds = {CONDITION_NAMES[c]: 0.0 for c in summary.conditions}
    total = len(ctx.elements)
    summary.rows_computed = {CONDITION_NAMES[c]: total for c in summary.conditions}
    whole: dict[int, np.ndarray] = {}  # verdicts of the whole-group passes
    if 3 in conditions:
        clock = time.perf_counter()
        whole[3] = diagrams.defined_by_inclusions_mask(ctx)
        summary.seconds[CONDITION_NAMES[3]] = time.perf_counter() - clock
    if 5 in conditions:
        clock = time.perf_counter()
        matched, indices = patterns.condition5_matches(ctx)
        whole[5] = matched < 0
        summary.seconds[CONDITION_NAMES[5]] = time.perf_counter() - clock

    per_element = tuple(c for c in summary.conditions if c not in whole)
    verdicts = {**whole, **{c: np.empty(total, dtype=bool) for c in per_element}}
    partial: dict[int, ClassificationReport] = {}  # rows that get a report
    if per_element:
        graph = bruhat_graph(ctx) if 2 in per_element else None
        memo: OrbitMemo = {}
        for row, w in enumerate(ctx.elements):
            for c in memo.get((ctx, w.window), ()):
                summary.rows_computed[CONDITION_NAMES[c]] -= 1
            report = classify(w, per_element, graph=graph, chamber_cache=memo)
            for name, seconds in report.seconds.items():
                summary.seconds[name] += seconds
            for c in per_element:
                verdicts[c][row] = report.conditions[CONDITION_NAMES[c]]
            values = set(report.conditions.values())
            values.update(bool(v[row]) for v in whole.values())
            if keep_reports or len(values) > 1:
                partial[row] = report

    stack = np.array([verdicts[c] for c in summary.conditions], dtype=bool)
    stack = stack.reshape(len(summary.conditions), total)
    hultman = stack.all(axis=0)
    disagree = ~hultman & stack.any(axis=0)
    summary.total = total
    summary.hultman_count = int(hultman.sum()) if summary.conditions else 0
    for row in range(total) if keep_reports else np.flatnonzero(disagree).tolist():
        w = ctx.elements[row]
        report = partial.get(row) or ClassificationReport(w)
        if 3 in whole:
            report.violations = diagrams.violated_boxes(w)
        if 5 in whole:
            report.matched_pattern = patterns.condition5_embedding(
                ctx, int(matched[row]), indices[row]
            )
        report.conditions = {
            CONDITION_NAMES[c]: bool(verdicts[c][row]) for c in summary.conditions
        }
        if disagree[row]:
            summary.disagreements.append(report)
        if keep_reports:
            summary.reports.append(report)
    summary.elapsed = time.perf_counter() - start
    return summary


def find_minimal_non_hultman(
    max_a: int = 6, max_b: int = 5
) -> tuple[Element, ...]:
    """BP-containment-minimal elements not defined by (pseudo-)inclusions,
    over S_4..S_{max_a} and B_3..B_{max_b}, in scan order.

    The candidates of a group come from one pass of the whole-group
    kernel `diagrams.defined_by_inclusions_mask`.  Groups are scanned
    small-to-large, and a candidate that BP contains a pattern found in an
    earlier group is dominated.  Within one group the only containments
    are an element and its diagram flip, which are mutual, so same-group
    patterns never dominate each other; hence the domination step is one
    batched pass per group (`first_bp_contained`) of every candidate
    against the patterns of the earlier groups.

    An A_m pattern BP embeds in a B_n host when m <= n, so the B_{max_b}
    candidates are only checked against every obstruction if the type A
    scan reaches rank max_b; below rank 4 there are no type A obstructions.
    Raises ValueError when max_a < max_b and max_b >= 4.
    """
    if max_a < max_b and max_b >= 4:
        raise ValueError(
            f"max_a = {max_a} < max_b = {max_b}: the type A scan must reach "
            f"rank {max_b}, since an A_m pattern embeds in B_n hosts for m <= n"
        )
    contexts = [context("A", m) for m in range(4, max_a + 1)]
    contexts += [context("B", m) for m in range(3, max_b + 1)]
    minimal: list[Element] = []
    for ctx in contexts:
        candidates = np.flatnonzero(~diagrams.defined_by_inclusions_mask(ctx))
        first = patterns.first_bp_contained(
            ctx, ctx.window_matrix[candidates], tuple(minimal)
        )
        minimal += [ctx.elements[row] for row in candidates[first < 0].tolist()]
    return tuple(minimal)


# Reference distance-witness data for the 31 minimal non-Hultman patterns,
# as previously reported: (family, rank, w, u, l_D, l_T).  Recomputation
# treats the w column as binding and flags rows whose distances are
# parity-inconsistent with l(w) - l(u).
REFERENCE_WITNESS_ROWS: tuple[tuple[str, int, str, str, int, int], ...] = (
    ("A", 4, "4231", "2143", 4, 2),
    ("A", 5, "35142", "12435", 5, 3),
    ("A", 5, "42513", "13245", 5, 3),
    ("A", 6, "351624", "423156", 6, 4),
    ("A", 6, "351624", "126543", 6, 4),
    ("B", 3, "426153", "132546", 4, 2),
    ("B", 3, "536142", "142536", 4, 2),
    ("B", 3, "563412", "124356", 4, 2),
    ("B", 3, "462513", "135246", 4, 2),
    ("B", 3, "635241", "153426", 4, 2),
    ("B", 3, "635241", "241635", 4, 2),
    ("B", 3, "642531", "315264", 4, 2),
    ("B", 3, "642531", "153426", 4, 2),
    ("B", 3, "645231", "154326", 4, 2),
    ("B", 3, "645231", "351624", 4, 2),
    ("B", 3, "623451", "132546", 4, 2),
    ("B", 3, "624351", "135246", 4, 2),
    ("B", 3, "624351", "142536", 4, 2),
    ("B", 3, "653421", "214365", 4, 2),
    ("B", 4, "35172846", "12436578", 5, 3),
    ("B", 4, "46172835", "12536478", 5, 3),
    ("B", 4, "57163824", "14627358", 5, 3),
    ("B", 4, "57163824", "12654378", 5, 3),
    ("B", 4, "47163825", "13527468", 5, 3),
    ("B", 4, "47163825", "12645378", 5, 3),
    ("B", 4, "52618374", "14236758", 5, 3),
    ("B", 4, "52618374", "13254768", 5, 3),
    ("B", 4, "47618325", "13254768", 5, 3),
    ("B", 4, "42681375", "13427568", 5, 3),
    ("B", 4, "42681375", "13254768", 5, 3),
    ("B", 4, "42618375", "13245768", 5, 3),
    ("B", 4, "37154826", "12536478", 5, 3),
    ("B", 4, "37154826", "12463578", 5, 3),
    ("B", 4, "37145826", "12436578", 5, 3),
    ("B", 4, "37581426", "14627358", 5, 3),
    ("B", 4, "37581426", "12654378", 5, 3),
    ("B", 4, "37518426", "12645378", 5, 3),
    ("B", 4, "37518426", "14263758", 5, 3),
    ("B", 4, "35718246", "12463578", 5, 3),
    ("B", 4, "46718235", "12354678", 5, 3),
    ("B", 5, "3617294a58", "124365879a", 6, 4),
    ("B", 5, "3617294a58", "125347869a", 6, 4),
    ("B", 5, "3517924a68", "124365879a", 6, 4),
    ("B", 5, "3517924a68", "124538679a", 6, 4),
    ("B", 5, "3517294a68", "124356879a", 6, 4),
)


@dataclass(frozen=True)
class RowComparison:
    family: str
    rank: int
    w: str
    u: str
    listed: tuple[int, int]  # (l_D, l_T) as published
    recomputed: tuple[int, int] | None  # None when u is not below w
    parity_consistent: bool
    is_witness: bool

    @property
    def matches(self) -> bool:
        return self.is_witness and self.recomputed == self.listed


@dataclass
class PatternWitnessReport:
    pattern: Element
    non_hultman_confirmed: bool = False
    witnesses: list[tuple[Element, int, int]] = field(default_factory=list)
    row_comparisons: list[RowComparison] = field(default_factory=list)
    extra_witnesses: list[tuple[Element, int, int]] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "pattern": str(self.pattern),
            "family": self.pattern.ctx.family,
            "rank": self.pattern.ctx.rank,
            "non_hultman_confirmed": self.non_hultman_confirmed,
            "witnesses": [
                {"u": str(u), "lD": ld, "lT": lt} for u, ld, lt in self.witnesses
            ],
            "rows": [
                {
                    "u": c.u,
                    "listed": list(c.listed),
                    "recomputed": list(c.recomputed) if c.recomputed else None,
                    "parity_consistent": c.parity_consistent,
                    "is_witness": c.is_witness,
                    "matches": c.matches,
                }
                for c in self.row_comparisons
            ],
            "extra_witnesses": [
                {"u": str(u), "lD": ld, "lT": lt}
                for u, ld, lt in self.extra_witnesses
            ],
        }


def witness_table() -> list[PatternWitnessReport]:
    """Recompute, for each listed pattern w, every u < w with
    l_D(u,w) > l_T(u,w), and diff against the reference rows."""
    reports = []
    for w in patterns.condition5_patterns():
        ctx = w.ctx
        w_row = int(bruhat.element_rows(ctx, w.window)[0])
        rows, l_d, l_t = bruhat.interval_distances(bruhat_graph(ctx), w_row)
        below = {
            ctx.elements[row]: (ld, lt)
            for row, ld, lt in zip(rows.tolist(), l_d.tolist(), l_t.tolist())
        }
        report = PatternWitnessReport(w)
        report.witnesses = [(u, ld, lt) for u, (ld, lt) in below.items() if ld != lt]
        report.non_hultman_confirmed = bool(report.witnesses)

        listed_windows = set()
        lw = coxeter_length(w)
        for family, rank, wt, ut, ld, lt in REFERENCE_WITNESS_ROWS:
            if (family, rank) != (ctx.family, ctx.rank) or wt != str(w):
                continue
            u = parse_element(ut, ctx)
            listed_windows.add(u.window)
            rec = below.get(u)  # None when u is not below w
            parity = (lw - coxeter_length(u)) % 2
            consistent = ld % 2 == parity and lt % 2 == parity
            report.row_comparisons.append(
                RowComparison(
                    ctx.family,
                    ctx.rank,
                    str(w),
                    ut,
                    (ld, lt),
                    rec,
                    consistent,
                    rec is not None and rec[0] != rec[1],
                )
            )
        report.extra_witnesses = [
            (u, ld, lt)
            for u, ld, lt in report.witnesses
            if u.window not in listed_windows
        ]
        reports.append(report)
    return reports


def witness_table_json(reports: list[PatternWitnessReport]) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=2)
