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
                      box (per mirror pair of boxes in type B), O(N^2)
                      each, cut at the central box for the type B
                      relaxation (type A: the plain right hull condition);
                      a box whose rank no window of the hull bounds can
                      exceed is cleared by two counts, with no program
  5 bp_avoidance      BP avoidance of the 31 listed patterns (type A: the
                      four classical patterns)

The minimal-pattern search (`find_minimal_non_hultman`) scans S_4 and B_3
whole and every higher group only as a generating tree: the children of
the previous rank's condition-3 holders, built as window arrays, so no
group above S_4 and B_3 is ever enumerated.  Conditions 3 and 5 read those
arrays directly, and the patterns found are built from their windows.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import arrangements, bruhat, diagrams, groups, patterns
from .bruhat import BruhatGraph, bruhat_graph
from .bruhat import group_absolute_lengths  # noqa: F401  (still importable from here)
from .groups import (
    Element,
    GroupContext,
    Window,
    _row_element,
    check_memory,
    context,
    coxeter_length,
    coxeter_lengths,
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
    violations: tuple[diagrams.Box, ...] = ()  # violated (p, q, r) of E(w)
    hull_counterexample: Window | None = None
    matched_pattern: tuple[Element, patterns.ParabolicEmbedding] | None = None

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
            "violations": [{"p": p, "q": q, "r": r} for p, q, r in self.violations],
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


def _condition_names(conditions: tuple[int, ...]) -> dict[int, str]:
    """{number: name} of the conditions, or ValueError for an unknown one."""
    for num in conditions:
        if num not in CONDITION_NAMES:
            raise ValueError(f"unknown condition {num}")
    return {num: CONDITION_NAMES[num] for num in conditions}


def _timed(seconds: dict[str, float], name: str, call, *args):
    """call(*args), with its wall time added to seconds[name]."""
    start = time.perf_counter()
    out = call(*args)
    seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - start
    return out


def _chambers(w: Element) -> tuple[int, int]:
    """Condition 1's witness for w: (c(w), s(w)).  Raises ArithmeticError
    if c(w) > s(w)."""
    c, s = arrangements.chamber_count(w), bruhat.interval_size(w)
    if c > s:
        # c(w) <= s(w) holds for every w (Hultman, JCTA 2011;
        # Hultman-Linusson-Shareshian-Sjostrand, JCTA 2009)
        raise ArithmeticError(f"{w}: c(w) = {c} > s(w) = {s}")
    return c, s


def _distance_witnesses(
    graph: BruhatGraph, row: int, size: int | None
) -> dict[int, tuple[int, int, int] | None]:
    """Condition 2's witnesses: {row of v: first distance witness (row,
    l_D, l_T) of v, or None} for the w of `row` and its images v under
    `bruhat.symmetry_rows`, which keep distances.  Raises ArithmeticError
    if `size`, s(w) when at hand, is not the number of rows the sweep
    reached."""
    ctx = graph.ctx
    rows, l_d, l_t = bruhat.interval_distances(graph, row)
    if size is not None and len(rows) != size:
        # the tableau criterion and the graph search find [id, w] apart
        raise ArithmeticError(
            f"{ctx.element(row)}: s(w) = {size}, the sweep reached {len(rows)} rows"
        )
    found = l_d != l_t
    rows, l_d, l_t = rows[found], l_d[found], l_t[found]
    witnesses = {row: _first_witness(rows, l_d, l_t)}
    for phi in bruhat.symmetry_rows(ctx):
        witnesses[int(phi[row])] = _first_witness(phi[rows], l_d, l_t)
    return witnesses


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


def _hull_counterexample(w: Element, boxes: tuple[diagrams.Box, ...]) -> Window | None:
    """Condition 4's counterexample window, or None if w satisfies it, from
    w's coessential boxes `boxes`, through the public hull test of w's type
    (the entry points that perfbench times as the hull layer)."""
    if w.ctx.family == "A":
        return diagrams.right_hull_counterexample(w, boxes)
    return diagrams.hull_relaxed_counterexample(w, boxes)


# `check_memory` for classify, once per group and set of tables
_tables_fit = lru_cache(maxsize=None)(check_memory)


def classify(
    w: Element,
    conditions: tuple[int, ...] = ALL_CONDITIONS,
    *,
    graph: BruhatGraph | None = None,
    chamber_cache: dict[tuple[GroupContext, int], dict[int, object]] | None = None,
) -> ClassificationReport:
    """Compute the witness of each requested condition for w, then read
    every verdict off them: c = s, no distance witness, pseudo-inclusions
    (no type A box is (n+1, n)), no hull counterexample, no pattern.
    Raises ValueError for an unknown condition number, or once per group
    if the tables of conditions 1 and 2 would not fit (`check_memory`).

    `chamber_cache` holds the witnesses of conditions 1 and 2 (`_chambers`,
    `_distance_witnesses`, as in `verify_equivalence`) for the calls of one
    sweep.  They are constant on orbits, so its keys are (ctx, least row of
    an orbit, from `bruhat.orbit_representatives`) and its entries {1: (c,
    s), 2: {orbit member's row: its first distance witness}}.  A call adds
    what the entry of w's orbit lacks, computed at its least row; without a
    cache, w's values are computed at w.

    E(w) (`bruhat.coessential_boxes`) is read once for conditions 3 and 4:
    condition 3 reads its violated boxes, condition 4 runs its hull test
    over it.  Both are pure functions of E(w), so they stay independent;
    condition 1 reads its own through `bruhat.interval_mask`.
    """
    names = _condition_names(conditions)
    report = ClassificationReport(w)
    ctx = w.ctx
    tables = tuple(num for num in (1, 2) if num in names)
    if tables:
        _tables_fit(ctx, tables)
        row = int(bruhat.element_rows(ctx, w.window)[0])
        at = row if chamber_cache is None else int(bruhat.orbit_representatives(ctx)[row])
        # keyed by ctx too: groups share row numbers
        values = {} if chamber_cache is None else chamber_cache.setdefault((ctx, at), {})
        if 1 in names and 1 not in values:
            values[1] = _chambers(ctx.element(at))
        if 2 in names and 2 not in values:
            graph = graph or bruhat_graph(ctx)
            if graph.ctx != ctx:
                raise ValueError(f"{ctx.name} is not the graph's group")
            values[2] = _distance_witnesses(graph, at, values[1][1] if 1 in values else None)
        if 1 in names:
            report.c, report.s = values[1]
        if 2 in names and values[2][row] is not None:
            u, l_d, l_t = values[2][row]
            report.distance_witness = (ctx.element(u), l_d, l_t)
    if 3 in names or 4 in names:
        boxes = bruhat.coessential_boxes(w.window)
    if 3 in names:
        report.violations = diagrams.violated_boxes(w, boxes)
    if 4 in names:
        report.hull_counterexample = _hull_counterexample(w, boxes)
    if 5 in names:
        report.matched_pattern = patterns.avoids_condition5_list(w)[1]
    verdicts = {
        1: report.c == report.s,
        2: report.distance_witness is None,
        3: diagrams.pseudo_inclusions_hold(report.violations, ctx.rank),
        4: report.hull_counterexample is None,
        5: report.matched_pattern is None,
    }
    report.conditions = {name: verdicts[num] for num, name in names.items()}
    return report


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
    # element enumeration and each table built up front for conditions 1
    # and 2, outside `seconds`
    layer_seconds: dict[str, float] = field(default_factory=dict)
    # per condition: rows computed; the others took the least orbit row's
    rows_computed: dict[str, int] = field(default_factory=dict)
    # work counts: hull boards solved and cleared by the rank bound
    # (condition 4); pattern index sets (condition 5, rows times the
    # query's index sets), and the rows that missed the first pattern's
    # pairs and went on to the kernel's second stage
    counters: dict[str, int] = field(default_factory=dict)

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
            "layer_seconds": dict(self.layer_seconds),
            "rows_computed": dict(self.rows_computed),
            "counters": dict(self.counters),
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
    that they agree.  Raises ValueError, before enumerating, when the group
    and the tables of conditions 1 and 2 would not fit (`check_memory`).

    Each condition fills one verdict array by row of ctx.window_matrix.
    Conditions 3 and 5 come from one whole-group pass each
    (`diagrams.defined_by_inclusions_mask`, `patterns.condition5_matches`),
    which read only rows of the window matrix: the group's rank table is
    built only for condition 1.  Conditions 1 and 2 are `classify`'s
    witnesses, computed at the least row of each orbit
    (`bruhat.orbit_representatives`) and gathered to the rest of it.
    Condition 4 runs on every row, as only the theorem under test makes it
    constant on orbits.  `report` builds the report of each disagreeing
    row, or of every row with `keep_reports`; condition 4 hands it the E(w)
    and counterexample it read, so each row's E(w) is computed once.
    `seconds` times each condition (condition 4: each row's `Element`, E(w)
    and hull test), `layer_seconds` the enumeration ("elements") and the
    shared tables.  `counters` holds the hull boards that condition 4
    solved and those its rank bound cleared, the pattern index sets of
    condition 5 (rows times the query's index sets) and the rows that
    missed its first pattern's pairs.
    """
    start = time.perf_counter()
    names = _condition_names(conditions)
    check_memory(ctx, conditions)
    layers: dict[str, float] = {}
    total = len(_timed(layers, "elements", lambda: ctx.window_matrix))
    summary = VerificationSummary(ctx, tuple(conditions), total, layer_seconds=layers)
    seconds = summary.seconds = dict.fromkeys(names.values(), 0.0)
    summary.rows_computed = dict.fromkeys(names.values(), total)
    verdicts: dict[int, np.ndarray] = {}
    # the tables that conditions share are built (and cached) up front, so
    # that `layer_seconds` times them apart from the conditions
    if 1 in names:
        _timed(layers, "group_rank_grids", bruhat.group_rank_grids, ctx)
    if 3 in names:
        verdicts[3] = _timed(seconds, names[3], diagrams.defined_by_inclusions_mask, ctx)
    if 5 in names:
        matched, indices = _timed(seconds, names[5], patterns.condition5_matches, ctx)
        verdicts[5] = matched < 0
        summary.counters["pattern_index_sets"] = total * patterns.condition5_index_sets(ctx)
        summary.counters["pattern_rows_second_stage"] = patterns.condition5_second_stage_rows(
            ctx, matched
        )
    if 2 in names:
        graph = _timed(layers, "bruhat_graph", bruhat_graph, ctx)
        _timed(layers, "group_absolute_lengths", bruhat.group_absolute_lengths, ctx)
    shared = [num for num in (1, 2) if num in names]
    if shared:
        rep = _timed(layers, "orbit_representatives", bruhat.orbit_representatives, ctx)
        reps = np.flatnonzero(rep == np.arange(total)).tolist()
        summary.rows_computed.update({names[num]: len(reps) for num in shared})
        chambers = np.zeros((total, 2), dtype=np.int64)  # (c, s), at reps
        # each row's first distance witness (row, l_D, l_T); -1s for none
        witness = np.full((total, 3), -1, dtype=np.int64)
        for row in reps:
            if 1 in names:
                chambers[row] = _timed(seconds, names[1], _chambers, ctx.element(row))
            if 2 in names:  # checked against s(w) when condition 1 ran
                size = int(chambers[row, 1]) if 1 in names else None
                found = _timed(seconds, names[2], _distance_witnesses, graph, row, size)
                for member, first in found.items():
                    witness[member] = first or -1
        if 1 in names:
            verdicts[1] = (chambers[:, 0] == chambers[:, 1])[rep]
        if 2 in names:
            verdicts[2] = witness[rep, 0] < 0
    # with keep_reports, c4 and the reports share one Element per row, as w or u
    element = list(map(ctx.element, range(total))).__getitem__ if keep_reports else ctx.element

    def report(w: Element, row: int, boxes: tuple | None, cex: Window | None) -> None:
        """File w's report: kept with keep_reports, a disagreement when its
        verdicts differ.  boxes and cex: condition 4's E(w) and witness."""
        out = ClassificationReport(w)
        out.conditions = {name: bool(verdicts[c][row]) for c, name in names.items()}
        if 1 in names:
            out.c, out.s = chambers[rep[row]].tolist()
        if 2 in names and witness[row, 0] >= 0:
            u_row, l_d, l_t = witness[row].tolist()
            out.distance_witness = (element(u_row), l_d, l_t)
        if 3 in names:
            out.violations = diagrams.violated_boxes(w, boxes)
        out.hull_counterexample = cex
        if 5 in names:
            pattern = int(matched[row])
            out.matched_pattern = patterns.condition5_embedding(ctx, pattern, indices[row])
        if not out.consistent:
            summary.disagreements.append(out)
        if keep_reports:
            summary.reports.append(out)

    # whether some, and whether every, verdict but condition 4's is True: a
    # row disagrees when some of its verdicts are True but not every one
    rest = np.array([verdicts[c] for c in names if c != 4], dtype=bool).reshape(-1, total)
    some, every = rest.any(axis=0), rest.all(axis=0)
    if 4 in names:
        verdicts[4] = np.empty(total, dtype=bool)
        boards = cleared = 0
        for row in range(total):
            begin = time.perf_counter()
            w = element(row)
            boxes = bruhat.coessential_boxes(w.window)
            cex, solved, skipped = diagrams.hull_test(w, boxes)
            seconds[names[4]] += time.perf_counter() - begin
            boards += solved
            cleared += skipped
            ok = verdicts[4][row] = cex is None
            if keep_reports or ((some[row] or ok) and not (every[row] and ok)):
                report(w, row, boxes, cex)
        summary.counters["hull_boards"] = boards
        summary.counters["hull_boards_cleared"] = cleared
        every &= verdicts[4]
    else:
        for row in range(total) if keep_reports else np.flatnonzero(some & ~every).tolist():
            report(element(row), row, None, None)
    summary.hultman_count = int(every.sum()) if names else 0
    summary.elapsed = time.perf_counter() - start
    return summary


def _check_scan_bounds(max_a: int, max_b: int) -> None:
    """Raise ValueError when max_a < max_b and max_b >= 4: the B_{max_b}
    candidates would miss the type A obstructions of higher rank."""
    if max_a < max_b and max_b >= 4:
        raise ValueError(
            f"max_a = {max_a} < max_b = {max_b}: the type A scan must reach "
            f"rank {max_b}, since an A_m pattern embeds in B_n hosts for m <= n"
        )


def _children(family: str, parents: np.ndarray) -> np.ndarray:
    """The children of each row of `parents`, windows of S_{n-1} (family
    "A") or of B_{n-1} embedded in S_{2n-2} ("B"), in the generating tree
    that deletes an element's largest entry (West, Discrete Math. 1995):
    rank n windows, parent by parent.

    Type A inserts n at each of the n positions.  Type B adds 1 to every
    value, then puts 1 and 2n, in either order, at each of the n mirrored
    position pairs (a, 2n+1-a): 2n children.  Deleting the largest entry,
    n in type A and the mirror pair holding 1 and 2n in type B, gives the
    parent back, so the children of distinct parents are distinct, and the
    children of the whole of S_{n-1} (B_{n-1}) are the whole of S_n (B_n).

    Raises ValueError, before any allocation, when the children would not
    fit in the machine's memory.
    """
    m, width = parents.shape
    degree = width + 1 if family == "A" else width + 2
    need = m * degree * degree * parents.itemsize  # degree children a parent
    if need > groups._memory_bytes():
        rank = degree if family == "A" else degree // 2
        raise ValueError(
            f"the {m * degree} children of {m} elements in the scan of "
            f"{context(family, rank).name} would take {need / 2**30:.3g} GiB"
        )
    if family == "A":
        out = np.empty((m, degree, degree), dtype=parents.dtype)
        for a in range(degree):
            out[:, a, :a] = parents[:, :a]
            out[:, a, a] = degree
            out[:, a, a + 1 :] = parents[:, a:]
        return out.reshape(-1, degree)
    shifted = (parents + 1)[:, None]
    out = np.empty((m, degree // 2, 2, degree), dtype=parents.dtype)
    for a in range(degree // 2):
        b = degree - 1 - a  # 0-based, the mirror of a
        out[:, a, :, :a] = shifted[..., :a]
        out[:, a, :, a + 1 : b] = shifted[..., a : b - 1]
        out[:, a, :, b + 1 :] = shifted[..., b - 1 :]
        out[:, a, :, a] = 1, degree
        out[:, a, :, b] = degree, 1
    return out.reshape(-1, degree)


def find_minimal_non_hultman(
    max_a: int = 6, max_b: int = 5
) -> tuple[Element, ...]:
    """BP-containment-minimal elements not defined by (pseudo-)inclusions,
    over S_4..S_{max_a} and B_3..B_{max_b}, in scan order: group by group,
    and by (Coxeter length, window) within a group.

    Groups are scanned small-to-large, and a candidate (an element that
    fails condition 3) that BP contains a pattern found in an earlier group
    is dominated.  Within one group the only containments are an element
    and its diagram flip, which are mutual, so same-group patterns never
    dominate each other; hence the domination step is one batched pass per
    group (`first_bp_contained`) of every candidate against the patterns of
    the earlier groups.  The candidates come from one pass of the kernel
    `diagrams.defined_by_inclusions_mask` over the group's rows.

    S_4 and B_3 are scanned whole.  Every higher group is scanned only as
    the children (`_children`) of the previous rank's elements that satisfy
    condition 3, and is never enumerated.  This misses no minimal element,
    by one step of transitivity.  Say the parent w' of a child w fails
    condition 3.  Scanning ranks upward, w' is then minimal or dominated,
    so w' BP contains a pattern already found.  Deleting w's largest entry
    makes w' a B-in-B pattern of w (type A: a classical one), and BP
    containment is transitive (Billey-Postnikov, Adv. Appl. Math. 2005), so
    w contains that pattern too and is dominated.

    An A_m pattern BP embeds in a B_n host when m <= n, so the B_{max_b}
    candidates are only checked against every obstruction if the type A
    scan reaches rank max_b; below rank 4 there are no type A obstructions.
    Raises ValueError when max_a < max_b and max_b >= 4.
    """
    _check_scan_bounds(max_a, max_b)
    minimal: list[Element] = []
    for family, base, top in (("A", 4, max_a), ("B", 3, max_b)):
        for rank in range(base, top + 1):
            ctx = context(family, rank)
            windows = ctx.window_matrix if rank == base else _children(family, holders)
            defined = diagrams.defined_by_inclusions_mask(ctx, windows)
            candidates = windows[~defined]
            new = candidates[patterns.first_bp_contained(ctx, candidates, tuple(minimal)) < 0]
            new = new[np.lexsort((*new.T[::-1], coxeter_lengths(new, family)))]
            minimal += [_row_element(tuple(window), ctx) for window in new.tolist()]
            if rank < top:
                holders = windows[defined]
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
        below = dict(zip(rows.tolist(), zip(l_d.tolist(), l_t.tolist())))
        report = PatternWitnessReport(w)
        report.witnesses = [
            (ctx.element(row), ld, lt) for row, (ld, lt) in below.items() if ld != lt
        ]
        report.non_hultman_confirmed = bool(report.witnesses)

        listed_windows = set()
        lw = coxeter_length(w)
        for family, rank, wt, ut, ld, lt in REFERENCE_WITNESS_ROWS:
            if (family, rank) != (ctx.family, ctx.rank) or wt != str(w):
                continue
            u = parse_element(ut, ctx)
            listed_windows.add(u.window)
            rec = below.get(int(bruhat.element_rows(ctx, u.window)[0]))  # None: not below
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

