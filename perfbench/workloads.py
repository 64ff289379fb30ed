"""The three workloads: inputs drawn from the seed, the timed calls into
hultman, and the checks of their results.

Inputs are computed here from first principles (windows, lengths, hull
sizes), not with the package under test, so a change to the package cannot
change which elements a seed selects.  NOTES.md says why each workload
exists.
"""
from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass
from math import factorial
from pathlib import Path

DIGITS = "123456789abcdefghijklmnopqrstuvwxyz"
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())
# Hultman counts of B_n (ROADMAP); reference.json lists the elements.
PINNED_COUNTS = {"B2": 8, "B3": 38, "B5": 949}
if {k: len(REFERENCE["hultman"][k]) for k in PINNED_COUNTS} != PINNED_COUNTS:
    raise ValueError("reference.json does not hold the pinned Hultman counts")

VERIFY_CONDITIONS = (1, 2, 3, 5)
HULL_CONDITIONS = (3, 4, 5)
# Elements whose right hull holds more windows are left out of hull-B5:
# one of them alone can take up to about 20 s, which does not fit a run.
HULL_WINDOW_CAP = 8192


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "verify" | "hull" | "minimal"
    rank: int = 0  # type B rank for "verify" and "hull"
    block: int = 1  # one element (or inverse pair) is drawn per block
    max_a: int = 0  # find_minimal_non_hultman bounds for "minimal"
    max_b: int = 0

    @property
    def groups(self) -> list[tuple[str, int]]:
        """Every group the workload touches; set-up enumerates them all."""
        if self.kind == "minimal":
            return [("A", m) for m in range(4, self.max_a + 1)] + [
                ("B", m) for m in range(3, self.max_b + 1)
            ]
        return [("B", self.rank)]

    @property
    def conditions(self) -> tuple[int, ...]:
        return {"verify": VERIFY_CONDITIONS, "hull": HULL_CONDITIONS}.get(self.kind, ())


SCALES = {
    "full": {
        "verify-B5": Workload("verify-B5", "verify", rank=5, block=24),
        "hull-B5": Workload("hull-B5", "hull", rank=5, block=6),
        "minimal-patterns": Workload("minimal-patterns", "minimal", max_a=6, max_b=5),
    },
    # Same code paths in seconds, for the self-test.
    "tiny": {
        "verify-B5": Workload("verify-B5", "verify", rank=2, block=1),
        "hull-B5": Workload("hull-B5", "hull", rank=3, block=16),
        "minimal-patterns": Workload("minimal-patterns", "minimal", max_a=4, max_b=3),
    },
}


# --- inputs ---------------------------------------------------------------

def text(window: tuple[int, ...]) -> str:
    return "".join(DIGITS[v - 1] for v in window)


def b_windows(rank: int) -> list[tuple[int, ...]]:
    """All centrally symmetric windows of S_{2n}, i.e. B_n embedded."""
    n2 = 2 * rank
    out = []
    for signs in itertools.product((0, 1), repeat=rank):
        half = [v if s == 0 else n2 + 1 - v for v, s in zip(range(1, rank + 1), signs)]
        for first in itertools.permutations(half):
            out.append(first + tuple(n2 + 1 - v for v in reversed(first)))
    return out


def b_length(window: tuple[int, ...], rank: int) -> int:
    """Coxeter length in B_n: inv(σ) + Σ_{σ(i)<0} |σ(i)| on the signed
    window σ read off positions n+1..2n."""
    sigma = [v - rank if v > rank else v - rank - 1 for v in window[rank:]]
    inv = sum(1 for i, j in itertools.combinations(range(rank), 2) if sigma[i] > sigma[j])
    return inv + sum(-s for s in sigma if s < 0)


def inverse(window: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(window)
    for pos, val in enumerate(window, start=1):
        inv[val - 1] = pos
    return tuple(inv)


def hull_window_count(window: tuple[int, ...]) -> int:
    """Permutations u with lo_j <= u(j) <= hi_j, where hi_j is the running
    maximum of the window and lo_j its running minimum from the right: the
    size of the right hull the enumeration searches."""
    n = len(window)
    hi = list(itertools.accumulate(window, max))
    lo = list(itertools.accumulate(reversed(window), min))[::-1]
    counts = {0: 1}
    for j in range(n):
        # a value below the next column's lower bound that is still unused
        # can never be placed, so such states are dropped
        must = (1 << lo[j + 1]) - 2 if j + 1 < n else 0
        nxt: dict[int, int] = {}
        for mask, c in counts.items():
            for v in range(lo[j], hi[j] + 1):
                bit = 1 << v
                if not mask & bit and (mask | bit) & must == must:
                    nxt[mask | bit] = nxt.get(mask | bit, 0) + c
        counts = nxt
    return sum(counts.values())


def draw(items: list, block: int, rng: random.Random) -> list:
    """One item from each run of `block` consecutive items.  Items are
    sorted by a cost proxy, so every seed gets the same cost profile."""
    return [rng.choice(items[k : k + block]) for k in range(0, len(items), block)]


def make_inputs(w: Workload, seed: int) -> list[str]:
    """The element windows (digit text) the workload classifies, in the
    group's graded order; empty for the minimal-pattern search, whose input
    is the pair of rank bounds."""
    if w.kind == "minimal":
        return []
    rng = random.Random(seed)
    windows = b_windows(w.rank)
    length = {u: b_length(u, w.rank) for u in windows}
    if w.kind == "verify":
        # inverse-closed, so the sweep's c(w) = c(w^-1) reuse is exercised
        # at the same rate as on the whole group
        orbits = sorted(
            {tuple(sorted({u, inverse(u)})) for u in windows},
            key=lambda o: (length[o[0]], len(o), o),
        )
        chosen = [u for orbit in draw(orbits, w.block, rng) for u in orbit]
    else:
        hultman = set(REFERENCE["hultman"][f"B{w.rank}"])
        sized = [(hull_window_count(u), u) for u in windows]
        population = sorted(
            ((text(u) in hultman, size, u) for size, u in sized if size <= HULL_WINDOW_CAP)
        )
        chosen = [u for _, _, u in draw(population, w.block, rng)]
    return [text(u) for u in sorted(chosen, key=lambda u: (length[u], u))]


# --- the timed calls --------------------------------------------------------
# hultman is imported by the worker before these run, and every name is
# looked up at call time so that the traced run's wrappers are the ones used.

def decode(w: Workload, inputs: list[str]) -> list:
    import hultman

    ctx = hultman.context("B", w.rank)
    return [hultman.parse_element(t, ctx) for t in inputs]


def sweep(w: Workload, elements: list) -> tuple[object, list[float]]:
    """The workload's public calls, as `hultman verify` and
    `hultman minimal-patterns` make them: (result, seconds of each call)."""
    import hultman

    clock = time.perf_counter
    parts: list[float] = []

    def timed(call, *args, **kwargs):
        start = clock()
        out = call(*args, **kwargs)
        parts.append(clock() - start)
        return out

    if w.kind == "minimal":
        return timed(hultman.find_minimal_non_hultman, w.max_a, w.max_b), parts
    if w.kind == "hull":
        return [timed(hultman.classify, e, HULL_CONDITIONS) for e in elements], parts
    # the loop of verify_equivalence, over the drawn elements only
    graph = timed(hultman.bruhat_graph, hultman.context("B", w.rank))
    cache: dict = {}
    return [
        timed(hultman.classify, e, VERIFY_CONDITIONS, graph=graph, chamber_cache=cache)
        for e in elements
    ], parts


# --- result checks ----------------------------------------------------------

def check(w: Workload, count: int, result) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for a result over `count` inputs.  An
    operation is one (element, condition) verdict, or one expected pattern
    for the minimal search.  If the pinned result is wrong, every operation
    counts as failed."""
    import hultman

    if w.kind == "minimal":
        expected = sorted(
            tuple(p) for p in REFERENCE["minimal_patterns"]
            if p[1] <= (w.max_a if p[0] == "A" else w.max_b)
        )
        got = sorted((v.ctx.family, v.ctx.rank, str(v)) for v in result)
        if got == expected:
            return len(expected), 0, []
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        return len(expected), len(expected), [
            f"{len(got)} patterns, expected {len(expected)}; missing {missing}, extra {extra}"
        ]

    problems: list[str] = []
    hultman_set = set(REFERENCE["hultman"][f"B{w.rank}"])
    order = len(hultman.context("B", w.rank).elements)
    pinned_ok = order == 2**w.rank * factorial(w.rank) and len(result) == count
    if not pinned_ok:
        problems.append(f"B_{w.rank} has {order} elements; {len(result)} of {count} classified")
    attempted = failed = 0
    for report in result:
        verdicts = list(report.conditions.values())
        attempted += len(w.conditions)
        if len(verdicts) != len(w.conditions) or not report.consistent:
            failed += len(w.conditions)
            problems.append(f"{report.element}: conditions disagree {report.conditions}")
        elif None in verdicts:
            failed += verdicts.count(None)
            problems.append(f"{report.element}: inconclusive {report.conditions}")
        elif report.is_hultman != (str(report.element) in hultman_set):
            pinned_ok = False
            problems.append(f"{report.element}: verdict {report.is_hultman} differs from the reference")
    attempted = max(attempted, count * len(w.conditions), 1)
    return attempted, (failed if pinned_ok else attempted), problems
