"""Command line interface.

Exit codes: 0 on success / full agreement, 1 when an equivalence check
fails, 2 on usage errors (argparse's convention), bad input, or an output
file that cannot be written.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Sequence

from . import arrangements, diagrams, patterns
from .bruhat import coessential_boxes
from .classify import (
    ALL_CONDITIONS,
    CONDITION_NAMES,
    _check_scan_bounds,
    classify,
    find_minimal_non_hultman,
    verify_equivalence,
    witness_table,
)
from .groups import Element, context, coxeter_length, format_window, parse_element


# argparse reads "--element -1,2" as an option with no value
ELEMENT_HELP = (
    "one-line text (a=10) or signed window; attach a signed window that "
    "starts with a minus with =, as in --%(dest)s=-3,2,-1"
)


def _ctx_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=("A", "B"), required=True)
    parser.add_argument("--rank", type=int, required=True)


def _parse_conditions(text: str) -> tuple[int, ...]:
    nums = tuple(sorted({int(part) for part in text.split(",")}))
    for n in nums:
        if n not in CONDITION_NAMES:
            raise argparse.ArgumentTypeError(f"unknown condition {n}")
    return nums


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hultman",
        description=(
            "Classify and exhaustively verify Hultman elements of the "
            "symmetric and hyperoctahedral groups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="evaluate the five conditions on one element")
    _ctx_args(p)
    p.add_argument("--element", required=True, help=ELEMENT_HELP)
    p.add_argument("--conditions", type=_parse_conditions, default=ALL_CONDITIONS)
    p.add_argument("--explain", action="store_true", help="print supporting data")
    p.add_argument("--json", metavar="PATH", help="write the report as JSON")

    p = sub.add_parser(
        "verify",
        help="check the equivalence over a whole group (every verdict is exact)",
        description=(
            "Classify every element of a group and check that the computed "
            "conditions agree.  Conditions 3 and 5 are decided in one "
            "whole-group pass each.  Conditions 1 and 2 are computed at the "
            "least row of each orbit of the Bruhat-graph automorphisms "
            "w -> w^-1 (and, in type A, w -> w0 w w0), which keep c(w), s(w) "
            "and both distances, and gathered to the other elements of the "
            "orbit, each with its first distance witness mapped along.  "
            "Condition 4 runs on every element.  Conditions 3 and 5 hold "
            "no whole-group table, so they reach B_8 (about 65 s and 730 MiB).  "
            "Before it enumerates, verify checks that the group's enumeration "
            "and the tables of conditions 1 and 2 (the rank table, degree^2 "
            "bytes an element, and the Bruhat graph, 8 bytes per reflection "
            "an element) fit in memory, and exits 2 if they do not: on an "
            "8 GiB machine B_8 with both, and S_11 with condition 2, exit 2.  "
            "The JSON summary counts, for condition 5, pattern_index_sets "
            "(rows times the index sets of the BP query) and "
            "pattern_rows_second_stage (the rows that miss the first listed "
            "pattern with an embedding in the group, which the BP scan tries "
            "first).  "
            "Confirmed Hultman counts (all five conditions): S_3..S_8 have 6, "
            "23, 101, 477, 2343 and 11762 and B_2..B_6 have 8, 38, 188, 949 "
            "and 4843.  Past them, S_9: 59786 and B_7: 24868 by conditions "
            "3, 4 and 5, and S_10: 306132 and B_8: 128154 by conditions 3 "
            "and 5."
        ),
    )
    _ctx_args(p)
    p.add_argument("--conditions", type=_parse_conditions, default=ALL_CONDITIONS)
    p.add_argument(
        "--json", metavar="PATH",
        help="write per-element reports as JSON; it keeps one report per "
        "element in memory, 2.7 GB on B_7, so it is not for B_8",
    )

    p = sub.add_parser(
        "minimal-patterns",
        help="recompute the BP-containment-minimal non-Hultman elements",
        description=(
            "Recompute the BP-containment-minimal elements of S_4..S_MAX_A and "
            "B_3..B_MAX_B not defined by (pseudo-)inclusions, and compare "
            "them with the 31 listed patterns.  S_4 and B_3 are scanned "
            "whole; each higher group is read only as the children of the "
            "previous rank's elements defined by (pseudo-)inclusions, those "
            "made by inserting a new largest entry, since every other element "
            "contains a pattern already found.  The defaults (6, 5) give the "
            "31; --max-a 8 --max-b 7 gives the same 31 in about 0.2 s, and "
            "--max-a 11 --max-b 9 in about 30 s at a 155 MB peak, so no "
            "obstruction has rank 7-11 in type A or 6-9 in type B.  An A_m "
            "pattern embeds in B_n hosts for m <= n, so MAX_A must be at "
            "least MAX_B once MAX_B is 4 or more."
        ),
    )
    p.add_argument("--max-a", type=int, default=6)
    p.add_argument("--max-b", type=int, default=5)
    p.add_argument("--json", metavar="PATH")

    p = sub.add_parser(
        "witnesses", help="recompute the distance-witness table and diff it"
    )
    p.add_argument("--json", metavar="PATH")

    p = sub.add_parser("chambers", help="inversion arrangement data for one element")
    _ctx_args(p)
    p.add_argument("--element", required=True, help=ELEMENT_HELP)

    p = sub.add_parser("patterns", help="BP containment of one pattern in one host")
    p.add_argument("--host", required=True, help=f"host element: {ELEMENT_HELP}")
    p.add_argument("--host-family", choices=("A", "B"), default="B")
    p.add_argument("--pattern", required=True, help=f"pattern element: {ELEMENT_HELP}")
    p.add_argument("--family", choices=("A", "B"), required=True,
                   help="family the pattern lives in")
    return parser


def _element_from_args(args: argparse.Namespace) -> Element:
    return parse_element(args.element, context(args.family, args.rank))


def _json_file(path: str | None) -> contextlib.AbstractContextManager:
    """The --json output file, opened before any computation so that an
    unwritable path fails at once; None without --json."""
    return open(path, "w") if path else contextlib.nullcontext()


def _cmd_classify(args: argparse.Namespace) -> int:
    w = _element_from_args(args)
    with _json_file(args.json) as out:
        report = classify(w, args.conditions)
        if out is not None:
            json.dump(report.to_json_dict(), out, indent=2)
    print(f"element {w} in {w.ctx.name} (length {coxeter_length(w)})")
    for name, value in report.conditions.items():
        print(f"  {name}: {value}")
    if report.c is not None:
        print(f"  c(w) = {report.c}, s(w) = {report.s}")
    if args.explain:
        print(f"  E(w)  = {list(coessential_boxes(w.window))}")
        if w.ctx.family == "B":
            print(f"  E'(w) = {list(diagrams.reduced_coessential(w))}")
        if report.violations:
            print(f"  violated boxes: {list(report.violations)}")
        if report.distance_witness:
            u, ld, lt = report.distance_witness
            print(f"  distance witness: u = {u}, l_D = {ld}, l_T = {lt}")
        if report.hull_counterexample:
            print(f"  hull counterexample: {format_window(report.hull_counterexample)}")
        if report.matched_pattern:
            v, emb = report.matched_pattern
            print(
                f"  matched pattern: {v} in {v.ctx.name}"
                f" at positions {emb.indices}"
            )
    if not report.consistent:
        print("CONDITION DISAGREEMENT", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    ctx = context(args.family, args.rank)
    with _json_file(args.json) as out:
        summary = verify_equivalence(ctx, args.conditions, keep_reports=out is not None)
        if out is not None:
            json.dump(summary.to_json_dict(), out, indent=2)
    names = ", ".join(CONDITION_NAMES[c] for c in summary.conditions)
    print(f"{ctx.name}: {summary.total} elements, conditions [{names}]")
    print(f"  Hultman elements: {summary.hultman_count}")
    print(f"  elapsed: {summary.elapsed:.2f}s")
    for name, seconds in summary.seconds.items():
        print(f"    {name}: {seconds:.2f}s")
    gathered = [c for c in (1, 2) if c in summary.conditions]
    if gathered:
        # both are computed at the same rows, the least of each orbit;
        # ASCII, like every other line, so that any terminal encoding prints it
        computed = summary.rows_computed[CONDITION_NAMES[gathered[0]]]
        maps = "w -> w^-1" + (" and w -> w0 w w0" if ctx.family == "A" else "")
        labels = ", ".join(f"c{c}" for c in gathered)
        print(f"  {labels}: {computed} of {summary.total} computed, the rest by {maps}")
    if summary.disagreements:
        print(f"  DISAGREEMENTS: {len(summary.disagreements)}", file=sys.stderr)
        for r in summary.disagreements[:20]:
            print(f"    {r.element}: {r.conditions}", file=sys.stderr)
        return 1
    print("  all computed conditions agree")
    return 0


def _cmd_minimal_patterns(args: argparse.Namespace) -> int:
    _check_scan_bounds(args.max_a, args.max_b)
    with _json_file(args.json) as out:
        found = find_minimal_non_hultman(args.max_a, args.max_b)
        if out is not None:
            rows = [{"family": v.ctx.family, "rank": v.ctx.rank, "element": str(v)} for v in found]
            json.dump(rows, out, indent=2)
    expected = {
        (v.ctx.family, v.ctx.rank, v.window) for v in patterns.condition5_patterns()
        if (v.ctx.family == "A" and v.ctx.rank <= args.max_a)
        or (v.ctx.family == "B" and v.ctx.rank <= args.max_b)
    }
    got = {(v.ctx.family, v.ctx.rank, v.window) for v in found}
    for v in found:
        print(f"{v.ctx.name}: {v}")
    print(f"total: {len(found)}")
    if got != expected:
        missing = expected - got
        extra = got - expected
        if missing:
            print(f"MISSING from listed patterns: {sorted(missing)}", file=sys.stderr)
        if extra:
            print(f"NOT in listed patterns: {sorted(extra)}", file=sys.stderr)
        return 1
    print("matches the listed pattern set exactly")
    return 0


def _cmd_witnesses(args: argparse.Namespace) -> int:
    with _json_file(args.json) as out:
        reports = witness_table()
        if out is not None:
            json.dump([r.to_json_dict() for r in reports], out, indent=2)
    for rep in reports:
        w = rep.pattern
        status = "non-Hultman confirmed" if rep.non_hultman_confirmed else "HULTMAN?"
        print(f"{w.ctx.name} {w}: {status}, "
              f"{len(rep.witnesses)} witnesses")
        for comp in rep.row_comparisons:
            if comp.matches:
                print(f"  row u={comp.u} ({comp.listed[0]},{comp.listed[1]}): match")
            else:
                tag = "parity-inconsistent" if not comp.parity_consistent else "mismatch"
                print(
                    f"  row u={comp.u} listed ({comp.listed[0]},{comp.listed[1]})"
                    f": {tag}; recomputed "
                    + (
                        f"({comp.recomputed[0]},{comp.recomputed[1]})"
                        f"{'' if comp.is_witness else ' (not a witness)'}"
                        if comp.recomputed
                        else "u is not below w"
                    )
                )
        for u, ld, lt in rep.extra_witnesses:
            print(f"  unlisted witness u={u}: ({ld},{lt})")
    return 0


def _plane_text(plane: arrangements.Plane) -> str:
    """x1-x2=0, x1+x2=0 or x1=0 for ("diff", 1, 2), ("sum", 1, 2), ("zero", 1, 0)."""
    kind, i, j = plane
    if kind == "zero":
        return f"x{i}=0"
    return f"x{i}{'-' if kind == 'diff' else '+'}x{j}=0"


def _cmd_chambers(args: argparse.Namespace) -> int:
    w = _element_from_args(args)
    planes = arrangements.inversion_arrangement(w)
    chi = arrangements.characteristic_polynomial(planes, w.ctx.rank)
    # one plane per inversion reflection, so |Inv(w)| is the plane count
    print(f"element {w}: |Inv(w)| = {len(planes)} (length {coxeter_length(w)})")
    print("hyperplanes: " + (", ".join(map(_plane_text, planes)) or "(none)"))
    terms = [
        f"{c:+d}t^{d}" for d, c in reversed(list(enumerate(chi))) if c
    ]
    print("characteristic polynomial: " + " ".join(terms))
    print(f"c(w) = {arrangements.chamber_count(w)}")
    return 0


def _parse_with_rank(text: str, family: str) -> Element:
    """Parse element text whose rank is its number of signed-window entries,
    or of digits (halved in type B)."""
    if "," in text or text.strip().startswith("-"):
        rank = len(text.split(","))
    else:
        rank = len(text.strip()) if family == "A" else len(text.strip()) // 2
    return parse_element(text, context(family, rank))


def _cmd_patterns(args: argparse.Namespace) -> int:
    w = _parse_with_rank(args.host, args.host_family)
    v = _parse_with_rank(args.pattern, args.family)
    emb = patterns.bp_contains(w, v)
    if emb is None:
        print(f"{w} BP avoids {v} in {v.ctx.name}")
    else:
        print(
            f"{w} BP contains {v} in {v.ctx.name} "
            f"at positions {emb.indices}"
        )
        print(f"flattening: {patterns.flatten(w, emb)}")
    return 0


COMMANDS = {
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "minimal-patterns": _cmd_minimal_patterns,
    "witnesses": _cmd_witnesses,
    "chambers": _cmd_chambers,
    "patterns": _cmd_patterns,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
