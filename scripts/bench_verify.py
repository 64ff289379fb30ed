"""Time `hultman verify` with all five conditions on B_5, S_7, B_6 and S_8.

    python3 scripts/bench_verify.py --label 4610314
    python3 scripts/bench_verify.py --label base --root ../other-checkout
    python3 scripts/bench_verify.py --label frontier --large
    python3 scripts/bench_verify.py --label change --against ../parent-checkout

The groups run round-robin, B_5, S_7, B_6, S_8 and again, for ROUNDS
rounds, every run `hultman verify --json` in a fresh interpreter, because
the package memoises its group tables.  On a shared machine one run of
B_6 or S_8 can read a third slower than the next, and a load phase can
last several runs; taking a group's runs in different rounds keeps one
phase from covering all of them.  Each child runs with CHILD_ENV, which
pins OpenBLAS to one thread.  The package makes no BLAS call any more
(condition 5 compares integer bitmasks; its former float64 product now
and then took 1.1-1.4 s instead of about 0.2 s on B_6 with two threads),
so the pin stays only to keep BENCH files comparable.
The result is written to BENCH_<label>.json beside this script's
checkout: the measured checkout's git SHA and dirty flag, the Python and
numpy versions, the CPU count, CHILD_ENV, and per group each run's
`elapsed_s`, per-condition `seconds`, `layer_seconds` (the tables built
up front, where the checkout reports them) and the child's own peak RSS,
with each at its least over the runs, and the work `counters` (hull
boards solved, pattern index sets scanned) where the checkout reports
them.
`elapsed_s` includes building every row's report, which --json asks for.
--root selects the source tree to measure (default: this checkout), so
two commits can be timed with the same script.  Exits 1 if a run fails
or its conditions disagree.

--against ROOT times a second tree, the parent of the change under
--root, in the same rounds: each round runs every group on both trees
back to back, the change first in even rounds and the parent first in
odd ones, so a load phase falls on both sides alike.  Each group then
also records the parent's summary and runs (`against`) and, under
`paired`, for `elapsed_s`, `peak_rss_mb` and each condition's seconds,
every pair's change/parent ratio (round by round), their median and the
number of pairs that favour the change (ratio below 1).  A ratio whose
parent figure is 0 is null and left out of both.  The top level records
the parent's git state under `against`.

--large (opt-in, about two minutes) times the frontier instead: B_7 and
S_9, in one round, with `--conditions 3,4,5` and without --json, whose
per-element reports would fill a 623 MB file on B_7.  Their counts and
per-condition and per-layer seconds are read from verify's text summary,
so their groups record no `rows_computed` or `counters`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GROUPS = (("B", 5), ("A", 7), ("B", 6), ("A", 8))  # (family, rank)
ROUNDS = 3
# with --large: the frontier, by the conditions that decide each row alone
LARGE_GROUPS = (("B", 7), ("A", 9))
LARGE_ROUNDS = 1
LARGE_CONDITIONS = "3,4,5"
# set in every child's environment, and recorded in the BENCH file
CHILD_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1"}
# prints the summary of a `verify --json` file without its per-element reports
DROP_REPORTS = (
    "import json, sys; summary = json.load(open(sys.argv[1])); "
    "summary.pop('elements', None); print(json.dumps(summary))"
)


def git_state(root: Path) -> dict:
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        return {
            "git_sha": git("rev-parse", "HEAD"),
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        }
    except (OSError, subprocess.CalledProcessError):
        return {"git_sha": None, "git_dirty": None}


def text_summary(text: str) -> dict:
    """The counts, elapsed seconds, per-condition seconds and layer seconds
    (the enumeration and the shared tables) of the text summary that
    `hultman verify` prints."""
    head = re.search(r"^\S+: (\d+) elements, conditions \[(.*)\]$", text, re.M)
    hultman = re.search(r"^  Hultman elements: (\d+)$", text, re.M)
    elapsed = re.search(r"^  elapsed: ([\d.]+)s$", text, re.M)
    layers = re.search(r"^  layers: (.*)$", text, re.M)  # none in older checkouts
    if not (head and hultman and elapsed):
        raise RuntimeError("verify printed no summary:\n" + text[-4000:])
    return {
        "total": int(head[1]),
        "hultman_count": int(hultman[1]),
        "conditions": head[2].split(", "),
        "elapsed_s": float(elapsed[1]),
        "seconds": {
            name: float(value) for name, value in re.findall(r"^    (\w+): ([\d.]+)s$", text, re.M)
        },
        "layer_seconds": {
            name: float(value)
            for name, value in re.findall(r"(\w+) ([\d.]+)s", layers[1] if layers else "")
        },
    }


def run_verify(
    root: Path, family: str, rank: int, scratch: Path, conditions: str | None = None
) -> dict:
    """One `hultman verify` run in a fresh interpreter and its peak RSS.
    Without `conditions`, all five run with --json, and the summary is read
    from that file without the per-element reports; with them, only those
    run, and the summary is read from the printed text."""
    out, log = scratch / "summary.json", scratch / "stdout.txt"
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **CHILD_ENV)
    cmd = [sys.executable, "-m", "hultman", "verify", "--family", family,
           "--rank", str(rank)]
    cmd += ["--json", str(out)] if conditions is None else ["--conditions", conditions]
    with open(log, "w") as fh:
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=root)
        # wait4 gives this child's own resource usage, with its peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(
            f"verify --family {family} --rank {rank} exited with {proc.returncode}:\n"
            + log.read_text()[-4000:]
        )
    peak = {"peak_rss_mb": usage.ru_maxrss / 1024}  # kilobytes on Linux
    if conditions is not None:
        return {**text_summary(log.read_text()), **peak}
    # a child's ru_maxrss starts at this process's own peak, which it
    # inherits at exec, so the report file, tens of MB of JSON on B_6 and
    # S_8, is read in a throwaway interpreter that passes on the summary
    done = subprocess.run([sys.executable, "-c", DROP_REPORTS, str(out)],
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"could not read {out}:\n{done.stderr[-4000:]}")
    summary = json.loads(done.stdout)
    return {
        "total": summary["total"],
        "hultman_count": summary["hultman_count"],
        "conditions": summary["conditions"],
        "rows_computed": summary["rows_computed"],
        "elapsed_s": summary["elapsed_s"],
        "seconds": summary["seconds"],
        "layer_seconds": summary.get("layer_seconds", {}),
        "counters": summary.get("counters", {}),
        **peak,
    }


def schedule(
    groups: tuple[tuple[str, int], ...], rounds: int, paired: bool
) -> list[tuple[str, str, int]]:
    """(side, family, rank) of every run, in order: round by round, every
    group in turn; paired, on both sides back to back, "change" first in
    even rounds and "parent" first in odd ones."""
    order = []
    for round_ in range(rounds):
        sides = ("change", "parent")[:: -1 if round_ % 2 else 1] if paired else ("change",)
        for family, rank in groups:
            order += [(side, family, rank) for side in sides]
    return order


def paired_ratios(change: list[dict], parent: list[dict]) -> dict:
    """For elapsed_s, peak_rss_mb and each condition's seconds: the
    change/parent ratio of each pair of runs (the i-th of each side), their
    median and how many favour the change.  A ratio is None where the
    parent's figure is 0 or missing, and counts in neither."""
    def figure(run: dict, name: str) -> float | None:
        return run[name] if name in ("elapsed_s", "peak_rss_mb") else run["seconds"].get(name)

    out = {}
    for name in ("elapsed_s", "peak_rss_mb", *change[0]["seconds"]):
        ratios = []
        for ours, theirs in zip(change, parent, strict=True):
            before = figure(theirs, name)
            ratios.append(figure(ours, name) / before if before else None)
        known = [r for r in ratios if r is not None]
        out[name] = {
            "ratios": ratios,
            "median": float(np.median(known)) if known else None,
            "favour_change": sum(r < 1 for r in known),
            "pairs": len(known),
        }
    return out


def summarise_group(family: str, rank: int, runs: list[dict]) -> dict:
    first = runs[0]
    if any((r["total"], r["hultman_count"]) != (first["total"], first["hultman_count"])
           for r in runs):
        raise RuntimeError(f"{family}{rank}: runs disagree on the counts")
    return {
        "group": f"{'S' if family == 'A' else 'B'}_{rank}",
        "family": family,
        "rank": rank,
        "conditions": first["conditions"],
        "total": first["total"],
        "hultman_count": first["hultman_count"],
        "rows_computed": first.get("rows_computed", {}),
        "counters": first.get("counters", {}),
        # each figure at its least over the runs: other tenants of a shared
        # machine only ever slow a run
        "elapsed_s": min(r["elapsed_s"] for r in runs),
        "seconds": {name: min(r["seconds"][name] for r in runs) for name in first["seconds"]},
        "layer_seconds": {
            name: min(r["layer_seconds"][name] for r in runs)
            for name in first.get("layer_seconds", {})
        },
        "peak_rss_mb": min(r["peak_rss_mb"] for r in runs),
        "runs": runs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to measure")
    parser.add_argument(
        "--against", type=Path, metavar="ROOT",
        help="a second checkout, the parent, run in the same rounds in alternating order",
    )
    parser.add_argument(
        "--large", action="store_true",
        help=f"time B_7 and S_9 once each, by conditions {LARGE_CONDITIONS} only",
    )
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error(f"label {args.label!r} must be letters, digits, '.', '_' or '-'")
    trees = {"change": args.root.resolve()}
    if args.against is not None:
        trees["parent"] = args.against.resolve()
    for tree in trees.values():
        if not (tree / "src" / "hultman").is_dir():
            parser.error(f"{tree} holds no src/hultman")
    root = trees["change"]
    result = {
        "label": args.label,
        **git_state(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "child_env": CHILD_ENV,
        "groups": [],
    }
    if "parent" in trees:
        result["against"] = {"root": str(trees["parent"]), **git_state(trees["parent"])}
    groups, rounds, conditions = (
        (LARGE_GROUPS, LARGE_ROUNDS, LARGE_CONDITIONS) if args.large else (GROUPS, ROUNDS, None)
    )
    runs: dict[tuple[str, str, int], list[dict]] = {
        (side, family, rank): [] for side in trees for family, rank in groups
    }
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for side, family, rank in schedule(groups, rounds, "parent" in trees):
                runs[side, family, rank].append(
                    run_verify(trees[side], family, rank, Path(tmp), conditions)
                )
        for family, rank in groups:
            group = summarise_group(family, rank, runs["change", family, rank])
            result["groups"].append(group)
            seconds = ", ".join(f"{k} {v:.2f}" for k, v in group["seconds"].items())
            print(f"{group['group']}: {group['hultman_count']} Hultman, "
                  f"elapsed {group['elapsed_s']:.2f} s ({seconds}), "
                  f"peak RSS {group['peak_rss_mb']:.1f} MB")
            if "parent" in trees:
                parent_runs = runs["parent", family, rank]
                group["against"] = summarise_group(family, rank, parent_runs)
                group["paired"] = paired_ratios(group["runs"], parent_runs)
                ratios = ", ".join(
                    f"{name} {pair['median']:.3f} ({pair['favour_change']}/{pair['pairs']})"
                    for name, pair in group["paired"].items() if pair["median"] is not None
                )
                print(f"  change/parent medians (pairs favouring the change): {ratios}")
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
