"""Time `hultman verify` with all five conditions on B_5 and S_7.

    python3 scripts/bench_verify.py --label 4610314
    python3 scripts/bench_verify.py --label base --root ../other-checkout

Each group runs RUNS times, every run `hultman verify --json` in a fresh
interpreter, because the package memoises its group tables.  The result is
written to BENCH_<label>.json beside this script's checkout: the measured
checkout's git SHA and dirty flag, the Python and numpy versions, the CPU
count, and per group each run's `elapsed_s`, per-condition `seconds` and
peak RSS, with each at its least over the runs.  `elapsed_s` includes
building every row's report, which --json asks for.  --root selects the
source tree to measure (default: this checkout), so two commits can be
timed with the same script.  Exits 1 if a run fails or its conditions
disagree.
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
GROUPS = (("B", 5), ("A", 7))
RUNS = 3


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


def run_verify(root: Path, family: str, rank: int, scratch: Path) -> dict:
    """One `hultman verify --json` run in a fresh interpreter: its summary
    without the per-element reports, and the interpreter's peak RSS."""
    out, log = scratch / "summary.json", scratch / "stdout.txt"
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, "-m", "hultman", "verify", "--family", family,
           "--rank", str(rank), "--json", str(out)]
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
    summary = json.loads(out.read_text())
    return {
        "total": summary["total"],
        "hultman_count": summary["hultman_count"],
        "conditions": summary["conditions"],
        "rows_computed": summary["rows_computed"],
        "elapsed_s": summary["elapsed_s"],
        "seconds": summary["seconds"],
        "peak_rss_mb": usage.ru_maxrss / 1024,  # kilobytes on Linux
    }


def bench_group(root: Path, family: str, rank: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        runs = [run_verify(root, family, rank, Path(tmp)) for _ in range(RUNS)]
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
        "rows_computed": first["rows_computed"],
        # each figure at its least over the runs: other tenants of a shared
        # machine only ever slow a run
        "elapsed_s": min(r["elapsed_s"] for r in runs),
        "seconds": {name: min(r["seconds"][name] for r in runs) for name in first["seconds"]},
        "peak_rss_mb": min(r["peak_rss_mb"] for r in runs),
        "runs": runs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to measure")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error(f"label {args.label!r} must be letters, digits, '.', '_' or '-'")
    root = args.root.resolve()
    if not (root / "src" / "hultman").is_dir():
        parser.error(f"{root} holds no src/hultman")
    result = {
        "label": args.label,
        **git_state(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "runs_per_group": RUNS,
        "groups": [],
    }
    try:
        for family, rank in GROUPS:
            group = bench_group(root, family, rank)
            result["groups"].append(group)
            seconds = ", ".join(f"{k} {v:.2f}" for k, v in group["seconds"].items())
            print(f"{group['group']}: {group['hultman_count']} Hultman, "
                  f"elapsed {group['elapsed_s']:.2f} s ({seconds}), "
                  f"peak RSS {group['peak_rss_mb']:.1f} MB")
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
