"""Benchmark for hultman: B_5 sweep, B_5 hull sample, minimal-pattern search.

    python3 perfbench/run.py --workload verify-B5 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout; hultman is imported from src/.
Every sample is a fresh interpreter (worker.py), because the package
memoises its group tables.  With --trace 0 the run repeats cold samples
until --seconds have passed (at least three).  It reports the sweep time
with each call at its fastest over the samples (see quiet_time), and the
median set-up time and memory.  With --trace 1 it alternates
untraced and traced samples on the same inputs in the same way and reports
the per-layer metrics of the fastest traced sample.
The last line of standard output is the JSON result; the lines before it
are a readable report.  NOTES.md says what each workload and metric is for.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER_UNITS  # noqa: E402
from workloads import SCALES, make_inputs  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 5  # set-up-only samples per run, on top of each sweep's own
MIN_SAMPLES = 3
DEADLINE_S = 165.0  # a run must end within 180 s
OUT_DIR = ROOT / "bench_out"


class BenchError(RuntimeError):
    pass


def worker(spec: dict, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(spec),
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{spec['workload']} sample exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quiet_time(sweeps: list[dict]) -> float:
    """Sweep time with each public call at its fastest over the samples.

    Every sample makes the same calls in the same order from cold caches,
    so call j costs the same in each.  Other tenants of the machine only
    ever slow a call, in bursts from under a second to most of a run, and
    the fastest of each call is the steady estimate.
    """
    return sum(min(parts) for parts in zip(*(s["parts"] for s in sweeps)))


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha.stdout.strip() or None,
            "git_dirty": bool(dirty.stdout.strip()) if dirty.returncode == 0 else None}


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> tuple[dict, dict]:
    """(result line, run record) for one run."""
    began = time.monotonic()
    w = SCALES[scale][workload]
    record = {"workload": workload, "scale": scale, "seed": seed, "trace": int(trace),
              **git_state(), "nproc": os.cpu_count(),
              "cpus_allowed": len(os.sched_getaffinity(0)),
              "loadavg_start": os.getloadavg()}
    inputs = make_inputs(w, seed)
    record["inputs"] = len(inputs)

    def sample(mode: str, traced: bool = False) -> dict:
        spec = {"scale": scale, "workload": workload, "mode": mode, "trace": traced,
                "inputs": inputs}
        if traced:
            OUT_DIR.mkdir(exist_ok=True)
            spec["spans_path"] = str(OUT_DIR / f"spans-{workload}-seed{seed}-{len(sweeps)}.json")
        s = worker(spec, DEADLINE_S - (time.monotonic() - began))
        s["kind"] = mode + ("-traced" if traced else "")
        s["spans_path"] = spec.get("spans_path")
        return s

    sweeps: list[dict] = []
    samples = [sample("setup") for _ in range(SETUP_PROBES)]
    # A traced run alternates untraced and traced samples on the same inputs.
    kinds = (False, True) if trace else (False,)
    measure_start = time.monotonic()
    while True:
        t = time.monotonic()
        for traced in kinds:
            sweeps.append(sample("sweep", traced))
        now = time.monotonic()
        if len(sweeps) >= MIN_SAMPLES * len(kinds) and now - measure_start >= seconds:
            break
        if now + (now - t) > began + DEADLINE_S:  # the next round would not fit
            break
    samples += sweeps
    record["samples"] = [
        {k: s.get(k) for k in ("pid", "kind", "setup_s", "sweep_s", "sweep_cpu_s", "peak_rss_mb")}
        for s in samples]
    record["python"], record["numpy"] = samples[0]["python"], samples[0]["numpy"]
    record["loadavg_end"] = os.getloadavg()

    attempted = sum(s["attempted"] for s in sweeps)
    failed = sum(s["failed"] for s in sweeps)
    record["problems"] = sorted({p for s in sweeps for p in s["problems"]})[:20]
    record["failed_share"] = failed / attempted
    missing = sorted({m for s in sweeps for m in s.get("missing", [])})
    record["absent_wrapper_targets"] = missing

    untraced = [s for s in sweeps if s["kind"] == "sweep"]
    if trace:
        traced = [s for s in sweeps if s["kind"] == "sweep-traced"]
        best = min(traced, key=lambda s: s["sweep_s"])
        for s in traced:
            path = Path(s["spans_path"])
            if s is best:
                path.replace(OUT_DIR / f"spans-{workload}-seed{seed}.json")
            else:
                path.unlink()
        values = dict(best["layers"])
        values["trace.overhead_s"] = quiet_time(traced) - quiet_time(untraced)
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in samples),
            "sweep_s": quiet_time(untraced),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, record


def report(result: dict, record: dict) -> list[str]:
    lines = [f"hultman benchmark: {record['workload']} seed {record['seed']} "
             f"({record['inputs']} inputs, scale {record['scale']}, trace {record['trace']})"]
    for s in record["samples"]:
        sweep = f"  sweep {s['sweep_s']:.4f} s" if s.get("sweep_s") is not None else ""
        lines.append(f"  pid {s['pid']:>7} {s['kind']:<13} setup {s['setup_s']:.4f} s"
                     f"{sweep}  rss {s['peak_rss_mb']:.1f} MB")
    times = sorted(s["sweep_s"] for s in record["samples"] if s["kind"] == "sweep")
    if len(times) > 1:
        lines.append(f"  sweep samples: fastest {times[0]:.4f} s, median "
                     f"{statistics.median(times):.4f} s, slowest {times[-1]:.4f} s, n {len(times)}")
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    lines.append(f"  {'failed_share':<44} {record['failed_share']:>14.6g} "
                 f"({result['failed']} of {result['attempted']} operations)")
    for p in record["problems"]:
        lines.append(f"  PROBLEM {p}")
    for m in record["absent_wrapper_targets"]:
        lines.append(f"  ABSENT wrapper target {m}: its metrics read 0")
    lines.append("run record: " + json.dumps({k: v for k, v in record.items() if k != "problems"}))
    return lines


def selftest() -> None:
    """Every workload path and every wrapper at tiny size; checks that each
    metric BENCHMARK.json names is emitted with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if {w["name"] for w in spec["workloads"]} != set(SCALES["tiny"]):
        raise BenchError("BENCHMARK.json workloads differ from workloads.py")
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in SCALES["tiny"]:
            result, record = run(workload, seed=1, seconds=0, trace=trace, scale="tiny")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            problems = []
            if got != want:
                problems.append(f"metrics differ from BENCHMARK.json {key}: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            if record["absent_wrapper_targets"]:
                problems.append(f"wrapper targets gone: {record['absent_wrapper_targets']}")
            if not result["correct"]:
                problems.append(f"result check failed: {record['problems']}")
            if problems:
                raise BenchError(f"selftest {workload} trace {int(trace)}: " + "; ".join(problems))
            print(f"selftest {workload} trace {int(trace)}: ok, {len(got)} metrics, "
                  f"{result['attempted']} operations")
    print("selftest ok")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(SCALES["full"]))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "hultman" / "__init__.py").is_file():
        print(f"error: no hultman sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        if args.selftest:
            selftest()
            return 0
        if not args.workload:
            ap.error("--workload is required")
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({"result": result, "record": record}, indent=1))
    print("\n".join(report(result, record)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
