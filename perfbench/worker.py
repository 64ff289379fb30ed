"""One cold sample in a fresh interpreter, so hultman's memoised group
tables start empty.  Reads a JSON spec on stdin and prints one JSON line.

mode "setup": time `import hultman` plus the elements of every group the
workload touches.  mode "sweep": the same set-up, then the workload's
timed calls and the check of their result; with "trace", the per-layer
spans as well.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from tracing import Tracer, layer_metrics
from workloads import SCALES, check, decode, sweep


def main() -> None:
    spec = json.load(sys.stdin)
    w = SCALES[spec["scale"]][spec["workload"]]
    tracer = Tracer() if spec["trace"] else None

    start = time.perf_counter()
    import hultman

    if tracer:
        tracer.install()
    for family, rank in w.groups:
        hultman.context(family, rank).elements
    out: dict = {"pid": os.getpid(), "setup_s": time.perf_counter() - start}

    if spec["mode"] == "sweep":
        elements = decode(w, spec["inputs"]) if w.kind != "minimal" else []
        start, cpu = time.perf_counter(), time.process_time()
        result, out["parts"] = sweep(w, elements)
        out["sweep_s"] = time.perf_counter() - start
        out["sweep_cpu_s"] = time.process_time() - cpu
        out["attempted"], out["failed"], out["problems"] = check(w, len(elements), result)
        if tracer:
            order = hultman.context("B", w.rank).order if w.rank else 0
            out["layers"] = layer_metrics(tracer, w.conditions, order)
            out["missing"] = tracer.missing
            if spec.get("spans_path"):
                Path(spec["spans_path"]).write_text(json.dumps(tracer.dump()))

    import numpy

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["python"] = platform.python_version()
    out["numpy"] = numpy.__version__
    print(json.dumps(out))


if __name__ == "__main__":
    main()
