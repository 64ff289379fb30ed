"""The pairing of `scripts/bench_verify.py --against`, on fake run records:
no subprocess and no checkout is run."""
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_verify.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_verify", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench()


def test_paired_rounds_alternate_which_tree_goes_first():
    groups = (("B", 5), ("A", 7))
    order = bench.schedule(groups, 3, paired=True)
    assert order == [
        ("change", "B", 5), ("parent", "B", 5), ("change", "A", 7), ("parent", "A", 7),
        ("parent", "B", 5), ("change", "B", 5), ("parent", "A", 7), ("change", "A", 7),
        ("change", "B", 5), ("parent", "B", 5), ("change", "A", 7), ("parent", "A", 7),
    ]
    # unpaired, the change alone runs round-robin as before
    assert bench.schedule(groups, 2, paired=False) == [
        ("change", "B", 5), ("change", "A", 7), ("change", "B", 5), ("change", "A", 7),
    ]


def _run(elapsed, peak, **seconds):
    return {"elapsed_s": elapsed, "peak_rss_mb": peak, "seconds": seconds}


def test_paired_ratios_are_change_over_parent_pair_by_pair():
    change = [_run(9.0, 50.0, hull=3.0, bp=0.0), _run(12.0, 50.0, hull=2.0, bp=0.1),
              _run(10.0, 50.0, hull=4.0, bp=0.2)]
    parent = [_run(10.0, 60.0, hull=4.0, bp=0.0), _run(10.0, 60.0, hull=4.0, bp=0.1),
              _run(10.0, 50.0, hull=2.0, bp=0.1)]
    paired = bench.paired_ratios(change, parent)
    assert list(paired) == ["elapsed_s", "peak_rss_mb", "hull", "bp"]
    assert paired["elapsed_s"] == {
        "ratios": [0.9, 1.2, 1.0], "median": 1.0, "favour_change": 1, "pairs": 3,
    }
    assert paired["peak_rss_mb"]["ratios"] == pytest.approx([5 / 6, 5 / 6, 1.0])
    assert paired["peak_rss_mb"]["favour_change"] == 2
    assert paired["hull"] == {
        "ratios": [0.75, 0.5, 2.0], "median": 0.75, "favour_change": 2, "pairs": 3,
    }
    # a parent figure of 0 gives no ratio, and counts in neither
    assert paired["bp"] == {
        "ratios": [None, 1.0, 2.0], "median": 1.5, "favour_change": 0, "pairs": 2,
    }


def test_paired_ratios_need_one_parent_run_per_change_run():
    with pytest.raises(ValueError):
        bench.paired_ratios([_run(1.0, 1.0)] * 2, [_run(1.0, 1.0)])
