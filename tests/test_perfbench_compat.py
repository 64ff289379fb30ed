"""The traced benchmark run wraps hultman's public entry points by name
(perfbench/tracing.py).  A renamed or removed target would silently leave
its per-layer metrics at zero, so every target must still resolve."""
import importlib
import importlib.util
from functools import cached_property
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module_name: str, attr: str) -> bool:
    module = importlib.import_module(module_name)
    cls_name, _, name = attr.rpartition(".")
    if cls_name:
        cls = getattr(module, cls_name, None)
        return isinstance(vars(cls).get(name) if cls else None, cached_property)
    return callable(getattr(module, name, None))


def test_every_traced_entry_point_resolves():
    tracing = _load_tracing()
    targets = [(module, attr) for _, module, attr, _ in tracing.SPAN_TARGETS]
    targets += [(module, attr) for _, module, attr in tracing.COUNT_TARGETS]
    assert targets
    missing = [f"{m}.{a}" for m, a in targets if not _resolves(m, a)]
    assert missing == []
