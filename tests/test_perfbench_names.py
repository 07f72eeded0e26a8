"""The benchmark tracer wraps vqite functions by name; a rename in the
program would silently drop them into the run record's `absent` list."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    pairs = {(module, attr) for module, attrs, _ in tracer.SPANS.values()
             for attr in attrs}
    pairs |= set(tracer.COUNTS.values())
    for module, _ in pairs:
        importlib.import_module(module)
    assert sorted(p for p in pairs if tracer._resolve(*p) is None) == []
