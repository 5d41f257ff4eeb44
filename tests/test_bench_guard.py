"""The benchmark's tracer binds graphkt functions by name; every name it
lists must still exist, or ``bench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"graphkt.{module}.{name}"
        for module, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"graphkt.{module}"), name, None))
    ]
    assert not missing
