"""The benchmark's tracer binds graphkt functions by name and reads fields
of their results; every name it lists must still exist and every field it
reads must still be there, or ``bench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_resolve():
    tracer = load_tracer()
    missing = [
        f"graphkt.{module}.{name}"
        for module, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"graphkt.{module}"), name, None))
    ]
    assert not missing


def test_traced_verify_run(capsys):
    import graphkt.cli
    import graphkt.exact_linalg
    import graphkt.sweep

    honest_snf = graphkt.exact_linalg.smith_normal_form
    checks = list(graphkt.sweep.CHECKS)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        code = graphkt.cli.main(["verify", "--max-vertices", "2", "--max-edges", "2"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    summary = tracer.summary()
    snf = summary["exact_linalg.smith_normal_form"]
    assert snf["calls"] > 0 and snf["ops"] > 0 and snf["out_bits"] > 0
    assert any(name.startswith("sweep.check.") for name in summary)
    assert graphkt.sweep.CHECKS == checks
    assert graphkt.exact_linalg.smith_normal_form is honest_snf
