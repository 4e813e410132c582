import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bvfbench" / "tracer.py"


def load_tracer(monkeypatch):
    # no bytecode cache is written next to the benchmark's files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bvfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_names_still_resolve(monkeypatch):
    # run.py --trace 1 wraps these names by lookup; a rename breaks it silently
    tracer = load_tracer(monkeypatch)
    traced = set()
    for mod, names in tracer.LAYERS.items():
        module = importlib.import_module(f"bvfourier.{mod}")
        for name in names:
            fn = getattr(module, name, None)
            assert callable(fn), f"bvfourier.{mod}.{name} is gone"
            traced.add(fn)
    methods = importlib.import_module("bvfourier.cli")._HILBERT_METHODS
    assert set(methods.values()) <= traced
    registry = importlib.import_module("bvfourier.suites")._SUITE_FUNCS
    assert set(tracer.SUITES) <= set(registry)
