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


def test_traced_transform_records_the_lazily_imported_command(monkeypatch, tmp_path):
    # run.py --trace 1 installs the tracer before cli.main runs; the transform
    # command imports fourier_transform only then, and must get the wrapped one
    tracer = load_tracer(monkeypatch)
    modules = [importlib.import_module(f"bvfourier.{name}") for name in (*tracer.LAYERS, "suites")]
    # every binding install() rewrites is restored when the test ends
    for module in [sys.modules["bvfourier"], *modules]:
        for attr, value in list(vars(module).items()):
            monkeypatch.setattr(module, attr, value)
    for registry in (sys.modules["bvfourier.cli"]._HILBERT_METHODS, sys.modules["bvfourier.suites"]._SUITE_FUNCS):
        for key, value in list(registry.items()):
            monkeypatch.setitem(registry, key, value)
    recorder = tracer.Tracer()
    tracer.install(recorder)
    cli = sys.modules["bvfourier.cli"]
    out = tmp_path / "t.csv"
    assert cli.main(["transform", "--family", "gaussian", "--n", "1025", "--out", str(out)]) == 0
    assert out.is_file()
    names = {span["name"] for span in recorder.spans}
    assert {"cli.main", "fourier.fourier_transform"} <= names
