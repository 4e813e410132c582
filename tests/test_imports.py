"""Start-up: the package loads each submodule on first use, and a ``bvf``
process imports only the modules its command runs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import bvfourier
from bvfourier import suites

SRC = str(Path(bvfourier.__file__).resolve().parents[1])
# modules a command would load for nothing: numpy.ma through np.median,
# concurrent.futures (and logging) through an executor, where the suites
# need only threads
UNNEEDED = ["numpy.ma", "concurrent.futures"]


def loaded_after(code, env=None):
    """Sorted bvfourier modules and the UNNEEDED ones loaded once ``code`` has run in a fresh process."""
    report = (
        "\nimport json, sys\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'bvfourier'),"
        f" [m for m in {UNNEEDED!r} if m in sys.modules]]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code + report],
        env={"PYTHONPATH": SRC, **(env or {})},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_import_loads_only_what_every_command_needs():
    package, unneeded = loaded_after("import bvfourier.cli")
    assert package == [
        "bvfourier",
        "bvfourier._fft",
        "bvfourier.cli",
        "bvfourier.grids",
        "bvfourier.hilbert",
        "bvfourier.reports",
    ]
    assert unneeded == []


def test_hilbert_command_loads_no_transform_radial_or_suite_module(tmp_path):
    runs = [
        ["hilbert", "--family", "gaussian", "--n", "1025", "--method", method, "--out", str(tmp_path / f"{method}.csv")]
        for method in ("pv", "multiplier", "modified")
    ]
    package, _ = loaded_after(f"from bvfourier.cli import main\nassert [main(a) for a in {runs!r}] == [0, 0, 0]")
    assert {"bvfourier.fourier", "bvfourier.radial", "bvfourier.suites"}.isdisjoint(package)
    assert all((tmp_path / f"{method}.csv").is_file() for method in ("pv", "multiplier", "modified"))


def test_single_threaded_verify_loads_neither_numpy_ma_nor_a_thread_pool(tmp_path):
    argv = ["verify", "--suite", "lemma-dc", "--profile", "fast", "--out", str(tmp_path / "r.txt")]
    # exit 1: conjugate-derivative-refinement fails by analysis (ROADMAP item 4)
    code = (
        "import contextlib, io\nfrom bvfourier.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 1"
    )
    package, unneeded = loaded_after(code, {"BVF_THREADS": "1"})
    assert "bvfourier.verification" in package and unneeded == []


def test_threaded_verify_loads_no_executor(tmp_path):
    argv = ["verify", "--suite", "all", "--profile", "fast", "--out", str(tmp_path / "r.txt")]
    code = (
        "import contextlib, io\nfrom bvfourier.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) in (0, 1)"
    )
    package, unneeded = loaded_after(code, {"BVF_THREADS": "2"})
    assert "bvfourier.suites" in package and unneeded == []
    assert (tmp_path / "r.csv").is_file()


def openblas_after_cli_import(env):
    """OPENBLAS_NUM_THREADS and the thread count once a fresh process has imported bvfourier.cli."""
    code = (
        "import json, os, bvfourier.cli\n"
        "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
        "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), tasks]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": SRC, **env}, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_cli_sets_openblas_to_one_thread_unless_the_caller_did():
    assert openblas_after_cli_import({})[0] == "1"
    assert openblas_after_cli_import({"OPENBLAS_NUM_THREADS": "2"})[0] == "2"


def _numpy_blas_name():
    import numpy as np

    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return ""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or "openblas" not in _numpy_blas_name(),
    reason="counts threads in /proc/self/task of numpy's bundled OpenBLAS",
)
def test_cli_import_starts_no_blas_thread():
    # OpenBLAS starts its workers when numpy loads it; the suites' threads
    # are the process's one pool
    assert openblas_after_cli_import({})[1] == 1


def test_every_export_and_submodule_resolves_through_the_package():
    # in a fresh process, so no earlier test has imported the submodules
    code = (
        "import importlib, pkgutil, bvfourier\n"
        "names = [m.name for m in pkgutil.iter_modules(bvfourier.__path__) if not m.name.startswith('_')]\n"
        "assert names and all(getattr(bvfourier, m) is importlib.import_module('bvfourier.' + m) for m in names)\n"
        "assert set(names) <= set(dir(bvfourier)) and set(bvfourier.__all__) <= set(dir(bvfourier))\n"
        "ns = {}\nexec('from bvfourier import *', ns)\n"
        "assert all(ns[n] is getattr(bvfourier, n) for n in bvfourier.__all__)\n"
        "print(len(bvfourier.__all__), len(names))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": SRC}, capture_output=True, text=True, check=True
    )
    exports, submodules = map(int, out.stdout.split())
    assert exports == 50 and submodules == 8
    # each export is its defining module's object, not a copy
    assert bvfourier.Profile is suites.Profile and bvfourier.run_suite is suites.run_suite
    with pytest.raises(AttributeError, match="no_such_name"):
        bvfourier.no_such_name


def test_suite_names_match_the_suite_registry():
    # the parser reads SUITE_NAMES without importing the suites
    assert suites.SUITE_NAMES == tuple(suites._SUITE_FUNCS)
