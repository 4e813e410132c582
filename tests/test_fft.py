import subprocess
import sys
from pathlib import Path

import numpy as np

import bvfourier
from bvfourier._fft import convolve, correlate, fast_len


def five_smooth(k):
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


def test_fast_len_is_the_next_five_smooth_length():
    smooth = [k for k in range(1, 6001) if five_smooth(k)]
    for n in range(1, 5001):
        got = fast_len(n)
        assert five_smooth(got) and got >= n
        assert got == next(k for k in smooth if k >= n)


def test_convolve_and_correlate_match_numpy():
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal(37), rng.standard_normal(101)
    assert np.max(np.abs(convolve(a, b) - np.convolve(a, b))) <= 1e-12
    za = a + 1j * rng.standard_normal(37)
    assert np.max(np.abs(convolve(za, b) - np.convolve(za, b))) <= 1e-12
    want = np.array([np.dot(a[: b.size - i], b[i : i + a.size]) for i in range(b.size)])
    assert np.max(np.abs(correlate(a, b) - want)) <= 1e-12


def test_cli_import_leaves_scipy_unloaded():
    # start-up cost: scipy is only needed lazily, by the radial Bessel oracle
    src = str(Path(bvfourier.__file__).resolve().parents[1])
    code = "import sys, bvfourier.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_odd_dimension_radial_call_leaves_scipy_unloaded(tmp_path):
    # half-integer Bessel orders are elementary; only even dims need scipy
    src = str(Path(bvfourier.__file__).resolve().parents[1])
    argv = ["radial", "--family", "box", "--dim", "3", "--radii", "0.5,1,2", "--out", str(tmp_path / "r.csv")]
    code = (
        "import sys; from bvfourier.cli import main; rc = main(sys.argv[1:]); "
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], env={"PYTHONPATH": src}, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0 []"
