import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bvfourier
from bvfourier import fourier, hilbert
from bvfourier._fft import fast_len
from bvfourier.suites import run_suite


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


def test_cli_import_leaves_scipy_unloaded():
    # start-up cost: the package needs numpy only
    src = str(Path(bvfourier.__file__).resolve().parents[1])
    code = "import sys, bvfourier.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_radial_commands_run_with_scipy_blocked(tmp_path):
    # every Bessel order of the oracle, half-integer and integer, is computed
    # in-package: with scipy unimportable the radial commands exit as before
    src = str(Path(bvfourier.__file__).resolve().parents[1])
    runs = [
        ["radial", "--family", "box", "--dim", str(d), "--radii", "0.5,1,2", "--out", str(tmp_path / f"r{d}.csv")]
        for d in range(1, 6)
    ]
    runs.append(["verify", "--suite", "radial", "--profile", "fast", "--out", str(tmp_path / "v.txt")])
    code = (
        "import io, sys, contextlib; sys.modules['scipy'] = None\n"
        "from bvfourier.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = main(argv)\n"
        "    print(rc)\n"
        "print(sorted(m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod is not None))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True, text=True, check=True
    )
    assert out.stdout.split("\n")[:-1] == ["0"] * 6 + ["[]"]


def clear_spectrum_caches():
    for cached in (fourier._chirp_plan, hilbert._pv_weight_spectrum, hilbert._multiplier_spectrum):
        cached.cache_clear()


def test_every_padded_fft_of_the_suites_has_a_smooth_length(padded_fft_lengths):
    # the fast profile's hardy grids give N = 8 (n - 1) = 8 * 2047 = 8 * 23 * 89,
    # so the lattice DFT takes its chirp-z route; cold caches so every kernel
    # spectrum is built, and checked, here
    clear_spectrum_caches()
    run_suite("all", "fast")
    assert padded_fft_lengths and [n for n in padded_fft_lengths if fast_len(n) != n] == []
    assert fourier._chirp_plan.cache_info().misses >= 2


def test_suites_report_the_same_with_cold_and_warm_caches():
    clear_spectrum_caches()
    cold = [repr(r) for r in run_suite("all", "fast")]
    assert fourier._chirp_plan.cache_info().currsize > 0
    assert [repr(r) for r in run_suite("all", "fast")] == cold


def test_cached_spectra_are_read_only():
    # N = 2 * 7 * 100 is not 5-smooth
    for spectrum in (
        hilbert._pv_weight_spectrum(101),
        hilbert._multiplier_spectrum(101),
        *fourier._chirp_plan(101, 1400, 0, 701),
    ):
        with pytest.raises(ValueError, match="read-only"):
            spectrum[0] = 0.0
