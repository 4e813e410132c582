import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bvfourier
from bvfourier import fourier, hilbert
from bvfourier._fft import fast_len, needs_bluestein
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


def largest_prime_factor(n):
    return max(p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, math.isqrt(p) + 1)))


def test_needs_bluestein_is_a_prime_factor_above_the_root():
    assert [n for n in range(1, 3001) if needs_bluestein(n)] == [
        n for n in range(2, 3001) if largest_prime_factor(n) ** 2 > n
    ]
    # the lattice lengths N = 8 (n - 1) of the hardy grids at n = 2^k
    assert [needs_bluestein(8 * (2**k - 1)) for k in range(7, 16)] == [
        True, False, True, False, False, False, True, False, False
    ]
    for n in (2**20, 8 * 3 * 43 * 127, 2 * 3**5 * 5**3):
        assert not needs_bluestein(n)
    with pytest.raises(ValueError):
        needs_bluestein(0)


def test_cli_import_leaves_scipy_unloaded():
    # start-up cost: the package needs numpy only
    src = str(Path(bvfourier.__file__).resolve().parents[1])
    code = "import sys, bvfourier.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True
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
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True
    )
    assert out.stdout.split("\n")[:-1] == ["0"] * 6 + ["[]"]


def clear_spectrum_caches():
    for cached in (fourier._chirp_plan, hilbert._pv_weight_spectrum, hilbert._multiplier_spectrum):
        cached.cache_clear()


def test_every_padded_fft_of_the_suites_has_a_smooth_length(padded_fft_lengths, monkeypatch):
    # A padded length is 5-smooth unless the grid fixes it: the lattice DFT runs
    # at its N = 2L(n - 1) itself when N has no prime p with p^2 > N, else as a
    # chirp-z at a 5-smooth length.  The default profile's hardy grids give
    # N = 8 * 8191 (8191 prime, the chirp-z route) and 8 * 3 * 43 * 127 (one
    # rfft at N); cold caches so every kernel spectrum is built, and checked, here
    lattice, lattice_dft = [], fourier._lattice_dft

    def lattice_spy(coeffs, k, fold):
        lattice.append((coeffs.size, 2 * fold * (coeffs.size - 1)))
        return lattice_dft(coeffs, k, fold)

    monkeypatch.setattr(fourier, "_lattice_dft", lattice_spy)
    clear_spectrum_caches()
    run_suite("all", "default")
    assert padded_fft_lengths and lattice
    fixed = {N for _, N in lattice}
    assert [n for n in padded_fft_lengths if fast_len(n) != n and (n not in fixed or needs_bluestein(n))] == []
    chirped = {(n, N) for n, N in lattice if needs_bluestein(N)}
    assert {N for _, N in chirped} == {8 * 8191} and not set(padded_fft_lengths) & {N for _, N in chirped}
    # one cold plan per chirp-z geometry
    assert fourier._chirp_plan.cache_info().misses == len(chirped) >= 1


def test_suites_report_the_same_with_cold_and_warm_caches():
    # the default profile, whose hardy grid at n = 2^13 takes the chirp-z route
    clear_spectrum_caches()
    cold = [repr(r) for r in run_suite("all", "default")]
    assert fourier._chirp_plan.cache_info().currsize > 0
    assert [repr(r) for r in run_suite("all", "default")] == cold


def test_cached_spectra_are_read_only():
    # N = 2 * 7 * 100 is not 5-smooth
    for spectrum in (
        hilbert._pv_weight_spectrum(101),
        hilbert._multiplier_spectrum(101),
        *fourier._chirp_plan(101, 1400, 0, 701),
    ):
        with pytest.raises(ValueError, match="read-only"):
            spectrum[0] = 0.0
