import numpy as np
import pytest


@pytest.fixture
def padded_fft_lengths(monkeypatch):
    """Every length n that zero pads the input of numpy.fft.fft, ifft, rfft or irfft while the test runs.

    An irfft of m bins pads when n // 2 + 1 > m; its natural lengths 2m - 2
    and 2m - 1 (periodic data) are not recorded, nor are unpadded transforms.
    """
    lengths = []
    for name in ("fft", "ifft", "rfft", "irfft"):

        def spy(a, n=None, *args, _name=name, _fft=getattr(np.fft, name), **kwargs):
            m = np.shape(a)[-1]
            if n is not None and (n // 2 + 1 > m if _name == "irfft" else n > m):
                lengths.append(int(n))
            return _fft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, spy)
    return lengths


@pytest.fixture
def dft_paths(monkeypatch):
    """Record the fast paths taken while the test runs: one (caller, n, lo, span, fold)
    per lattice DFT (the function that asked for bins lo .. lo + span - 1 of n
    samples at fold L) and the number of zoom-DFT calls."""
    import sys

    import bvfourier.fourier as fourier

    taken = {"lattice": [], "zoom": 0}
    lattice_dft, zoom_dft = fourier._lattice_dft, fourier._zoom_dft

    def lattice_spy(coeffs, lo, span, fold):
        caller = sys._getframe(1)
        # up through bvfourier's closures and helpers to the public fourier function that asked
        while caller.f_globals["__name__"].startswith("bvfourier.") and caller.f_code.co_name not in fourier.__all__:
            caller = caller.f_back
        taken["lattice"].append((caller.f_code.co_name, coeffs.size, lo, span, fold))
        return lattice_dft(coeffs, lo, span, fold)

    def zoom_spy(*args):
        taken["zoom"] += 1
        return zoom_dft(*args)

    monkeypatch.setattr(fourier, "_lattice_dft", lattice_spy)
    monkeypatch.setattr(fourier, "_zoom_dft", zoom_spy)
    return taken
