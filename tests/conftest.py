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
