"""FFT sizing shared by the transform routes.

A padded FFT whose length is free takes it from :func:`fast_len`, the
smallest 5-smooth integer 2^a 3^b 5^c at or above the requested size;
pocketfft runs such lengths at full radix speed, whereas a large prime
factor (65537, say) sets the cost of the whole transform (Frigo &
Johnson, Proc. IEEE 93 (2005) 216).  The zoom DFT and each conjugation
operator are one circular convolution at such a length, where no kept
output wraps.  A lattice DFT, whose length N = 2 L (n - 1) its caller's
grid fixes, runs at N itself unless :func:`needs_bluestein` holds,
pocketfft's own test for falling back to its (uncached) Bluestein
algorithm; only then does it run as a chirp-z convolution at a 5-smooth
length.  Data-independent kernel spectra are cached.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fast_len", "needs_bluestein"]


def fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, for n >= 1."""
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            q = -(-n // p35)  # ceil(n / p35)
            best = min(best, p35 * (1 << (q - 1).bit_length()))
            p35 *= 3
        p5 *= 5
    return best


def needs_bluestein(n: int) -> bool:
    """True when n >= 1 has a prime factor p with p^2 > n."""
    m, d = int(n), 2
    if m < 1:
        raise ValueError(f"need n >= 1, got {n}")
    while d * d <= m:  # divide out every prime up to the root of what is left
        while m % d == 0:
            m //= d
        d += 1
    # what is left is 1 or the largest prime factor, which a prime p with p^2 > n never divides out
    return m * m > n
