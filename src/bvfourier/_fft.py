"""FFT sizing shared by the transform routes.

A padded FFT whose length is free takes it from :func:`fast_len`, the
smallest 5-smooth integer 2^a 3^b 5^c at or above the requested size;
pocketfft runs such lengths at full radix speed, whereas a large prime
factor (65537, say) sets the cost of the whole transform (Frigo &
Johnson, Proc. IEEE 93 (2005) 216).  The zoom DFT and each conjugation
operator are one circular convolution at such a length, where no kept
output wraps.  A lattice DFT, whose length N = 2 L (n - 1) its caller's
grid fixes, is one rfft at N itself.  Kernel spectra are cached.
"""

from __future__ import annotations

__all__ = ["fast_len"]


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

