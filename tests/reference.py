"""Arbitrary-precision reference values for the radial tests (mpmath), and
the FFT length predicate the transform tests classify their grids by.

Nothing here is imported by the package; it shares no code with it.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np


def odd_fractional_integral(p, dims) -> dict[int, np.ndarray]:
    """{n: I_n at p's nodes} for the odd n >= 3 in dims, by the binomial kink formula.

    The profile is read as linear between its float samples and cut off at
    its last nonzero sample Rs = s_J, so on [0, Rs]

        f0(s) = f0(Rs) + sum_j a_j (s_j - s)_+,

    a_j the slope change at s_j.  With m = (n - 3)/2 and e = 2k + 2, a
    node t = s_i then reads

        I_n(t) = (2/m!) [f0(Rs) (Rs^2 - t^2)^(m+1) / (n - 1)
                         + sum_k C(m, k) (-t^2)^(m-k) sum_{j>i} a_j K_e(s_j, t)],

    K_e(R, t) = int_t^R (R - s) s^(e-1) ds
              = R^(e+1)/(e (e+1)) - R t^e/e + t^(e+1)/(e+1),

    and I_n vanishes from Rs on.  The binomial sum cancels terms up to
    2^m times max|I|, so it runs at 60 digits beyond 2^m's, from the
    float samples and nodes taken exactly; the result is rounded once to
    float64.  Its cost is O(J m) per dimension, in Python: keep J m small.
    """
    s, f, J = p.f0.x, p.f0.values, p.support_index
    dims = sorted(dims)
    assert all(n >= 3 and n % 2 for n in dims)
    mmax = (dims[-1] - 3) // 2
    out = {}
    with mpmath.workdps(math.ceil(mmax * math.log10(2.0)) + 60):
        mpf = mpmath.mpf
        h, x, y = mpf(p.f0.h), [mpf(float(v)) for v in s[: J + 1]], [mpf(float(v)) for v in f[: J + 1]]
        slope = [(y[i + 1] - y[i]) / h for i in range(J)] + [mpf(0)]
        a = [mpf(0)] + [slope[j] - slope[j - 1] for j in range(1, J + 1)]

        def tails(w):
            """Entry i is sum_{j > i} w_j, for i < J."""
            acc, res = mpf(0), [mpf(0)] * J
            for i in range(J - 1, -1, -1):
                acc += w[i + 1]
                res[i] = acc
            return res

        B, C = tails([a[j] * x[j] for j in range(J + 1)]), tails(a)
        # P[k][i] = sum_{j>i} a_j s_j^(2k+3), shared by every dimension
        P, xe = [], [a[j] * x[j] ** 3 for j in range(J + 1)]
        for _ in range(mmax + 1):
            P.append(tails(xe))
            xe = [xe[j] * x[j] * x[j] for j in range(J + 1)]
        for n in dims:
            m = (n - 3) // 2
            coef = [(-1) ** (m - k) * math.comb(m, k) for k in range(m + 1)]
            # the t^e and t^(e+1) parts of K_e carry t^(2m+2) times these sums over k
            cb = mpmath.fsum(mpf(c) / (2 * k + 2) for k, c in enumerate(coef))
            cc = mpmath.fsum(mpf(c) / (2 * k + 3) for k, c in enumerate(coef))
            cp = [mpf(c) / ((2 * k + 2) * (2 * k + 3)) for k, c in enumerate(coef)]
            vals = np.zeros(s.size)
            for i in range(J):
                t2 = x[i] * x[i]
                kinks = mpf(0)
                for k in range(m + 1):  # Horner in t^2
                    kinks = kinks * t2 + cp[k] * P[k][i]
                kinks += t2 ** (m + 1) * (x[i] * C[i] * cc - B[i] * cb)
                ball = y[J] * (x[J] * x[J] - t2) ** (m + 1) / (n - 1)
                vals[i] = float(2 * (ball + kinks) / math.factorial(m))
            out[n] = vals
    return out


def ball_transform(dim: int, rho: float, radii) -> np.ndarray:
    """(2 pi rho / r)^{n/2} J_{n/2}(rho r), the transform of the ball of radius rho in R^n, at each radius.

    Evaluated at 30 digits and rounded once to float64, so it neither
    overflows nor underflows where float64 powers and Bessel values would.
    """
    with mpmath.workdps(30):
        nu, rho = mpmath.mpf(dim) / 2, mpmath.mpf(float(rho))
        return np.array(
            [float((2 * mpmath.pi * rho / r) ** nu * mpmath.besselj(nu, rho * r)) for r in map(mpmath.mpf, map(float, radii))]
        )


def needs_bluestein(n: int) -> bool:
    """True when n >= 1 has a prime factor p with p^2 > n: pocketfft's test for
    running a length-n transform by its Bluestein algorithm."""
    m, d = int(n), 2
    if m < 1:
        raise ValueError(f"need n >= 1, got {n}")
    while d * d <= m:  # divide out every prime up to the root of what is left
        while m % d == 0:
            m //= d
        d += 1
    # what is left is 1 or the largest prime factor, which a prime p with p^2 > n never divides out
    return m * m > n
