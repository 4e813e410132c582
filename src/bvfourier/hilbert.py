"""Conjugation operators on the line and on the circle.

Four routes are provided:

* :func:`hilbert_pv` -- principal-value quadrature of the symmetric
  difference form (1/pi) int_0^inf {f(x-u) - f(x+u)} du/u, with u-nodes
  at half-spacing offsets so the singularity is never sampled,
* :func:`hilbert_multiplier` -- the sign multiplier on the lattice's
  discrete-time Fourier transform, whose kernel is -MULTIPLIER_SIGN
  2/(pi m) at odd offsets m, with a guarded algebraic tail extension for
  slowly decaying inputs,
* :func:`modified_hilbert` -- the augmented kernel 1/(x-t) + t/(1+t^2),
  well defined for bounded inputs,
* :func:`periodic_conjugate` -- the cotangent-kernel conjugate function
  on a one-period grid.

Each is one real FFT convolution of the samples with its closed-form
kernel: on the line at a circular length where none of the n kept
outputs wraps, with the kernel's spectrum cached per sample count, and
on the circle at the period itself.  The two line routes are
deliberately independent discretizations and are cross-checked against
each other in the verification suites.  All four, like the transform sums
of :mod:`fourier` and the three radial routes, run through
:func:`_at_unit_scale`, the package's one overflow policy: on the input
scaled by a power of two to a maximum in [1, 2), the answer scaled back, so
a finite input near the float64 range gives a finite output or a one-line
refusal.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Callable

import numpy as np

from ._fft import fast_len
from .grids import DecayClass, Grid, SampledFunction

__all__ = [
    "MULTIPLIER_SIGN",
    "hilbert_pv",
    "hilbert_multiplier",
    "modified_hilbert",
    "periodic_conjugate",
    "kernel_difference",
]

# Sign of the frequency multiplier: transform of the conjugate equals
# MULTIPLIER_SIGN * 1j * sign(freq) * transform of the input, under the
# transform ghat(t) = int g(x) e^{-i t x} dx.  The conjugate convolves with
# the kernel p.v. 1/(pi x) (hilbert_pv's symmetric difference form), whose
# transform is (1/pi) p.v. int e^{-i t x} dx / x = -(i/pi) int sin(t x) dx / x
# = -i sign(t).  The Poisson pair agrees: P = a / (pi (x^2 + a^2)) has
# Phat = e^{-a|t|}, and its conjugate Q = x / (pi (x^2 + a^2)) has
# Qhat = -i sign(t) e^{-a|t|} (see tests).
MULTIPLIER_SIGN = -1.0

# _inverse_power_transforms sums its power series sum_m r^m / (k + m),
# r = x/R, where |r| < _SERIES_RHO, as its even part sum_j r^{2j} / (k + 2j)
# and odd part r sum_j r^{2j} / (k + 2j + 1).  The terms of both sums are
# positive, so their partial sums are at least their first terms 1/k and
# 1/(k + 1), which bound term j by rho^{2j} times the partial sum; an addend
# below s eps/4 leaves a float s unchanged.  So the terms from m = 2j =
# _SERIES_TERMS on change no bit of either sum once rho^_SERIES_TERMS < eps/4,
# which gives 32 terms.
_SERIES_RHO = 0.3
_SERIES_TERMS = 2 * math.ceil(math.log(np.finfo(float).eps / 4.0) / (2.0 * math.log(_SERIES_RHO)))


def _require_line_input(f: SampledFunction, op: str, allow_bounded: bool = False) -> None:
    if not f.is_real():
        raise ValueError(f"{op} expects real-valued samples")
    if f.decay_class is DecayClass.PERIODIC:
        raise ValueError(f"{op} rejects periodic input; use periodic_conjugate")
    if f.decay_class is DecayClass.BOUNDED and not allow_bounded:
        raise ValueError(f"{op} rejects bounded non-vanishing input; use modified_hilbert")


def _circular(K: np.ndarray, lo: int, L: int) -> np.ndarray:
    """K[j] placed at index (lo + j) mod L of a zero array of length L >= K.size."""
    out = np.zeros(L)
    out[np.arange(lo, lo + K.size) % L] = K
    return out


@functools.lru_cache(maxsize=4)
def _pv_weight_spectrum(n: int) -> np.ndarray:
    """Read-only rfft, at length fast_len(2n - 2), of 1/(pi (d - 1/2)), d = 2 - n .. n - 1, circularly."""
    L = fast_len(2 * n - 2)
    spec = np.fft.rfft(_circular(1.0 / (np.pi * (np.arange(2 - n, n) - 0.5)), 2 - n, L))
    spec.flags.writeable = False
    return spec


def _at_unit_scale(
    op: str, values: np.ndarray | tuple[np.ndarray, ...], route: Callable, radii: np.ndarray | None = None
) -> np.ndarray:
    """The linear route at values, run on them scaled by a power of two to a maximum in [1, 2) and scaled back.

    values is one array, or a tuple of arrays the route is linear in
    jointly, all scaled by the one power that takes their common maximum
    there.  Sums and products commute with a power-of-two scale while every
    value stays in the normal range, so the result has the bits of the
    unscaled run (when the maximum is in [1, 2) already, the route runs on
    values as they are), yet no sum, FFT or prefactor of a finite input
    near the float64 range overflows on the way.  Complex values and
    results are scaled part by part, in complex128 (complex64 values widen,
    as the route's sums would widen them).  This is the one place a route's
    answer is checked: where it is past the float64 range, op refuses in
    one line, naming the first of radii (one per answer entry, if given)
    whose value is not finite.
    """

    def times_two_to(power, a):
        if not np.iscomplexobj(a):
            return np.ldexp(a, power)
        a = a.astype(complex, copy=False)
        out = np.empty(a.shape, complex)
        np.ldexp(a.real, power, out=out.real)
        np.ldexp(a.imag, power, out=out.imag)
        return out

    arrays = values if isinstance(values, tuple) else (values,)
    e = math.frexp(max(float(np.max(np.abs(a))) for a in arrays))[1]  # the maximum is m 2^e, 1/2 <= m < 1
    with np.errstate(over="ignore", invalid="ignore"):
        if e == 1:
            out = route(values)
        else:
            scaled = tuple(times_two_to(1 - e, a) for a in arrays)
            out = times_two_to(e - 1, route(scaled if isinstance(values, tuple) else scaled[0]))
    bad = ~np.isfinite(out)
    if bad.any():
        where = "the result" if radii is None else f"the value at r = {radii[bad][0]:g}"
        raise ValueError(f"{op}: {where} is not finite in float64")
    return out


def _pv_values(values: np.ndarray) -> np.ndarray:
    """sum_k gbar_k / (pi (i - k - 1/2)) over the n - 1 midpoint samples gbar, for i < n."""
    n = values.size
    gbar = 0.5 * (values[1:] + values[:-1])
    L = fast_len(2 * n - 2)
    return np.fft.irfft(np.fft.rfft(gbar, L) * _pv_weight_spectrum(n), L)[:n]


def hilbert_pv(f: SampledFunction) -> SampledFunction:
    """Principal-value Hilbert transform on the line.

    Quadrature nodes sit at u = (j + 1/2) h, so symmetric cancellation
    keeps the integrand bounded near u = 0; integrals over the real line
    are truncated at the grid boundary (zero extension for the declared
    decaying classes).  Output decay is vanishing_at_infinity: the
    transform of an integrable function decays like 1/x.  Node u_j pairs
    the midpoint samples gbar at offsets d = j + 1 and -j from x, so the
    quadrature is one real convolution of gbar with 1/(pi (d - 1/2)),
    d = 2 - n .. n - 1, at circular length fast_len(2n - 2); the
    kernel's spectrum depends on n only and is cached per n.
    """
    _require_line_input(f, "hilbert_pv")
    return f.with_values(_at_unit_scale("hilbert_pv", f.values, _pv_values), DecayClass.VANISHING_AT_INFINITY)


def modified_hilbert(f: SampledFunction) -> SampledFunction:
    """Hilbert transform with the augmented kernel 1/(x-t) + t/(1+t^2).

    The added term makes the integral well defined near infinity for
    bounded inputs; the combined kernel decays like 1/t^2, so window
    truncation costs only O(1/R).  For compactly supported input the
    result differs from :func:`hilbert_pv` by the constant
    (1/pi) int f(t) t/(1+t^2) dt, exactly, because the quadrature is
    additive over the kernel split.
    """
    _require_line_input(f, "modified_hilbert", allow_bounded=True)
    xm = 0.5 * (f.x[1:] + f.x[:-1])

    def route(values):
        gbar = 0.5 * (values[1:] + values[:-1])
        return _pv_values(values) + (f.h / np.pi) * float(np.sum(gbar * xm / (1.0 + xm * xm)))

    out = _at_unit_scale("modified_hilbert", f.values, route)
    decay = DecayClass.BOUNDED if f.decay_class is DecayClass.BOUNDED else DecayClass.VANISHING_AT_INFINITY
    return f.with_values(out, decay)


def _inverse_power_transforms(x: np.ndarray, R: float, kmax: int, signs: tuple[int, ...]) -> np.ndarray:
    """J_k(sx) = int_R^inf dt / (t^k (sx - t)) for k = 1..kmax, |x| < R, at each sign s of signs.

    Row [i, k] holds J_k(signs[i] x).  A power series in x/R near the
    origin, summed as its even part E and odd part O, gives both signs
    from one set of powers, J_k(+-x) = -(E +- O)/R^k; elsewhere the
    log/recursion closed form, for the signs asked for only.
    """
    x = np.asarray(x, dtype=float)
    J = np.zeros((len(signs), kmax + 1, x.size))
    small = np.abs(x) < _SERIES_RHO * R
    near, far = np.flatnonzero(small), np.flatnonzero(~small)
    r = x[near] / R
    k = np.arange(1.0, kmax + 1.0)[:, None]
    even, odd = np.zeros((kmax, r.size)), np.zeros((kmax, r.size))
    term, r2 = np.ones_like(r), r * r
    for m in range(0, _SERIES_TERMS, 2):
        even += term / (k + m)
        odd += term / (k + m + 1)
        term *= r2
    odd *= r
    scale = R**k
    for i, sign in enumerate(signs):
        J[i, 1:, near] = (-(even + odd if sign > 0 else even - odd) / scale).T
        xl = sign * x[far]
        inv = 1.0 / xl
        Jk = inv * np.log(np.abs(R - xl) / R)
        J[i, 1, far] = Jk
        for kk in range(2, kmax + 1):
            Jk = inv * (R ** (1 - kk) / (kk - 1) + Jk)
            J[i, kk, far] = Jk
    return J


def _tail_correction(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Hilbert contribution of fitted inverse-power tails outside the window.

    Each side's outer 5% of samples (at least 32) is fitted with
    sum_k c_k (Rm/|t|)^k, k = 1..5, and the transform of the modelled
    tail beyond Rm = boundary + h/2 is added in closed form.  Sides
    whose window does not fit (the two windows would overlap, or the
    window would reach the origin), whose samples are negligible, or
    whose samples are not consistent with algebraic decay (relative fit
    residual above 1e-3) are skipped; the correction then degrades
    gracefully to plain truncation.
    """
    n, h, x = grid.n, grid.h, grid.points
    m = max(32, n // 20)
    kmax = 5
    scale = float(np.max(np.abs(values)))
    corr, fits = np.zeros(n), {}
    if scale == 0.0 or 2 * m > n:
        return corr
    for side in (1, -1):
        if side > 0:
            xs, fs, boundary = x[-m:], values[-m:], grid.b
        else:
            xs, fs, boundary = -x[:m][::-1], values[:m][::-1], -grid.a
        # xs[0] is the window's sample nearest the origin
        if xs[0] <= 0.0 or np.max(np.abs(fs)) < 1e-12 * scale:
            continue
        Rm = boundary + 0.5 * h
        basis = np.stack([(Rm / xs) ** k for k in range(1, kmax + 1)], axis=1)
        coef, *_ = np.linalg.lstsq(basis, fs, rcond=None)
        resid = float(np.sqrt(np.mean((basis @ coef - fs) ** 2)))
        if resid > 1e-3 * float(np.sqrt(np.mean(fs**2))):
            continue
        fits.setdefault(Rm, []).append((side, coef))
    # one pass per model radius: a symmetric window's two sides share its power series
    for Rm, sides in fits.items():
        J = _inverse_power_transforms(x, Rm, kmax, tuple(side for side, _ in sides))
        for (side, coef), Js in zip(sides, J):
            contrib = np.zeros(n)
            for k in range(1, kmax + 1):
                contrib += coef[k - 1] * Rm**k * Js[k]
            # left tail: int_{-inf}^{-Rm} model/(x-t) dt = -sum c_k Rm^k J_k(-x)
            corr += contrib / np.pi if side > 0 else -contrib / np.pi
    return corr


def _multiplier_kernel(n: int) -> np.ndarray:
    """Inverse DTFT of the sign multiplier at offsets m = -(n-1)..n-1.

    The multiplier MULTIPLIER_SIGN * i * sign(w) on (-pi, pi) has the
    real odd inverse DTFT -MULTIPLIER_SIGN 2/(pi m) at odd m, 0 at even m
    and at m = 0: the N -> oo limit of the discrete Hilbert kernel
    (2/N) cot(pi m / N) of a length-N DFT (Kak, Proc. IEEE 58 (1970) 585).
    """
    m = np.arange(1 - n, n)
    K = np.zeros(m.size)
    odd = (m & 1) == 1
    K[odd] = (-2.0 * MULTIPLIER_SIGN / np.pi) / m[odd]
    return K


@functools.lru_cache(maxsize=4)
def _multiplier_spectrum(n: int) -> np.ndarray:
    """Read-only rfft, at length fast_len(2n - 1), of the kernel for n samples, circularly."""
    K = _multiplier_kernel(n)
    if not np.array_equal(K[::-1], -K):
        raise ValueError("multiplier kernel is not odd, so the transform would have an imaginary residue")
    spec = np.fft.rfft(_circular(K, 1 - n, fast_len(2 * n - 1)))
    spec.flags.writeable = False
    return spec


def hilbert_multiplier(f: SampledFunction) -> SampledFunction:
    """Hilbert transform through the exact kernel of the sign multiplier.

    The route applies the multiplier MULTIPLIER_SIGN * i * sign(w) to the
    discrete-time Fourier transform of the samples, zero extended along
    the whole lattice.  Only n outputs of n nonzero samples are needed,
    so it is evaluated exactly as one real convolution with the
    multiplier's closed-form kernel (:func:`_multiplier_kernel`) on
    offsets |m| < n, at circular length fast_len(2n - 1), where no kept
    output wraps; the kernel's spectrum is cached per n.  For
    vanishing_at_infinity input the tails outside the window are extended
    by a fitted inverse-power model (skipped for compactly supported or
    non-algebraic data).  Each kernel is checked to be exactly odd when
    built, so the multiplier is purely imaginary and real input stays real.
    """
    _require_line_input(f, "hilbert_multiplier")
    n, L = f.n, fast_len(2 * f.n - 1)

    def route(values):
        out = np.fft.irfft(np.fft.rfft(values, L) * _multiplier_spectrum(n), L)[:n]
        if f.decay_class is DecayClass.VANISHING_AT_INFINITY:
            out += _tail_correction(f.grid, values)
        return out

    return f.with_values(_at_unit_scale("hilbert_multiplier", f.values, route), DecayClass.VANISHING_AT_INFINITY)


def periodic_conjugate(f: SampledFunction) -> SampledFunction:
    """Conjugate function (1/2pi) PV int f(t) cot((x-t)/2) dt on (-pi, pi].

    The period is folded so the quadrature runs over u in (0, 2pi) with
    half-offset midpoint nodes.  The trigonometric interpolant at the
    half offsets and the cotangent weights w_j = cot((j + 1/2) h / 2)
    combine into one circular convolution of the samples with
    c[d] = w[(d - 1) mod N] - w[(-d) mod N], evaluated as one spectral
    product.  The factor comes from the cot weights, not from
    -i sign(k): on a full period the midpoint rule is spectrally
    accurate, and on band-limited input the scheme reproduces the
    coefficient multiplier to machine precision (the two routes are
    compared in fourier diagnostics).
    """
    if f.decay_class is not DecayClass.PERIODIC:
        raise ValueError("periodic_conjugate expects periodic input")
    if not f.is_real():
        raise ValueError("periodic_conjugate expects real-valued samples")
    if abs(f.grid.width - 2.0 * math.pi) > 1e-9:
        raise ValueError("periodic grid must span exactly (-pi, pi]")
    N = f.n - 1  # duplicated closure sample dropped
    h = f.grid.width / N
    shift = np.exp(1j * np.pi * np.arange(N // 2 + 1) / N)  # to the half offsets
    if N % 2 == 0:
        shift[-1] = math.cos(np.pi * (N // 2) / N)
    # cot(u/2) is odd about u = pi: the upper half is the lower one negated, exactly,
    # since a rounding of u near 2 pi would move cot(u/2) by about 4 pi eps / h of itself
    half = N // 2
    w = np.zeros(N)  # an odd N's middle node is u = pi, where cot(u/2) = 0
    w[:half] = 1.0 / np.tan(0.5 * (np.arange(half) + 0.5) * h)
    w[N - half :] = -w[half - 1 :: -1]
    d = np.arange(N)
    c = w[(d - 1) % N] - w[(-d) % N]
    spec_c = np.fft.rfft(c)

    def route(values):
        return (h / (4.0 * np.pi)) * np.fft.irfft(np.fft.rfft(values[:N]) * shift * spec_c, N)

    vals = _at_unit_scale("periodic_conjugate", f.values, route)
    return f.with_values(np.concatenate((vals, [vals[0]])), DecayClass.PERIODIC)


_POLE_WARN_TOL = 1e-3


def kernel_difference(t: float, terms: int) -> tuple[float, float]:
    """Cotangent/Cauchy kernel difference (1/2) cot(t/2) - 1/t.

    Returns the symmetric partial sum of sum_{k != 0} t/(2 k pi (t - 2 k pi))
    over 1 <= |k| <= terms, paired as sum_{k>=1} 2 t / (t^2 - 4 k^2 pi^2),
    together with the closed form.  The difference is O(1/terms).  At
    t = 0 both values are the removable-singularity limit 0; the closed
    form is odd in t exactly.
    """
    t = float(t)
    if not (-2.0 * math.pi < t < 2.0 * math.pi):
        raise ValueError("t must lie in (-2*pi, 2*pi)")
    if terms < 1:
        raise ValueError("terms must be a positive integer")
    if abs(abs(t) - 2.0 * math.pi) < _POLE_WARN_TOL:
        warnings.warn(
            f"t={t} is within {_POLE_WARN_TOL} of the kernel pole at ±2*pi",
            RuntimeWarning,
            stacklevel=2,
        )
    if t == 0.0:
        return 0.0, 0.0
    partial = 0.0
    chunk = 1_000_000
    for start in range(1, terms + 1, chunk):
        k = np.arange(start, min(start + chunk, terms + 1), dtype=float)
        partial += float(np.sum(2.0 * t / (t * t - 4.0 * k * k * np.pi**2)))
    if abs(t) < 1e-3:
        closed = -t / 12.0 - t**3 / 720.0  # Laurent tail, avoids cancellation
    else:
        closed = 0.5 / math.tan(0.5 * t) - 1.0 / t
    return partial, closed
