"""Fourier transforms, integrability diagnostics and Hardy-space checks.

The transform convention throughout is ghat(t) = int g(x) e^{-i t x} dx.
The reference quadrature is the composite trapezoid evaluated at each
frequency node.  Two exact FFT paths replace the direct sum.  A caller
that lays out a lattice k pi/(L (b - a)) asks :func:`_lattice_dft` for
bins 0 <= k <= N/2 of one zero-padded DFT of length N = 2 L (n - 1),
one rfft at N: :func:`fourier_transform` on its default grid (L = 1,
times the phase e^{-i t a}) and :func:`hardy_check` (L = 4, |ghat| as
the bins' modulus).  :func:`transform_values` takes every other node
set: m >= 3 nodes in one arithmetic progression take one chirp-z (zoom
DFT) call, a circular convolution at the length n + m - 1 where none of
its m outputs wraps; any other nodes take the direct sum.  Both paths
match the direct sum to better than 1e-10 on the test corpus (asserted
in the test suite).  Periodic coefficients are one FFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fft import fast_len
from .grids import DecayClass, Grid, SampledFunction, integrate, trapezoid_weights
from .hilbert import _at_unit_scale, hilbert_multiplier, periodic_conjugate

__all__ = [
    "TransformResult",
    "H1Report",
    "CoefficientSet",
    "nyquist_cutoff",
    "fourier_transform",
    "transform_values",
    "l1_norm_ft",
    "h1_report",
    "hardy_check",
    "fourier_coefficients",
    "conjugate_coefficient_check",
]


@dataclass
class TransformResult:
    """Sampled transform values at the symmetric frequency nodes ``freqs``."""

    freqs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.size != self.freqs.size:
            raise ValueError("values length must match the frequency nodes")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("transform values must be finite")


@dataclass(frozen=True)
class H1Report:
    """L1 norms entering the real Hardy space norm, plus the mean residue."""

    l1_norm: float
    hilbert_l1_norm: float
    h1_norm: float
    cancellation_residual: float


def _expi(theta: np.ndarray) -> np.ndarray:
    """e^{-i theta} from real cos and sin, which numpy evaluates faster than complex exp."""
    out = np.cos(theta) + 0j
    np.sin(-theta, out=out.imag)
    return out


def _zoom_dft(coeffs: np.ndarray, x0: float, h: float, t0: float, dt: float, m: int) -> np.ndarray:
    """F_k = sum_j coeffs_j e^{-i t_k x_j} on arithmetic grids via Bluestein.

    Indices are centered before the quadratic-chirp factorization, which
    keeps the chirp arguments small and the evaluation accurate to a few
    ulps of the direct sum at moderate |t x|.
    """
    n = coeffs.size
    jc, kc = (n - 1) / 2.0, (m - 1) / 2.0
    xj = x0 + np.arange(n) * h
    tc = t0 + kc * dt
    xc = x0 + jc * h
    theta = dt * h
    jj = np.arange(n) - jc
    kk = np.arange(m) - kc
    a = coeffs * _expi(tc * xj) * _expi(0.5 * theta * jj * jj)
    # -j'k' = ((j'-k')^2 - j'^2 - k'^2)/2 and j'-k' = (j-k) + (kc-jc)
    p = np.arange(-(m - 1), n)
    w = _expi(-0.5 * theta * (p + (kc - jc)) ** 2)
    # outputs n - 1 .. n + m - 2 of the linear convolution of a with w
    # reversed; at the circular length n + m - 1 none of them wraps
    L = fast_len(n + m - 1)
    core = np.fft.ifft(np.fft.fft(a, L) * np.fft.fft(w[::-1], L))[n - 1 : n - 1 + m]
    return _expi(kk * dt * xc) * _expi(0.5 * theta * kk * kk) * core


def _lattice_dft(coeffs: np.ndarray, lo: int, span: int, fold: int) -> np.ndarray:
    """Bins lo .. lo + span - 1 of the length-N DFT of the zero-padded real coeffs, N = 2 L (n - 1), L = ``fold``.

    The caller that lays out a lattice owns its bins, which must lie in
    0 .. N/2.  With x_j = x0 + j (b - a)/(n - 1) they are the unphased
    transform sums: F(t) = e^{-i t x0} times bin k at t = k pi/(L (b - a)),
    so |F(t)| is the bins' modulus.  They are a slice of one rfft at N.
    """
    return np.fft.rfft(coeffs, 2 * fold * (coeffs.size - 1))[lo : lo + span]


def _on_progression(t: np.ndarray, t0: float, step: float) -> bool:
    """Every node within linspace's jitter, 64 eps max(|t|, 1), of t0 + k step, k = 0, 1, ..."""
    jitter = 64.0 * np.finfo(float).eps * max(abs(float(t[0])), abs(float(t[-1])), 1.0)
    return bool(np.all(np.abs(t - (t0 + np.arange(t.size) * step)) <= jitter))


def transform_values(f: SampledFunction, t: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature of int f(x) e^{-i t x} dx at the given frequencies.

    Three or more nodes in one arithmetic progression take one chirp-z
    (zoom DFT) call with its end-to-end step, matching the direct sum at
    its given nodes to a few ulps; any other node set takes the direct
    sum.  Lattice grids are their callers' to lay out: the default
    Nyquist grid of :func:`fourier_transform` and the Hardy probe ask
    :func:`_lattice_dft` for their bins.  Each path runs on the samples
    scaled by a power of two to unit size (:func:`hilbert._at_unit_scale`),
    so a finite input near the float64 range does not overflow inside the sum.
    """
    t = np.asarray(t, dtype=float)
    weights = trapezoid_weights(f.grid)

    def route(values):
        wf = weights * values
        if t.size >= 3:
            step = float(t[-1] - t[0]) / (t.size - 1)
            if _on_progression(t, float(t[0]), step):
                return _zoom_dft(wf, f.grid.a, f.h, float(t[0]), step, t.size)
        out = np.empty(t.size, dtype=complex)
        rows = max(1, 2**16 // f.n)  # temporaries of at most 2^16 elements
        for lo in range(0, t.size, rows):
            tx = np.outer(t[lo : lo + rows], f.x)  # real cos and sin run far faster than complex exp
            # each row's own sum, so a node's bits do not depend on the other nodes of its call
            out[lo : lo + rows] = np.sum(np.cos(tx) * wf, axis=1) - 1j * np.sum(np.sin(tx) * wf, axis=1)
        return out

    return _at_unit_scale("transform_values", f.values, route)


def nyquist_cutoff(grid: Grid) -> float:
    return math.pi / grid.h


def _transform_nodes(grid: Grid, cutoff: float | None = None, m: int | None = None) -> tuple[float, int, int | None]:
    """The cutoff, node count m and lattice length of :func:`fourier_transform` on grid, defaults filled in and checked.

    The length is N = 2 (n - 1), whatever m, for odd m nodes whose half line, evenly from 0 to
    cutoff, ends at K pi/(b - a), K <= n - 1; None for any other nodes, which take the zoom DFT.
    """
    if cutoff is None:
        cutoff = nyquist_cutoff(grid)
    cutoff = float(cutoff)
    if not (math.isfinite(cutoff) and cutoff > 0.0):
        raise ValueError("cutoff must be finite and positive")
    if m is None:
        # at the Nyquist default steps is n - 1 up to rounding; a float ceil
        # of n - 1 + ulp would add two nodes and miss the lattice grid
        steps = cutoff * grid.width / math.pi
        nearest = round(steps)
        m = 2 * (nearest if math.isclose(steps, nearest, rel_tol=1e-12) else math.ceil(steps)) + 1
    m = int(m)
    if m < 2:
        raise ValueError("need at least two frequency samples")
    lattice = m % 2 and m // 2 < grid.n and _on_progression(np.array([0.0, cutoff]), 0.0, m // 2 * (math.pi / grid.width))
    return cutoff, m, 2 * (grid.n - 1) if lattice else None


def fourier_transform(
    f: SampledFunction, cutoff: float | None = None, m: int | None = None
) -> TransformResult:
    """Transform sampled on m symmetric frequency nodes in [-cutoff, cutoff].

    Defaults: cutoff = pi/h (Nyquist-consistent) and m giving frequency
    spacing at most pi/(b - a).  The zero-frequency value equals the
    plain trapezoid integral of f bit for bit.  Real f on the lattice
    nodes of :func:`_transform_nodes` (the default grid among them) reads
    bins 0 .. K of :func:`_lattice_dft` and mirrors them by conjugation;
    any other grid goes to :func:`transform_values`.
    """
    cutoff, m, lattice_n = _transform_nodes(f.grid, cutoff, m)
    if m % 2:
        half = np.linspace(0.0, cutoff, (m + 1) // 2)
        t = np.concatenate((-half[:0:-1], half))  # exactly mirrored nodes
    else:
        t = np.linspace(-cutoff, cutoff, m)
    if lattice_n and f.is_real():
        def lattice(values):
            bins = _lattice_dft(trapezoid_weights(f.grid) * values, 0, half.size, 1)
            mirror = np.conj(bins[:0:-1])
            if half.size == f.n:  # t = -pi/h reads bin N/2, its own mirror, as it is
                mirror[0] = bins[-1]
            return _expi(t * f.grid.a) * np.concatenate((mirror, bins))

        # the refusal names transform_values, which every other grid takes
        values = _at_unit_scale("transform_values", f.values, lattice)
    else:
        values = transform_values(f, t)
    zero = np.flatnonzero(t == 0.0)
    if zero.size:
        values[zero[0]] = complex(integrate(f))
    return TransformResult(freqs=t, values=values)


def l1_norm_ft(
    f: SampledFunction, cutoffs: list[float] | np.ndarray, dt: float | None = None
) -> np.ndarray:
    """Half-line transform mass int_0^T |fhat(t)| dt at each cutoff T.

    The sequence is nondecreasing by construction; a plateau signals an
    integrable transform while unbounded growth signals divergence (the
    classification rule lives in the verification module).  For real f
    the full-line value is exactly twice the half-line value reported
    here, which keeps the documented logarithmic slope of the box
    counterexample at 4/pi.  The curve is one progression of steps of at
    most dt from 0 to the last cutoff, so one zoom DFT evaluates it; each
    cutoff reads the running trapezoid, linearly between nodes if off them.
    """
    cutoffs = np.asarray(cutoffs, dtype=float)
    if cutoffs.size == 0:
        raise ValueError("need at least one cutoff")
    if not np.all(np.isfinite(cutoffs)) or np.any(cutoffs <= 0.0) or np.any(np.diff(cutoffs) <= 0.0):
        raise ValueError("cutoffs must be finite, positive and strictly ascending")
    dt = min(0.02, math.pi / (4.0 * f.grid.width)) if dt is None else float(dt)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be finite and positive")
    curve = Grid(0.0, float(cutoffs[-1]), math.ceil(cutoffs[-1] / dt) + 1)
    mag = np.abs(transform_values(f, curve.points))
    # the trapezoid up to each node is the weighted sum through it, less its own half step before the last
    cums = np.cumsum(trapezoid_weights(curve) * mag)
    cums[:-1] -= 0.5 * curve.h * mag[:-1]
    return np.interp(cutoffs, curve.points, cums)


def h1_report(g: SampledFunction) -> H1Report:
    """L1 norms of g and of its Hilbert transform, and |int g|.

    A large cancellation residual certifies that g is not in the real
    Hardy space: members integrate to zero.
    """
    if not g.is_real():
        raise ValueError("h1_report expects real-valued samples")
    w = trapezoid_weights(g.grid)
    l1 = float(np.sum(w * np.abs(g.values)))
    hil = hilbert_multiplier(g)
    hl1 = float(np.sum(w * np.abs(hil.values)))
    return H1Report(
        l1_norm=l1,
        hilbert_l1_norm=hl1,
        h1_norm=l1 + hl1,
        cancellation_residual=abs(float(np.sum(w * g.values))),
    )


def hardy_check(g: SampledFunction) -> tuple[float, H1Report]:
    """Hardy inequality probe: int |ghat(t)|/|t| dt, and the H1 norms it is held against.

    The integral runs up to the Nyquist cutoff pi/h.  The integrand is
    only integrable because ghat(0) = 0 for Hardy-space members, so a
    symmetric window of one frequency spacing pi/(b - a) around zero is
    excised and the cancellation residual is a hard precondition.  The
    nodes are the 4-fold lattice k pi/(4 (b - a)), k = 4 .. 4 (n - 1),
    counted from the sample count, and |ghat| is the modulus of their
    bins in one DFT of length N = 8 (n - 1), which the probe asks
    :func:`_lattice_dft` for; the unit-modulus phase e^{-i t a} is never
    formed.
    Returns (lhs, h1_report(g)); lhs / h1_norm is the empirical
    convention constant, which the unit-constant inequality would put
    at or below 1.
    """
    if g.n < 3:
        raise ValueError("hardy_check needs at least three samples")
    report = h1_report(g)
    if report.cancellation_residual > 1e-6 * max(report.l1_norm, 1e-300):
        raise ValueError(
            f"cancellation residual {report.cancellation_residual:.3e} exceeds "
            f"1e-6 * ||g||_L1; the |ghat(t)|/|t| integrand would be singular at 0"
        )
    # k = 4 .. 4 (n - 1): from one frequency spacing pi/(b - a) to pi/h
    fold = 4
    k = np.arange(fold, fold * (g.n - 1) + 1)
    t = k * (math.pi / (fold * g.grid.width))
    mag = np.abs(_lattice_dft(trapezoid_weights(g.grid) * g.values, fold, k.size, fold))
    # real input: |ghat(-t)| = |ghat(t)|, so both half lines carry the same mass
    lattice = Grid(float(t[0]), float(t[-1]), k.size)
    return 2.0 * float(np.sum(trapezoid_weights(lattice) * mag / t)), report


@dataclass
class CoefficientSet:
    """Fourier coefficients c_{-kmax..kmax} with cumulative absolute sums."""

    kmax: int
    coefficients: np.ndarray  # index k + kmax
    abs_partial_sums: np.ndarray  # S_K = sum_{|k| <= K} |c_k|, K = 0..kmax

    def coefficient(self, k: int) -> complex:
        if abs(k) > self.kmax:
            raise IndexError(f"|k| must be <= {self.kmax}")
        return complex(self.coefficients[k + self.kmax])


def fourier_coefficients(f: SampledFunction, kmax: int) -> CoefficientSet:
    """Trapezoid coefficients c_k = (1/2pi) int f(x) e^{-ikx} dx, |k| <= kmax.

    On one period the trapezoid rule is exact for band-limited input up
    to the aliasing limit, hence the requirement kmax < (n - 1)/2.
    """
    if f.decay_class is not DecayClass.PERIODIC:
        raise ValueError("fourier_coefficients expects periodic input")
    N = f.n - 1
    kmax = int(kmax)
    if kmax < 1:
        raise ValueError("kmax must be a positive integer")
    if kmax >= N / 2:
        raise ValueError(f"kmax={kmax} aliases on {N} periodic samples (need kmax < {N/2:g})")
    ks = np.arange(-kmax, kmax + 1)
    # x_j = a + 2 pi j / N, so e^{-i k x_j} = e^{-i k a} e^{-2 pi i k j / N}
    coeffs = np.fft.fft(f.values[:N])[ks % N] * np.exp(-1j * ks * f.grid.a) / N
    mags = np.abs(coeffs)
    partial = np.cumsum(np.concatenate(([mags[kmax]], mags[kmax - 1 :: -1] + mags[kmax + 1 :])))
    return CoefficientSet(kmax=kmax, coefficients=coeffs, abs_partial_sums=partial)


def conjugate_coefficient_check(f: SampledFunction, kmax: int) -> float:
    """max over 1 <= |k| <= kmax of | |c_k(conjugate)| - |c_k(f)| |.

    The conjugate function multiplies coefficients by a unimodular
    factor, so the moduli agree for every nonzero mode.
    """
    cf = fourier_coefficients(f, kmax)
    ct = fourier_coefficients(periodic_conjugate(f), kmax)
    diff = np.abs(np.abs(ct.coefficients) - np.abs(cf.coefficients))
    diff[cf.kmax] = 0.0  # k = 0 carries the mean, excluded
    return float(np.max(diff))
