"""Radial Fourier transforms through Leray's fractional-integral reduction.

For a radial function f(x) = f0(|x|) on R^n the transform reduces to a
one-dimensional cosine transform

    fhat(x) = 2 pi^{(n-1)/2} int_0^inf I(t) cos(|x| t) dt,

of the fractional integral

    I(t) = (2 / Gamma((n-1)/2)) int_t^inf s f0(s) (s^2 - t^2)^{(n-3)/2} ds.

The profile f0 is read as linear between its samples and cut off at
its last nonzero sample Rs, and I is integrated exactly on that
profile, cell by cell, in closed form: no quadrature parameter enters.
Three evaluation routes are provided and cross-checked: the direct
reduction above, its (n-1)-fold integrated-by-parts variant, and an
independent Bessel-quadrature oracle.  Profiles must be compactly
supported on [0, R] (or numerically negligible at R); all infinite
upper limits truncate there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .grids import DecayClass, Grid, SampledFunction, _read_uniform_csv, derivative, trapezoid_weights

__all__ = [
    "RadialProfile",
    "FractionalIntegral",
    "leray_condition",
    "fractional_integral",
    "radial_ft_leray",
    "radial_ft_ibp",
    "radial_ft_oracle",
    "read_radial_csv",
]

_TAIL_TOL = 1e-10
_BOUNDARY_TOL = 1e-6
_BLOCK = 2**16  # float64 elements per temporary array in the blocked passes (<= 2^18)


@dataclass(frozen=True)
class RadialProfile:
    """1-D profile f0 on [0, R] plus the ambient dimension."""

    f0: SampledFunction
    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError(f"dimension must be an integer >= 1, got {self.dim!r}")
        if abs(self.f0.grid.a) > 1e-12:
            raise ValueError("profile grid must start at 0")
        if not self.f0.is_real():
            raise ValueError("profile values must be real")
        scale = float(np.max(np.abs(self.f0.values)))
        if scale > 0.0 and abs(self.f0.values[-1]) > _TAIL_TOL * scale:
            raise ValueError(
                "profile must be compactly supported or negligible at the grid end "
                f"(|f0(R)| <= {_TAIL_TOL:g} * max|f0|); extend the grid"
            )

    @classmethod
    def from_samples(cls, grid: Grid, values, dim: int) -> "RadialProfile":
        """Profile from samples on [0, R], tagged by its two window ends.

        The left endpoint is the radial center, so compact_support (which
        requires zero window ends) only fits profiles vanishing there too;
        every other profile is tagged vanishing_at_infinity.
        """
        compact = values[0] == 0.0 and values[-1] == 0.0
        decay = DecayClass.COMPACT_SUPPORT if compact else DecayClass.VANISHING_AT_INFINITY
        return cls(SampledFunction(grid, values, decay), dim)

    @cached_property
    def support_index(self) -> int:
        """Index J of the last nonzero sample, the cut-off Rs = s_J (0 if none)."""
        nz = np.flatnonzero(self.f0.values)
        return int(nz[-1]) if nz.size else 0


@dataclass(frozen=True)
class FractionalIntegral:
    """I(t) sampled on the profile grid.

    ``derivative_order_available`` counts how many derivatives of I are
    numerically trustworthy with the construction used; the
    integrated-by-parts route refuses to run past it.  ``slope`` holds
    I' from the same closed form for dim 2 (None otherwise).  Where f0
    jumps to zero at its cut-off Rs, I' has an integrable
    (Rs - t)^{-1/2} end; its sample at Rs is left at 0.
    """

    samples: SampledFunction
    dim: int
    derivative_order_available: int
    slope: np.ndarray | None = None


def leray_condition(p: RadialProfile) -> float:
    """Truncated integral int_0^R |f0(t)| t^{n-1} / (1+t)^{(n-1)/2} dt.

    Finiteness is the hypothesis under which the reduction formula
    holds; on a truncated profile the value is always finite and is
    reported so callers can judge the size.
    """
    s = p.f0.x
    e = (p.dim - 1) / 2.0
    integrand = np.abs(p.f0.values) * s ** (p.dim - 1) / (1.0 + s) ** e
    return float(np.sum(trapezoid_weights(p.f0.grid) * integrand))


def _rsum(x: np.ndarray) -> np.ndarray:
    """Entry i is sum_{j > i} x_j (entry -1 is dropped: nothing lies past it)."""
    return np.cumsum(x[::-1])[::-1][1:]


def _kink_sum_odd(t: np.ndarray, sk: np.ndarray, a: np.ndarray, n: int) -> np.ndarray:
    """sum_{j > i} a_j int_{t_i}^{s_j} (s_j - s) s (s^2 - t_i^2)^m ds, m = (n-3)/2.

    The weight is a polynomial, so binomial expansion splits every term
    into powers of t times reverse cumulative sums over the kinks.  The
    expansion's terms reach (s^2 + t^2)^m where the sum is (s^2 - t^2)^m,
    so rounding grows like 2^m eps max|I| with the dimension.
    """
    m = (n - 3) // 2
    B, C = _rsum(a * sk), _rsum(a)
    out = np.zeros(t.size)
    for k in range(m + 1):
        e = 2 * k + 2  # int_t^R (R - s) s^(e-1) ds = R^(e+1)/(e(e+1)) - R t^e/e + t^(e+1)/(e+1)
        inner = _rsum(a * sk ** (e + 1)) / (e * (e + 1)) - t**e * B / e + t ** (e + 1) * C / (e + 1)
        out += math.comb(m, k) * (-t * t) ** (m - k) * inner
    return out


def _kink_sum_even(a: np.ndarray, h: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The kink sum of :func:`_kink_sum_odd` for even n, and its t-derivative.

    Lengths are in units of L, the last kink's radius: t = x L, R = y L,
    u = sqrt(y^2 - x^2) (from exact integer node indices).  Then
    G_q = int_x^y (s^2 - x^2)^q ds obeys G_{-1/2} = theta = asinh(u/x)
    and G_q = (y u^{2q} - 2q x^2 G_{q-1}) / (2q + 1), and a kink at R adds

        L^n (y u^{n-1} / (n-1) - x^2 G_{(n-3)/2}) / n,

    which vanishes for R <= t; for n = 2 its t-derivative is -t theta.
    Only nodes with a slope change enter, as matrix-vector products over
    row blocks of at most _BLOCK elements.  Rows are the nodes below the
    last kink.
    """
    rows_total = a.size - 1
    out, slope = np.zeros(rows_total), np.zeros(rows_total)
    cols = np.flatnonzero(a)
    if cols.size == 0:
        return out, slope
    inv = 1.0 / cols[-1]
    rows = max(1, _BLOCK // cols.size)
    for i0 in range(0, rows_total, rows):
        c = cols[np.searchsorted(cols, i0, side="right") :]
        if c.size == 0:
            break
        ci, ac = c.astype(float), a[c]
        ri = np.arange(i0, min(i0 + rows, rows_total), dtype=float)
        u = ci * ci - (ri * ri)[:, None]  # j^2 - i^2, exact in floating point
        np.maximum(u, 0.0, out=u)
        np.sqrt(u, out=u)
        theta = u / np.where(ri > 0.0, ri, np.inf)[:, None]  # the t = 0 row has theta = 0
        np.arcsinh(theta, out=theta)
        u *= inv
        y, x = ci * inv, ri * inv
        g, up = theta, u
        for k in range(n // 2 - 1):
            g = (y * up - (2 * k + 1) * (x * x)[:, None] * g) / (2 * k + 2)
            up = up * (u * u)
        gs = g @ ac
        out[i0 : i0 + rows] = (up @ (ac * y) / (n - 1) - x * x * gs) / n
        if n == 2:
            slope[i0 : i0 + rows] = -x * gs  # g is theta for n = 2
    L = h * cols[-1]
    return L**n * out, L * slope


def fractional_integral(p: RadialProfile) -> FractionalIntegral:
    """Leray fractional integral I on the profile grid (dim >= 2).

    f0 is read as linear between samples and cut off at its last nonzero
    sample Rs, and I is integrated exactly on that profile.  On [0, Rs]

        f0(s) = f0(Rs) + sum_j a_j (s_j - s)_+,

    with a_j the slope change at node s_j, so I is f0(Rs) times the
    ball's closed form 2 (Rs^2 - t^2)^{(n-1)/2} / ((n-1) Gamma((n-1)/2))
    plus one closed-form term per kink: polynomial moments for odd n,
    sqrt and log terms for even n.  A grid-aligned ball has no kinks and
    evaluates to its closed form.  I vanishes identically from Rs on.
    """
    if p.dim < 2:
        raise ValueError(
            "fractional_integral requires dim >= 2; dim = 1 reads I as f0 itself "
            "(handled by radial_ft_leray)"
        )
    n, s, f = p.dim, p.f0.x, p.f0.values
    vals, slope = np.zeros(s.size), np.zeros(s.size)
    J = p.support_index
    if J > 0:
        t, sk = s[:J], s[: J + 1]
        a = np.zeros(J + 1)
        a[1:] = np.diff(np.diff(f[: J + 1]) / p.f0.h, append=0.0)
        d = (s[J] - t) * (s[J] + t)
        vals[:J] = f[J] * d ** ((n - 1) / 2.0) / (n - 1)
        if n % 2:
            vals[:J] += _kink_sum_odd(t, sk, a, n)
        else:
            kinks, dkinks = _kink_sum_even(a, p.f0.h, n)
            vals[:J] += kinks
            slope[:J] = -f[J] * t / np.sqrt(d) + dkinks
    pref = 2.0 / math.gamma((n - 1) / 2.0)
    vals *= pref
    # I(0) is the full tail integral, generally nonzero, so the samples
    # carry the vanishing tag (identically zero past the support radius)
    samples = SampledFunction(p.f0.grid, vals, DecayClass.VANISHING_AT_INFINITY)
    if n <= 3:
        order = n - 1  # first derivatives come out semi-analytically
    else:
        order = _differencing_order_budget(vals, p.f0.h, n - 1)
    return FractionalIntegral(
        samples=samples,
        dim=n,
        derivative_order_available=order,
        slope=pref * slope if n == 2 else None,
    )


def _iterated_even_gradients(vals: np.ndarray, h: float, order: int) -> np.ndarray:
    """k-fold central differences of I using its even symmetry at t = 0.

    I extends evenly across the origin, so mirroring a few samples gives
    the t = 0 neighbourhood genuine central stencils; the outer edge
    differentiates the identical zeros past the support.  This keeps
    iterated differencing free of one-sided edge artifacts.
    """
    pad = order + 2
    cur = np.concatenate((vals[pad:0:-1], vals))
    for _ in range(order):
        cur = np.gradient(cur, h, edge_order=2)
    return cur[pad:]


def _differencing_order_budget(vals: np.ndarray, h: float, wanted: int) -> int:
    """How many iterated central differences stay above the noise floor.

    The exact construction leaves only roundoff on I: at most 73 eps
    max|I| against an 80-bit evaluation of the same formulas (bumps and
    Gaussian-type profiles, dims 2-7, n = 4097 and 8193), bounded here
    by 128 eps max|I|.  k central differencings amplify it by at most
    (1/h)^k, and the estimate is cut once that exceeds 1% of the
    derivative's own scale.
    """
    noise = 128.0 * np.finfo(float).eps * float(np.max(np.abs(vals))) if vals.size else 0.0
    order = 0
    for k in range(1, wanted + 1):
        cur = _iterated_even_gradients(vals, h, k)
        noise /= h
        scale = float(np.max(np.abs(cur)))
        if scale == 0.0 or noise > 0.01 * scale:
            break
        order = k
    return order


def _cosine_transform(grid: Grid, vals: np.ndarray, radii: np.ndarray, phase: float = 0.0) -> np.ndarray:
    """Trapezoid sums of vals(t) cos(phase - r t) over the grid, in radius blocks."""
    t, wv = grid.points, trapezoid_weights(grid) * vals
    rows = max(1, _BLOCK // t.size)
    out = np.empty(radii.size)
    for i in range(0, radii.size, rows):
        out[i : i + rows] = np.cos(phase - np.outer(radii[i : i + rows], t)) @ wv
    return out


def _check_radii(radii) -> np.ndarray:
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        raise ValueError("need at least one radius")
    if not np.all(np.isfinite(radii) & (radii > 0.0)):
        raise ValueError("radii must be finite and positive")
    return radii


def radial_ft_leray(
    p: RadialProfile, radii, frac: FractionalIntegral | None = None
) -> np.ndarray:
    """Radial transform by the reduction formula 2 pi^{(n-1)/2} int I cos(rt) dt.

    For dim = 1 the reduction degenerates: I is read as f0 itself and the
    value is the transform of the even extension, 2 int_0^R f0 cos(rt) dt.
    """
    radii = _check_radii(radii)
    if p.dim == 1:
        return 2.0 * _cosine_transform(p.f0.grid, p.f0.values, radii)
    if frac is None:
        frac = fractional_integral(p)
    pref = 2.0 * math.pi ** ((p.dim - 1) / 2.0)
    return pref * _cosine_transform(p.f0.grid, frac.samples.values, radii)


def _ibp_integrand(p: RadialProfile, frac: FractionalIntegral) -> np.ndarray:
    """I^{(n-1)} on the profile grid, by the least noisy route per dimension."""
    s = p.f0.x
    if p.dim == 2:
        slope = frac.slope if frac.slope is not None else fractional_integral(p).slope
        return _with_jump_end(p, slope)
    if p.dim == 3:
        # I(t) = 2 int_t^R s f0 ds gives I'' = -2 f0 - 2 t f0' exactly
        return -2.0 * p.f0.values - 2.0 * s * derivative(p.f0).values
    # generic fallback: iterated central differences of the I samples
    order = p.dim - 1
    if frac.derivative_order_available < order:
        raise ValueError(
            f"I^{order} is not numerically trustworthy "
            f"(budget {frac.derivative_order_available}); refine the profile"
        )
    return _iterated_even_gradients(frac.samples.values, p.f0.h, order)


def _with_jump_end(p: RadialProfile, slope: np.ndarray) -> np.ndarray:
    """Dim-2 I' with its jump end integrated over the last cell.

    A jump of f0 at its cut-off Rs gives I' the term
    c f0(Rs) g(t), g = -t / sqrt(Rs^2 - t^2), c = 2/sqrt(pi), which is
    infinite at Rs.  On the last cell [a, Rs] the trapezoid sum is
    replaced by the exact integrals P of g against the two linear hat
    functions, so the trigonometric factor the caller applies is
    integrated against g in product form; the samples elsewhere stand.
    """
    J = p.support_index
    if J == 0:
        return slope
    h, fJ, R, a = p.f0.h, p.f0.values[J], p.f0.x[J], p.f0.x[J - 1]
    wa = math.sqrt((R - a) * (R + a))
    phi = math.atan2(wa, a)  # arccos(a/R), accurate near a = R
    # int_a^R g = -wa and int_a^R t g = -(a wa + R^2 phi)/2
    p_end = -(R * R * phi - a * wa) / (2.0 * h)
    p_prev = -wa - p_end
    c = 2.0 / math.sqrt(math.pi) * fJ
    w = trapezoid_weights(p.f0.grid)
    out = slope.copy()
    out[J - 1] += c * (p_prev + 0.5 * h * a / wa) / w[J - 1]
    out[J] = c * p_end / w[J]
    return out


def _derivative_levels(p: RadialProfile, frac: FractionalIntegral) -> list[np.ndarray]:
    """[I, I', ..., I^{(n-2)}] by the same construction the ibp route uses.

    For dim 3 the first derivative is the exact identity I' = -2 t f0,
    which keeps structurally-zero boundary values exactly zero; higher
    dimensions use symmetry-aware iterated differencing.
    """
    levels = [frac.samples.values]
    if p.dim == 3:
        levels.append(-2.0 * p.f0.x * p.f0.values)
    for k in range(len(levels), p.dim - 1):
        levels.append(_iterated_even_gradients(frac.samples.values, p.f0.h, k))
    return levels


def _check_boundary_terms(p: RadialProfile, frac: FractionalIntegral) -> None:
    """Reject profiles whose integrated terms would not vanish.

    Each of the n-1 integrations by parts drops a boundary term.  At the
    outer radius every I^{(k)}, k <= n-2, must vanish; at t = 0 the trig
    factor kills the even-k terms automatically and only odd k <= n-2
    need |I^{(k)}(0)| ~ 0.  The offending derivative order is reported.
    """
    levels = _derivative_levels(p, frac)
    for k in range(p.dim - 1):
        vals = levels[k]
        scale = max(float(np.max(np.abs(vals))), 1e-300)
        if abs(vals[-1]) > _BOUNDARY_TOL * scale:
            raise ValueError(
                f"integrated terms would not vanish: |I^({k})(R)| = {abs(vals[-1]):.3e} "
                f"exceeds {_BOUNDARY_TOL:g} * scale (offending k={k})"
            )
        if k % 2 == 1 and abs(vals[0]) > _BOUNDARY_TOL * scale:
            raise ValueError(
                f"integrated terms would not vanish: |I^({k})(0)| = {abs(vals[0]):.3e} "
                f"exceeds {_BOUNDARY_TOL:g} * scale (offending k={k})"
            )


def radial_ft_ibp(
    p: RadialProfile, radii, frac: FractionalIntegral | None = None
) -> np.ndarray:
    """Radial transform after n-1 integrations by parts of the reduction:

    fhat(x) = 2 pi^{(n-1)/2} (-1)^{n-1} |x|^{1-n}
              int_0^inf I^{(n-1)}(t) cos(pi (n-1)/2 - |x| t) dt.

    The |x|^{1-n} prefactor is singular at the origin, so radii below
    0.1 are delegated to the direct reduction; dim = 1 degenerates to it
    exactly (a zero-fold integration by parts).
    """
    radii = _check_radii(radii)
    if p.dim == 1:
        return radial_ft_leray(p, radii)
    if frac is None:
        frac = fractional_integral(p)
    _check_boundary_terms(p, frac)
    integrand = _ibp_integrand(p, frac)
    out = np.empty(radii.size)
    small = radii < 0.1
    if np.any(small):
        out[small] = radial_ft_leray(p, radii[small], frac=frac)
    big = ~small
    if np.any(big):
        n = p.dim
        pref = 2.0 * math.pi ** ((n - 1) / 2.0) * (-1.0) ** (n - 1)
        phase = math.pi * (n - 1) / 2.0
        cos_part = _cosine_transform(p.f0.grid, integrand, radii[big], phase=phase)
        out[big] = pref * radii[big] ** (1 - n) * cos_part
    return out


def _half_integer_jv(k: int, x: np.ndarray) -> np.ndarray:
    """J_{k+1/2}(x) for integer k >= -1 and x >= 0, in elementary functions.

    J_{k+1/2}(x) = sqrt(2x/pi) j_k(x), with j_{-1} = cos(x)/x,
    j_0 = sin(x)/x and j_{l+1} = (2l+1)/x j_l - j_{l-1}.  The upward
    recurrence loses digits for x below about k, so there the power
    series sum_l (-1)^l (x/2)^{2l+nu} / (l! Gamma(l+nu+1)) is summed.
    """
    nu = k + 0.5
    out = np.empty_like(x)
    small = x < k + 2.0
    half = 0.5 * x[small]
    term = half**nu / math.gamma(nu + 1.0)
    acc = term.copy()
    for l in range(1, 25 + 2 * k):
        term = term * (-half * half) / (l * (l + nu))
        acc += term
    out[small] = acc
    xb = x[~small]
    j_prev, j = np.cos(xb) / xb, np.sin(xb) / xb
    for l in range(k):
        j_prev, j = j, (2 * l + 1) / xb * j - j_prev
    out[~small] = np.sqrt(2.0 * xb / math.pi) * (j_prev if k < 0 else j)
    return out


def radial_ft_oracle(p: RadialProfile, radii) -> np.ndarray:
    """Independent reference values through the Bessel representation

    fhat(r) = (2 pi)^{n/2} r^{1 - n/2} int_0^R f0(s) J_{n/2-1}(s r) s^{n/2} ds,

    quadratured directly on the profile grid, in radius blocks.  Odd
    dimensions have half-integer orders and elementary Bessel functions;
    only even dimensions load scipy.  Shares nothing with the reduction
    routes beyond the profile samples.
    """
    radii = _check_radii(radii)
    n = p.dim
    if n % 2:
        def bessel(x):
            return _half_integer_jv((n - 3) // 2, x)
    else:
        from scipy.special import jv  # loaded on demand; keeps start-up light

        def bessel(x):
            return jv(n / 2.0 - 1.0, x)
    s = p.f0.x
    w = trapezoid_weights(p.f0.grid) * p.f0.values
    wf = w * s ** (n / 2.0)
    # for n = 1 the kernel J_{-1/2}(s r) s^{1/2} reads inf * 0 at the s = 0
    # node, so that node enters through its limit sqrt(2 / (pi r)) instead
    lo = 1 if n == 1 else 0
    rows = max(1, _BLOCK // s.size)
    out = np.empty(radii.size)
    for i in range(0, radii.size, rows):
        out[i : i + rows] = bessel(np.outer(radii[i : i + rows], s[lo:])) @ wf[lo:]
    if n == 1:
        out += w[0] * np.sqrt(2.0 / (math.pi * radii))
    return (2.0 * math.pi) ** (n / 2.0) * radii ** (1.0 - n / 2.0) * out


def read_radial_csv(path: str | Path, dim: int) -> RadialProfile:
    """Load a radial profile from a two-column ``s,f0`` CSV (s from 0, equispaced)."""
    grid, vals = _read_uniform_csv(path, ("s", "f0"), 3)
    return RadialProfile.from_samples(grid, vals, int(dim))
