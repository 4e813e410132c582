"""Radial Fourier transforms through Leray's fractional-integral reduction.

For a radial function f(x) = f0(|x|) on R^n the transform reduces to a
one-dimensional cosine transform

    fhat(x) = 2 pi^{(n-1)/2} int_0^inf I(t) cos(|x| t) dt,

of the fractional integral

    I(t) = (2 / Gamma((n-1)/2)) int_t^inf s f0(s) (s^2 - t^2)^{(n-3)/2} ds.

Three evaluation routes are provided and cross-checked: the direct
reduction above, its (n-1)-fold integrated-by-parts variant, and an
independent Bessel-quadrature oracle.  Profiles must be compactly
supported on [0, R] (or numerically negligible at R); all infinite
upper limits truncate there.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grids import DecayClass, Grid, SampledFunction, derivative

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

    @property
    def support_radius(self) -> float:
        """Radius of the last nonzero sample (grid end if none are zero)."""
        nz = np.flatnonzero(self.f0.values != 0.0)
        return float(self.f0.x[nz[-1]]) if nz.size else 0.0


@dataclass(frozen=True)
class FractionalIntegral:
    """I(t) sampled on the profile grid.

    ``derivative_order_available`` counts how many derivatives of I are
    numerically trustworthy with the construction used; the
    integrated-by-parts route refuses to run past it.
    """

    samples: SampledFunction
    dim: int
    derivative_order_available: int


def leray_condition(p: RadialProfile) -> float:
    """Truncated integral int_0^R |f0(t)| t^{n-1} / (1+t)^{(n-1)/2} dt.

    Finiteness is the hypothesis under which the reduction formula
    holds; on a truncated profile the value is always finite and is
    reported so callers can judge the size.
    """
    s = p.f0.x
    w = np.full(s.size, p.f0.h)
    w[0] = w[-1] = 0.5 * p.f0.h
    e = (p.dim - 1) / 2.0
    integrand = np.abs(p.f0.values) * s ** (p.dim - 1) / (1.0 + s) ** e
    return float(np.sum(w * integrand))


def _smooth_substitution_integral(p: RadialProfile, weight_power: int, values: np.ndarray, n_u: int) -> np.ndarray:
    """int_t^R g(s) s (s^2-t^2)^{(n-3)/2} ds via s = sqrt(t^2 + u^2).

    The substitution turns the endpoint-singular weight into the smooth
    u^{n-2} du (weight_power = n-2), with g given by ``values`` sampled
    on the profile grid and interpolated linearly.  A fixed node count
    per t keeps the quadrature error a smooth function of t.
    """
    s = p.f0.x
    nz = np.flatnonzero(np.abs(values) > 0.0)
    out = np.zeros(s.size)
    if nz.size == 0:
        return out
    Rs = float(s[nz[-1]])
    for i, t in enumerate(s):
        if t >= Rs:
            break
        U = math.sqrt(Rs * Rs - t * t)
        u = np.linspace(0.0, U, n_u)
        sq = np.sqrt(t * t + u * u)
        integrand = np.interp(sq, s, values) * u**weight_power
        out[i] = float(np.trapezoid(integrand, u))
    return out


def fractional_integral(p: RadialProfile, n_u: int = 2049) -> FractionalIntegral:
    """Leray fractional integral I on the profile grid (dim >= 2).

    For even dimensions the half-integer weight is singular at s = t;
    the substitution s = sqrt(t^2 + u^2) maps s(s^2-t^2)^{(n-3)/2} ds to
    u^{n-2} du, so every dimension shares one smooth quadrature.  I
    vanishes identically beyond the support radius of f0.
    """
    if p.dim < 2:
        raise ValueError(
            "fractional_integral requires dim >= 2; dim = 1 reads I as f0 itself "
            "(handled by radial_ft_leray)"
        )
    pref = 2.0 / math.gamma((p.dim - 1) / 2.0)
    vals = pref * _smooth_substitution_integral(p, p.dim - 2, p.f0.values, n_u)
    # I(0) is the full tail integral, generally nonzero, so the samples
    # carry the vanishing tag (identically zero past the support radius)
    samples = SampledFunction(p.f0.grid, vals, DecayClass.VANISHING_AT_INFINITY)
    if p.dim <= 3:
        order = p.dim - 1  # first derivatives come out semi-analytically
    else:
        order = _differencing_order_budget(vals, p.f0.h, p.dim - 1)
    return FractionalIntegral(samples=samples, dim=p.dim, derivative_order_available=order)


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

    The quadrature noise on I is roughly eps * max|I|; k differencings
    amplify it by (1/h)^k, and the estimate is cut once that exceeds 1%
    of the derivative's own scale.
    """
    noise = 1e-13 * float(np.max(np.abs(vals))) if vals.size else 0.0
    order = 0
    for k in range(1, wanted + 1):
        cur = _iterated_even_gradients(vals, h, k)
        noise /= h
        scale = float(np.max(np.abs(cur)))
        if scale == 0.0 or noise > 0.01 * scale:
            break
        order = k
    return order


def _cosine_transform(tgrid: np.ndarray, h: float, vals: np.ndarray, radii: np.ndarray, phase: float = 0.0) -> np.ndarray:
    w = np.full(tgrid.size, h)
    w[0] = w[-1] = 0.5 * h
    out = np.empty(radii.size)
    for i, r in enumerate(radii):
        out[i] = float(np.sum(w * vals * np.cos(phase - r * tgrid)))
    return out


def _check_radii(radii) -> np.ndarray:
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        raise ValueError("need at least one radius")
    if np.any(radii <= 0.0):
        raise ValueError("radii must be positive")
    return radii


def radial_ft_leray(
    p: RadialProfile, radii, frac: FractionalIntegral | None = None
) -> np.ndarray:
    """Radial transform by the reduction formula 2 pi^{(n-1)/2} int I cos(rt) dt.

    For dim = 1 the reduction degenerates: I is read as f0 itself and the
    value is the transform of the even extension, 2 int_0^R f0 cos(rt) dt.
    """
    radii = _check_radii(radii)
    s, h = p.f0.x, p.f0.h
    if p.dim == 1:
        return 2.0 * _cosine_transform(s, h, p.f0.values, radii)
    if frac is None:
        frac = fractional_integral(p)
    pref = 2.0 * math.pi ** ((p.dim - 1) / 2.0)
    return pref * _cosine_transform(s, h, frac.samples.values, radii)


def _ibp_integrand(p: RadialProfile, frac: FractionalIntegral, n_u: int = 2049) -> np.ndarray:
    """I^{(n-1)} on the profile grid, by the least noisy route per dimension."""
    s = p.f0.x
    if p.dim == 2:
        # I'(t) = (2/sqrt(pi)) int f0'(sqrt(t^2+u^2)) * t/s du  (boundary term
        # vanishes on compact profiles), differentiated under the integral
        f0p = derivative(p.f0).values
        nz = np.flatnonzero(np.abs(p.f0.values) > 0.0)
        out = np.zeros(s.size)
        if nz.size == 0:
            return out
        Rs = float(s[nz[-1]])
        for i, t in enumerate(s):
            if t >= Rs:
                break
            U = math.sqrt(Rs * Rs - t * t)
            u = np.linspace(0.0, U, n_u)
            sq = np.sqrt(t * t + u * u)
            ratio = np.divide(t, sq, out=np.zeros_like(sq), where=sq > 0.0)
            out[i] = float(np.trapezoid(np.interp(sq, s, f0p) * ratio, u))
        return (2.0 / math.sqrt(math.pi)) * out
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
        cos_part = _cosine_transform(p.f0.x, p.f0.h, integrand, radii[big], phase=phase)
        out[big] = pref * radii[big] ** (1 - n) * cos_part
    return out


def radial_ft_oracle(p: RadialProfile, radii) -> np.ndarray:
    """Independent reference values through the Bessel representation

    fhat(r) = (2 pi)^{n/2} r^{1 - n/2} int_0^R f0(s) J_{n/2-1}(s r) s^{n/2} ds,

    quadratured directly on the profile grid.  Shares nothing with the
    reduction routes beyond the profile samples.
    """
    from scipy.special import jv  # only the oracle needs scipy; keeps start-up light

    radii = _check_radii(radii)
    s = p.f0.x
    w = np.full(s.size, p.f0.h)
    w[0] = w[-1] = 0.5 * p.f0.h
    n = p.dim
    nu = n / 2.0 - 1.0
    out = np.empty(radii.size)
    for i, r in enumerate(radii):
        kernel = jv(nu, s * r) * s ** (n / 2.0)
        out[i] = float((2.0 * math.pi) ** (n / 2.0) * r ** (1.0 - n / 2.0) * np.sum(w * p.f0.values * kernel))
    return out


def read_radial_csv(path: str | Path, dim: int) -> RadialProfile:
    """Load a radial profile from a two-column ``s,f0`` CSV (s from 0, equispaced)."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        if [c.strip().lower() for c in header] != ["s", "f0"]:
            raise ValueError(f"{path}: expected header 's,f0', got {header!r}")
        rows = [row for row in reader if row]
    try:
        data = np.array([[float(r[0]), float(r[1])] for r in rows])
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{path}: malformed data row ({exc})") from None
    if data.shape[0] < 3:
        raise ValueError(f"{path}: need at least three samples")
    s, vals = data[:, 0], data[:, 1]
    ds = np.diff(s)
    if np.any(ds <= 0):
        raise ValueError(f"{path}: s must be strictly increasing")
    h = (s[-1] - s[0]) / (s.size - 1)
    if np.max(np.abs(ds - h)) > 1e-9 * h:
        raise ValueError(f"{path}: s must be equispaced (relative tolerance 1e-9)")
    grid = Grid(float(s[0]), float(s[-1]), int(s.size))
    # the left endpoint is the radial center; only profiles vanishing
    # there as well qualify as compactly supported window functions
    decay = DecayClass.COMPACT_SUPPORT if vals[0] == 0.0 and vals[-1] == 0.0 else DecayClass.VANISHING_AT_INFINITY
    return RadialProfile(SampledFunction(grid, vals, decay), int(dim))
