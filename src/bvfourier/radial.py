"""Radial Fourier transforms through Leray's fractional-integral reduction.

For a radial function f(x) = f0(|x|) on R^n the transform reduces to a
one-dimensional cosine transform

    fhat(x) = 2 pi^{(n-1)/2} int_0^inf I(t) cos(|x| t) dt,

of the fractional integral

    I(t) = (2 / Gamma((n-1)/2)) int_t^inf s f0(s) (s^2 - t^2)^{(n-3)/2} ds.

The profile f0 is read as linear between its samples and cut off at
its last nonzero sample Rs, and I is integrated exactly on that
profile in closed form: odd dimensions by the recurrence
I_n(t) = 2 int_t^Rs tau I_{n-2}(tau) dtau from I_1 = f0, cell by cell,
even ones by one term per slope change.  No quadrature parameter enters.
Three routes, none handing a radius to another, are cross-checked: the direct
reduction above, an exact walk up in the dimension from dim 1 or 2 (integration
by parts at dim 2 itself), and an independent Bessel-quadrature oracle, sharing
only the profile samples and their support grid, :attr:`RadialProfile.support`.
Profiles must be compactly supported on [0, R] (or negligible at R); infinite
upper limits truncate there.  Each route is linear in the profile and runs at
unit scale (:func:`hilbert._at_unit_scale`: leray on I, ibp on f0 with the dim-2
I' or the walk's base, the oracle on f0), so a profile times 2^k gives answers
times 2^k exactly while values stay normal, and a value past the float64 range
is refused in one line naming its radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .fourier import transform_values
from .grids import DecayClass, Grid, SampledFunction, _read_uniform_csv, trapezoid_weights
from .hilbert import _at_unit_scale

__all__ = [
    "RadialProfile",
    "RadiiRefused",
    "FractionalIntegral",
    "leray_condition",
    "fractional_integral",
    "radial_ft_leray",
    "radial_ft_ibp",
    "radial_ft_oracle",
    "read_radial_csv",
]

_TAIL_TOL = 1e-10
_WALK_SHARE = 1e-6  # the walk answers where its rounding bound is at most this share of ||f||_1
_SUB_BLOCK = 2**14  # float64 elements per temporary array; blocked passes keep up to eight live
_LEAF = 32  # finest index box width of the even-dimension kink sum
_MILLER_TOL = 1e-16  # bound on the relative error of Miller's recurrence at its start order
# largest dimension whose prefactors Gamma((n-1)/2), pi^{(n-1)/2}, (2 pi)^{n/2}
# and the oracle series' Gamma(nu + 1) = Gamma(n/2) are all finite in float64:
# Gamma(n/2) overflows first, at n = 344 (Gamma(172) > 1.8e308)
_MAX_DIM = 343


@dataclass(frozen=True)
class RadialProfile:
    """1-D profile f0 on [0, R] plus the ambient dimension."""

    f0: SampledFunction
    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError(f"dimension must be an integer >= 1, got {self.dim!r}")
        if self.dim > _MAX_DIM:
            raise ValueError(
                f"dimension must be at most {_MAX_DIM}, got {self.dim}: Gamma(n/2) overflows float64 beyond it"
            )
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

    @cached_property
    def support(self) -> Grid:
        """[0, Rs] on samples 0 .. J, the trapezoid grid of every route (samples 0 .. 1 if J = 0)."""
        J = max(self.support_index, 1)
        return Grid(0.0, float(self.f0.x[J]), J + 1)

    @cached_property
    def frac_integral(self) -> FractionalIntegral:
        """The Leray fractional integral I of :func:`fractional_integral`, computed once."""
        return fractional_integral(self)


@dataclass(frozen=True)
class FractionalIntegral:
    """I(t) sampled on the profile grid.

    ``slope`` holds I' from the same closed form for dim 2 (None
    otherwise).  Where f0 jumps to zero at its cut-off Rs, I' has an
    integrable (Rs - t)^{-1/2} end; its sample at Rs is left at 0.
    """

    samples: SampledFunction
    slope: np.ndarray | None = None


class RadiiRefused(ValueError):
    """A route's refusal at some of its radii, named in the message; ``values`` holds its
    answers at the others, NaN where it refused."""

    def __init__(self, message: str, values: np.ndarray):
        super().__init__(message)
        self.values = values


def leray_condition(p: RadialProfile) -> float:
    """Truncated integral int_0^Rs |f0(t)| t^{n-1} / (1+t)^{(n-1)/2} dt.

    The trapezoid runs on :attr:`RadialProfile.support`, as every route's does.
    Finiteness is the hypothesis under which the reduction formula
    holds; on a truncated profile the value is always finite and is
    reported so callers can judge the size.
    """
    s = p.support.points
    e = (p.dim - 1) / 2.0
    integrand = np.abs(p.f0.values[: s.size]) * s ** (p.dim - 1) / (1.0 + s) ** e
    return float(np.sum(trapezoid_weights(p.support) * integrand))


def _tail_sums(w: np.ndarray) -> np.ndarray:
    """Entry i is sum_{j >= i} w_j, the sum from the last entry down.

    Each rounding error of the sequential sum is recovered exactly by
    TwoSum and their own sum added back, which makes the result about as
    accurate as a sum in twice the working precision (Ogita, Rump & Oishi,
    Accurate sum and dot product, SIAM J. Sci. Comput. 26, 2005).
    """
    w = w[::-1]
    acc = np.cumsum(w)
    prev, late = acc[:-1], acc[1:] - acc[:-1]
    err = (prev - (acc[1:] - late)) + (w[1:] - late)  # acc[1:] + err = prev + w[1:] exactly
    acc[1:] += np.cumsum(err)
    return acc[::-1]


def _odd_recurrence(s: np.ndarray, f: np.ndarray, h: float, n: int) -> np.ndarray:
    """I_n at s_0, ..., s_{J-1} for odd n >= 3, from f0's samples f_0, ..., f_J.

    I_n(t) = 2 int_t^{Rs} tau I_{n-2}(tau) dtau from I_1 = f0, the
    semigroup property of Riemann-Liouville integrals in t^2 (Samko,
    Kilbas & Marichev, Fractional Integrals and Derivatives, 1993).  On
    each cell [s_i, s_{i+1}], I_{n-2} is a polynomial c in
    w = (s_{i+1} - tau)/h, starting from the linear f0.  A step multiplies
    it by tau = s_{i+1} - h w, integrates it from the cell's right end,
    h int_0^w, sums the whole cells from Rs down, and sets I_n to twice the
    tail past the cell plus that partial integral.  Anchored at the right
    end, every cell integrates in the tail's own direction.  A step costs
    O(J n) for J cells, so the whole pass O(J n^2).
    """
    c, x = np.stack((f[1:], -np.diff(f))), s[1:]  # row k holds the w^k coefficients
    for _ in range((n - 1) // 2):
        d = c.shape[0]
        part = np.empty((d + 2, x.size))
        np.multiply(c, x, out=part[1 : d + 1])
        c *= h
        part[2 : d + 1] -= c[:-1]
        np.negative(c[-1], out=part[d + 1])
        part[1:] *= (2.0 * h / np.arange(1.0, d + 2.0))[:, None]
        tail = _tail_sums(part[1:].sum(axis=0))  # I_n(s_i) = 2 int_{s_i}^{Rs} tau I_{n-2}
        part[0, :-1], part[0, -1] = tail[1:], 0.0
        c = part
    return tail


def _even_kernel(x, y, u, theta, n: int):
    """A kink at y's share of row x, (y u^{n-1} / (n-1) - x^2 G_{(n-3)/2}) / n (see _kink_sum_even)."""
    g, up = theta, u
    for k in range(n // 2 - 1):
        g = (y * up - (2 * k + 1) * (x * x) * g) / (2 * k + 2)
        up = up * (u * u)
    return (y * up / (n - 1) - x * x * g) / n


def _cheb_points(n: int) -> int:
    """Chebyshev points P per box of the two-sided far-field interpolant in dimension n.

    A row box takes a column box in far field only if at least one box
    width separates them.  The far field replaces the kernel f(x, y) by
    its tensor interpolant I_x I_y f on the two boxes' Chebyshev nodes,
    and f - I_x I_y f = (f - I_x f) + I_x (f - I_y f).  Each term
    interpolates in one variable with the other held at a real point of
    its box, so only that one variable leaves the real axis: the branch
    points y = +-x then lie at least one box width beyond the box, outside
    its Bernstein ellipse E_rho, rho = 3 + 2 sqrt 2 (on the row side once
    -ln x, the kernel's only other singularity, is split off; see
    _kink_sum_even).  On E_rho, |y - x| and |y + x| exceed their values at
    the box's far end by at most 3/2, which bounds the kernel there by
    M = n 1.5^n times its largest value on the box (measured on both
    sides: at most 3.6 at n = 2 and 13 at n = 8).  Interpolation of degree
    P - 1 errs by at most E = 4 M rho^{1-P} / (rho - 1) (Trefethen,
    Approximation Theory and Approximation Practice, Thm 8.2), and I_x
    amplifies by at most the Lebesgue constant 1 + (2/pi) ln P of P
    first-kind Chebyshev nodes (Rivlin, An Introduction to the
    Approximation of Functions, 1969).  P is the least with
    (2 + (2/pi) ln P) E at most eps: 23 for n = 2, 26 for n = 8.
    """
    rho, m, eps = 3.0 + 2.0 * math.sqrt(2.0), n * 1.5**n, np.finfo(float).eps
    P = 2
    while (2.0 + 2.0 / math.pi * math.log(P)) * 4.0 * m * rho ** (1 - P) / (rho - 1.0) > eps:
        P += 1
    return P


def _cheb_basis(t: np.ndarray, P: int) -> np.ndarray:
    """Lagrange basis of the P first-kind Chebyshev nodes at t in [-1, 1], one row per t.

    Barycentric form l_m(t) = (w_m / (t - nu_m)) / sum_k w_k / (t - nu_k)
    with w_k = (-1)^k sin((2k + 1) pi / (2P)) (Berrut & Trefethen,
    Barycentric Lagrange interpolation, SIAM Rev. 46, 2004), forward
    stable on these nodes (Higham, IMA J. Numer. Anal. 24, 2004); a t on
    a node takes that node's unit row.
    """
    angle = (2 * np.arange(P) + 1) * math.pi / (2 * P)
    d = np.asarray(t, dtype=float)[:, None] - np.cos(angle)
    hit = d == 0.0
    q = np.where(hit, 1.0, (-1.0) ** np.arange(P) * np.sin(angle) / np.where(hit, 1.0, d))
    on_node = hit.any(axis=1)
    q[on_node] = hit[on_node]
    return q / q.sum(axis=1, keepdims=True)


def _kink_sum_even(a: np.ndarray, h: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_{j > i} a_j int_{t_i}^{s_j} (s_j - s) s (s^2 - t_i^2)^{(n-3)/2} ds for even n, and its t-derivative.

    Lengths are in units of L, the last kink's radius: t = x L, R = y L,
    u = sqrt(y^2 - x^2).  Then G_q = int_x^y (s^2 - x^2)^q ds obeys
    G_{-1/2} = theta = asinh(u/x) and
    G_q = (y u^{2q} - 2q x^2 G_{q-1}) / (2q + 1), and a kink at R adds

        L^n (y u^{n-1} / (n-1) - x^2 G_{(n-3)/2}) / n,

    which vanishes for R <= t; for n = 2 its t-derivative is -t theta.

    Rows and kinks share dyadic index boxes, _LEAF nodes wide at the
    finest level.  A row takes the kinks of its own leaf box and the
    next one directly, with u from exact integer node indices.  At each
    level a row box p takes the column boxes p + 2 and, for even p, p + 3
    (its parent's neighbours not yet taken) in far field, through one
    P x P kernel matrix between the two boxes' Chebyshev nodes
    (:func:`_cheb_points`): the column side through the kinks' moments
    against the box's Lagrange basis, the row side through that basis at
    the rows.  The kernel is linear in theta = ln(y + u) - ln x, and the
    -ln x part multiplies a polynomial in x^2 alone.  So the far field
    interpolates the kernel with ln(y + u) for theta, analytic in x on the
    row box's ellipse (box 0's t = 0 row included), and each row adds the
    -ln x part once, times the sum of its far kinks.  Each level's moments
    are taken straight from the kinks, not re-interpolated from the level
    below, so no rounding accumulates across levels.  Column boxes without
    kinks, and near-field blocks without any, are skipped.  The whole sum
    costs O(N log N) for N rows, O(N) kernel entries per level.  Besides
    O(N) index and moment arrays, no temporary array exceeds _SUB_BLOCK
    elements.
    """
    rows_total = a.size - 1
    out, slope = np.zeros(rows_total), np.zeros(rows_total)
    cols = np.flatnonzero(a)
    if cols.size == 0:
        return out, slope
    last = int(cols[-1])  # no row at or past the last kink gets a share
    inv, w, P = 1.0 / last, _LEAF, _cheb_points(n)
    boxes = 1 << max(0, math.ceil(math.log2((last + 1) / w)))
    ap = np.zeros((boxes + 1) * w)
    ap[: last + 1] = a[: last + 1]
    row_boxes = -(-last // w)
    near, dnear = np.zeros((row_boxes, w)), np.zeros((row_boxes, w))
    # near field: leaf box b's rows against the 2w kinks of boxes b and b + 1
    span = np.arange(2 * w)
    windows = np.lib.stride_tricks.sliding_window_view(ap, 2 * w)[::w]
    live = np.flatnonzero(windows[:row_boxes].any(axis=1))
    per = max(1, _SUB_BLOCK // (2 * w * w))
    for i0 in range(0, live.size, per):
        b = live[i0 : i0 + per]
        ri = (b[:, None] * w + np.arange(w)).astype(float)[:, :, None]
        cj = (b[:, None] * w + span).astype(float)[:, None, :]
        u = cj * cj - ri * ri  # j^2 - i^2, exact in floating point
        np.maximum(u, 0.0, out=u)
        np.sqrt(u, out=u)
        theta = np.arcsinh(u / np.where(ri > 0.0, ri, np.inf))  # the t = 0 row has theta = 0
        u *= inv
        kern = _even_kernel(ri * inv, cj * inv, u, theta, n)
        aw = windows[b]
        near[b] = np.einsum("bij,bj->bi", kern, aw)
        if n == 2:
            dnear[b] = -ri[:, :, 0] * inv * np.einsum("bij,bj->bi", theta, aw)
    # far field, level by level: kernel matrices between the Chebyshev nodes of a
    # row box and a column box, theta replaced by ln(y + u) = theta + ln x
    nodes = np.cos((2 * np.arange(P) + 1) * math.pi / (2 * P))
    far, dfar = np.zeros(boxes * w), np.zeros(boxes * w)
    width, count = w, boxes
    step = max(1, _SUB_BLOCK // (P * P))
    while count > 2:
        pos = width / 2.0 - 0.5 + width / 2.0 * nodes  # nodes within a box, in index units
        # the Lagrange basis at the rows' and kinks' offsets in a box, in slices of at
        # most _SUB_BLOCK entries: moments straight from the kinks, values at the rows
        spots = [slice(j, j + _SUB_BLOCK // P) for j in range(0, width, _SUB_BLOCK // P)]
        offsets = (2 * np.arange(width) + 1 - width) / width
        cells = ap[: boxes * w].reshape(count, width)
        mom, kinked = sum(cells[:, j] @ _cheb_basis(offsets[j], P) for j in spots), cells.any(axis=1)
        local, dlocal = np.zeros((count, P)), np.zeros((count, P))
        for d in (2, 3):
            p = np.arange(0, count - d, d - 1)  # p + 3 is taken by even p only
            p = p[kinked[p + d] & (p * width < last)]
            for i0 in range(0, p.size, step):
                pb = p[i0 : i0 + step]
                x = ((pb * width)[:, None, None] + pos[:, None]) * inv
                y = (((pb + d) * width)[:, None, None] + pos) * inv
                u = np.sqrt((y - x) * (y + x))
                theta = np.log(y + u)
                m = mom[pb + d]
                local[pb] += np.einsum("bij,bj->bi", _even_kernel(x, y, u, theta, n), m)
                if n == 2:
                    dlocal[pb] += np.einsum("bij,bj->bi", theta, m)
        for j in spots:
            basis = _cheb_basis(offsets[j], P).T
            far.reshape(count, width)[:, j] += local @ basis
            if n == 2:
                dfar.reshape(count, width)[:, j] += dlocal @ basis
        width, count = 2 * width, count // 2
    # the kernel is linear in theta: add the -ln x part, times the sum of the
    # row's far kinks, those from its leaf box + 2 on
    r = np.arange(last)
    x = r * inv
    beyond = _tail_sums(ap)[np.minimum((r // w + 2) * w, ap.size - 1)]  # ap ends in w zeros
    neg_ln = -np.log(np.where(r > 0, x, 1.0)) * beyond  # x^n ln x -> 0 at the t = 0 row
    out[:last] = near.ravel()[:last] + far[:last] + _even_kernel(x, 0.0, 0.0, neg_ln, n)
    if n == 2:
        slope[:last] = dnear.ravel()[:last] - x * (dfar[:last] + neg_ln)
    L = np.float64(h * last)  # L^n reads inf, not an OverflowError, past the float64 range
    return L**n * out, L * slope


def fractional_integral(p: RadialProfile) -> FractionalIntegral:
    """Leray fractional integral I on the profile grid.

    Dimension 1 is the base case of the recurrence I_n' = -2 t I_{n-2}:
    I_1 is f0 itself.  Above it, f0 is read as linear between samples and
    cut off at its last nonzero sample Rs, and I is integrated exactly on
    that profile, on f0 scaled by a power of two to a maximum in [1, 2) and
    scaled back (as :func:`hilbert._at_unit_scale` runs the routes), so I is
    exactly linear in a power-of-two amplitude wherever its values stay
    normal.  Odd n runs the recurrence up from I_1, cell by cell in
    closed form (:func:`_odd_recurrence`).  Even n writes, on [0, Rs],

        f0(s) = f0(Rs) + sum_j a_j (s_j - s)_+,

    with a_j the slope change at node s_j, so I is f0(Rs) times the
    ball's closed form 2 (Rs^2 - t^2)^{(n-1)/2} / ((n-1) Gamma((n-1)/2))
    plus one sqrt-and-log term per kink (:func:`_kink_sum_even`).  I
    vanishes identically from Rs on.  A profile on which either branch
    passes the float64 range is refused.
    """
    if p.dim == 1:
        return FractionalIntegral(p.f0)
    n, s, J = p.dim, p.f0.x, p.support_index
    e = math.frexp(float(np.max(np.abs(p.f0.values))))[1] - 1  # f0's maximum is in [2^e, 2^(e+1))
    f = np.ldexp(p.f0.values, -e)
    vals, slope = np.zeros(s.size), np.zeros(s.size)
    with np.errstate(over="ignore", invalid="ignore"):
        if J > 0 and n % 2:
            vals[:J] = np.ldexp(_odd_recurrence(s[: J + 1], f[: J + 1], p.f0.h, n), e)
        elif J > 0:
            # lengths in units of 2^c, c the exponent of Rs, and pref = mp 2^ep: every
            # factor moves by a power of two, so I comes back finite where it is representable
            c = math.frexp(s[J])[1]
            h, t, rs = math.ldexp(p.f0.h, -c), np.ldexp(s[:J], -c), math.ldexp(s[J], -c)
            a = np.zeros(J + 1)
            a[1:] = np.diff(np.diff(f[: J + 1]) / h, append=0.0)
            d = (rs - t) * (rs + t)
            kinks, dkinks = _kink_sum_even(a, h, n)
            pref = 2.0 / math.gamma((n - 1) / 2.0)
            mp, ep = math.frexp(pref)
            vals[:J] = np.ldexp(mp * (f[J] * d ** ((n - 1) / 2.0) / (n - 1) + kinks), ep + c * (n - 1) + e)
            # read at dim 2 only, where I' is free of the length scale
            slope[:J] = np.ldexp(pref * (-f[J] * t / np.sqrt(d) + dkinks), e)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"dimension {n}: I overflows float64 on this profile")
    # I(0) is the full tail integral, generally nonzero, so the samples
    # carry the vanishing tag (identically zero past the support radius)
    samples = SampledFunction(p.f0.grid, vals, DecayClass.VANISHING_AT_INFINITY)
    return FractionalIntegral(samples, slope if n == 2 else None)


def _check_radii(radii) -> np.ndarray:
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        raise ValueError("need at least one radius")
    if not np.all(np.isfinite(radii) & (radii > 0.0)):
        raise ValueError("radii must be finite and positive")
    return radii


def radial_ft_leray(p: RadialProfile, radii) -> np.ndarray:
    """Radial transform by the reduction formula 2 pi^{(n-1)/2} int I cos(rt) dt.

    At dim = 1, I is f0 itself and the value is the transform of the even
    extension, 2 int_0^Rs f0 cos(rt) dt.  The cosine sums are the real part
    of :func:`fourier.transform_values` on :attr:`RadialProfile.support`.
    """
    radii = _check_radii(radii)
    pref = 2.0 * math.pi ** ((p.dim - 1) / 2.0)

    def route(vals):
        return pref * transform_values(SampledFunction(p.support, vals, DecayClass.BOUNDED), radii).real

    return _at_unit_scale("radial_ft_leray", p.frac_integral.samples.values[: p.support.n], route, radii)


def _with_jump_end(p: RadialProfile, slope: np.ndarray, f0: np.ndarray) -> np.ndarray:
    """Dim-2 I' with its jump end integrated over the last cell.

    A jump of the samples f0 at their cut-off Rs gives I' the term
    c f0(Rs) g(t), g = -t / sqrt(Rs^2 - t^2), c = 2/sqrt(pi), which is
    infinite at Rs.  On the last cell [a, Rs] the trapezoid sum is
    replaced by the exact integrals P of g against the two linear hat
    functions, so the trigonometric factor the caller applies is
    integrated against g in product form; the samples elsewhere stand.
    """
    J = p.support_index
    if J == 0:
        return slope
    h, fJ, R, a = p.f0.h, f0[J], p.f0.x[J], p.f0.x[J - 1]
    wa = math.sqrt((R - a) * (R + a))
    phi = math.atan2(wa, a)  # arccos(a/R), accurate near a = R
    # int_a^R g = -wa and int_a^R t g = -(a wa + R^2 phi)/2
    p_end = -(R * R * phi - a * wa) / (2.0 * h)
    p_prev = -wa - p_end
    c = 2.0 / math.sqrt(math.pi) * fJ
    w = trapezoid_weights(p.support)
    out = slope.copy()
    out[J - 1] += c * (p_prev + 0.5 * h * a / wa) / w[J - 1]
    out[J] = c * p_end / w[J]
    return out


def _walk(p: RadialProfile, radii: np.ndarray) -> np.ndarray:
    """F_n at radii for n != 2, walked up k = (n - n0)/2 steps from n0 = 1 (odd n) or 2 (even n).

    F_{n+2} = -(2 pi / r) dF_n/dr (DLMF 10.6.6 on F's Bessel form, Stein & Weiss,
    Introduction to Fourier Analysis on Euclidean Spaces, ch. IV), so with D = (1/r) d/dr,
    F_{n0+2k} = (-2 pi)^k D^k F_{n0} and D^k = sum_j a_{k,j} r^{j-2k} d^j/dr^j, where
    a_{k+1,j} = (j - 2k) a_{k,j} + a_{k,j-1} (integers, kept exact: they pass the float64
    range at k = 152).  The bases 2 sum w f0 cos(rt) and 2 sqrt(pi) sum w I_2 cos(rt) are
    trapezoid sums on :attr:`RadialProfile.support` with exact r-derivatives, so with
    u = t/Rs, x = r Rs, g = f0 or I_2 and P = (2 pi)^k 2 pi^{(n0-1)/2} Rs^{2k},

        F_n(r) = (-1)^k P sum_j a_{k,j} x^{j-2k} Re[(-i)^j sum w g u^j e^{-irt}],

    the inner sums from :func:`fourier.transform_values`, j over the nonzero a_{k,j} (1 .. k,
    or 0 alone at dim 1, where k = 0).  P is formed in logs and a_{k,j} x^{j-2k} as a float
    times a power of two.  Each term takes at most five roundings, so the sum errs by at
    most (J + k + 4) eps sum|terms| (Higham, Accuracy and Stability of Numerical Algorithms,
    sec. 4.2); a radius is refused where that exceeds _WALK_SHARE of
    ||f||_1 = |S^{n-1}| int |f0| s^{n-1} ds >= |F|.  The sums run over the
    answered radii alone, and :class:`RadiiRefused` names every refused one.
    """
    n, J = p.dim, p.support_index
    if J == 0:
        return np.zeros(radii.size)  # the profile cut at Rs = 0 is zero
    k, n0 = (n - 1) // 2, 2 - n % 2
    grid = p.support
    Rs, w, u = grid.b, trapezoid_weights(grid), grid.points / grid.b
    a = [1]
    for m in range(k):
        a = [(i - 2 * m) * (a[i] if i <= m else 0) + (a[i - 1] if i else 0) for i in range(m + 2)]
    j = np.flatnonzero(a)  # j = 0 at dim 1 alone: a_{k,0} = 0 for k >= 1
    e_a = np.array([abs(a[i]).bit_length() for i in j])
    m_a = np.array([a[i] / (1 << int(e)) for i, e in zip(j, e_a)])  # int / int rounds correctly
    mx, ex = np.frexp(radii * Rs)
    expo = e_a + ex[:, None] * (j - 2 * k)  # a_{k,j} x^{j-2k} = m_a mx^{j-2k} 2^expo
    top = expo.max(axis=1)
    coef = np.ldexp(m_a * mx[:, None] ** (j - 2 * k), expo - top[:, None])
    log_pref = k * math.log2(2.0 * math.pi) + 1.0 + (n0 - 1) / 2.0 * math.log2(math.pi) + 2 * k * math.log2(Rs)
    log_sphere = 1.0 + n / 2.0 * math.log2(math.pi) - math.lgamma(n / 2.0) / math.log(2.0) + (n - 1) * math.log2(Rs)
    pe, frac = divmod(log_pref, 1.0)  # base-2 logs of P and of |S^{n-1}| Rs^{n-1}
    base = p.f0.values if n0 == 1 else fractional_integral(RadialProfile(p.f0, 2)).samples.values
    refused = np.zeros(radii.size, dtype=bool)

    def route(arrays):
        g, f0 = arrays
        bound = (J + k + 4) * np.finfo(float).eps * (np.abs(coef) @ [np.sum(w * np.abs(g) * u**i) for i in j])
        with np.errstate(divide="ignore"):  # a zero bound or mass reads -inf
            over = np.log2(bound) + log_pref + top - np.log2(np.sum(w * np.abs(f0) * u ** (n - 1))) - log_sphere
        refused[:] = over > math.log2(_WALK_SHARE)
        ok, phase = ~refused, (1, -1j, -1, 1j)  # (-i)^j: Re[(-i)^j T] is +-Re T or +-Im T exactly
        sums = [
            transform_values(SampledFunction(grid, g * u**i, DecayClass.BOUNDED), radii[ok]) * phase[i % 4] for i in j
        ]
        terms = np.sum(coef[ok] * np.stack(sums, axis=1).real, axis=1)
        out = np.zeros(radii.size)  # a refused radius reads 0 until the caller marks it
        out[ok] = np.ldexp((-1.0) ** k * 2.0**frac * terms, top[ok] + int(pe))
        return out

    values = _at_unit_scale("radial_ft_ibp", (base[: J + 1], p.f0.values[: J + 1]), route, radii)
    if refused.any():
        values[refused] = np.nan
        named = ", ".join(repr(float(r)) for r in radii[refused])
        share = f"{_WALK_SHARE:g} ||f||_1"
        raise RadiiRefused(f"radial_ft_ibp: at r = {named} the walk's rounding bound exceeds {share}", values)
    return values


def radial_ft_ibp(p: RadialProfile, radii) -> np.ndarray:
    """Radial transform by a route that shares no cosine sum of I_n with leray's.

    Dim 2 integrates the reduction by parts once, fhat(x) = -2 sqrt(pi) |x|^{-1}
    int_0^inf I'(t) sin(|x| t) dt, with I' in closed form and its jump end
    integrated over the last cell (:func:`_with_jump_end`).  Every other dimension
    walks up from dim 1 or 2 (:func:`_walk`, whose base at dim 1 is the answer),
    reading neither I_n nor any Bessel function, and refuses the radii where its
    rounding bound is too large (:class:`RadiiRefused`, which carries the answers
    at the others); no radius is handed to another route.
    """
    radii = _check_radii(radii)
    if p.dim != 2:
        return _walk(p, radii)

    def route(arrays):  # f0 and I' scaled together
        last = _with_jump_end(p, arrays[1], arrays[0])
        ft = transform_values(SampledFunction(p.support, last[: p.support.n], DecayClass.BOUNDED), radii)
        # Im = -sum w I' sin(rt); this product order sets the values' last bit
        return 2.0 * math.pi**0.5 * radii**-1 * ft.imag

    return _at_unit_scale("radial_ft_ibp", (p.f0.values, p.frac_integral.slope), route, radii)


def _jv_series(nu: float, x: np.ndarray, terms: int) -> np.ndarray:
    """sum_{l < terms} (-1)^l (x/2)^{2l+nu} / (l! Gamma(l+nu+1)), the power series of J_nu."""
    half = 0.5 * x
    term = half**nu / math.gamma(nu + 1.0)
    acc = term.copy()
    for l in range(1, terms):
        term = term * (-half * half) / (l * (l + nu))
        acc += term
    return acc


def _half_integer_jv(k: int, x: np.ndarray) -> np.ndarray:
    """J_{k+1/2}(x) for integer k >= -1 and x >= 0, in elementary functions.

    J_{k+1/2}(x) = sqrt(2x/pi) j_k(x), with j_{-1} = cos(x)/x,
    j_0 = sin(x)/x and j_{l+1} = (2l+1)/x j_l - j_{l-1}.  The upward
    recurrence loses digits for x below about k, so there the power
    series is summed.
    """
    out = np.empty_like(x)
    small = x < k + 2.0
    out[small] = _jv_series(k + 0.5, x[small], 25 + 2 * k)
    xb = x[~small]
    j_prev, j = np.cos(xb) / xb, np.sin(xb) / xb
    for l in range(k):
        j_prev, j = j, (2 * l + 1) / xb * j - j_prev
    out[~small] = np.sqrt(2.0 * xb / math.pi) * (j_prev if k < 0 else j)
    return out


def _miller_start(k: int, xmax: float) -> int:
    """Even start order top of :func:`_miller_jv` for J_k on arguments up to xmax.

    Started from J_top = 1, J_{top+1} = 0, the recurrence yields multiples
    of J_m - e Y_m, e = J_N / Y_N with N = top + 1, so the normalised J_k
    has relative error e Y_k / J_k - e S, S = Y_0 + 2 sum_m Y_{2m}.  Past
    the turning point |Y_m| grows with m, so |e S| is about 2 |J_N| <=
    2 |J_top|, and |J_m(x)| <= (x/2)^m / m! (DLMF 10.14.4).  The solution
    p of the same recurrence run upward from p_k = 0, p_{k+1} = 1 is
    p_m = (pi x / 2)(Y_k J_m - J_k Y_m) by the Casoratian
    J_{m+1} Y_m - J_m Y_{m+1} = 2 / (pi x), which gives
    e Y_k / J_k = (pi x / 2) J_k Y_k / (p_N p_{N+1}) to first order (Olver
    & Sookne, Note on backward recurrence algorithms, Math. Comp. 26,
    1972), with (pi x / 2) |J_k Y_k| below 1 + k (Debye's forms give about
    x / (2 sqrt(k^2 - x^2)) below the turning point, k^{1/3} / 2 at it and
    1/2 past it).  For N > x both terms grow with x, so they are taken at
    xmax: top is the least even order >= k + 2 with (xmax/2)^top / top!
    and (1 + k) / |p_{top+1} p_{top+2}| both at most _MILLER_TOL.  Past the
    turning point J_{x+d}(x) is about (2/x)^{1/3} Ai((2/x)^{1/3} d) (DLMF
    10.19.8), below _MILLER_TOL once d >= 12 x^{1/3}; that order, at least
    xmax + k + 40, is taken where it is the smaller.
    """
    airy = 2 * math.ceil((xmax + max(k + 40.0, 12.0 * xmax ** (1.0 / 3.0))) / 2.0)
    log_tol = math.log(_MILLER_TOL)
    m, p, p_next = k + 1, 1.0, 2.0 * (k + 1) / xmax  # p_m and p_{m+1}
    for top in range(k + 2 + k % 2, airy, 2):
        while m <= top:
            m, p, p_next = m + 1, p_next, 2.0 * (m + 1) / xmax * p_next - p
        if top * math.log(xmax / 2.0) - math.lgamma(top + 1.0) <= log_tol and 1.0 + k <= _MILLER_TOL * abs(p * p_next):
            return top
    return airy


def _miller_jv(k: int, x: np.ndarray) -> np.ndarray:
    """J_k(x), x >= 1, by Miller's backward recurrence (DLMF 10.74(iv)).

    J_{m-1} = (2m/x) J_m - J_{m+1} runs down from an even start order
    top, that of :func:`_miller_start` at the upper end of x's octave
    [2^(e-1), 2^e) (or at 25 + k^2, if lower), which bounds its relative
    error, and is normalised by J_0 + 2 sum_m J_{2m} = 1.  An entry's J
    waits at exact zeros until the pass reaches its own start, so its bits
    depend on its x alone.  Started from J_top = 1, J_{top+1} = 0,
    every entry is at most prod_{m <= top} (1 + 2m / min x) (the running
    maximum grows by at most that factor per step); only where that bound
    passes 1e200 are entries past 1e200 rescaled on the way down.
    """
    xmin = float(np.min(x))
    octave = np.frexp(x)[1]  # x in [2^(e-1), 2^e)
    starts: dict[int, list[int]] = {}  # start order -> the octaves that start there
    for e in range(math.frexp(xmin)[1], math.frexp(float(np.max(x)))[1] + 1):
        starts.setdefault(_miller_start(k, min(2.0**e, 25.0 + k * k)), []).append(e)
    top = max(starts)
    growth = float(np.sum(np.log1p(2.0 * np.arange(1, top + 1) / xmin)))
    rescale = growth > 200.0 * math.log(10.0)
    two_over_x = 2.0 / x
    j_next, j, tmp = np.zeros_like(x), np.zeros_like(x), np.empty_like(x)
    norm, jk = np.full_like(x, 2.0), np.zeros_like(x)  # norm adds exact zeros until its entry starts
    for m in range(top, 0, -1):
        for e in starts.get(m, ()):
            np.copyto(j, 1.0, where=octave == e)
        np.multiply(j, two_over_x, out=tmp)
        tmp *= m
        tmp -= j_next
        j_next, j, tmp = j, tmp, j_next  # j is now J_{m-1}
        if m - 1 == k:
            jk[:] = j
        if m % 2 == 1:
            norm += j
            if m > 1:
                norm += j
        if rescale:
            big = np.abs(j, out=tmp) > 1e200
            if big.any():
                for arr in (j, j_next, norm, jk):
                    arr[big] *= 1e-200
    return jk / norm


def _hankel_jv(k: int, x: np.ndarray) -> np.ndarray:
    """J_k(x) for x >= 25 + k^2 by Hankel's expansion (DLMF 10.17.3).

    J_k = sqrt(2/(pi x)) (P cos w - Q sin w), w = x - k pi/2 - pi/4, with
    P and Q the even and odd terms a_j(k)/x^j of alternating sign pairs.
    Above 25 + k^2 the terms fall below 2^-60 well before the series
    turns to diverge; cos w and sin w come from cos x and sin x, so no
    rounded multiple of pi enters the argument.
    """
    mu = 4.0 * k * k
    p, q, term = np.ones_like(x), np.zeros_like(x), np.ones_like(x)
    inv8x = 0.125 / x
    j = 0
    while float(np.max(np.abs(term))) > 2.0**-60:
        j += 1
        term = term * ((mu - (2 * j - 1) ** 2) / j) * inv8x
        sign = -1.0 if (j // 2) % 2 else 1.0
        if j % 2:
            q += sign * term
        else:
            p += sign * term
    c, s = np.cos(x), np.sin(x)
    cw, sw = (c + s) / math.sqrt(2.0), (s - c) / math.sqrt(2.0)  # cos and sin of x - pi/4
    for _ in range(k % 4):
        cw, sw = sw, -cw  # subtract pi/2 from the angle
    return np.sqrt(2.0 / (math.pi * x)) * (p * cw - q * sw)


def _integer_jv(k: int, x: np.ndarray) -> np.ndarray:
    """J_k(x) for integer k >= 0 and x >= 0.

    The power series below x = 1 (ten terms: the eleventh is below
    1e-19 of the first), Miller's backward recurrence up to x = 25 + k^2
    and Hankel's expansion beyond.  Against scipy's jv on [0, 200] the
    absolute error stays below 1e-14 for k <= 10 and k = 39.
    """
    out = np.empty_like(x)
    small, big = x < 1.0, x >= 25.0 + k * k
    mid = ~(small | big)
    out[small] = _jv_series(k, x[small], 10)
    if mid.any():
        out[mid] = _miller_jv(k, x[mid])
    if big.any():
        out[big] = _hankel_jv(k, x[big])
    return out


def radial_ft_oracle(p: RadialProfile, radii) -> np.ndarray:
    """Independent reference values through the Bessel representation

    fhat(r) = (2 pi)^{n/2} r^{1 - n/2} int_0^R f0(s) J_{n/2-1}(s r) s^{n/2} ds,

    quadratured directly on :attr:`RadialProfile.support`, in radius blocks.
    Odd dimensions have half-integer orders and elementary Bessel functions,
    even ones integer orders (:func:`_integer_jv`).  Shares nothing with the
    reduction routes beyond the profile samples and that grid.
    """
    radii = _check_radii(radii)
    n = p.dim
    if n % 2:
        def bessel(x):
            return _half_integer_jv((n - 3) // 2, x)
    else:
        def bessel(x):
            return _integer_jv(n // 2 - 1, x)

    def route(f0):
        s, w = p.support.points, trapezoid_weights(p.support) * f0
        wf = w * s ** (n / 2.0)
        # zero weights add exactly 0: this drops s = 0 too, where for n = 1 the kernel
        # J_{-1/2}(s r) s^{1/2} reads inf * 0, so that node enters through its limit
        s, wf = s[wf != 0.0], wf[wf != 0.0]
        rows = max(1, _SUB_BLOCK // max(s.size, 1))
        out = np.empty(radii.size)
        for i in range(0, radii.size, rows):
            # each row's own sum, so a radius's bits do not depend on the other radii
            out[i : i + rows] = np.sum(bessel(np.outer(radii[i : i + rows], s)) * wf, axis=1)
        if n == 1:
            out += w[0] * np.sqrt(2.0 / (math.pi * radii))
        return (2.0 * math.pi) ** (n / 2.0) * radii ** (1.0 - n / 2.0) * out

    return _at_unit_scale("radial_ft_oracle", p.f0.values[: p.support.n], route, radii)


def read_radial_csv(path: str | Path, dim: int) -> RadialProfile:
    """Load a radial profile from a two-column ``s,f0`` CSV (s from 0, equispaced)."""
    grid, vals = _read_uniform_csv(path, ("s", "f0"), 3)
    return RadialProfile.from_samples(grid, vals, int(dim))
