"""End-to-end numerical verifiers for the conjugation/derivative
commutation identity and for the bounded-variation integrability
theorem (Hardy-Littlewood type): if a vanishing function of bounded
variation has a conjugate of bounded variation, the transforms of both
are integrable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import l1_norm_ft
from .grids import SampledFunction, derivative, total_variation
from .hilbert import hilbert_pv, modified_hilbert

__all__ = [
    "GrowthFit",
    "classify_l1_growth",
    "conjugate_derivative_defect",
    "ibp_consistency",
    "hardy_littlewood_verdict",
]

PLATEAU_GROWTH_TOL = 0.01
LOG_FIT_R2_MIN = 0.99


@dataclass(frozen=True)
class GrowthFit:
    """Slope fit of a transform-mass sequence against ln(cutoff)."""

    label: str  # integrable-plateau | log-divergent | inconclusive
    slope: float
    intercept: float
    r_squared: float
    final_growth: float


def classify_l1_growth(cutoffs: np.ndarray, values: np.ndarray) -> GrowthFit:
    """Decide between plateau and logarithmic divergence by slope fit.

    plateau: relative growth over the final cutoff interval <= 1%;
    log-divergent: least-squares fit against ln T with R^2 >= 0.99;
    anything else is inconclusive.  A hard threshold on the values
    themselves would be arbitrary because the divergence is only
    logarithmic.
    """
    cutoffs = np.asarray(cutoffs, dtype=float)
    values = np.asarray(values, dtype=float)
    if cutoffs.size < 4:
        raise ValueError("slope fit needs at least four cutoffs")
    if not (np.all(np.isfinite(cutoffs)) and np.all(np.isfinite(values))):
        raise ValueError("cutoffs and values must be finite")
    if np.any(cutoffs <= 0.0) or np.any(np.diff(cutoffs) <= 0.0):
        raise ValueError("cutoffs must be finite, positive and strictly ascending")
    lnT = np.log(cutoffs)
    slope, intercept = np.polyfit(lnT, values, 1)
    pred = slope * lnT + intercept
    ss_res = float(np.sum((values - pred) ** 2))
    ss_tot = float(np.sum((values - np.mean(values)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    final_growth = (values[-1] - values[-2]) / values[-2] if values[-2] > 0.0 else 0.0
    if abs(final_growth) <= PLATEAU_GROWTH_TOL:
        label = "integrable-plateau"
    elif r2 >= LOG_FIT_R2_MIN:
        label = "log-divergent"
    else:
        label = "inconclusive"
    return GrowthFit(label, float(slope), float(intercept), r2, float(final_growth))


def _median(values: np.ndarray) -> float:
    """np.median of finite values, from np.partition of the middle element(s).

    The same float, without np.median's NaN check, which imports numpy.ma.
    """
    lo, hi = (values.size - 1) // 2, values.size // 2
    mid = np.partition(values, (lo, hi))
    return float(mid[hi] if lo == hi else (mid[lo] + mid[hi]) / 2)


def _jump_exclusion_mask(fprime: SampledFunction) -> np.ndarray:
    """Interior points farther than 5h from any detected jump of f'.

    Jumps are flagged where the first difference of the samples exceeds
    ten times its median (plus a roundoff floor), which separates O(1/h)
    discontinuity spikes from smooth variation.
    """
    n = fprime.n
    mask = np.zeros(n, dtype=bool)
    lo, hi = n // 10, (9 * n) // 10
    mask[lo:hi] = True  # middle 80%
    steps = np.abs(np.diff(fprime.values))
    scale = float(np.max(np.abs(fprime.values))) if n else 0.0
    threshold = 10.0 * _median(steps) + 1e-12 * scale
    jumps = np.flatnonzero(steps > threshold)
    for j in jumps:
        mask[max(0, j - 5) : min(n, j + 7)] = False
    return mask


def conjugate_derivative_defect(f: SampledFunction) -> float:
    """Commutation defect sup |d/dx(modified Hilbert f) - H(f')|.

    The supremum runs over the middle 80% of the grid, excluding points
    within 5h of detected jumps of f' (the identity holds at Lebesgue
    points of f', so jump-adjacent nodes are excluded rather than
    special-cased; :func:`_jump_exclusion_mask` picks them).
    """
    lhs = derivative(modified_hilbert(f))
    fp = derivative(f)
    rhs = hilbert_pv(fp)
    mask = _jump_exclusion_mask(fp)
    if not np.any(mask):
        raise ValueError("every interior point is jump-adjacent; f' has no smooth region")
    return float(np.max(np.abs(lhs.values - rhs.values)[mask]))


def ibp_consistency(f: SampledFunction, x: float, deltas: list[float]) -> np.ndarray:
    """Integration-by-parts bracket for H(f') at one point, per delta.

    bracket(d) = (1/pi) [ (f(x-d) + f(x+d))/d - int_{|x-t|>d} f(t)/(x-t)^2 dt ]

    converges to H(f')(x) as d drops to 0 at Lebesgue points of f'.
    Deltas must be descending multiples of the spacing (at least one);
    the regular integral uses piecewise-linear samples against the exact
    kernel antiderivative so the 1/(x-t)^2 growth near the excluded
    window costs O(h^2), not O(1).
    """
    if not f.is_real():
        raise ValueError("ibp_consistency expects real-valued samples")
    grid = f.grid
    i0 = int(round((x - grid.a) / grid.h))
    if not (0 <= i0 < grid.n) or abs(grid.points[i0] - x) > 1e-9 * max(1.0, abs(x)):
        raise ValueError(f"x={x} is not a grid point")
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise ValueError("need at least one delta")
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly descending")
    xs, v, h = grid.points, f.values, grid.h
    out = np.empty(len(deltas))
    for idx, d in enumerate(deltas):
        k = int(round(d / h))
        if k < 1 or d < h * (1.0 - 1e-9):
            raise ValueError(f"delta={d} is below the grid resolution h={h}")
        if i0 - k < 0 or i0 + k >= grid.n:
            raise ValueError(f"delta={d} reaches outside the grid around x={x}")
        dd = k * h
        x0 = xs[i0]

        def half_line(sl: slice) -> float:
            t, fv = xs[sl], v[sl]
            if t.size < 2:
                return 0.0
            b = (fv[1:] - fv[:-1]) / h
            a = fv[:-1] - b * t[:-1]
            # int (a + b t)/(x0 - t)^2 dt = (a + b x0)/(x0 - t) + b ln|x0 - t|
            def F(tt, a=a, b=b):
                return (a + b * x0) / (x0 - tt) + b * np.log(np.abs(x0 - tt))

            return float(np.sum(F(t[1:]) - F(t[:-1])))

        integral = half_line(slice(0, i0 - k + 1)) + half_line(slice(i0 + k, grid.n))
        out[idx] = ((v[i0 - k] + v[i0 + k]) / dd - integral) / np.pi
    return out


def hardy_littlewood_verdict(
    f: SampledFunction, cutoffs: list[float] | np.ndarray, dt: float | None = None
) -> tuple[GrowthFit, float, float]:
    """Full pipeline for the bounded-variation integrability theorem.

    Measures the variation of f and of its (modified) conjugate, runs
    the transform-mass diagnostic over the cutoffs and classifies the
    growth.  Returns (fit, tv_f, tv_conjugate).  The theorem predicts a
    plateau, |fit.final_growth| <= PLATEAU_GROWTH_TOL, whenever both
    variations stay bounded.
    """
    cutoffs = np.asarray(cutoffs, dtype=float)
    if cutoffs.size < 4:
        raise ValueError("need at least four cutoffs for the slope fit")
    tv_f = total_variation(f)
    tv_conj = total_variation(modified_hilbert(f))
    fit = classify_l1_growth(cutoffs, l1_norm_ft(f, cutoffs, dt=dt))
    return fit, tv_f, tv_conj
