"""Named verification suites behind the ``verify`` command.

The library checks return numbers; only this module names report lines
and holds their bounds, each written at its one check.  A profile
(:class:`~bvfourier.reports.Profile`, re-exported here) holds grid sizes
only: a bound that depends on the grid is the check's leading error
term in the step h, derived next to it, so a full campaign is a single
invocation.  The ``BVF_THREADS`` environment variable caps the threads
that run suites: the calling thread plus up to ``BVF_THREADS - 1``
helpers take suites longest first from one queue.  Report bytes and the
error raised do not depend on the thread count.  ``bvf`` sets OpenBLAS
to one thread unless the caller set ``OPENBLAS_NUM_THREADS``, so these
threads are the process's one pool.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque

import numpy as np

from .fourier import (
    conjugate_coefficient_check,
    fourier_coefficients,
    hardy_check,
    transform_values,
)
from .grids import (
    DecayClass,
    Family,
    FamilySpec,
    SampledFunction,
    derivative,
    make_uniform_grid,
    sample,
    total_variation,
)
from .hilbert import (
    hilbert_multiplier,
    hilbert_pv,
    kernel_difference,
    modified_hilbert,
    periodic_conjugate,
)
from .radial import (
    RadialProfile,
    fractional_integral,
    leray_condition,
    radial_ft_ibp,
    radial_ft_leray,
    radial_ft_oracle,
)
from .reports import PROFILES, SUITE_NAMES, Profile, VerificationReport
from .verification import (
    PLATEAU_GROWTH_TOL,
    conjugate_derivative_defect,
    hardy_littlewood_verdict,
    ibp_consistency,
)

__all__ = ["Profile", "PROFILES", "SUITE_NAMES", "run_suite"]


def _line_function(p: Profile, family: Family, n: int | None = None, **params) -> SampledFunction:
    grid = make_uniform_grid(-50.0, 50.0, n or p.line_n)
    return sample(FamilySpec(family, params), grid)


def _interior(values: np.ndarray) -> np.ndarray:
    n = values.size
    return values[n // 10 : (9 * n) // 10]


# A bound derived from the grid is its check's leading error term times this
# margin: on every profile's grid the next order stays below half that term.
_LEAD_MARGIN = 1.5


def _checks_hilbert(p: Profile) -> list[VerificationReport]:
    out = []
    poisson = _line_function(p, Family.POISSON_KERNEL, a=1.0)
    conj = _line_function(p, Family.CONJUGATE_POISSON, a=1.0)
    err_pv = float(np.max(np.abs(_interior(hilbert_pv(poisson).values - conj.values))))
    # The window drops P = 1/(pi (1 + t^2)) beyond |t| = R, which moves HP at x by
    # (1/pi) int_{|t|>R} P(t)/(x - t) dt, the tail below by partial fractions.
    # The midpoint rule adds (h^2/8) (HP)'' (the cross-gaussian line reads that
    # term alone), and |(HP)''| = |2x(x^2 - 3)| / (pi (1 + x^2)^3) peaks at sqrt 2 - 1.
    x, R, h = _interior(poisson.x), poisson.x[-1], poisson.h
    tail = np.abs(np.log((R - x) / (R + x)) + 2.0 * x * math.atan(1.0 / R)) / (math.pi**2 * (1.0 + x * x))
    x0 = math.sqrt(2.0) - 1.0
    sup_q2 = 2.0 * x0 * (3.0 - x0 * x0) / (math.pi * (1.0 + x0 * x0) ** 3)
    bound = float(np.max(tail)) + _LEAD_MARGIN * h * h / 8.0 * sup_q2
    out.append(VerificationReport("hilbert-pv-poisson-pair", err_pv, bound, p.line_n))
    err_mult = float(np.max(np.abs(_interior(hilbert_multiplier(poisson).values - conj.values))))
    out.append(VerificationReport("hilbert-multiplier-poisson-pair", err_mult, 1e-6, p.line_n))
    # the multiplier is exact to roundoff on the Gaussian and the midpoint pv rule
    # errs by (h^2/8) (Hg)'', where Hg = (2/sqrt pi) D(x/sqrt 2), D Dawson's
    # function, and sup |(Hg)''| = 0.8270734 (at |x| = 0.8424)
    cross = []
    for n in (p.line_n, 2 * p.line_n):
        g = _line_function(p, Family.GAUSSIAN, n=n)
        cross.append(float(np.max(np.abs(hilbert_pv(g).values - hilbert_multiplier(g).values))))
    bound = _LEAD_MARGIN * h * h / 8.0 * 0.8270734
    out.append(VerificationReport("hilbert-cross-gaussian", cross[0], bound, p.line_n))
    out.append(
        VerificationReport(
            "hilbert-cross-refinement",
            cross[1] / cross[0],
            0.5,
            2 * p.line_n,
            notes=f"sup_n={cross[0]:.6g} sup_2n={cross[1]:.6g}",
        )
    )
    g = _line_function(p, Family.GAUSSIAN)
    hg = hilbert_pv(g).values
    out.append(
        VerificationReport(
            "hilbert-antisymmetry-gaussian", float(np.max(np.abs(hg + hg[::-1]))), 1e-10, p.line_n
        )
    )
    tri = _line_function(p, Family.TRIANGLE)
    gap = modified_hilbert(tri).values - hilbert_pv(tri).values
    out.append(
        VerificationReport(
            "modified-hilbert-constant-offset",
            float(np.std(gap)),
            1e-6,
            p.line_n,
            notes=f"offset={float(np.mean(gap)):.6g}",
        )
    )
    return out


def _checks_lemma(p: Profile) -> list[VerificationReport]:
    defects = [
        conjugate_derivative_defect(_line_function(p, Family.RAISED_COSINE, n=n))
        for n in (p.line_n, 2 * p.line_n)
    ]
    out = [
        VerificationReport("conjugate-derivative-raised-cosine", defects[0], 1e-2, p.line_n),
        VerificationReport(
            "conjugate-derivative-refinement",
            defects[1] / defects[0] if defects[0] > 0.0 else 0.0,
            0.6,
            2 * p.line_n,
            notes=f"defect_n={defects[0]:.6g} defect_2n={defects[1]:.6g}",
        ),
    ]
    g = _line_function(p, Family.GAUSSIAN)
    a, h = g.grid.a, g.h
    x0 = g.x[int(round((1.0 - a) / h))]
    seq = ibp_consistency(g, x0, [32 * h, 16 * h, 8 * h, 4 * h])
    ref = hilbert_pv(derivative(g)).values[int(round((x0 - a) / h))]
    out.append(
        VerificationReport(
            "ibp-limit-gaussian",
            abs(float(seq[-1]) - float(ref)),
            1e-2,
            p.line_n,
            notes=f"bracket={seq[-1]:.6g} reference={ref:.6g}",
        )
    )
    return out


_HARDY_FAMILY = (Family.TRIANGLE, Family.RAISED_COSINE, Family.SMOOTHED_BOX)
# the empirical Hardy constant's allowed spread, across grids and across members
_HARDY_STABILITY = 0.02


def _checks_hardy(p: Profile) -> list[VerificationReport]:
    ineq, canc, constants = [], [], {}
    for fam in _HARDY_FAMILY:
        for n in (p.line_n // 2, p.line_n):
            lhs, h1 = hardy_check(derivative(_line_function(p, fam, n=n)))
            constants[(fam, n)] = lhs / h1.h1_norm
            if n == p.line_n:
                ineq.append(
                    VerificationReport(
                        f"hardy-inequality-{fam.value}",
                        lhs,
                        h1.h1_norm * (1.0 + 1e-2),
                        n,
                        notes=f"rhs={h1.h1_norm:.9g} empirical_constant={constants[(fam, n)]:.9g}",
                    )
                )
                canc.append(
                    VerificationReport(f"hardy-cancellation-{fam.value}", h1.cancellation_residual, 1e-8, n)
                )
    grid_dev = max(
        abs(constants[(fam, p.line_n // 2)] / constants[(fam, p.line_n)] - 1.0)
        for fam in _HARDY_FAMILY
    )
    member_constants = [constants[(fam, p.line_n)] for fam in _HARDY_FAMILY]
    mean = sum(member_constants) / len(member_constants)
    family_dev = max(abs(c / mean - 1.0) for c in member_constants)
    stability = [
        VerificationReport(
            "hardy-constant-grid-stability",
            grid_dev,
            _HARDY_STABILITY,
            p.line_n,
            notes=" ".join(f"{fam.value}={constants[(fam, p.line_n)]:.6g}" for fam in _HARDY_FAMILY),
        ),
        VerificationReport(
            "hardy-constant-family-stability",
            family_dev,
            _HARDY_STABILITY,
            p.line_n,
            notes=f"mean={mean:.6g}",
        ),
    ]
    return ineq + canc + stability


def _checks_hardy_littlewood(p: Profile) -> list[VerificationReport]:
    fit, tv_n, tv_2n = {}, {}, {}
    for fam in (Family.BOX, Family.TRIANGLE):
        fit[fam], _, tv_n[fam] = hardy_littlewood_verdict(_line_function(p, fam), p.cutoffs, dt=p.l1_dt)
        tv_2n[fam] = total_variation(modified_hilbert(_line_function(p, fam, n=2 * p.line_n)))
    box, tri = Family.BOX, Family.TRIANGLE
    # The sampled box's transform is 2 sin(t)/t times (th/2)/sin(th/2) ~ 1 + (th)^2/24,
    # so its mass up to T exceeds (4/pi) ln T by (4/pi)(Th)^2/48, and the fitted
    # slope exceeds 4/pi by the fit of that excess against ln T.
    h = 100.0 / (p.line_n - 1)  # the step of the [-50, 50] window
    cutoffs = np.asarray(p.cutoffs)
    slope_bound = _LEAD_MARGIN * float(np.polyfit(np.log(cutoffs), (cutoffs * h) ** 2 / 48.0, 1)[0])
    return [
        VerificationReport(
            "hardy-littlewood-triangle-plateau",
            abs(fit[tri].final_growth),
            PLATEAU_GROWTH_TOL,
            p.line_n,
            notes=f"classification={fit[tri].label}",
        ),
        VerificationReport(
            "hardy-littlewood-box-log-slope",
            abs(fit[box].slope * math.pi / 4.0 - 1.0),
            slope_bound,
            p.line_n,
            notes=f"classification={fit[box].label} slope={fit[box].slope:.6g}",
        ),
        VerificationReport("hardy-littlewood-box-fit-r2", 1.0 - fit[box].r_squared, 0.01, p.line_n),
        VerificationReport(
            "hardy-littlewood-box-tv-growth",
            -(tv_2n[box] - tv_n[box]),
            -0.1,
            2 * p.line_n,
            notes=f"tv_n={tv_n[box]:.6g} tv_2n={tv_2n[box]:.6g}",
        ),
        VerificationReport(
            "hardy-littlewood-triangle-tv-stability", abs(tv_2n[tri] - tv_n[tri]), 1e-3, 2 * p.line_n
        ),
    ]


def _periodic_grid_function(p: Profile, values_fn) -> SampledFunction:
    grid = make_uniform_grid(-math.pi, math.pi, p.periodic_n)
    vals = values_fn(grid.points)
    return SampledFunction(grid, vals, DecayClass.PERIODIC)


def _checks_periodic(p: Profile) -> list[VerificationReport]:
    out = []
    worst = 0.0
    for k in (1, 2, 3, 5, 11):
        f = _periodic_grid_function(p, lambda x, k=k: np.cos(k * x))
        err = float(np.max(np.abs(periodic_conjugate(f).values - np.sin(k * f.x))))
        worst = max(worst, err)
    out.append(VerificationReport("periodic-conjugate-modes", worst, 1e-6, p.periodic_n))
    k_lo, k_hi = p.kmax_pair
    wave = sample(
        FamilySpec(Family.TRIANGLE_WAVE_PERIODIC),
        make_uniform_grid(-math.pi, math.pi, p.periodic_n),
    )
    out.append(
        VerificationReport(
            "periodic-coefficient-modulus-triangle-wave",
            conjugate_coefficient_check(wave, k_hi),
            1e-8,
            p.periodic_n,
        )
    )
    sums = fourier_coefficients(wave, k_hi).abs_partial_sums
    growth = (sums[k_hi] - sums[k_lo]) / sums[k_lo]
    out.append(
        VerificationReport(
            "periodic-absolute-sum-growth",
            growth,
            0.005,
            p.periodic_n,
            notes=f"S{k_lo}={sums[k_lo]:.9g} S{k_hi}={sums[k_hi]:.9g}",
        )
    )
    f = _periodic_grid_function(p, lambda x: np.cos(3 * x) + 0.5 * np.sin(11 * x))
    twice = periodic_conjugate(periodic_conjugate(f)).values
    out.append(
        VerificationReport(
            "periodic-conjugate-involution", float(np.max(np.abs(twice + f.values))), 1e-8, p.periodic_n
        )
    )
    partial, closed = kernel_difference(1.0, 10_000)
    out.append(VerificationReport("kernel-difference-tail-t1", abs(partial - closed), 1e-4, 10_000))
    odd = max(
        abs(kernel_difference(t, 8)[1] + kernel_difference(-t, 8)[1])
        for t in (0.25, 1.0, 2.0, 3.0, 5.0)
    )
    out.append(VerificationReport("kernel-difference-oddness", odd, 0.0, 8))
    _, closed_pi = kernel_difference(math.pi, 8)
    out.append(VerificationReport("kernel-difference-at-pi", abs(closed_pi + 1.0 / math.pi), 1e-15, 8))
    return out


def _radial_profile(p: Profile, values_fn, dim: int, r_end: float = 2.0) -> RadialProfile:
    grid = make_uniform_grid(0.0, r_end, p.radial_n)
    return RadialProfile.from_samples(grid, values_fn(grid.points), dim)


def _checks_radial(p: Profile) -> list[VerificationReport]:
    out = []
    ball3 = _radial_profile(p, lambda s: (s <= 1.0).astype(float), 3)
    radii = np.round(np.arange(0.1, 10.0 + 1e-9, 0.1), 10)
    exact = 4.0 * math.pi * (np.sin(radii) - radii * np.cos(radii)) / radii**3
    mask = np.abs(exact) >= 1e-3 * float(np.max(np.abs(exact)))
    vals = radial_ft_leray(ball3, radii)
    rel = float(np.max(np.abs(vals - exact)[mask] / np.abs(exact)[mask]))
    # Leray's I is the ball's exact closed form, so the route is the trapezoid on
    # fhat(r) = 2 pi int_0^1 (1 - t^2) cos(rt) dt; it misses the kink at the node
    # t = 1 (radial_n is odd) by (h^2/12) g'(1-) = -(h^2/6) cos r, times 2 pi.
    h = ball3.f0.h
    lead = math.pi * h * h / 3.0 * np.abs(np.cos(radii)) / np.abs(exact)
    bound = _LEAD_MARGIN * float(np.max(lead[mask]))
    out.append(VerificationReport("radial-ball-closed-form", rel, bound, p.radial_n))
    v0 = radial_ft_leray(ball3, [1e-6])[0]
    out.append(
        VerificationReport(
            "radial-ball-volume-limit",
            abs(v0 - 4.0 * math.pi / 3.0) / (4.0 * math.pi / 3.0),
            1e-4,
            p.radial_n,
        )
    )
    ball2 = _radial_profile(p, lambda s: (s <= 1.0).astype(float), 2)
    frac2 = fractional_integral(ball2)
    s = frac2.samples.x
    inside = s < 1.0
    closed = (2.0 / math.sqrt(math.pi)) * np.sqrt(1.0 - s[inside] ** 2)
    out.append(
        VerificationReport(
            "radial-disc-fractional-integral",
            float(np.max(np.abs(frac2.samples.values[inside] - closed))),
            1e-6,
            p.radial_n,
        )
    )

    def bump(s):
        inside = np.abs(s - 1.0) <= 0.5
        vals = np.zeros_like(s)
        vals[inside] = 0.5 * (1.0 + np.cos(np.pi * (s[inside] - 1.0) / 0.5))
        return vals

    radii = np.linspace(0.5, 10.0, 39)
    # The oracle's own error is far below h^2 on the bump, so each line measures the
    # worse reduction route, whose leading term sets its bound below.  Both routes
    # read f0 as linear, whose slope is off by the sawtooth f0''(s) (h/2 - u), u the
    # offset in a cell.  Dim 2, ibp: I' = (2/sqrt pi) t int_t f0'(s) (s^2 - t^2)^(-1/2) ds
    # meets the sawtooth at its singular end and is off by (2/sqrt pi) sqrt(t/2) f0''(t) C h^1.5,
    # C = int_0^inf (1/2 - {u}) u^(-1/2) du = -2 zeta(-1/2) = 0.4157725; then
    # fhat = -(2 sqrt pi / r) int I' sin(rt) dt, with leray's error below half of it.
    # Dim 3, leray: ibp walks from F_1's trapezoid sum, second order on the smooth
    # bump with exact r-derivatives, and errs less (1/7 as much at n = 1025, 1/56 at
    # 8193).  The linear reading's cell mean is off by -(h^2/12) f0'', so leray is
    # off by (h^2/12) |F_3[f0''](r)| = (pi h^2 / 3) |int f0''(s) s sin(rs) ds| / r.
    grid = make_uniform_grid(0.0, 2.0, p.radial_n)
    h, s = grid.h, grid.points[np.abs(grid.points - 1.0) <= 0.5]
    w = -2.0 * math.pi**2 * np.cos(2.0 * math.pi * (s - 1.0)) * h  # f0'' ds on the support
    sin_rs = np.sin(np.outer(radii, s))
    lead = {
        2: 2.0 * math.sqrt(2.0) * 0.4157725 * h**1.5 * np.abs(sin_rs @ (np.sqrt(s) * w)) / radii,
        3: math.pi * h * h / 3.0 * np.abs(sin_rs @ (s * w)) / radii,
    }
    for dim in (2, 3):
        prof = _radial_profile(p, bump, dim)
        oracle = radial_ft_oracle(prof, radii)
        scale = float(np.max(np.abs(oracle)))
        d_leray = float(np.max(np.abs(radial_ft_leray(prof, radii) - oracle))) / scale
        d_ibp = float(np.max(np.abs(radial_ft_ibp(prof, radii) - oracle))) / scale
        out.append(
            VerificationReport(
                f"radial-threeway-dim{dim}",
                max(d_leray, d_ibp),
                _LEAD_MARGIN * float(np.max(lead[dim])) / scale,
                p.radial_n,
                notes=f"leray={d_leray:.6g} ibp={d_ibp:.6g}",
            )
        )
    gauss_prof = _radial_profile(p, lambda s: np.exp(-s * s / 2.0), 1, r_end=8.0)
    radii1 = np.linspace(0.1, 5.0, 17)
    even = sample(
        FamilySpec(Family.GAUSSIAN),
        make_uniform_grid(-8.0, 8.0, 2 * p.radial_n - 1),
    )
    reference = transform_values(even, radii1).real
    d1 = float(np.max(np.abs(radial_ft_leray(gauss_prof, radii1) - reference)))
    out.append(VerificationReport("radial-dim1-even-extension", d1, 1e-6, p.radial_n))
    out.append(
        VerificationReport(
            "radial-leray-condition-ball",
            abs(leray_condition(ball3) - (math.log(2.0) - 0.5)),
            # the trapezoid on g(s) = s^2/(1 + s) gives the jump node s = 1 full
            # weight h, an exact excess (h/2) g(1) = h/4, and Euler-Maclaurin adds
            # (h^2/12) (g'(1) - g'(0)) = h^2/16
            ball3.f0.h / 4.0 + _LEAD_MARGIN * ball3.f0.h**2 / 16.0,
            p.radial_n,
        )
    )
    return out


_SUITE_FUNCS = {
    "hilbert": _checks_hilbert,
    "lemma-dc": _checks_lemma,
    "hardy": _checks_hardy,
    "hardy-littlewood": _checks_hardy_littlewood,
    "periodic": _checks_periodic,
    "radial": _checks_radial,
}


# Graham's longest-first rule, "Bounds on multiprocessing timing anomalies"
# (SIAM J. Appl. Math. 17, 1969): the threads take the suites in this order,
# longest first on the strict profile, where the bench runs two threads.
# Seconds per suite, strict / default, in process on one thread, median of 7
# on a 2-vCPU VM: hardy 0.041 / 0.021, radial 0.034 / 0.036, hilbert
# 0.022 / 0.012, hardy-littlewood 0.020 / 0.011, lemma-dc 0.014 / 0.007,
# periodic 0.003 / 0.003.
_LONGEST_FIRST = ("hardy", "radial", "hilbert", "hardy-littlewood", "lemma-dc", "periodic")


def _thread_count() -> int:
    raw = os.environ.get("BVF_THREADS", "1") or "1"
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"BVF_THREADS must be an integer, got {raw!r}") from None


def run_suite(suite: str, profile: Profile | str = "default") -> list[VerificationReport]:
    """Run one named suite (or ``all``) and return ordered reports.

    The calling thread and ``min(BVF_THREADS, suites) - 1`` helper threads
    take the suites longest first from one queue; ``BVF_THREADS`` of 1 or
    less runs them on the caller alone.  Reports come in registry order,
    and if suites raise, the earliest one's exception in registry order is
    re-raised once all have ended, so neither depends on the thread count.
    """
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise ValueError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}") from None
    if suite == "all":
        names = list(SUITE_NAMES)
    elif suite in _SUITE_FUNCS:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all',) + SUITE_NAMES}")
    threads = _thread_count()
    queue = deque(s for s in _LONGEST_FIRST if s in names)
    results: dict[str, list[VerificationReport]] = {}
    errors: dict[str, Exception] = {}

    def drain() -> None:
        while True:
            try:
                name = queue.popleft()  # atomic, so each suite runs once
            except IndexError:
                return
            try:
                results[name] = _SUITE_FUNCS[name](profile)
            except Exception as exc:
                errors[name] = exc

    helpers = [threading.Thread(target=drain) for _ in range(min(threads, len(names)) - 1)]
    for helper in helpers:
        helper.start()
    drain()
    for helper in helpers:
        helper.join()
    for name in names:
        if name in errors:
            raise errors[name]
    return [report for name in names for report in results[name]]
