"""Named verification suites behind the ``verify`` command.

The library checks return numbers; only this module names report lines
and holds their bounds.  Each line is one declared :class:`Check` in
``_CHECKS``, and :func:`_evaluate` alone turns a suite's records into
reports; the records share their precomputation through :func:`_shared`,
a cache that lives for one suite run.  A profile
(:class:`~bvfourier.reports.Profile`, re-exported here) holds grid sizes
only, so a bound that depends on the grid is the check's leading error
term in the step h, derived next to it.  ``BVF_THREADS`` caps the threads
that run suites: the caller plus up to ``BVF_THREADS - 1`` helpers take
suites longest first from one queue, and neither the report bytes nor
the error raised depend on their number.  ``bvf`` sets OpenBLAS to one
thread unless the caller set ``OPENBLAS_NUM_THREADS``, so these threads
are the process's one pool.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from collections.abc import Callable
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial, wraps
from operator import attrgetter

import numpy as np

from .fourier import conjugate_coefficient_check, fourier_coefficients, hardy_check, transform_values
from .grids import DecayClass, Family, FamilySpec, SampledFunction, derivative, make_uniform_grid, sample, total_variation
from .hilbert import hilbert_multiplier, hilbert_pv, kernel_difference, modified_hilbert, periodic_conjugate
from .radial import RadialProfile, fractional_integral, leray_condition, radial_ft_ibp, radial_ft_leray, radial_ft_oracle
from .reports import PROFILES, SUITE_NAMES, Profile, VerificationReport
from .verification import PLATEAU_GROWTH_TOL, conjugate_derivative_defect, hardy_littlewood_verdict, ibp_consistency

__all__ = ["Profile", "PROFILES", "SUITE_NAMES", "run_suite"]


@dataclass(frozen=True)
class Check:
    """One report line: its grid size, its named metrics and its bound, each from the profile."""

    name: str
    n: Callable[[Profile], int]
    measure: Callable[[Profile, int], dict]
    bound: Callable[[Profile, int], float]
    notes: str = ""


_LINE_N, _PERIODIC_N, _RADIAL_N = attrgetter("line_n"), attrgetter("periodic_n"), attrgetter("radial_n")
# A bound derived from the grid is its check's leading error term times this
# margin: on every profile's grid the next order stays below half that term.
_LEAD_MARGIN = 1.5
_cache: ContextVar[dict | None] = ContextVar("suite_cache", default=None)  # the running suite's, see _shared


def _shared(fn):
    """fn memoized on its arguments while one suite runs; outside a suite run each call computes."""

    @wraps(fn)
    def once(*args):
        cache = _cache.get()
        if cache is None:
            return fn(*args)
        if (fn, args) not in cache:
            cache[fn, args] = fn(*args)
        return cache[fn, args]

    return once


def _evaluate(checks: tuple[Check, ...], profile: Profile) -> list[VerificationReport]:
    """The reports of one suite's records, in order, over one fresh cache."""
    token = _cache.set({})
    try:
        reports = []
        for check in checks:
            n = check.n(profile)
            metrics = check.measure(profile, n)
            measured, notes = next(iter(metrics.values())), check.notes.format(**metrics)
            reports.append(VerificationReport(check.name, measured, check.bound(profile, n), n, notes))
        return reports
    finally:
        _cache.reset(token)


def _fixed(value: float) -> Callable[[Profile, int], float]:
    return lambda p, n: value


def _refinement(fn, label: str):
    """The measure of a refinement line at n: fn(n) / fn(n/2), with both values as {label}_n and {label}_2n."""

    def measure(p, n):
        lo, hi = fn(n // 2), fn(n)
        return {"ratio": hi / lo if lo > 0.0 else 0.0, f"{label}_n": lo, f"{label}_2n": hi}

    return measure


def _sup(values: np.ndarray) -> dict:
    return {"sup": float(np.max(np.abs(values)))}


@_shared
def _line(family: Family, n: int) -> SampledFunction:
    return sample(FamilySpec(family), make_uniform_grid(-50.0, 50.0, n))


def _interior(values: np.ndarray) -> np.ndarray:
    n = values.size
    return values[n // 10 : (9 * n) // 10]


def _poisson_gap(op, n: int) -> dict:
    """op's distance from the conjugate on the Poisson pair at its default a = 1, inside the window."""
    return _sup(_interior(op(_line(Family.POISSON_KERNEL, n)).values - _line(Family.CONJUGATE_POISSON, n).values))


def _pv_poisson_bound(p: Profile, n: int) -> float:
    # The window drops P = 1/(pi (1 + t^2)) beyond |t| = R, which moves HP at x by
    # (1/pi) int_{|t|>R} P(t)/(x - t) dt, the tail below by partial fractions.
    # The midpoint rule adds (h^2/8) (HP)'' (the cross-gaussian line reads that
    # term alone), and |(HP)''| = |2x(x^2 - 3)| / (pi (1 + x^2)^3) peaks at sqrt 2 - 1.
    grid = make_uniform_grid(-50.0, 50.0, n)
    x, R, h = _interior(grid.points), grid.points[-1], grid.h
    tail = np.abs(np.log((R - x) / (R + x)) + 2.0 * x * math.atan(1.0 / R)) / (math.pi**2 * (1.0 + x * x))
    x0 = math.sqrt(2.0) - 1.0
    sup_q2 = 2.0 * x0 * (3.0 - x0 * x0) / (math.pi * (1.0 + x0 * x0) ** 3)
    return float(np.max(tail)) + _LEAD_MARGIN * h * h / 8.0 * sup_q2


@_shared
def _pv_gaussian(n: int) -> np.ndarray:
    return hilbert_pv(_line(Family.GAUSSIAN, n)).values


@_shared
def _cross(n: int) -> float:
    return float(np.max(np.abs(_pv_gaussian(n) - hilbert_multiplier(_line(Family.GAUSSIAN, n)).values)))


def _cross_bound(p: Profile, n: int) -> float:
    # the multiplier is exact to roundoff on the Gaussian and the midpoint pv rule
    # errs by (h^2/8) (Hg)'', where Hg = (2/sqrt pi) D(x/sqrt 2), D Dawson's
    # function, and sup |(Hg)''| = 0.8270734 (at |x| = 0.8424)
    h = make_uniform_grid(-50.0, 50.0, n).h
    return _LEAD_MARGIN * h * h / 8.0 * 0.8270734


def _constant_offset(p: Profile, n: int) -> dict:
    tri = _line(Family.TRIANGLE, n)
    gap = modified_hilbert(tri).values - hilbert_pv(tri).values
    return {"spread": float(np.std(gap)), "offset": float(np.mean(gap))}


@_shared
def _defect(n: int) -> float:
    return conjugate_derivative_defect(_line(Family.RAISED_COSINE, n))


def _ibp_limit(p: Profile, n: int) -> dict:
    g = _line(Family.GAUSSIAN, n)
    a, h = g.grid.a, g.h
    x0 = g.x[int(round((1.0 - a) / h))]
    seq = ibp_consistency(g, x0, [32 * h, 16 * h, 8 * h, 4 * h])
    ref = hilbert_pv(derivative(g)).values[int(round((x0 - a) / h))]
    return {"gap": abs(float(seq[-1]) - float(ref)), "bracket": seq[-1], "reference": ref}


_HARDY_FAMILY = (Family.TRIANGLE, Family.RAISED_COSINE, Family.SMOOTHED_BOX)
# the empirical Hardy constant's allowed spread, across grids and across members
_HARDY_STABILITY = 0.02


@_shared
def _hardy_probe(family: Family, p: Profile, n: int) -> dict:
    """:func:`hardy_check` on the derivative of the family at n: its two sides, their ratio and the residual."""
    lhs, h1 = hardy_check(derivative(_line(family, n)))
    return {"lhs": lhs, "rhs": h1.h1_norm, "constant": lhs / h1.h1_norm, "residual": h1.cancellation_residual}


def _hardy_grid_stability(p: Profile, n: int) -> dict:
    constants = {fam.value: _hardy_probe(fam, p, n)["constant"] for fam in _HARDY_FAMILY}
    # the coarse grid's lattice length 8 (n // 2) is a power of two on every profile
    dev = max(abs(_hardy_probe(fam, p, n // 2 + 1)["constant"] / constants[fam.value] - 1.0) for fam in _HARDY_FAMILY)
    return {"deviation": dev} | constants


def _hardy_family_stability(p: Profile, n: int) -> dict:
    member_constants = [_hardy_probe(fam, p, n)["constant"] for fam in _HARDY_FAMILY]
    mean = sum(member_constants) / len(member_constants)
    return {"deviation": max(abs(c / mean - 1.0) for c in member_constants), "mean": mean}


@_shared
def _verdict(p: Profile, family: Family, n: int):
    """(fit, tv_f, tv_conjugate) of :func:`hardy_littlewood_verdict` on the family at n."""
    return hardy_littlewood_verdict(_line(family, n), p.cutoffs, dt=p.l1_dt)


def _tv_drop(family: Family, p: Profile, n: int) -> dict:
    """How far the TV of the family's modified conjugate falls from n/2 (read by its verdict) to n."""
    tv_n, tv_2n = _verdict(p, family, n // 2)[2], total_variation(modified_hilbert(_line(family, n)))
    return {"drop": -(tv_2n - tv_n), "tv_n": tv_n, "tv_2n": tv_2n}


def _triangle_plateau(p: Profile, n: int) -> dict:
    fit = _verdict(p, Family.TRIANGLE, n)[0]
    return {"growth": abs(fit.final_growth), "classification": fit.label}


def _box_slope(p: Profile, n: int) -> dict:
    fit = _verdict(p, Family.BOX, n)[0]
    return {"deviation": abs(fit.slope * math.pi / 4.0 - 1.0), "classification": fit.label, "slope": fit.slope}


def _box_slope_bound(p: Profile, n: int) -> float:
    # The sampled box's transform is 2 sin(t)/t times (th/2)/sin(th/2) ~ 1 + (th)^2/24,
    # so its mass up to T exceeds (4/pi) ln T by (4/pi)(Th)^2/48, and the fitted
    # slope exceeds 4/pi by the fit of that excess against ln T.
    h = 100.0 / (n - 1)  # the step of the [-50, 50] window
    cutoffs = np.asarray(p.cutoffs)
    return _LEAD_MARGIN * float(np.polyfit(np.log(cutoffs), (cutoffs * h) ** 2 / 48.0, 1)[0])


def _periodic_grid_function(n: int, values_fn) -> SampledFunction:
    grid = make_uniform_grid(-math.pi, math.pi, n)
    return SampledFunction(grid, values_fn(grid.points), DecayClass.PERIODIC)


def _conjugate_modes(p: Profile, n: int) -> dict:
    worst = 0.0
    for k in (1, 2, 3, 5, 11):
        f = _periodic_grid_function(n, lambda x, k=k: np.cos(k * x))
        worst = max(worst, float(np.max(np.abs(periodic_conjugate(f).values - np.sin(k * f.x)))))
    return {"worst": worst}


@_shared
def _triangle_wave(n: int) -> SampledFunction:
    return sample(FamilySpec(Family.TRIANGLE_WAVE_PERIODIC), make_uniform_grid(-math.pi, math.pi, n))


def _absolute_sum_growth(p: Profile, n: int) -> dict:
    k_lo, k_hi = p.kmax_pair
    sums = fourier_coefficients(_triangle_wave(n), k_hi).abs_partial_sums
    growth = (sums[k_hi] - sums[k_lo]) / sums[k_lo]
    return {"growth": growth, "k_lo": k_lo, "s_lo": sums[k_lo], "k_hi": k_hi, "s_hi": sums[k_hi]}


def _involution(p: Profile, n: int) -> dict:
    f = _periodic_grid_function(n, lambda x: np.cos(3 * x) + 0.5 * np.sin(11 * x))
    return _sup(periodic_conjugate(periodic_conjugate(f)).values + f.values)


def _radial_profile(n: int, values_fn, dim: int, r_end: float = 2.0) -> RadialProfile:
    grid = make_uniform_grid(0.0, r_end, n)
    return RadialProfile.from_samples(grid, values_fn(grid.points), dim)


@_shared
def _ball(n: int, dim: int) -> RadialProfile:
    """The unit ball's indicator: one profile per suite run, so its I is computed once."""
    return _radial_profile(n, lambda s: (s <= 1.0).astype(float), dim)


def _ball_transform() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radii 0.1 .. 10, the dim-3 unit ball's transform there, and where it is not near a zero."""
    radii = np.round(np.arange(0.1, 10.0 + 1e-9, 0.1), 10)
    exact = 4.0 * math.pi * (np.sin(radii) - radii * np.cos(radii)) / radii**3
    return radii, exact, np.abs(exact) >= 1e-3 * float(np.max(np.abs(exact)))


def _ball_closed_form(p: Profile, n: int) -> dict:
    radii, exact, mask = _ball_transform()
    vals = radial_ft_leray(_ball(n, 3), radii)
    return {"relative": float(np.max(np.abs(vals - exact)[mask] / np.abs(exact)[mask]))}


def _ball_closed_form_bound(p: Profile, n: int) -> float:
    # Leray's I is the ball's exact closed form, so the route is the trapezoid on
    # fhat(r) = 2 pi int_0^1 (1 - t^2) cos(rt) dt; it misses the kink at the node
    # t = 1 (radial_n is odd) by (h^2/12) g'(1-) = -(h^2/6) cos r, times 2 pi.
    radii, exact, mask = _ball_transform()
    h = _ball(n, 3).f0.h
    lead = math.pi * h * h / 3.0 * np.abs(np.cos(radii)) / np.abs(exact)
    return _LEAD_MARGIN * float(np.max(lead[mask]))


def _disc_fractional_integral(p: Profile, n: int) -> dict:
    frac2 = fractional_integral(_ball(n, 2))
    s, inside = frac2.samples.x, frac2.samples.x < 1.0
    return _sup(frac2.samples.values[inside] - (2.0 / math.sqrt(math.pi)) * np.sqrt(1.0 - s[inside] ** 2))


def _bump(s):
    inside = np.abs(s - 1.0) <= 0.5
    vals = np.zeros_like(s)
    vals[inside] = 0.5 * (1.0 + np.cos(np.pi * (s[inside] - 1.0) / 0.5))
    return vals


@_shared
def _threeway(dim: int, p: Profile, n: int) -> dict:
    """The worse reduction route's distance from the oracle on the bump, relative to the oracle's size."""
    radii = np.linspace(0.5, 10.0, 39)
    prof = _radial_profile(n, _bump, dim)
    oracle = radial_ft_oracle(prof, radii)
    scale = float(np.max(np.abs(oracle)))
    d_leray = float(np.max(np.abs(radial_ft_leray(prof, radii) - oracle))) / scale
    d_ibp = float(np.max(np.abs(radial_ft_ibp(prof, radii) - oracle))) / scale
    return {"worst": max(d_leray, d_ibp), "leray": d_leray, "ibp": d_ibp, "scale": scale}


@_shared
def _threeway_lead(n: int) -> dict[int, np.ndarray]:
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
    radii = np.linspace(0.5, 10.0, 39)
    grid = make_uniform_grid(0.0, 2.0, n)
    h, s = grid.h, grid.points[np.abs(grid.points - 1.0) <= 0.5]
    w = -2.0 * math.pi**2 * np.cos(2.0 * math.pi * (s - 1.0)) * h  # f0'' ds on the support
    sin_rs = np.sin(np.outer(radii, s))
    dim2 = 2.0 * math.sqrt(2.0) * 0.4157725 * h**1.5 * np.abs(sin_rs @ (np.sqrt(s) * w)) / radii
    return {2: dim2, 3: math.pi * h * h / 3.0 * np.abs(sin_rs @ (s * w)) / radii}


def _threeway_bound(dim: int, p: Profile, n: int) -> float:
    return _LEAD_MARGIN * float(np.max(_threeway_lead(n)[dim])) / _threeway(dim, p, n)["scale"]


def _dim1_even_extension(p: Profile, n: int) -> dict:
    gauss_prof = _radial_profile(n, lambda s: np.exp(-s * s / 2.0), 1, r_end=8.0)
    radii1 = np.linspace(0.1, 5.0, 17)
    even = sample(FamilySpec(Family.GAUSSIAN), make_uniform_grid(-8.0, 8.0, 2 * n - 1))
    return _sup(radial_ft_leray(gauss_prof, radii1) - transform_values(even, radii1).real)


def _leray_condition_bound(p: Profile, n: int) -> float:
    # the trapezoid on g(s) = s^2/(1 + s) over the support [0, 1], whose
    # jump node takes weight h/2: Euler-Maclaurin's (h^2/12) (g'(1) - g'(0)) = h^2/16
    return _LEAD_MARGIN * _ball(n, 3).f0.h ** 2 / 16.0


_BALL3 = 4.0 * math.pi / 3.0  # the unit ball's volume in dim 3
_CHECKS: dict[str, tuple[Check, ...]] = {
    "hilbert": (
        Check("hilbert-pv-poisson-pair", _LINE_N, lambda p, n: _poisson_gap(hilbert_pv, n), _pv_poisson_bound),
        Check("hilbert-multiplier-poisson-pair", _LINE_N, lambda p, n: _poisson_gap(hilbert_multiplier, n), _fixed(1e-6)),
        Check("hilbert-cross-gaussian", _LINE_N, lambda p, n: {"sup": _cross(n)}, _cross_bound),
        Check("hilbert-cross-refinement", lambda p: 2 * p.line_n, _refinement(_cross, "sup"), _fixed(0.5),
              "sup_n={sup_n:.6g} sup_2n={sup_2n:.6g}"),
        Check("hilbert-antisymmetry-gaussian", _LINE_N, lambda p, n: _sup(_pv_gaussian(n) + _pv_gaussian(n)[::-1]),
              _fixed(1e-10)),
        Check("modified-hilbert-constant-offset", _LINE_N, _constant_offset, _fixed(1e-6), "offset={offset:.6g}"),
    ),
    "lemma-dc": (
        Check("conjugate-derivative-raised-cosine", _LINE_N, lambda p, n: {"defect": _defect(n)}, _fixed(1e-2)),
        Check("conjugate-derivative-refinement", lambda p: 2 * p.line_n, _refinement(_defect, "defect"), _fixed(0.6),
              "defect_n={defect_n:.6g} defect_2n={defect_2n:.6g}"),
        Check("ibp-limit-gaussian", _LINE_N, _ibp_limit, _fixed(1e-2), "bracket={bracket:.6g} reference={reference:.6g}"),
    ),
    "hardy": (
        *(Check(f"hardy-inequality-{fam.value}", _LINE_N, partial(_hardy_probe, fam),
                lambda p, n, fam=fam: _hardy_probe(fam, p, n)["rhs"] * (1.0 + 1e-2),
                "rhs={rhs:.9g} empirical_constant={constant:.9g}") for fam in _HARDY_FAMILY),
        *(Check(f"hardy-cancellation-{fam.value}", _LINE_N,
                lambda p, n, fam=fam: {"residual": _hardy_probe(fam, p, n)["residual"]}, _fixed(1e-8))
          for fam in _HARDY_FAMILY),
        Check("hardy-constant-grid-stability", _LINE_N, _hardy_grid_stability, _fixed(_HARDY_STABILITY),
              " ".join(f"{fam.value}={{{fam.value}:.6g}}" for fam in _HARDY_FAMILY)),
        Check("hardy-constant-family-stability", _LINE_N, _hardy_family_stability, _fixed(_HARDY_STABILITY),
              "mean={mean:.6g}"),
    ),
    "hardy-littlewood": (
        Check("hardy-littlewood-triangle-plateau", _LINE_N, _triangle_plateau, _fixed(PLATEAU_GROWTH_TOL),
              "classification={classification}"),
        Check("hardy-littlewood-box-log-slope", _LINE_N, _box_slope, _box_slope_bound,
              "classification={classification} slope={slope:.6g}"),
        Check("hardy-littlewood-box-fit-r2", _LINE_N,
              lambda p, n: {"misfit": 1.0 - _verdict(p, Family.BOX, n)[0].r_squared}, _fixed(0.01)),
        Check("hardy-littlewood-box-tv-growth", lambda p: 2 * p.line_n, partial(_tv_drop, Family.BOX), _fixed(-0.1),
              "tv_n={tv_n:.6g} tv_2n={tv_2n:.6g}"),
        Check("hardy-littlewood-triangle-tv-stability", lambda p: 2 * p.line_n,
              lambda p, n: {"change": abs(_tv_drop(Family.TRIANGLE, p, n)["drop"])}, _fixed(1e-3)),
    ),
    "periodic": (
        Check("periodic-conjugate-modes", _PERIODIC_N, _conjugate_modes, _fixed(1e-6)),
        Check("periodic-coefficient-modulus-triangle-wave", _PERIODIC_N,
              lambda p, n: {"sup": conjugate_coefficient_check(_triangle_wave(n), p.kmax_pair[1])}, _fixed(1e-8)),
        Check("periodic-absolute-sum-growth", _PERIODIC_N, _absolute_sum_growth, _fixed(0.005),
              "S{k_lo}={s_lo:.9g} S{k_hi}={s_hi:.9g}"),
        Check("periodic-conjugate-involution", _PERIODIC_N, _involution, _fixed(1e-8)),
        # the kernel-difference lines take n as the partial sum's number of terms
        Check("kernel-difference-tail-t1", lambda p: 10_000,
              lambda p, n: {"gap": abs(np.subtract(*kernel_difference(1.0, n)))}, _fixed(1e-4)),
        Check("kernel-difference-oddness", lambda p: 8,
              lambda p, n: {"sup": max(abs(kernel_difference(t, n)[1] + kernel_difference(-t, n)[1])
                                       for t in (0.25, 1.0, 2.0, 3.0, 5.0))}, _fixed(0.0)),
        Check("kernel-difference-at-pi", lambda p: 8,
              lambda p, n: {"gap": abs(kernel_difference(math.pi, n)[1] + 1.0 / math.pi)}, _fixed(1e-15)),
    ),
    "radial": (
        Check("radial-ball-closed-form", _RADIAL_N, _ball_closed_form, _ball_closed_form_bound),
        Check("radial-ball-volume-limit", _RADIAL_N,
              lambda p, n: {"relative": abs(radial_ft_leray(_ball(n, 3), [1e-6])[0] - _BALL3) / _BALL3}, _fixed(1e-4)),
        Check("radial-disc-fractional-integral", _RADIAL_N, _disc_fractional_integral, _fixed(1e-6)),
        *(Check(f"radial-threeway-dim{dim}", _RADIAL_N, partial(_threeway, dim), partial(_threeway_bound, dim),
                "leray={leray:.6g} ibp={ibp:.6g}") for dim in (2, 3)),
        Check("radial-dim1-even-extension", _RADIAL_N, _dim1_even_extension, _fixed(1e-6)),
        Check("radial-leray-condition-ball", _RADIAL_N,
              lambda p, n: {"gap": abs(leray_condition(_ball(n, 3)) - (math.log(2.0) - 0.5))}, _leray_condition_bound),
    ),
}

# each suite is its records through the one evaluator
_SUITE_FUNCS = {suite: partial(_evaluate, checks) for suite, checks in _CHECKS.items()}


# Graham's longest-first rule, "Bounds on multiprocessing timing anomalies"
# (SIAM J. Appl. Math. 17, 1969): the threads take the suites in this order,
# longest first on the strict profile, where the bench runs two threads.
# Seconds per suite, strict / default, in process on one thread, median of 7
# on a 2-vCPU VM: hardy 0.040 / 0.018, radial 0.038 / 0.039, hilbert 0.023 /
# 0.011, hardy-littlewood 0.023 / 0.013 (ties within the noise), lemma-dc
# 0.017 / 0.008, periodic 0.004 / 0.004.
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
