"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Default rig: the interval [-50, 50] with n = 2^14 samples unless a
criterion states otherwise.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines.  Two clauses are marked strict
xfail: they encode requirements this implementation provably cannot and
should not meet (the commutation defect sits at machine precision, so
no refinement ratio applies, and the Hardy constant under the
unnormalized transform convention is member-dependent); the measured
numbers are printed either way.
"""

import math

import numpy as np
import pytest

from bvfourier import (
    Family,
    FamilySpec,
    classify_l1_growth,
    conjugate_coefficient_check,
    conjugate_derivative_defect,
    derivative,
    fourier_coefficients,
    h1_report,
    hardy_check,
    hilbert_multiplier,
    hilbert_pv,
    kernel_difference,
    l1_norm_ft,
    make_uniform_grid,
    modified_hilbert,
    radial_ft_ibp,
    radial_ft_leray,
    radial_ft_oracle,
    fractional_integral,
    sample,
    total_variation,
)
from bvfourier.radial import RadialProfile
from bvfourier.grids import DecayClass, SampledFunction

A, B, N = -50.0, 50.0, 2**14


def line(family, n=N, **params):
    return sample(FamilySpec(family, params), make_uniform_grid(A, B, n))


def interior(values):
    n = values.size
    return values[n // 10 : (9 * n) // 10]


def report(tag, measured, bound, comparison="<="):
    ok = measured <= bound if comparison == "<=" else measured >= bound
    print(f"ACCEPTANCE {tag}: measured={measured:.6g} bound{comparison}{bound:.6g} -> {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def poisson_pair():
    f = line(Family.POISSON_KERNEL, a=1.0)
    q = line(Family.CONJUGATE_POISSON, a=1.0)
    return f, q


def test_criterion_01_hilbert_pair_accuracy(poisson_pair):
    f, q = poisson_pair
    pv_err = float(np.max(np.abs(interior(hilbert_pv(f).values - q.values))))
    mult_err = float(np.max(np.abs(interior(hilbert_multiplier(f).values - q.values))))
    ok = report("01a hilbert-pv-poisson", pv_err, 1e-3)
    ok &= report("01b hilbert-multiplier-poisson", mult_err, 1e-6)
    assert ok


def test_criterion_02_cross_algorithm_agreement():
    sups = []
    for n in (N, 2 * N):
        g = line(Family.GAUSSIAN, n=n)
        sups.append(float(np.max(np.abs(hilbert_pv(g).values - hilbert_multiplier(g).values))))
    ok = report("02a pv-vs-multiplier-gaussian", sups[0], 1e-3)
    ok &= report("02b refinement-gain", sups[0] / sups[1], 2.0, comparison=">=")
    assert ok


@pytest.fixture(scope="module")
def commutation_defects():
    return [conjugate_derivative_defect(line(Family.RAISED_COSINE, n=n)) for n in (N, 2 * N)]


def test_criterion_03_commutation_defect(commutation_defects):
    assert report("03a conjugate-derivative-defect", commutation_defects[0], 1e-2)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "both routes are translation-invariant convolutions and commute exactly, "
        "so the defect sits at machine roundoff (~1e-13) and cannot decrease "
        "under refinement; the halving clause presumes an error-dominated defect"
    ),
)
def test_criterion_03_refinement_ratio(commutation_defects):
    ratio = commutation_defects[1] / commutation_defects[0]
    assert report("03b defect-refinement-ratio", ratio, 0.6)


HARDY_FAMILY = (Family.TRIANGLE, Family.RAISED_COSINE, Family.SMOOTHED_BOX)


@pytest.fixture(scope="module")
def hardy_results():
    out = {}
    for fam in HARDY_FAMILY:
        for n in (N // 2, N):
            lhs, h1 = hardy_check(derivative(line(fam, n=n)))
            out[(fam, n)] = (lhs, h1, lhs / h1.h1_norm)
    return out


def test_criterion_04_cancellation(hardy_results):
    ok = True
    for fam in HARDY_FAMILY:
        residual = h1_report(derivative(line(fam))).cancellation_residual
        ok &= report(f"04a cancellation-{fam.value}", residual, 1e-8)
    assert ok


def test_criterion_04_constant_stability_across_grids(hardy_results):
    dev = max(
        abs(hardy_results[(fam, N // 2)][2] / hardy_results[(fam, N)][2] - 1.0)
        for fam in HARDY_FAMILY
    )
    assert report("04b hardy-constant-grid-stability", dev, 0.02)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "under the unnormalized e^{-itx} convention the inequality needs a "
        "constant (recorded ratios 1.40..1.55 > 1); hardy_check returns the "
        "norms so the empirical constant is reported instead of silently rescaled"
    ),
)
def test_criterion_04_inequality_with_unit_constant(hardy_results):
    ok = True
    for fam in HARDY_FAMILY:
        lhs, h1, _ = hardy_results[(fam, N)]
        ok &= report(f"04c hardy-{fam.value}", lhs, h1.h1_norm * (1.0 + 1e-2))
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the empirical constant is a functional of the member (1.398, 1.467, "
        "1.548), not a convention constant; no correct implementation can make "
        "it family-stable to 2%"
    ),
)
def test_criterion_04_constant_stability_across_family(hardy_results):
    constants = [hardy_results[(fam, N)][2] for fam in HARDY_FAMILY]
    mean = sum(constants) / len(constants)
    dev = max(abs(c / mean - 1.0) for c in constants)
    assert report("04d hardy-constant-family-stability", dev, 0.02)


CUTOFFS = np.array([25.0, 50.0, 100.0, 200.0])


def test_criterion_05_triangle_is_integrable_plateau():
    vals = l1_norm_ft(line(Family.TRIANGLE), CUTOFFS)
    fit = classify_l1_growth(CUTOFFS, vals)
    print(f"ACCEPTANCE 05a triangle-classification: {fit.label}")
    ok = fit.label == "integrable-plateau"
    ok &= report("05b growth-100-to-200", fit.final_growth, 0.01)
    assert ok


def test_criterion_06_box_is_log_divergent():
    vals = l1_norm_ft(line(Family.BOX), CUTOFFS)
    fit = classify_l1_growth(CUTOFFS, vals)
    print(f"ACCEPTANCE 06a box-classification: {fit.label}")
    ok = fit.label == "log-divergent"
    ok &= report("06b slope-vs-4-over-pi", abs(fit.slope * math.pi / 4.0 - 1.0), 0.05)
    tv = {}
    for fam in (Family.BOX, Family.TRIANGLE):
        for n in (N, 2 * N):
            tv[(fam, n)] = total_variation(modified_hilbert(line(fam, n=n)))
    ok &= report("06c box-conjugate-tv-growth", tv[(Family.BOX, 2 * N)] - tv[(Family.BOX, N)], 0.1, comparison=">=")
    ok &= report("06d triangle-conjugate-tv-stability", abs(tv[(Family.TRIANGLE, 2 * N)] - tv[(Family.TRIANGLE, N)]), 1e-3)
    assert ok


def test_criterion_07_periodic_conjugate_coefficients():
    wave = sample(
        FamilySpec(Family.TRIANGLE_WAVE_PERIODIC),
        make_uniform_grid(-math.pi, math.pi, 2**12),
    )
    defect = conjugate_coefficient_check(wave, 512)
    ok = report("07a coefficient-modulus-defect", defect, 1e-8)
    sums = fourier_coefficients(wave, 512).abs_partial_sums
    growth = (sums[512] - sums[256]) / sums[256]
    ok &= report("07b absolute-sum-growth-256-512", growth, 0.005)
    assert ok


@pytest.fixture(scope="module")
def ball_profile():
    grid = make_uniform_grid(0.0, 2.0, 8193)
    vals = (grid.points <= 1.0).astype(float)
    return RadialProfile(SampledFunction(grid, vals, DecayClass.VANISHING_AT_INFINITY), 3)


def test_criterion_08_unit_ball_constants(ball_profile):
    frac = fractional_integral(ball_profile)
    radii = np.round(np.arange(0.1, 10.0 + 1e-9, 0.1), 10)
    exact = 4.0 * math.pi * (np.sin(radii) - radii * np.cos(radii)) / radii**3
    mask = np.abs(exact) >= 1e-3 * float(np.max(np.abs(exact)))
    got = radial_ft_leray(ball_profile, radii, frac=frac)
    rel = float(np.max(np.abs(got - exact)[mask] / np.abs(exact)[mask]))
    ok = report("08a ball-transform-relative-error", rel, 1e-4)
    v0 = radial_ft_leray(ball_profile, [1e-6], frac=frac)[0]
    ok &= report("08b small-radius-vs-ball-volume", abs(v0 - 4 * math.pi / 3) / (4 * math.pi / 3), 1e-4)
    assert ok


def test_criterion_09_three_way_agreement():
    ok = True
    radii = np.linspace(0.5, 10.0, 39)
    for dim in (2, 3):
        grid = make_uniform_grid(0.0, 2.0, 8193)
        s = grid.points
        vals = np.where(np.abs(s - 1.0) <= 0.5, 0.5 * (1.0 + np.cos(np.pi * (s - 1.0) / 0.5)), 0.0)
        p = RadialProfile(SampledFunction(grid, vals, DecayClass.COMPACT_SUPPORT), dim)
        frac = fractional_integral(p)
        oracle = radial_ft_oracle(p, radii)
        scale = float(np.max(np.abs(oracle)))
        d1 = float(np.max(np.abs(radial_ft_leray(p, radii, frac=frac) - oracle))) / scale
        d2 = float(np.max(np.abs(radial_ft_ibp(p, radii, frac=frac) - oracle))) / scale
        ok &= report(f"09a leray-vs-oracle-dim{dim}", d1, 1e-3)
        ok &= report(f"09b ibp-vs-oracle-dim{dim}", d2, 1e-3)
    grid = make_uniform_grid(0.0, 2.0, 8193)
    disc = RadialProfile(
        SampledFunction(grid, (grid.points <= 1.0).astype(float), DecayClass.VANISHING_AT_INFINITY), 2
    )
    frac2 = fractional_integral(disc)
    s = frac2.samples.x
    inside = s < 1.0
    closed = (2.0 / math.sqrt(math.pi)) * np.sqrt(1.0 - s[inside] ** 2)
    ok &= report(
        "09c disc-fractional-integral", float(np.max(np.abs(frac2.samples.values[inside] - closed))), 1e-6
    )
    assert ok


def test_criterion_10_kernel_difference_series():
    partial, closed = kernel_difference(1.0, 10_000)
    ok = report("10a partial-sum-tail-at-t1", abs(partial - closed), 1e-4)
    odd = max(abs(kernel_difference(-t, 16)[1] + kernel_difference(t, 16)[1]) for t in (0.25, 1.0, 3.0))
    ok &= report("10b closed-form-oddness", odd, 0.0)
    _, at_pi = kernel_difference(math.pi, 16)
    ok &= report("10c value-at-pi-vs-minus-inv-pi", abs(at_pi + 1.0 / math.pi), 1e-15)
    assert ok


def test_criterion_11_verify_all_is_deterministic(tmp_path):
    from bvfourier.cli import main

    out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    rc1 = main(["verify", "--suite", "all", "--profile", "default", "--out", str(out1)])
    rc2 = main(["verify", "--suite", "all", "--profile", "default", "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    twins = out1.with_suffix(".csv").read_bytes() == out2.with_suffix(".csv").read_bytes()
    print(
        f"ACCEPTANCE 11 verify-all-determinism: text_identical={identical} "
        f"csv_identical={twins} exit={rc1}=={rc2} -> {'PASS' if identical and twins and rc1 == rc2 else 'FAIL'}"
    )
    assert identical and twins and rc1 == rc2
