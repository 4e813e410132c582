import math

import numpy as np
import pytest

from bvfourier import (
    DecayClass,
    Family,
    FamilySpec,
    SampledFunction,
    classify_l1_growth,
    conjugate_derivative_defect,
    derivative,
    hardy_littlewood_verdict,
    hilbert_pv,
    ibp_consistency,
    make_uniform_grid,
    modified_hilbert,
    sample,
    total_variation,
)
from bvfourier.verification import PLATEAU_GROWTH_TOL, _jump_exclusion_mask, _median


def line_function(family, n=2**13, **params):
    return sample(FamilySpec(family, params), make_uniform_grid(-50.0, 50.0, n))


def test_report_pass_flag_is_derived_from_measured_vs_bound():
    from bvfourier import VerificationReport

    assert VerificationReport("x", 1.0, 2.0, 8).passed
    assert not VerificationReport("x", 2.0, 1.0, 8).passed
    assert VerificationReport("x", -0.5, -0.1, 8).passed


def test_classifier_plateau():
    cutoffs = np.array([25.0, 50.0, 100.0, 200.0])
    fit = classify_l1_growth(cutoffs, np.array([3.0, 3.01, 3.013, 3.014]))
    assert fit.label == "integrable-plateau"


def test_classifier_log_divergent():
    cutoffs = np.array([25.0, 50.0, 100.0, 200.0])
    vals = 1.27 * np.log(cutoffs) + 2.0
    fit = classify_l1_growth(cutoffs, vals)
    assert fit.label == "log-divergent"
    assert fit.slope == pytest.approx(1.27, rel=1e-12)
    assert fit.r_squared >= 0.999999


def test_classifier_inconclusive():
    cutoffs = np.array([25.0, 50.0, 100.0, 200.0])
    fit = classify_l1_growth(cutoffs, np.array([1.0, 5.0, 2.0, 4.0]))
    assert fit.label == "inconclusive"


def test_classifier_needs_four_points():
    with pytest.raises(ValueError):
        classify_l1_growth(np.array([1.0, 2.0, 4.0]), np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("cutoffs, values", [
    ([25.0, 50.0, 100.0, 200.0], [3.0, 3.01, math.nan, 3.014]),
    ([25.0, 50.0, 100.0, 200.0], [3.0, 3.01, 3.013, math.inf]),
    ([25.0, 50.0, 100.0, math.inf], [3.0, 3.01, 3.013, 3.014]),
    ([25.0, math.nan, 100.0, 200.0], [3.0, 3.01, 3.013, 3.014]),
])
def test_classifier_refuses_non_finite_input(cutoffs, values):
    # a NaN mass was once labelled integrable-plateau with slope nan
    with pytest.raises(ValueError, match="^cutoffs and values must be finite$"):
        classify_l1_growth(np.array(cutoffs), np.array(values))


@pytest.mark.parametrize("cutoffs", [[25.0, 50.0, 100.0, -200.0], [0.0, 50.0, 100.0, 200.0], [200.0, 100.0, 50.0, 25.0]])
def test_classifier_refuses_cutoffs_that_are_not_positive_and_ascending(cutoffs):
    # a cutoff <= 0 once reached np.log and np.polyfit, where LAPACK wrote to stderr and
    # raised LinAlgError; descending cutoffs were labelled integrable-plateau
    with pytest.raises(ValueError, match="^cutoffs must be finite, positive and strictly ascending$"):
        classify_l1_growth(np.array(cutoffs), np.array([3.0, 3.01, 3.013, 3.014]))


def test_verdict_refuses_a_step_that_is_not_finite_and_positive():
    for dt in (math.inf, 0.0):
        with pytest.raises(ValueError, match="^dt must be finite and positive$"):
            hardy_littlewood_verdict(line_function(Family.TRIANGLE, n=257), [25.0, 50.0, 100.0, 200.0], dt=dt)


def test_commutation_defect_zero_function():
    grid = make_uniform_grid(-5, 5, 1025)
    z = SampledFunction(grid, np.zeros(1025), DecayClass.COMPACT_SUPPORT)
    assert conjugate_derivative_defect(z) == 0.0


@pytest.mark.parametrize("family", [Family.RAISED_COSINE, Family.GAUSSIAN])
def test_commutation_defect_small_on_smooth_families(family):
    assert conjugate_derivative_defect(line_function(family)) <= 1e-2


def test_commutation_is_exact_for_this_discretization():
    # d/dx and the convolution-form transforms are jointly translation
    # invariant, so the two routes agree to roundoff on decaying input;
    # the identity holds discretely, not just in the h -> 0 limit
    assert conjugate_derivative_defect(line_function(Family.RAISED_COSINE)) <= 1e-10


def test_commutation_defect_excludes_jump_zones():
    fp = derivative(line_function(Family.BOX))
    mask = _jump_exclusion_mask(fp)
    lo, hi = fp.n // 10, (9 * fp.n) // 10
    excluded = lo + np.flatnonzero(~mask[lo:hi])
    assert excluded.size > 0
    # the mask drops steps j-5..j+6 around a flagged step j, and the flagged
    # steps straddle the box's jumps at x = +-1, so nothing else is dropped
    assert np.all(np.abs(np.abs(fp.x[excluded]) - 1.0) <= 7.0 * fp.h)


def test_partition_median_is_numpy_median_bit_for_bit():
    rng = np.random.default_rng(11)
    for size in range(1, 64):
        values = np.abs(rng.standard_normal(size)) * 10.0 ** rng.integers(-12, 12, size)
        for data in (values, np.round(values, 1)):  # distinct values, then ties
            assert _median(data) == np.median(data)
    big = np.array([1.0, np.finfo(float).max, np.finfo(float).max])  # an odd count takes no sum
    assert _median(big) == np.median(big)


def test_ibp_zero_function():
    grid = make_uniform_grid(-10, 10, 1025)
    z = SampledFunction(grid, np.zeros(1025), DecayClass.COMPACT_SUPPORT)
    h = grid.h
    assert np.max(np.abs(ibp_consistency(z, 0.0, [8 * h, 4 * h, 2 * h]))) == 0.0


def test_ibp_gaussian_converges_to_pv_route():
    f = line_function(Family.GAUSSIAN)
    h = f.h
    x0 = float(f.x[int(round((1.0 - f.grid.a) / h))])
    seq = ibp_consistency(f, x0, [32 * h, 16 * h, 8 * h, 4 * h])
    ref = hilbert_pv(derivative(f)).values[int(round((x0 - f.grid.a) / h))]
    assert abs(seq[-1] - ref) <= 1e-2
    gaps = np.abs(np.diff(seq))
    assert np.all(np.diff(gaps) <= 0.0)  # Cauchy-like in delta


def test_ibp_flat_plateau_is_delta_independent():
    # constant f near x: the 2f(x)/delta term cancels the near-window
    # kernel mass exactly, so the bracket does not depend on delta
    grid = make_uniform_grid(-50, 50, 2**12 + 1)
    x = grid.points
    vals = np.ones_like(x)
    taper = (np.abs(x) > 20.0) & (np.abs(x) <= 25.0)
    vals[taper] = 0.5 * (1.0 + np.cos(np.pi * (np.abs(x[taper]) - 20.0) / 5.0))
    vals[np.abs(x) > 25.0] = 0.0
    f = SampledFunction(grid, vals, DecayClass.COMPACT_SUPPORT)
    h = grid.h
    seq = ibp_consistency(f, 0.0, [64 * h, 16 * h, 4 * h, h])
    assert np.max(np.abs(seq - seq[0])) <= 1e-12


def test_ibp_argument_validation():
    f = line_function(Family.GAUSSIAN, n=1025)
    h = f.h
    with pytest.raises(ValueError, match="grid point"):
        ibp_consistency(f, 0.123456, [4 * h])
    with pytest.raises(ValueError, match="descending"):
        ibp_consistency(f, 0.0, [2 * h, 4 * h])
    with pytest.raises(ValueError, match="resolution"):
        ibp_consistency(f, 0.0, [h / 2])


def test_ibp_refuses_an_empty_delta_list():
    # it once returned an empty array
    f = line_function(Family.GAUSSIAN, n=1025)
    with pytest.raises(ValueError, match="^need at least one delta$"):
        ibp_consistency(f, 0.0, [])


def test_verdict_triangle_is_plateau():
    fit, tv_f, tv_conj = hardy_littlewood_verdict(line_function(Family.TRIANGLE), [25.0, 50.0, 100.0, 200.0])
    assert abs(fit.final_growth) <= PLATEAU_GROWTH_TOL
    assert fit.label == "integrable-plateau"
    assert 0.0 < tv_f < math.inf and 0.0 < tv_conj < math.inf


def test_verdict_box_is_log_divergent_with_known_slope():
    fit, _, _ = hardy_littlewood_verdict(line_function(Family.BOX, n=2**14), [25.0, 50.0, 100.0, 200.0])
    assert abs(fit.final_growth) > PLATEAU_GROWTH_TOL  # growth exceeds the plateau tolerance, as predicted
    assert fit.label == "log-divergent"
    assert fit.slope == pytest.approx(4.0 / math.pi, rel=0.05)


def test_verdict_zero_function():
    grid = make_uniform_grid(-5, 5, 257)
    z = SampledFunction(grid, np.zeros(257), DecayClass.COMPACT_SUPPORT)
    fit, tv_f, tv_conj = hardy_littlewood_verdict(z, [1.0, 2.0, 4.0, 8.0])
    assert fit.final_growth == 0.0
    assert tv_f == tv_conj == 0.0


def test_verdict_needs_four_cutoffs():
    f = line_function(Family.TRIANGLE, n=257)
    with pytest.raises(ValueError):
        hardy_littlewood_verdict(f, [10.0, 20.0])


def test_conjugate_variation_growth_separates_box_from_triangle():
    # unbounded conjugate variation shows up as growth under refinement,
    # not as any single-grid value
    tv = {}
    for fam in (Family.BOX, Family.TRIANGLE):
        for n in (2**12, 2**13):
            tv[(fam, n)] = total_variation(modified_hilbert(line_function(fam, n=n)))
    assert tv[(Family.BOX, 2**13)] - tv[(Family.BOX, 2**12)] >= 0.1
    assert abs(tv[(Family.TRIANGLE, 2**13)] - tv[(Family.TRIANGLE, 2**12)]) <= 1e-3
