import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from bvfourier import (
    DecayClass,
    Family,
    FamilySpec,
    SampledFunction,
    conjugate_coefficient_check,
    derivative,
    fourier_coefficients,
    fourier_transform,
    h1_report,
    hardy_check,
    integrate,
    l1_norm_ft,
    make_uniform_grid,
    sample,
    transform_values,
)
from bvfourier._fft import fast_len
from bvfourier.grids import trapezoid_weights
from reference import needs_bluestein


def line_function(family, lo=-50.0, hi=50.0, n=2**13, **params):
    # grid endpoints are lo/hi: the poisson scale parameter is itself named "a"
    return sample(FamilySpec(family, params), make_uniform_grid(lo, hi, n))


def quad_transform_oracle(fn, a, b, t):
    """Independent high-resolution quadrature of int fn(x) e^{-itx} dx."""
    re, _ = quad(lambda x: fn(x) * math.cos(t * x), a, b, limit=800)
    im, _ = quad(lambda x: -fn(x) * math.sin(t * x), a, b, limit=800)
    return complex(re, im)


def test_box_transform_matches_sinc():
    # edge samples carry the half-open indicator's O(h) discretization bias
    f = line_function(Family.BOX, n=16001, width=2.0)
    res = fourier_transform(f, cutoff=20.0, m=801)
    t = res.freqs
    expected = np.where(t == 0.0, 2.0, 2.0 * np.sin(t) / np.where(t == 0.0, 1.0, t))
    assert np.max(np.abs(res.values - expected)) <= 2.0 * f.h


def test_transform_zero_frequency_is_the_plain_integral():
    f = line_function(Family.POISSON_KERNEL, n=2049)
    res = fourier_transform(f, cutoff=10.0, m=41)
    i0 = np.flatnonzero(res.freqs == 0.0)[0]
    assert res.values[i0] == complex(integrate(f))


def test_gaussian_transform_closed_form():
    f = line_function(Family.GAUSSIAN, lo=-8.0, hi=8.0, n=2**12 + 1)
    res = fourier_transform(f, cutoff=5.0, m=401)
    t = res.freqs
    expected = math.sqrt(2.0 * math.pi) * np.exp(-(t**2) / 2.0)
    rel = np.max(np.abs(res.values - expected) / expected)
    assert rel <= 1e-6


def test_gaussian_transform_against_quad_oracle():
    f = line_function(Family.GAUSSIAN, lo=-8.0, hi=8.0, n=2**12 + 1)
    for t0 in (0.7, 3.3):
        got = transform_values(f, np.array([t0]))[0]
        want = quad_transform_oracle(lambda x: math.exp(-x * x / 2.0), -8.0, 8.0, t0)
        assert abs(got - want) <= 1e-9


def test_triangle_transform_nonnegative_with_unit_area():
    f = line_function(Family.TRIANGLE, n=16001, width=2.0)
    res = fourier_transform(f, cutoff=30.0, m=1201)
    assert abs(res.values[np.flatnonzero(res.freqs == 0.0)[0]] - 1.0) <= 1e-13
    assert np.min(res.values.real) >= -1e-7
    t0 = 7.3
    got = transform_values(f, np.array([t0]))[0]
    assert got.real == pytest.approx(2.0 * (1.0 - math.cos(t0)) / t0**2, abs=1e-5)


def test_transform_linearity():
    f = line_function(Family.GAUSSIAN, n=1025)
    g = line_function(Family.POISSON_KERNEL, n=1025)
    t = np.linspace(-4, 4, 129)
    combo = f.with_values(2.0 * f.values - 3.0 * g.values, DecayClass.VANISHING_AT_INFINITY)
    lhs = transform_values(combo, t)
    rhs = 2.0 * transform_values(f, t) - 3.0 * transform_values(g, t)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


@pytest.mark.parametrize("family", [Family.BOX, Family.TRIANGLE, Family.GAUSSIAN, Family.POISSON_KERNEL])
def test_real_input_gives_conjugate_symmetric_transform(family):
    f = line_function(family, n=2049)
    res = fourier_transform(f, cutoff=15.0, m=257)
    assert np.max(np.abs(res.values[::-1] - np.conj(res.values))) <= 1e-10


def test_chirp_z_path_matches_direct_reference(dft_paths):
    # accelerated evaluation must agree with the direct trapezoid sum
    f = line_function(Family.POISSON_KERNEL, n=2**12)
    t = np.linspace(-40.0, 40.0, 4097)  # uniform grid takes the czt path
    fast = transform_values(f, t)
    assert dft_paths == {"lattice": [], "zoom": 1}  # one run, one call
    w = np.full(f.n, f.h)
    w[0] = w[-1] = f.h / 2
    direct = np.empty(t.size, dtype=complex)
    for s in range(0, t.size, 256):
        direct[s : s + 256] = np.exp(-1j * np.outer(t[s : s + 256], f.x)) @ (w * f.values)
    assert np.max(np.abs(fast - direct)) <= 1e-10


def direct_transform(f, t):
    """O(n m) trapezoid sum, the reference every fast path must reproduce."""
    w = np.full(f.n, f.h)
    w[0] = w[-1] = f.h / 2
    return np.array([np.sum(w * f.values * np.exp(-1j * tk * f.x)) for tk in t])


def test_default_grid_takes_the_lattice_dft_and_matches_direct_sum(dft_paths):
    f = line_function(Family.POISSON_KERNEL, n=2**10 + 1)
    res = fourier_transform(f)
    assert dft_paths == {"lattice": [("fourier_transform", f.n, 0, f.n, 1)], "zoom": 0}
    t = res.freqs
    assert t.size == 2 * f.n - 1
    assert np.array_equal(t[::-1], -t)  # the evaluated nodes, exactly mirrored
    assert t[-1] == pytest.approx(math.pi / f.h, rel=1e-14)
    want = direct_transform(f, t)
    i0 = np.flatnonzero(t == 0.0)[0]
    assert res.values[i0] == complex(integrate(f))
    want[i0] = integrate(f)
    assert np.max(np.abs(res.values - want)) <= 1e-12
    assert abs(res.values[0] - want[0]) <= 1e-12 and abs(res.values[-1] - want[-1]) <= 1e-12
    assert np.max(np.abs(res.values[::-1] - np.conj(res.values))) == 0.0


def test_nyquist_bin_is_read_as_it_is_at_both_ends(dft_paths):
    # t = -pi/h and t = pi/h both read bin N/2 of the length-2(n - 1) DFT, its own
    # mirror.  The Gaussian's samples underflow at the window ends, so that bin
    # is exactly 0 and a conjugated copy would write -0 into the CSV at t = -pi/h
    f = line_function(Family.GAUSSIAN, n=1025)
    res = fourier_transform(f)
    assert dft_paths["lattice"] == [("fourier_transform", f.n, 0, f.n, 1)]
    assert -res.freqs[0] == res.freqs[-1] == pytest.approx(math.pi / f.h, rel=1e-14)
    assert res.values[0] == 0.0 and res.values[-1] == 0.0
    assert res.values[[0, -1]].view(np.uint64).tolist() == [0, 0, 0, 0]  # +0 + 0j at both ends


@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("fold", [2, 3, 4, 8])
def test_sub_lattice_path_matches_direct_sum(fold, complex_values, dft_paths):
    f = line_function(Family.POISSON_KERNEL, n=2**8 + 1)
    if complex_values:
        f = f.with_values(f.values * np.exp(0.3j * f.x) + 0.1j * f.values**2)
    # mirrored nodes k pi/(L W), |k| <= L (n - 1), up to the Nyquist bin of the
    # length-2L(n - 1) DFT: no caller lays this lattice out, so transform_values
    # takes it as one arithmetic progression
    half = np.arange(fold * (f.n - 1) + 1) * (math.pi / (fold * f.grid.width))
    t = np.concatenate((-half[:0:-1], half))
    got = transform_values(f, t)
    assert dft_paths == {"lattice": [], "zoom": 1}
    want = direct_transform(f, t)
    assert np.max(np.abs(got - want)) <= 1e-10
    assert abs(got[0] - want[0]) <= 1e-10 and abs(got[-1] - want[-1]) <= 1e-10


@pytest.mark.parametrize("kind", ["complex64", "strided complex128"])
def test_transform_of_complex_samples_at_any_scale_matches_direct_sum(kind):
    # the samples are scaled to unit size part by part: complex64 parts once
    # took the bit layout of float64, and a strided array could not be viewed
    f = line_function(Family.POISSON_KERNEL, n=2**8 + 1)
    z = 1e3 * (f.values * np.exp(0.3j * f.x) + 0.1j * f.values**2) / np.max(f.values)
    values = z.astype(np.complex64) if kind == "complex64" else np.repeat(z, 2)[::2]
    g = SampledFunction(f.grid, values, f.decay_class)
    t = np.array([0.0, 0.37, -1.1, 2.5])  # no progression: the direct sum
    want = direct_transform(g, t)
    assert np.max(np.abs(transform_values(g, t) - want)) <= 1e-12 * np.max(np.abs(want))
    t = np.linspace(-3.0, 3.0, 41)  # an arithmetic progression: the chirp-z
    want = direct_transform(g, t)
    assert np.max(np.abs(transform_values(g, t) - want)) <= 1e-10 * np.max(np.abs(want))


def lattice_dft_reference(f, t, fold):
    """The length-N DFT bins of the lattice path, from numpy's FFT at length N itself."""
    N = 2 * fold * (f.n - 1)
    wf = trapezoid_weights(f.grid) * f.values
    k = np.rint(t / (math.pi / (fold * f.grid.width))).astype(np.int64) % N
    if f.is_real():
        bins = np.fft.rfft(wf, N)[np.minimum(k, N - k)]
        bins = np.where(k > N // 2, np.conj(bins), bins)
    else:
        bins = np.fft.fft(wf, N)[k]
    return np.exp(-1j * t * f.grid.a) * bins, float(np.sum(np.abs(wf)))


def hardy_bins(f):
    """The Hardy probe's nodes k pi/(4W), k = 4 .. 4 (n - 1), and e^{-ita} times the
    bins it asks the lattice DFT for, from real samples f."""
    import bvfourier.fourier as fourier

    k = np.arange(4, 4 * (f.n - 1) + 1)
    t = k * (math.pi / (4 * f.grid.width))
    return t, np.exp(-1j * t * f.grid.a) * fourier._lattice_dft(trapezoid_weights(f.grid) * f.values, 4, k.size, 4)


def lattice_owner_values(f, fold, dft_paths):
    """Nodes and values from the caller that lays out the L-fold lattice of real f:
    fourier_transform's default grid for L = 1, the Hardy probe's bins for L = 4."""
    if fold == 1:
        res = fourier_transform(f)
        assert dft_paths["lattice"] == [("fourier_transform", f.n, 0, f.n, 1)]
        return res.freqs, res.values
    t, got = hardy_bins(f)
    assert dft_paths["lattice"] == [("hardy_bins", f.n, 4, t.size, 4)]
    return t, got


@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("fold", [1, 4])
def test_lattice_with_a_large_prime_factor_matches_direct_sum(fold, complex_values, dft_paths, padded_fft_lengths):
    # n = 2^13: N = 2L (n - 1) = 2L * 8191, and 8191 is prime, so pocketfft runs
    # the rfft at N by its Bluestein algorithm.  Real samples take the lattice DFT
    # of the caller that lays the grid out; complex samples on the mirrored
    # lattice take the zoom DFT, at a 5-smooth length
    f = line_function(Family.POISSON_KERNEL, n=2**13)
    if complex_values:
        f = f.with_values(f.values * np.exp(0.3j * f.x) + 0.1j * f.values**2)
    N = 2 * fold * (f.n - 1)
    assert needs_bluestein(N)
    padded_fft_lengths.clear()
    if complex_values:
        half = np.arange(fold * (f.n - 1) + 1) * (math.pi / (fold * f.grid.width))
        t = np.concatenate((-half[:0:-1], half))
        got = transform_values(f, t)
        assert dft_paths == {"lattice": [], "zoom": 1}
        assert padded_fft_lengths and all(fast_len(L) == L for L in padded_fft_lengths)
    else:
        t, got = lattice_owner_values(f, fold, dft_paths)
        assert dft_paths["zoom"] == 0 and padded_fft_lengths == [N]
    idx = np.union1d(np.arange(0, t.size, 331), [t.size // 2, t.size - 1])  # 0 and the Nyquist end(s)
    want = direct_transform(f, t[idx])
    want[t[idx] == 0.0] = integrate(f)  # fourier_transform's value at t = 0
    assert np.max(np.abs(got[idx] - want)) <= 1e-10
    if complex_values:
        return
    # Each FFT runs about log2(N) radix passes, each rounding partial sums
    # bounded by sum |w f|, the largest any bin can be: the route and the
    # reference, both at N
    want, scale = lattice_dft_reference(f, t, fold)
    want[t == 0.0] = integrate(f)
    assert np.max(np.abs(got - want)) <= np.finfo(float).eps * 2.0 * math.log2(N) * scale
    if fold == 1:
        assert np.array_equal(got[::-1], np.conj(got))


@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize(
    "n, bluestein",
    [(2**12 + 1, False), (2**14, False), (2**13, True)],
    ids=["N=2^15", "N=8*3*43*127", "N=8*8191"],
)
def test_lattice_dft_runs_at_its_length(n, bluestein, complex_values, dft_paths, padded_fft_lengths):
    # the Hardy probe's 4-fold lattice, N = 8 (n - 1): its bins take one rfft at N
    # itself, whether or not a prime p of N has p^2 > N (pocketfft's own Bluestein
    # test).  Complex samples on the mirrored lattice take the zoom DFT
    f = line_function(Family.POISSON_KERNEL, n=n)
    if complex_values:
        f = f.with_values(f.values * np.exp(0.3j * f.x) + 0.1j * f.values**2)
    N = 8 * (n - 1)
    assert needs_bluestein(N) == bluestein
    padded_fft_lengths.clear()
    if complex_values:
        half = np.arange(4 * (n - 1) + 1) * (math.pi / (4 * f.grid.width))
        t = np.concatenate((-half[:0:-1], half))
        got = transform_values(f, t)
        assert dft_paths == {"lattice": [], "zoom": 1}
    else:
        t, got = lattice_owner_values(f, 4, dft_paths)
        assert dft_paths["zoom"] == 0 and padded_fft_lengths == [N]
        want, scale = lattice_dft_reference(f, t, 4)
        assert np.max(np.abs(got - want)) <= np.finfo(float).eps * 2.0 * math.log2(N) * scale
    idx = np.union1d(np.arange(0, t.size, 997), [0, t.size // 2, t.size - 1])  # the ends and the middle
    assert np.max(np.abs(got[idx] - direct_transform(f, t[idx]))) <= 1e-10


def test_hardy_nodes_take_the_four_fold_sub_lattice(dft_paths):
    g = derivative(line_function(Family.TRIANGLE, n=2**8))
    hardy_check(g)
    assert dft_paths == {"lattice": [("hardy_check", g.n, 4, 4 * (g.n - 1) - 3, 4)], "zoom": 0}
    # the probe's nodes k pi/(4W), k = 4..4(n - 1), are linspace(pi/W, pi/h, 4(n - 2) + 1)
    t, got = hardy_bins(g)
    assert np.max(np.abs(t - np.linspace(math.pi / g.grid.width, math.pi / g.h, 4 * (g.n - 2) + 1))) <= 1e-12
    assert np.max(np.abs(got - direct_transform(g, t))) <= 1e-10


def hardy_lhs_bound(t, lhs, bin_error=0.0):
    """How far two evaluations of 2 int |ghat(t)|/t dt on the same nodes may differ.

    Each node's modulus may differ by a relative 4 eps: the phase e^{-itx0} that
    one side multiplies in has modulus within eps of 1 (cos and sin each
    within an ulp), the complex product rounds by at most sqrt(5) eps/2, and each
    side's abs rounds by eps/2.  The division by t and np.trapezoid's sum, pair
    sum, step product and halving round each side by (3 + log2 m) eps/2 of a sum
    of positive terms.  A bin that is off by at most ``bin_error`` moves the
    lhs by at most 2 bin_error int 1/t dt.
    """
    eps = np.finfo(float).eps
    return (4.0 + 3.0 + math.log2(t.size)) * eps * lhs + 2.0 * bin_error * float(np.trapezoid(1.0 / t, t))


@pytest.mark.parametrize("n", [2**8, 2**10, 2**13])
def test_hardy_check_reads_the_modulus_of_the_transform(n, dft_paths):
    # hardy_check reads |ghat| as the modulus of the lattice bins and skips the
    # unit-modulus phase; the lhs is the phased transform's own, up to that phase's rounding
    g = derivative(line_function(Family.RAISED_COSINE, n=n))
    lhs, _ = hardy_check(g)
    t, ghat = hardy_bins(g)
    want = 2.0 * float(np.trapezoid(np.abs(ghat) / t, t))
    bins = (4, 4 * (n - 1) - 3, 4)
    assert dft_paths == {"lattice": [("hardy_check", n, *bins), ("hardy_bins", n, *bins)], "zoom": 0}
    assert lhs > 1.0 and abs(lhs - want) <= hardy_lhs_bound(t, want)


@pytest.mark.parametrize("n", [4077, 4081, 2**7])
def test_hardy_grid_count_follows_the_sample_count(n, dft_paths, padded_fft_lengths):
    # on [-50, 50] the float ceil of (pi/h - pi/W)/(pi/W) is n - 1, not n - 2,
    # at 4077 and 4081: a count taken from it laid 4 extra nodes off the lattice
    # and sent the probe to the zoom DFT.  Every N is one rfft at N itself:
    # N = 8 * 4 * 1019 and 8 * 127 (1019^2, 127^2 > N) by pocketfft's Bluestein,
    # N = 8 * 16 * 3 * 5 * 17 by its radix passes
    g = derivative(line_function(Family.TRIANGLE, n=n))
    N = 8 * (n - 1)
    lhs, _ = hardy_check(g)
    assert dft_paths == {"lattice": [("hardy_check", n, 4, 4 * (n - 1) - 3, 4)], "zoom": 0}
    assert N in padded_fft_lengths
    # the lattice reference: the same bins from numpy's FFT at N itself
    t = np.arange(4, 4 * (n - 1) + 1) * (math.pi / (4 * g.grid.width))
    ref, scale = lattice_dft_reference(g, t, 4)
    want = 2.0 * float(np.trapezoid(np.abs(ref) / t, t))
    bin_error = np.finfo(float).eps * 2.0 * math.log2(N) * scale  # as in the route test above
    assert abs(lhs - want) <= hardy_lhs_bound(t, want, bin_error)
    assert hardy_check(g)[0] == lhs


def test_nine_fold_grid_falls_back_to_zoom(dft_paths):
    f = line_function(Family.POISSON_KERNEL, n=2**8 + 1)
    t = np.arange(-100, 101) * (math.pi / (9 * f.grid.width))
    got = transform_values(f, t)
    assert dft_paths == {"lattice": [], "zoom": 1}
    assert np.max(np.abs(got - direct_transform(f, t))) <= 1e-10


def test_zoom_dft_pads_only_to_its_circular_length(dft_paths, padded_fft_lengths):
    # the m kept outputs of an n-point zoom DFT need a circular length of
    # n + m - 1, not the full linear convolution's 2n + m - 2
    f = line_function(Family.POISSON_KERNEL, n=2**12)
    t = np.linspace(-40.0, 40.0, 4097)
    got = transform_values(f, t)
    assert dft_paths == {"lattice": [], "zoom": 1}
    assert padded_fft_lengths and max(padded_fft_lengths) == fast_len(f.n + t.size - 1)
    idx = np.arange(0, t.size, 64)
    assert np.max(np.abs(got[idx] - direct_transform(f, t[idx]))) <= 1e-10


def test_long_zoom_run_does_not_drift_from_its_nodes(dft_paths):
    # 40,001 nodes on [-1000, 1000]: a step taken as t[1] - t[0] carries
    # ~eps * 1000 of rounding, which stepping over thousands of nodes
    # accumulates; f-hat is steepest near |t| ~ 1, where that shows most
    f = line_function(Family.GAUSSIAN, n=2**14 + 1)
    res = fourier_transform(f, cutoff=1000.0, m=40001)
    assert dft_paths == {"lattice": [], "zoom": 1}
    near_one = np.flatnonzero((np.abs(res.freqs) > 0.5) & (np.abs(res.freqs) < 1.5))
    idx = np.union1d(np.arange(1, res.freqs.size, 97), near_one)
    idx = idx[res.freqs[idx] != 0.0]
    assert np.max(np.abs(res.values[idx] - direct_transform(f, res.freqs[idx]))) <= 1e-12


def reference_l1_norm_ft(f, cutoffs, dt):
    """Transform mass on the same progression 0 .. max cutoff, by the direct sum,
    read at each cutoff from the running trapezoid."""
    t = np.linspace(0.0, cutoffs[-1], math.ceil(cutoffs[-1] / dt) + 1)
    mag = np.abs(direct_transform(f, t))
    cums = np.concatenate(([0.0], np.cumsum(0.5 * (mag[1:] + mag[:-1]) * np.diff(t))))
    return np.interp(cutoffs, t, cums)


@pytest.mark.parametrize("name", ["fast", "default", "strict"])
def test_l1_norm_ft_suite_cutoffs_take_one_zoom_call(name, dft_paths):
    from bvfourier.suites import _L1_DT, PROFILES, _cutoffs

    cutoffs = _cutoffs(PROFILES[name].line_n)
    f = line_function(Family.TRIANGLE, n=2**11 + 1)  # the suites' window [-50, 50]
    got = l1_norm_ft(f, cutoffs, dt=_L1_DT)
    assert dft_paths == {"lattice": [], "zoom": 1}
    want = reference_l1_norm_ft(f, np.asarray(cutoffs), _L1_DT)
    assert np.max(np.abs(got - want) / want) <= 1e-12


def test_cutoffs_off_the_step_take_one_zoom_call(dft_paths):
    # 1 and 7.5 fall off the 0.3 steps, 3 on one: one progression, read between nodes
    f = line_function(Family.TRIANGLE, n=2**11 + 1)
    cutoffs = np.array([1.0, 3.0, 7.5])
    got = l1_norm_ft(f, cutoffs, dt=0.3)
    assert dft_paths == {"lattice": [], "zoom": 1}
    want = reference_l1_norm_ft(f, cutoffs, 0.3)
    assert np.max(np.abs(got - want) / want) <= 1e-12


def test_scattered_nodes_take_no_zoom_call(dft_paths):
    f = line_function(Family.POISSON_KERNEL, n=2**10 + 1)
    t = np.sort(np.random.default_rng(5).uniform(-10.0, 10.0, 60))
    got = transform_values(f, t)
    assert dft_paths == {"lattice": [], "zoom": 0}
    assert np.max(np.abs(got - direct_transform(f, t))) <= 1e-12


def test_moved_node_is_evaluated_where_it_is(dft_paths):
    # the moved node breaks the progression, so every node takes the direct sum
    f = line_function(Family.POISSON_KERNEL, n=2**10 + 1)
    t = np.linspace(-5.0, 5.0, 201)
    t[77] += 1e-9
    got = transform_values(f, t)
    assert dft_paths == {"lattice": [], "zoom": 0}
    assert np.max(np.abs(got - direct_transform(f, t))) <= 1e-12


def test_a_direct_sum_node_reads_the_same_bits_in_any_batch(dft_paths):
    # a matrix-vector product once rounded t = 2 to 0.33923524751608825+2.07e-18j alone and
    # to 0.3392352475160881-1.11e-16j beside t = 5; 8193 samples make 7 rows per block,
    # so the batch of 8 spans two blocks
    f = line_function(Family.GAUSSIAN, n=8193)
    alone = transform_values(f, [2.0])
    for batch in ([2.0, 5.0], [5.0, 2.0], [2.0, 5.0, 7.5], [0.3, 11.0, 13.2, 17.0, 0.01, 5.0, 7.5, 2.0]):
        got = transform_values(f, batch)
        assert got[batch.index(2.0)].tobytes() == alone.tobytes(), batch
    assert dft_paths == {"lattice": [], "zoom": 0}


def test_hardy_suite_runs_six_multipliers_and_no_zoom(monkeypatch, dft_paths):
    # one hilbert_multiplier per hardy_check (3 families x 2 grids), every
    # transform the probe's own bins of the 4-fold sub-lattice
    import bvfourier.fourier as fourier
    import bvfourier.suites as suites

    calls = []
    multiplier = fourier.hilbert_multiplier

    def spy(f):
        calls.append(f.n)
        return multiplier(f)

    monkeypatch.setattr(fourier, "hilbert_multiplier", spy)
    monkeypatch.setattr(suites, "hilbert_multiplier", spy)
    suites._SUITE_FUNCS["hardy"](suites.PROFILES["fast"])
    assert len(calls) == 6
    assert [(caller, lo, span, fold) for caller, n, lo, span, fold in dft_paths["lattice"]] == [
        ("hardy_check", 4, 4 * (n - 1) - 3, 4) for n in calls
    ]
    assert dft_paths["zoom"] == 0


@pytest.mark.parametrize("name", ["fast", "default", "strict"])
def test_every_suite_transform_takes_one_fast_path_over_all_its_nodes(name, monkeypatch, dft_paths):
    # transform_values takes one path per call: one zoom DFT over one arithmetic
    # progression, or else the direct sum.  A suite that passed a piecewise node
    # set would silently take the direct sum, so every suite call of three or
    # more nodes must end in exactly one zoom DFT over all of them.  The lattice
    # DFT serves only the callers that lay out a lattice: in the suites, the Hardy probe
    import bvfourier.fourier as fourier
    import bvfourier.radial as radial
    import bvfourier.suites as suites

    calls, zooms = [], []
    transform, zoom = fourier.transform_values, fourier._zoom_dft

    def zoom_spy(*args):
        zooms.append(args[5])  # m, the number of nodes it evaluates
        return zoom(*args)

    def transform_spy(f, t):
        lattice, zoomed = len(dft_paths["lattice"]), len(zooms)
        out = transform(f, t)
        calls.append((np.size(t), len(dft_paths["lattice"]) - lattice, zooms[zoomed:]))
        return out

    monkeypatch.setattr(fourier, "_zoom_dft", zoom_spy)
    for module in (fourier, radial, suites):
        monkeypatch.setattr(module, "transform_values", transform_spy)
    monkeypatch.setenv("BVF_THREADS", "1")
    suites.run_suite("all", name)
    big = [(size, lattice, zooms) for size, lattice, zooms in calls if size >= 3]
    assert big and all((lattice, zooms) == (0, [size]) for size, lattice, zooms in big)
    assert dft_paths["lattice"] and {call[0] for call in dft_paths["lattice"]} == {"hardy_check"}


@pytest.mark.parametrize("m", [2, 5, 63])
def test_short_uniform_grids_match_direct_sum(m):
    f = line_function(Family.POISSON_KERNEL, n=2**12)
    for t in (np.linspace(-3.3, 7.1, m), np.arange(m) * (math.pi / f.grid.width)):
        assert np.max(np.abs(transform_values(f, t) - direct_transform(f, t))) <= 1e-10


def test_transform_argument_validation():
    f = line_function(Family.GAUSSIAN, n=257)
    with pytest.raises(ValueError):
        fourier_transform(f, cutoff=-1.0)
    with pytest.raises(ValueError):
        fourier_transform(f, cutoff=1.0, m=1)
    # a non-finite cutoff once reached round(cutoff * width / pi): an OverflowError for inf
    for cutoff in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="^cutoff must be finite and positive$"):
            fourier_transform(f, cutoff=cutoff)


def test_plancherel_sanity_on_gaussian():
    f = line_function(Family.GAUSSIAN, lo=-8.0, hi=8.0, n=2**12 + 1)
    res = fourier_transform(f, cutoff=40.0, m=8001)
    t = res.freqs
    num = np.trapezoid(np.abs(res.values) ** 2, t)
    den = 2.0 * math.pi * np.trapezoid(np.abs(f.values) ** 2, f.x)
    assert num / den == pytest.approx(1.0, abs=1e-4)


def test_l1_norm_ft_zero_function():
    grid = make_uniform_grid(-5, 5, 257)
    z = SampledFunction(grid, np.zeros(257), DecayClass.COMPACT_SUPPORT)
    assert np.max(l1_norm_ft(z, [1.0, 2.0, 4.0])) == 0.0


def test_l1_norm_ft_monotone_in_cutoff():
    f = line_function(Family.BOX, n=2**13)
    vals = l1_norm_ft(f, [5.0, 10.0, 20.0, 40.0])
    assert np.all(np.diff(vals) >= 0.0)


def test_l1_norm_ft_box_log_slope():
    # oracle: int_0^T |2 sin t / t| dt ~ (4/pi) ln T + C
    f = line_function(Family.BOX, n=2**14)
    cutoffs = np.array([25.0, 50.0, 100.0, 200.0])
    vals = l1_norm_ft(f, cutoffs)
    slope = np.polyfit(np.log(cutoffs), vals, 1)[0]
    assert slope == pytest.approx(4.0 / math.pi, rel=0.05)


def test_l1_norm_ft_triangle_plateaus():
    f = line_function(Family.TRIANGLE, n=2**14)
    vals = l1_norm_ft(f, [100.0, 200.0])
    assert (vals[1] - vals[0]) / vals[0] <= 0.01


def test_l1_norm_ft_rejects_bad_cutoffs():
    f = line_function(Family.TRIANGLE, n=257)
    with pytest.raises(ValueError):
        l1_norm_ft(f, [])
    with pytest.raises(ValueError):
        l1_norm_ft(f, [4.0, 2.0])


@pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0, -0.1])
def test_l1_norm_ft_refuses_a_step_that_is_not_finite_and_positive(dt):
    # dt = inf once returned [0, 0, 0], and dt = 0 an OverflowError after a RuntimeWarning
    f = line_function(Family.TRIANGLE, n=257)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^dt must be finite and positive$"):
            l1_norm_ft(f, [1.0, 2.0, 4.0], dt=dt)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_l1_norm_ft_refuses_a_non_finite_cutoff(bad):
    # a cutoff of inf once reached math.ceil: an OverflowError
    f = line_function(Family.TRIANGLE, n=257)
    with pytest.raises(ValueError, match="^cutoffs must be finite, positive and strictly ascending$"):
        l1_norm_ft(f, [1.0, 2.0, bad])


def test_h1_report_zero_function():
    grid = make_uniform_grid(-5, 5, 257)
    rep = h1_report(SampledFunction(grid, np.zeros(257), DecayClass.COMPACT_SUPPORT))
    assert rep.l1_norm == rep.hilbert_l1_norm == rep.h1_norm == rep.cancellation_residual == 0.0


def test_h1_report_triangle_derivative_cancels():
    g = derivative(line_function(Family.TRIANGLE))
    rep = h1_report(g)
    assert rep.cancellation_residual <= 1e-10
    assert rep.h1_norm == rep.l1_norm + rep.hilbert_l1_norm


def test_h1_report_poisson_flags_nonmember():
    g = line_function(Family.POISSON_KERNEL, n=2**13, a=1.0)
    rep = h1_report(g)
    # the window carries (2/pi) arctan(50) of the unit mass
    assert rep.cancellation_residual == pytest.approx(2.0 / math.pi * math.atan(50.0), abs=1e-6)
    assert rep.cancellation_residual > 0.9


def test_hardy_check_zero_function_passes_trivially():
    grid = make_uniform_grid(-5, 5, 257)
    z = SampledFunction(grid, np.zeros(257), DecayClass.COMPACT_SUPPORT)
    lhs, h1 = hardy_check(z)
    assert lhs == 0.0
    assert lhs <= h1.h1_norm


def test_hardy_check_records_the_empirical_constant():
    # with the unnormalized e^{-itx} convention the unit-constant bound is
    # violated by a bounded factor; the check must report it, not hide it
    g = derivative(line_function(Family.TRIANGLE, n=2**13))
    lhs, h1 = hardy_check(g)
    constant = lhs / h1.h1_norm
    assert lhs > h1.h1_norm * (1.0 + 1e-2)
    assert 1.3 <= constant <= 1.6
    assert h1 == h1_report(g)


def test_hardy_check_constant_is_grid_stable():
    consts = []
    for n in (2**12, 2**13):
        lhs, h1 = hardy_check(derivative(line_function(Family.RAISED_COSINE, n=n)))
        consts.append(lhs / h1.h1_norm)
    assert abs(consts[0] / consts[1] - 1.0) <= 0.02


def test_hardy_grid_stability_line_is_the_full_precision_constant_ratio():
    # the ratio minus 1 is about 5e-3, so constants rounded to 9 digits
    # would move its 6th printed digit; the coarse grid has n/2 + 1 samples
    from bvfourier.suites import _SUITE_FUNCS, PROFILES

    p = PROFILES["fast"]
    want = 0.0
    for fam in (Family.TRIANGLE, Family.RAISED_COSINE, Family.SMOOTHED_BOX):
        c = []
        for n in (p.line_n // 2 + 1, p.line_n):
            lhs, h1 = hardy_check(derivative(line_function(fam, n=n)))
            c.append(lhs / h1.h1_norm)
        want = max(want, abs(c[0] / c[1] - 1.0))
    (line,) = [r for r in _SUITE_FUNCS["hardy"](p) if r.name == "hardy-constant-grid-stability"]
    assert line.measured == want
    assert f"{line.measured:.6g}" == "0.00471002"


def test_hardy_check_requires_cancellation():
    g = line_function(Family.POISSON_KERNEL, n=2**12, a=1.0)
    with pytest.raises(ValueError, match="cancellation"):
        hardy_check(g)


def periodic_function(values_fn, n=2**12):
    grid = make_uniform_grid(-math.pi, math.pi, n)
    return SampledFunction(grid, values_fn(grid.points), DecayClass.PERIODIC)


def test_coefficients_pure_mode():
    f = periodic_function(lambda x: np.cos(3 * x))
    cs = fourier_coefficients(f, 8)
    assert cs.coefficient(3) == pytest.approx(0.5, abs=1e-12)
    assert cs.coefficient(-3) == pytest.approx(0.5, abs=1e-12)
    others = [abs(cs.coefficient(k)) for k in range(-8, 9) if abs(k) != 3]
    assert max(others) <= 1e-12


def test_coefficients_constant():
    f = periodic_function(lambda x: np.ones_like(x), n=257)
    cs = fourier_coefficients(f, 4)
    assert cs.coefficient(0) == pytest.approx(1.0, abs=1e-12)
    assert max(abs(cs.coefficient(k)) for k in (-4, -1, 1, 4)) <= 1e-12


def test_coefficients_triangle_wave_decay():
    # closed form: |c_k| = 4/(pi^2 k^2) for odd k, 0 for even k != 0
    wave = sample(FamilySpec(Family.TRIANGLE_WAVE_PERIODIC), make_uniform_grid(-math.pi, math.pi, 2**12))
    cs = fourier_coefficients(wave, 512)
    for k in (1, 3, 5, 7, 9):
        assert abs(cs.coefficient(k)) == pytest.approx(4.0 / (math.pi**2 * k**2), abs=1e-6)
    # even modes vanish in the continuum; sampled-wave aliasing leaves ~1e-8
    assert abs(cs.coefficient(2)) <= 1e-7
    sums = cs.abs_partial_sums
    assert (sums[512] - sums[256]) / sums[256] <= 0.005


def test_coefficients_match_phase_matrix_reference():
    grid = make_uniform_grid(-math.pi, math.pi, 1001)
    x = grid.points
    f = SampledFunction(grid, np.exp(np.sin(x)) + np.abs(x) * np.cos(3 * x), DecayClass.PERIODIC)
    kmax = 300
    cs = fourier_coefficients(f, kmax)
    ks = np.arange(-kmax, kmax + 1)
    N = f.n - 1
    want = np.exp(-1j * np.outer(ks, x[:N])) @ f.values[:N] / N
    assert np.max(np.abs(cs.coefficients - want)) <= 1e-13
    mags = np.abs(cs.coefficients)
    sums = [mags[kmax]]
    for K in range(1, kmax + 1):
        sums.append(sums[-1] + mags[kmax - K] + mags[kmax + K])
    # the two summation orders differ by at most kmax roundings of the running sum
    assert np.max(np.abs(cs.abs_partial_sums - np.array(sums))) <= kmax * np.finfo(float).eps * sums[-1]


def test_coefficients_aliasing_guard():
    f = periodic_function(lambda x: np.cos(x), n=257)
    with pytest.raises(ValueError, match="alias"):
        fourier_coefficients(f, 128)
    g = line_function(Family.GAUSSIAN, n=257)
    with pytest.raises(ValueError, match="periodic"):
        fourier_coefficients(g, 8)


def test_conjugate_coefficient_check_pure_mode():
    f = periodic_function(lambda x: np.cos(5 * x))
    assert conjugate_coefficient_check(f, 16) <= 1e-10


def test_conjugate_coefficient_check_triangle_wave():
    wave = sample(FamilySpec(Family.TRIANGLE_WAVE_PERIODIC), make_uniform_grid(-math.pi, math.pi, 2**12))
    assert conjugate_coefficient_check(wave, 512) <= 1e-8


def test_conjugate_coefficient_check_constant():
    f = periodic_function(lambda x: np.full_like(x, 3.0), n=257)
    assert conjugate_coefficient_check(f, 8) <= 1e-14
