import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import dawsn

from bvfourier import (
    MULTIPLIER_SIGN,
    DecayClass,
    Family,
    FamilySpec,
    SampledFunction,
    fourier_coefficients,
    hilbert_multiplier,
    hilbert_pv,
    kernel_difference,
    make_uniform_grid,
    modified_hilbert,
    periodic_conjugate,
    sample,
)
from bvfourier import hilbert
from bvfourier._fft import fast_len
from bvfourier.cli import EXIT_DATA, main
from bvfourier.grids import trapezoid_weights
from bvfourier.hilbert import _circular_kernel, _inverse_power_transforms

RIG = dict(a=-50.0, b=50.0)


def line_function(family, n=2**13, **params):
    grid = make_uniform_grid(RIG["a"], RIG["b"], n)
    return sample(FamilySpec(family, params), grid)


def interior(values):
    n = values.size
    return values[n // 10 : (9 * n) // 10]


def exact_hilbert_gaussian(x):
    # H(e^{-x^2/2}) in closed form via the Dawson function
    return 2.0 / math.sqrt(math.pi) * dawsn(x / math.sqrt(2.0))


def test_poisson_conjugate_pair_oracle_is_right():
    # cross-check the closed-form oracle itself: symmetric-difference PV
    # quadrature of the true kernel at one point
    x0 = 0.7
    p = lambda t: 1.0 / (math.pi * (1.0 + t * t))
    val, _ = quad(lambda u: (p(x0 - u) - p(x0 + u)) / u, 0, np.inf, limit=800)
    assert val / math.pi == pytest.approx(x0 / (math.pi * (1 + x0 * x0)), abs=1e-9)


def test_pv_poisson_pair():
    f = line_function(Family.POISSON_KERNEL, n=2**14, a=1.0)
    q = line_function(Family.CONJUGATE_POISSON, n=2**14, a=1.0)
    err = np.max(np.abs(interior(hilbert_pv(f).values - q.values)))
    assert err <= 1e-3


def test_pv_antisymmetry_for_even_input():
    hg = hilbert_pv(line_function(Family.GAUSSIAN)).values
    assert np.max(np.abs(hg + hg[::-1])) <= 1e-10


def test_pv_gaussian_refines_to_closed_form():
    errs = []
    for n in (2**12, 2**13):
        f = line_function(Family.GAUSSIAN, n=n)
        errs.append(float(np.max(np.abs(hilbert_pv(f).values - exact_hilbert_gaussian(f.x)))))
    assert errs[1] <= 1e-3
    assert errs[0] / errs[1] >= 3.0  # O(h^2) quadrature


def test_pv_windowed_cosine_gives_sine_inside():
    grid = make_uniform_grid(-200, 200, 2**15)
    f = SampledFunction(grid, np.cos(grid.points), DecayClass.VANISHING_AT_INFINITY)
    out = hilbert_pv(f).values
    mask = np.abs(grid.points) <= 40.0
    # window truncation contaminates the edges; the interior is clean
    assert np.max(np.abs(out - np.sin(grid.points))[mask]) <= 1e-2


def test_pv_rejects_wrong_inputs():
    pgrid = make_uniform_grid(-math.pi, math.pi, 257)
    wave = sample(FamilySpec(Family.TRIANGLE_WAVE_PERIODIC), pgrid)
    with pytest.raises(ValueError, match="periodic_conjugate"):
        hilbert_pv(wave)
    grid = make_uniform_grid(-5, 5, 101)
    bounded = SampledFunction(grid, np.tanh(grid.points), DecayClass.BOUNDED)
    with pytest.raises(ValueError, match="modified_hilbert"):
        hilbert_pv(bounded)
    cplx = SampledFunction(grid, np.exp(1j * grid.points), DecayClass.BOUNDED)
    with pytest.raises(ValueError, match="real"):
        hilbert_pv(cplx)


def test_multiplier_zero_is_zero():
    grid = make_uniform_grid(-5, 5, 257)
    z = SampledFunction(grid, np.zeros(257), DecayClass.COMPACT_SUPPORT)
    assert np.max(np.abs(hilbert_multiplier(z).values)) == 0.0


def test_multiplier_poisson_pair_tight():
    f = line_function(Family.POISSON_KERNEL, n=2**14, a=1.0)
    q = line_function(Family.CONJUGATE_POISSON, n=2**14, a=1.0)
    err = np.max(np.abs(interior(hilbert_multiplier(f).values - q.values)))
    assert err <= 1e-6


def test_multiplier_agrees_with_pv_on_gaussian():
    f = line_function(Family.GAUSSIAN)
    d = np.max(np.abs(hilbert_pv(f).values - hilbert_multiplier(f).values))
    assert d <= 1e-3


def test_multiplier_sign_is_pinned_by_the_poisson_pair():
    # the shipped sign maps the Poisson kernel onto its conjugate; the
    # opposite sign lands at minus the conjugate, two orders away
    assert MULTIPLIER_SIGN == -1.0
    f = line_function(Family.POISSON_KERNEL, a=1.0)
    q = line_function(Family.CONJUGATE_POISSON, a=1.0).values
    got = hilbert_multiplier(f).values
    right = np.max(np.abs(interior(got - q)))
    flipped = np.max(np.abs(interior(-got - q)))
    assert flipped / right > 100.0


def sign_multiplier(N):
    """MULTIPLIER_SIGN * i * sign(k) on the N DFT bins, zero at bin 0 and at an even N's Nyquist bin."""
    spec = np.zeros(N, dtype=complex)
    half = (N - 1) // 2
    spec[1 : half + 1] = complex(0.0, MULTIPLIER_SIGN)
    spec[N - half :] = complex(0.0, -MULTIPLIER_SIGN)
    return spec


def reference_multiplier_circular(f):
    """hilbert_multiplier by the complex route: the sign multiplier applied
    between two complex FFTs of length N, with the imaginary-residue check
    at 1e-8, then the same two corrections."""
    n, h, x = f.n, f.h, f.x
    N = fast_len(hilbert._PAD_FACTOR * n)
    out_c = np.fft.ifft(np.fft.fft(f.values, N) * sign_multiplier(N))
    real_scale = float(np.max(np.abs(out_c.real)))
    assert float(np.max(np.abs(out_c.imag))) <= 1e-8 * real_scale
    out = out_c.real[:n]
    P = N * h
    w = trapezoid_weights(f.grid)
    mom = [float(np.sum(w * f.values * x**k)) for k in range(4)]
    out -= -(np.pi / (3.0 * P * P)) * (x * mom[0] - mom[1]) - (np.pi**3 / (45.0 * P**4)) * (
        x**3 * mom[0] - 3.0 * x**2 * mom[1] + 3.0 * x * mom[2] - mom[3]
    )
    if f.decay_class is DecayClass.VANISHING_AT_INFINITY:
        out += hilbert._tail_correction(f)
    return out


@pytest.mark.parametrize("N", [1620, 1215, 1125])
def test_circular_kernel_is_the_inverse_dft_of_the_sign_multiplier(N):
    # even N = 1620 and odd N = 1215, 1125 (5-smooth, as fast_len gives them)
    n = 101
    ref = np.fft.ifft(sign_multiplier(N))[np.arange(1 - n, n) % N]
    scale = float(np.max(np.abs(ref.real)))
    # the residue check the complex route ran on every call: a real odd
    # kernel is what makes the transform of real input real
    assert float(np.max(np.abs(ref.imag))) <= 1e-8 * scale
    K = _circular_kernel(n, N)
    assert np.array_equal(K[::-1], -K)
    assert float(np.max(np.abs(K - ref.real))) <= 1e-15 * scale


@pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.POISSON_KERNEL, Family.BOX])
@pytest.mark.parametrize("n", [257, 4096, 2**14 + 1, 2**16 + 1])
def test_multiplier_matches_the_complex_fft_route(family, n):
    f = line_function(family, n=n)
    got = hilbert_multiplier(f).values
    want = reference_multiplier_circular(f)
    assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))


def test_multiplier_peak_memory_stays_below_one_padded_complex_array():
    # one complex array of the padded length N takes 16 N bytes
    n = 2**16 + 1
    f = line_function(Family.GAUSSIAN, n=n)
    hilbert_multiplier(f)
    tracemalloc.start()
    try:
        hilbert_multiplier(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * fast_len(hilbert._PAD_FACTOR * n)


def test_multiplier_rejects_a_kernel_that_is_not_odd(tmp_path, capsys, monkeypatch):
    def skewed(n, N):
        K = _circular_kernel(n, N)
        K[n] += 1e-3  # an even part: the multiplier would gain a real part
        return K

    # a kernel is checked when it is built: drop the spectra built so far
    hilbert._multiplier_spectrum.cache_clear()
    monkeypatch.setattr(hilbert, "_circular_kernel", skewed)
    with pytest.raises(ValueError, match="not odd"):
        hilbert_multiplier(line_function(Family.GAUSSIAN, n=257))
    args = ["hilbert", "--family", "gaussian", "--n", "257", "--method", "multiplier"]
    assert main(args + ["--out", str(tmp_path / "h.csv")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: multiplier kernel is not odd") and err.count("\n") == 1


def test_inverse_power_series_length_changes_no_bit():
    # the derived term count against a 120-term loop, far past convergence
    rng = np.random.default_rng(11)
    for R in (1.0, 50.0 + 50.0 / 4096, 1e3):
        edge = 0.3 * R
        x = np.concatenate(
            (
                np.linspace(-edge, edge, 2001),
                rng.uniform(-edge, edge, 2000),
                np.nextafter(np.array([edge, -edge]), 0.0),
                [0.0, 1e-300, -1e-300],
            )
        )
        J = _inverse_power_transforms(x, R, 5)
        small = np.abs(x) < edge
        r = x[small] / R
        for k in range(1, 6):
            s = np.zeros_like(r)
            term = np.ones_like(r)
            for m in range(120):
                s += term / (k + m)
                term *= r
            assert np.array_equal(J[k, small], -s / R**k)


def test_modified_zero_is_zero():
    grid = make_uniform_grid(-5, 5, 257)
    z = SampledFunction(grid, np.zeros(257), DecayClass.COMPACT_SUPPORT)
    assert np.max(np.abs(modified_hilbert(z).values)) == 0.0


def test_modified_minus_pv_is_constant_on_compact_support():
    f = line_function(Family.TRIANGLE)
    gap = modified_hilbert(f).values - hilbert_pv(f).values
    assert float(np.std(gap)) <= 1e-6


def test_modified_offset_matches_quadrature_oracle():
    # the x-independent part is (1/pi) int f(t) t/(1+t^2) dt; an even f
    # gives zero, so probe with the odd conjugate-Poisson shape
    f = line_function(Family.CONJUGATE_POISSON, n=2**14, a=1.0)
    gap = modified_hilbert(f).values - hilbert_pv(f).values
    oracle, _ = quad(lambda t: (t / (math.pi * (1 + t * t))) * t / (1 + t * t), RIG["a"], RIG["b"])
    assert float(np.mean(gap)) == pytest.approx(oracle / math.pi, abs=1e-6)


def test_modified_handles_bounded_input_without_blowup():
    sups = []
    for scale in (1, 2):
        n = scale * 2**12
        grid = make_uniform_grid(-100.0 * scale, 100.0 * scale, n)
        f = SampledFunction(grid, np.tanh(grid.points / 2.0), DecayClass.BOUNDED)
        out = modified_hilbert(f).values
        assert np.all(np.isfinite(out))
        sups.append(float(np.max(np.abs(out[np.abs(grid.points) <= 80.0]))))
    # doubling the window must not grow the sup (log blow-up would add ~16%)
    assert (sups[1] - sups[0]) / sups[0] <= 0.05


def test_modified_rejects_periodic():
    pgrid = make_uniform_grid(-math.pi, math.pi, 257)
    wave = sample(FamilySpec(Family.TRIANGLE_WAVE_PERIODIC), pgrid)
    with pytest.raises(ValueError):
        modified_hilbert(wave)


def periodic_function(values_fn, n=2**12):
    grid = make_uniform_grid(-math.pi, math.pi, n)
    return SampledFunction(grid, values_fn(grid.points), DecayClass.PERIODIC)


def test_periodic_conjugate_of_constant_vanishes():
    f = periodic_function(lambda x: np.full_like(x, 2.5), n=513)
    assert np.max(np.abs(periodic_conjugate(f).values)) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_periodic_conjugate_cosine_to_sine(k):
    f = periodic_function(lambda x: np.cos(k * x))
    out = periodic_conjugate(f)
    assert np.max(np.abs(out.values - np.sin(k * out.x))) <= 1e-6


def test_periodic_conjugate_triangle_wave_coefficients():
    # coefficient-space oracle: conjugation multiplies c_k by -i sign(k)
    pgrid = make_uniform_grid(-math.pi, math.pi, 2**12)
    wave = sample(FamilySpec(Family.TRIANGLE_WAVE_PERIODIC), pgrid)
    kmax = 64
    c_f = fourier_coefficients(wave, kmax).coefficients
    c_t = fourier_coefficients(periodic_conjugate(wave), kmax).coefficients
    ks = np.arange(-kmax, kmax + 1)
    expected = -1j * np.sign(ks) * c_f
    assert np.max(np.abs(c_t - expected)) <= 1e-10


def test_periodic_conjugate_is_an_anti_involution():
    f = periodic_function(lambda x: np.cos(3 * x) + 0.5 * np.sin(11 * x))
    twice = periodic_conjugate(periodic_conjugate(f))
    assert np.max(np.abs(twice.values + f.values)) <= 1e-8


def test_periodic_conjugate_rejects_line_input():
    f = line_function(Family.GAUSSIAN, n=257)
    with pytest.raises(ValueError):
        periodic_conjugate(f)


def test_periodic_conjugate_rejects_wrong_period():
    grid = make_uniform_grid(-1.0, 1.0, 257)
    vals = np.cos(np.pi * grid.points)
    f = SampledFunction(grid, vals, DecayClass.PERIODIC)
    with pytest.raises(ValueError, match="span"):
        periodic_conjugate(f)


def test_kernel_difference_removable_zero():
    assert kernel_difference(0.0, 10) == (0.0, 0.0)
    _, closed = kernel_difference(1e-8, 10)
    assert closed == pytest.approx(-1e-8 / 12.0, rel=1e-9)


def test_kernel_difference_at_pi():
    _, closed = kernel_difference(math.pi, 8)
    assert abs(closed + 1.0 / math.pi) <= 1e-15


def test_kernel_difference_series_tail():
    partial, closed = kernel_difference(1.0, 10_000)
    assert abs(partial - closed) <= 1e-4
    coarse, _ = kernel_difference(1.0, 100)
    assert abs(coarse - closed) / abs(partial - closed) >= 50.0  # O(1/terms) tail


@pytest.mark.parametrize("t", [0.3, 1.0, 2.5, 5.0])
def test_kernel_difference_closed_form_is_odd(t):
    assert kernel_difference(-t, 4)[1] == -kernel_difference(t, 4)[1]


def test_kernel_difference_pole_warning_and_domain():
    with pytest.warns(RuntimeWarning, match="pole"):
        kernel_difference(2.0 * math.pi - 5e-4, 4)
    with pytest.raises(ValueError):
        kernel_difference(2.0 * math.pi, 4)
    with pytest.raises(ValueError):
        kernel_difference(7.0, 4)
    with pytest.raises(ValueError):
        kernel_difference(1.0, 0)
