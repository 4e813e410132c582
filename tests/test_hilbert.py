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
from bvfourier.hilbert import _inverse_power_transforms, _multiplier_kernel

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


def circular_kernel(n, N):
    """Kak's closed form (Proc. IEEE 58 (1970) 585) of the length-N discrete Hilbert kernel at m = -(n-1)..n-1.

    even N:  -MULTIPLIER_SIGN (2/N) cot(pi m / N) at odd m, 0 at even m;
    odd N:   -MULTIPLIER_SIGN (cos(pi m / N) - cos(pi m)) / (N sin(pi m / N)); 0 at m = 0.
    """
    m = np.arange(1 - n, n)
    phi = (np.pi / N) * m
    K = np.zeros(m.size)
    if N % 2 == 0:
        odd = (m & 1) == 1
        K[odd] = (-2.0 * MULTIPLIER_SIGN / N) / np.tan(phi[odd])
    else:
        nz = m != 0
        alt = np.where(m[nz] & 1, -1.0, 1.0)  # cos(pi m)
        K[nz] = -MULTIPLIER_SIGN * (np.cos(phi[nz]) - alt) / (N * np.sin(phi[nz]))
    return K


@pytest.mark.parametrize("N", [1620, 1215, 1125])
def test_circular_kernel_is_the_inverse_dft_of_the_sign_multiplier(N):
    # even N = 1620 and odd N = 1215, 1125 (5-smooth, as fast_len gives them):
    # the closed form that the large-N limit below starts from
    n = 101
    ref = np.fft.ifft(sign_multiplier(N))[np.arange(1 - n, n) % N]
    scale = float(np.max(np.abs(ref.real)))
    assert float(np.max(np.abs(ref.imag))) <= 1e-8 * scale
    K = circular_kernel(n, N)
    assert np.array_equal(K[::-1], -K)
    assert float(np.max(np.abs(K - ref.real))) <= 1e-15 * scale


# Reference sums run in extended precision, in row blocks of at most this many entries
BLOCK = 2**20
EPS, EPS_LD = np.finfo(float).eps, np.finfo(np.longdouble).eps
PI_LD = 4 * np.arctan(np.longdouble(1))


def direct_sum(kernel, v, n_out):
    """out_i = sum_k kernel(i - k) v_k for i < n_out, summed directly in long double."""
    table = kernel(np.arange(1 - v.size, n_out))  # kernel(d) at index d + v.size - 1
    v = v.astype(np.longdouble)
    rows = max(1, BLOCK // v.size)
    out = np.empty(n_out, dtype=np.longdouble)
    for i0 in range(0, n_out, rows):
        i = np.arange(i0, min(i0 + rows, n_out))
        out[i] = table[i[:, None] - np.arange(v.size) + (v.size - 1)] @ v
    return out


def fft_slack(L, k1, scale):
    """Rounding allowance of one real FFT convolution at length L: kernel l1 norm k1, data bound scale."""
    return (2.0 * math.log2(L) + 4.0) * EPS * k1 * scale


@pytest.mark.parametrize("N", [1620, 1215, 1125, 2**16])
def test_multiplier_kernel_is_the_large_n_limit_of_the_inverse_dft_of_the_sign_multiplier(N):
    # The length-N sign multiplier's inverse DFT (Kak 1970) at odd m is (2/(pi m)) psi cot psi,
    # psi = pi m / N for even N and pi m / (2N) for odd N, and at even m it is 0 for even N
    # and -MULTIPLIER_SIGN (-tan(pi m / (2N)) / N) for odd N.  With
    # psi cot psi = 1 - psi^2/3 - sum_{k>=2} 2 zeta(2k) (psi/pi)^{2k}, whose tail is below
    # psi^4/40 for |psi| <= 1, it falls short of the line kernel 2/(pi m) by a relative
    # psi^2/3 to psi^2/3 + psi^4/40 at odd m, and stays within tan(x) <= x + x^3 (x <= 1)
    # of 0 at even m.  The ifft of unit-modulus bins rounds by about log2(N) eps.
    n = 257
    ref = np.fft.ifft(sign_multiplier(N))[np.arange(1 - n, n) % N]
    slack = 4.0 * math.log2(N) * EPS
    # a real odd kernel is what makes the transform of real input real
    assert float(np.max(np.abs(ref.imag))) <= slack
    K = _multiplier_kernel(n)
    assert np.array_equal(K[::-1], -K)
    m = np.arange(1 - n, n)
    odd = K != 0.0
    assert np.array_equal(odd, m % 2 == 1)
    psi2 = (np.pi * m[odd] / (N if N % 2 == 0 else 2 * N)) ** 2
    gap = np.abs(K[odd]) - np.sign(K[odd]) * ref.real[odd]  # the cotangent kernel is the smaller one
    assert np.all(gap >= np.abs(K[odd]) * psi2 / 3.0 - slack)
    assert np.all(gap <= np.abs(K[odd]) * (psi2 / 3.0 + psi2 * psi2 / 40.0) + slack)
    x = np.pi * np.abs(m[~odd]) / (2 * N) * (N % 2)
    assert np.all(np.abs(ref.real[~odd]) <= (x + x**3) / N + slack)


@pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.POISSON_KERNEL, Family.BOX])
@pytest.mark.parametrize("n", [257, 4096])
def test_multiplier_matches_its_direct_sum(family, n):
    # sum_j K(i - j) f_j with K(m) = -MULTIPLIER_SIGN 2/(pi m) at odd m, plus the same tail model
    f = line_function(family, n=n)
    got = hilbert_multiplier(f).values

    def kernel(m):
        return np.where(m % 2 == 1, -MULTIPLIER_SIGN * 2.0 / (PI_LD * np.where(m == 0, 1, m)), 0.0)

    want = direct_sum(kernel, f.values, n)
    if f.decay_class is DecayClass.VANISHING_AT_INFINITY:
        want += hilbert._tail_correction(f.grid, f.values)
    k1, scale = float(np.sum(np.abs(_multiplier_kernel(n)))), float(np.max(np.abs(f.values)))
    slack = fft_slack(fast_len(2 * n - 1), k1, scale) + n * EPS_LD * k1 * scale
    assert float(np.max(np.abs(got - want))) <= slack


@pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.POISSON_KERNEL, Family.BOX])
@pytest.mark.parametrize("n", [257, 4096])
def test_pv_matches_its_direct_sum(family, n):
    # the symmetric-difference quadrature (1/pi) sum_j (gbar[i-1-j] - gbar[i+j]) / (j + 1/2)
    # over the midpoint samples gbar: midpoint k enters row i with weight 1/(pi (i - k - 1/2))
    f = line_function(family, n=n)
    gbar = 0.5 * (f.values[1:] + f.values[:-1])
    want = direct_sum(lambda d: 1.0 / (PI_LD * (d - 0.5)), gbar, n)
    k1 = 2.0 * float(np.sum(1.0 / (np.arange(n - 1) + 0.5))) / math.pi
    scale = float(np.max(np.abs(gbar)))
    slack = fft_slack(fast_len(2 * n - 2), k1, scale) + n * EPS_LD * k1 * scale
    assert float(np.max(np.abs(hilbert_pv(f).values - want))) <= slack


@pytest.mark.parametrize("wave", ["triangle", "noise"])
@pytest.mark.parametrize("n", [257, 4096])
def test_periodic_conjugate_matches_its_direct_sum(wave, n):
    # (h / 4 pi) sum_j w_j (gbar[i-1-j] - gbar[i+j]), w_j = cot(u_j / 2), u_j = (j + 1/2) h, the
    # folded midpoint rule of (1/2pi) int_0^2pi f(x - u) cot(u/2) du, indices mod N, with gbar
    # the trigonometric interpolant at the half offsets: the Dirichlet sum
    # (1/N) sum_l v_l sin((M + 1/2) t) / sin(t/2), t = 2 pi (k - l + 1/2) / N, M = ceil(N/2) - 1
    # (an even N's Nyquist mode vanishes there).  The sum takes the exact nodes h = 2 pi / N.
    # The route's weights on u < pi are cot of float nodes x_j = u_j / 2, off by at most
    # 3 eps x_j (h, the product and the rounded pi); with |cot'| = 1/sin^2 and x / sin x <= pi/2
    # there, plus 2 eps |cot x| <= 2 eps / x from tan and the division, |dw_j| <= 10 eps / x_j.
    # Each such weight enters c twice, and negated as the weight at u = 2 pi - u_j twice more
    grid = make_uniform_grid(-math.pi, math.pi, n)
    if wave == "triangle":
        f = sample(FamilySpec(Family.TRIANGLE_WAVE_PERIODIC), grid)
    else:
        v = np.random.default_rng(n).standard_normal(n)
        v[-1] = v[0]
        f = SampledFunction(grid, v, DecayClass.PERIODIC)
    N = n - 1
    M, h = -(-N // 2) - 1, 2 * PI_LD / N
    half_u = (np.arange(N) + 0.5) * (PI_LD / N)
    w = np.cos(half_u) / np.sin(half_u)

    def dirichlet(d):
        t = (d + 0.5) * h
        return np.sin((M + 0.5) * t) / (N * np.sin(0.5 * t))

    def folded_weights(d):
        return (h / (4 * PI_LD)) * (w[(d - 1) % N] - w[(-d) % N])

    gbar = direct_sum(dirichlet, f.values[:N], N)
    want = direct_sum(folded_weights, gbar, N)
    got = periodic_conjugate(f).values
    assert got[-1] == got[0]
    k1 = float(np.sum(np.abs(folded_weights(np.arange(N)))))
    scale = max(float(np.max(np.abs(f.values))), float(np.max(np.abs(gbar))))
    weights = float(h / (4 * PI_LD)) * 4 * float(np.sum(10 * EPS / half_u[: N // 2])) * scale
    slack = fft_slack(N, k1, scale) + weights + 2 * N * EPS_LD * k1 * scale
    assert float(np.max(np.abs(got[:N] - want))) <= slack


def test_multiplier_peak_memory_stays_below_one_padded_complex_array():
    # one complex array of the 16-fold padded length fast_len(16 n) would take 16 fast_len(16 n)
    # bytes; the route holds half-spectra of the circular length L = fast_len(2n - 1), and two
    # complex arrays of length L (32 L bytes) are a quarter of that
    n = 2**16 + 1
    f = line_function(Family.GAUSSIAN, n=n)
    hilbert_multiplier(f)
    tracemalloc.start()
    try:
        hilbert_multiplier(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * fast_len(2 * n - 1) < 16 * fast_len(16 * n)


def test_multiplier_rejects_a_kernel_that_is_not_odd(tmp_path, capsys, monkeypatch):
    def skewed(n):
        K = _multiplier_kernel(n)
        K[n] += 1e-3  # an even part: the multiplier would gain a real part
        return K

    # a kernel is checked when it is built: drop the spectra built so far
    hilbert._multiplier_spectrum.cache_clear()
    monkeypatch.setattr(hilbert, "_multiplier_kernel", skewed)
    with pytest.raises(ValueError, match="not odd"):
        hilbert_multiplier(line_function(Family.GAUSSIAN, n=257))
    args = ["hilbert", "--family", "gaussian", "--n", "257", "--method", "multiplier"]
    assert main(args + ["--out", str(tmp_path / "h.csv")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: multiplier kernel is not odd") and err.count("\n") == 1


def test_inverse_power_series_length_changes_no_bit():
    # the derived term count against a 120-term loop of the same even and odd
    # sums, far past convergence; -x reads row 1 of x bit for bit
    rng = np.random.default_rng(11)
    for R in (1.0, 50.0 + 50.0 / 4096, 1e3):
        edge = 0.3 * R
        x = np.concatenate(
            (
                np.linspace(-edge, edge, 2001),
                rng.uniform(-edge, edge, 2000),
                np.nextafter(np.array([edge, -edge]), 0.0),
                [0.0, 1e-300, -1e-300],
                np.linspace(-0.99 * R, 0.99 * R, 301),
            )
        )
        J = _inverse_power_transforms(x, R, 5, (1, -1))
        assert np.array_equal(J[1], _inverse_power_transforms(-x, R, 5, (1,))[0])
        small = np.abs(x) < edge
        r = x[small] / R
        for k in range(1, 6):
            even, odd = np.zeros_like(r), np.zeros_like(r)
            term = np.ones_like(r)
            for m in range(0, 120, 2):
                even += term / (k + m)
                odd += term / (k + m + 1)
                term *= r * r
            assert np.array_equal(J[0, k, small], -(even + r * odd) / R**k)
            assert np.array_equal(J[1, k, small], -(even - r * odd) / R**k)


def _masked_inverse_power_transforms(x, R, kmax, signs):
    # the version that indexed with a boolean mask at every order, kept as the reference
    J = np.zeros((len(signs), kmax + 1, x.size))
    small = np.abs(x) < hilbert._SERIES_RHO * R
    r = x[small] / R
    k = np.arange(1.0, kmax + 1.0)[:, None]
    even, odd = np.zeros((kmax, r.size)), np.zeros((kmax, r.size))
    term, r2 = np.ones_like(r), r * r
    for m in range(0, hilbert._SERIES_TERMS, 2):
        even += term / (k + m)
        odd += term / (k + m + 1)
        term *= r2
    odd *= r
    for i, sign in enumerate(signs):
        J[i, 1:, small] = (-(even + odd if sign > 0 else even - odd) / R**k).T
        xl = sign * x[~small]
        J[i, 1, ~small] = (1.0 / xl) * np.log(np.abs(R - xl) / R)
        for kk in range(2, kmax + 1):
            J[i, kk, ~small] = (1.0 / xl) * (R ** (1 - kk) / (kk - 1) + J[i, kk - 1, ~small])
    return J


@pytest.mark.parametrize("signs", [(1, -1), (1,), (-1,)])
def test_inverse_power_transforms_match_the_masked_reference(signs):
    x = make_uniform_grid(-50.0, 50.0, 2**16 + 1).points
    R = 50.0 + 0.5 * (100.0 / 2**16)
    assert np.array_equal(_inverse_power_transforms(x, R, 5, signs), _masked_inverse_power_transforms(x, R, 5, signs))


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
