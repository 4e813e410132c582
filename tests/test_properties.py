"""Property-based checks of the structural invariants."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bvfourier import (
    DecayClass,
    SampledFunction,
    fourier_transform,
    hilbert_multiplier,
    hilbert_pv,
    integrate,
    kernel_difference,
    make_uniform_grid,
    total_variation,
    transform_values,
)
from bvfourier import cli, hilbert
from bvfourier._fft import fast_len, needs_bluestein
from bvfourier.grids import trapezoid_weights
from bvfourier.radial import RadialProfile, fractional_integral, radial_ft_ibp, radial_ft_leray, radial_ft_oracle

finite_values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=64,
)


def as_function(values):
    grid = make_uniform_grid(0.0, 1.0, len(values))
    return SampledFunction(grid, np.array(values), DecayClass.BOUNDED)


@given(finite_values)
@settings(max_examples=300, deadline=None)
def test_total_variation_is_shift_invariant(values):
    f = as_function(values)
    shift = 17.25
    g = f.with_values(f.values + shift)
    # exact in the continuum; floats absorb differences far below the shift
    slack = 4.0 * len(values) * np.finfo(float).eps * (shift + float(np.max(np.abs(f.values))))
    assert abs(total_variation(f) - total_variation(g)) <= slack


@given(finite_values, finite_values)
@example([0.0, 0.99999], [125186.0, 131072.0])
@settings(max_examples=300, deadline=None)
def test_total_variation_is_subadditive(u, v):
    n = min(len(u), len(v))
    f = as_function(u[:n])
    g = as_function(v[:n])
    s = f.with_values(f.values + g.values)
    tv_f, tv_g = total_variation(f), total_variation(g)
    eps = np.finfo(float).eps
    # TV(u + v) <= TV(u) + TV(v) holds exactly; the three float sums of
    # |differences| round by at most 4 n eps (1 + TV(u) + TV(v)).  The
    # samples s_i = fl(u_i + v_i) themselves err by at most (eps/2)|u_i + v_i|,
    # and each of the n - 1 differences of s takes two such errors, so
    # TV(fl(u + v)) exceeds TV(u + v) by at most n eps max|u + v|.
    sums = n * eps * (float(np.max(np.abs(f.values))) + float(np.max(np.abs(g.values))))
    slack = 4.0 * n * eps * (1.0 + tv_f + tv_g) + sums
    assert total_variation(s) <= tv_f + tv_g + slack


@given(finite_values)
@settings(max_examples=300, deadline=None)
def test_total_variation_dominates_endpoint_gap(values):
    f = as_function(values)
    tv = total_variation(f)
    # exact in the continuum; the float sum of |differences| rounds at the data's scale
    slack = 4.0 * len(values) * np.finfo(float).eps * tv
    assert tv >= abs(values[-1] - values[0]) - slack


@given(st.floats(min_value=0.01, max_value=2.0 * math.pi - 0.01), st.integers(min_value=1, max_value=500))
@settings(max_examples=200, deadline=None)
def test_kernel_difference_tail_bound_and_oddness(t, terms):
    partial, closed = kernel_difference(t, terms)
    pm, cm = kernel_difference(-t, terms)
    assert cm == -closed
    assert pm == pytest.approx(-partial, abs=1e-15)
    # symmetric-sum tail is O(t / terms)
    assert abs(partial - closed) <= 3.0 * t / terms + 1e-12


@given(
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(min_value=1e-3, max_value=200.0),
    st.integers(min_value=2, max_value=10_000),
)
@settings(max_examples=300, deadline=None)
def test_grid_spacing_consistency(a, width, n):
    g = make_uniform_grid(a, a + width, n)
    assert g.h > 0.0
    assert g.h * (g.n - 1) == pytest.approx(width, rel=1e-12)
    assert g.points[0] == a and g.points[-1] == a + width


# Linearity T(a f + b g) = a T(f) + b T(g) of the transform routes.  Every
# example runs on the same grid, so after the first one the kernel spectra
# and chirps come from the caches.  Data: seeded normal samples with zero
# ends (compact support, so hilbert_multiplier fits no tail) at scales
# 10^-6 .. 10^6.  Each slack follows one model: an FFT route of length L
# runs about log2(L) radix passes, each rounding partial sums bounded by
# the data's scale S (sum |w_j v_j| for a transform, sum_j |K_j| max|v|
# for a convolution with kernel K).  T(a f + b g) and a T(f) + b T(g) each
# carry log2(L) eps S with S at most |a| S(f) + |b| S(g); forming a f + b g
# and a T(f) + b T(g) rounds at most 2 eps of the same S each.  Hence
# (2 log2(L) + 4) eps (|a| S(f) + |b| S(g)).  The model holds above the
# underflow threshold, where rounding is relative: coefficients are 0 or of
# magnitude 1e-3 .. 100, so no product or partial sum becomes subnormal.

coefficient = st.just(0.0) | st.floats(min_value=1e-3, max_value=100.0) | st.floats(min_value=-100.0, max_value=-1e-3)
linear_mix = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    a=coefficient,
    b=coefficient,
    exponents=st.tuples(st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6)),
)


def random_pair(seed, grid, exponents, complex_values=False):
    rng = np.random.default_rng(seed)
    pair = []
    for e in exponents:
        v = rng.standard_normal(grid.n) + (1j * rng.standard_normal(grid.n) if complex_values else 0.0)
        v[0] = v[-1] = 0.0
        pair.append(SampledFunction(grid, 10.0**e * v, DecayClass.COMPACT_SUPPORT))
    return pair


def linearity_defect(op, f, g, a, b):
    return float(np.max(np.abs(op(f.with_values(a * f.values + b * g.values)) - (a * op(f) + b * op(g)))))


LINE_GRID = make_uniform_grid(-10.0, 10.0, 1001)


@given(**linear_mix)
@settings(max_examples=30, deadline=None)
def test_hilbert_pv_is_linear(seed, a, b, exponents):
    f, g = random_pair(seed, LINE_GRID, exponents)
    n = LINE_GRID.n
    # one convolution of the n - 1 midpoints with 1/(pi (d - 1/2)), d = 2 - n .. n - 1, whose
    # l1 norm is 2 w1 / pi, at circular length fast_len(2n - 2)
    w1 = float(np.sum(1.0 / (np.arange(n - 1) + 0.5)))
    scale = abs(a) * float(np.max(np.abs(f.values))) + abs(b) * float(np.max(np.abs(g.values)))
    slack = (2.0 * math.log2(fast_len(2 * n - 2)) + 4.0) * np.finfo(float).eps * 2.0 * w1 * scale / math.pi
    assert linearity_defect(lambda v: hilbert_pv(v).values, f, g, a, b) <= slack


@given(**linear_mix)
@settings(max_examples=30, deadline=None)
def test_hilbert_multiplier_is_linear(seed, a, b, exponents):
    f, g = random_pair(seed, LINE_GRID, exponents)
    n = LINE_GRID.n
    k1 = float(np.sum(np.abs(hilbert._multiplier_kernel(n))))
    scale = abs(a) * float(np.max(np.abs(f.values))) + abs(b) * float(np.max(np.abs(g.values)))
    slack = (2.0 * math.log2(fast_len(2 * n - 1)) + 4.0) * np.finfo(float).eps * k1 * scale
    assert linearity_defect(lambda v: hilbert_multiplier(v).values, f, g, a, b) <= slack


# n = 2^11 on the 4-fold lattice: N = 8 (n - 1) = 8 * 23 * 89 is not 5-smooth,
# but 89^2 < N, so one rfft (fft for complex data) runs at N itself
LATTICE_GRID = make_uniform_grid(-50.0, 50.0, 2**11)
LATTICE_NODES = np.arange(-4 * 2047, 4 * 2047 + 1) * (math.pi / (4 * LATTICE_GRID.width))


@given(**linear_mix, complex_values=st.booleans())
@settings(max_examples=30, deadline=None)
def test_transform_values_is_linear_on_a_non_smooth_lattice(seed, a, b, exponents, complex_values):
    f, g = random_pair(seed, LATTICE_GRID, exponents, complex_values)
    n, w = LATTICE_GRID.n, trapezoid_weights(LATTICE_GRID)
    # real data needs the bins 0 .. N/2 only, complex data all N bins
    span = 4 * (n - 1) + 1 if not complex_values else 8 * (n - 1)
    S = abs(a) * float(np.sum(w * np.abs(f.values))) + abs(b) * float(np.sum(w * np.abs(g.values)))
    # written for a chirp-z convolution, forward and inverse at its padded
    # length P = fast_len(n + span - 1); the one FFT at N runs log2(N) passes,
    # and 2 log2(N) + 4 <= 4 log2(P) + 4, so the same slack covers it
    slack = (4.0 * math.log2(fast_len(n + span - 1)) + 4.0) * np.finfo(float).eps * S
    assert linearity_defect(lambda v: transform_values(v, LATTICE_NODES), f, g, a, b) <= slack


# Translation by whole grid steps: on samples supported inside the window both
# line operators are convolutions with a fixed kernel (pv through the midpoints,
# which shift with the samples), so moving the samples by k steps moves the
# output by k wherever both outputs are on the grid.  The two FFT evaluations
# round differently, each by at most log2(L) eps S in the model above, with S
# the kernel's l1 norm times max|v|: the slack is 2 log2(L) eps S.
translation = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    exponent=st.integers(min_value=-6, max_value=6),
    k=st.integers(min_value=-(LINE_GRID.n // 2), max_value=LINE_GRID.n // 2),
)


def shifted_pair(seed, exponent, k):
    """Samples supported on nodes 1 + max(0, -k) .. n - 2 - max(0, k), and the same moved by k."""
    n = LINE_GRID.n
    v = 10.0**exponent * np.random.default_rng(seed).standard_normal(n)
    v[: 1 + max(0, -k)] = 0.0
    v[n - 1 - max(0, k) :] = 0.0
    return [SampledFunction(LINE_GRID, w, DecayClass.COMPACT_SUPPORT) for w in (v, np.roll(v, k))]


def translation_defect(op, f, g, k):
    n = LINE_GRID.n
    return float(np.max(np.abs(op(g)[max(0, k) : n + min(0, k)] - op(f)[max(0, -k) : n - max(0, k)])))


@given(**translation)
@settings(max_examples=30, deadline=None)
def test_hilbert_pv_commutes_with_whole_step_shifts(seed, exponent, k):
    f, g = shifted_pair(seed, exponent, k)
    n = LINE_GRID.n
    w1 = float(np.sum(1.0 / (np.arange(n - 1) + 0.5)))
    S = 2.0 * w1 / math.pi * float(np.max(np.abs(f.values)))
    slack = 2.0 * math.log2(fast_len(2 * n - 2)) * np.finfo(float).eps * S
    assert translation_defect(lambda v: hilbert_pv(v).values, f, g, k) <= slack


@given(**translation)
@settings(max_examples=30, deadline=None)
def test_hilbert_multiplier_commutes_with_whole_step_shifts(seed, exponent, k):
    f, g = shifted_pair(seed, exponent, k)
    n = LINE_GRID.n
    S = float(np.sum(np.abs(hilbert._multiplier_kernel(n)))) * float(np.max(np.abs(f.values)))
    slack = 2.0 * math.log2(fast_len(2 * n - 1)) * np.finfo(float).eps * S
    assert translation_defect(lambda v: hilbert_multiplier(v).values, f, g, k) <= slack


# fourier_transform's default grid is the lattice k pi/(b - a), |k| <= n - 1,
# whose bins come from one DFT of length N = 2 (n - 1).  Three route classes:
# a 5-smooth N, an N that is not 5-smooth but has no prime p with p^2 > N
# (both one rfft at N), and an N with such a prime (the chirp-z route).
DEFAULT_GRID_N = {
    "smooth": [n for n in range(3, 4098) if fast_len(2 * (n - 1)) == 2 * (n - 1)],
    "rough": [n for n in range(3, 4098) if fast_len(2 * (n - 1)) != 2 * (n - 1) and not needs_bluestein(2 * (n - 1))],
    "bluestein": [n for n in range(3, 4098) if needs_bluestein(2 * (n - 1))],
}


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.one_of(*(st.sampled_from(ns) for ns in DEFAULT_GRID_N.values())),
    a=st.floats(min_value=-100.0, max_value=100.0),
    width=st.floats(min_value=0.1, max_value=200.0),
    exponent=st.integers(min_value=-6, max_value=6),
)
@example(seed=1, n=2**10 + 1, a=-50.0, width=100.0, exponent=0)  # N = 2^11
@example(seed=2, n=2**10, a=-50.0, width=100.0, exponent=0)  # N = 2 * 3 * 11 * 31
@example(seed=3, n=2**7, a=-50.0, width=100.0, exponent=0)  # N = 2 * 127
@settings(max_examples=40, deadline=None)
def test_default_transform_grid_is_exactly_conjugate_with_the_plain_integral_at_zero(seed, n, a, width, exponent):
    grid = make_uniform_grid(a, a + width, n)
    f = SampledFunction(grid, 10.0**exponent * np.random.default_rng(seed).standard_normal(n), DecayClass.BOUNDED)
    res = fourier_transform(f)
    t, F = res.freqs, res.values
    assert t.size == 2 * n - 1 and np.array_equal(t[::-1], -t)
    assert np.array_equal(F[::-1], np.conj(F))
    assert t[n - 1] == 0.0 and F[n - 1] == complex(integrate(f))


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.one_of(*(st.sampled_from(ns) for ns in DEFAULT_GRID_N.values())),
    a=st.floats(min_value=-100.0, max_value=100.0),
    width=st.floats(min_value=0.1, max_value=200.0),
    exponent=st.integers(min_value=-6, max_value=6),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_default_transform_grid_keeps_plancherel(seed, n, a, width, exponent):
    # For real samples the default nodes k pi/(b - a), k = -(n - 2) .. n - 1, are one
    # period of the length-N DFT, N = 2 (n - 1), of the weighted samples w_j f_j, so
    # Parseval gives (pi/(b - a))/(2 pi) sum |F(t_k)|^2 = (N / (2 (b - a))) sum w_j^2 f_j^2
    # = (1/h) sum w_j^2 f_j^2 exactly in real arithmetic.  Slack, in units of u = eps/2:
    # an FFT of length L errs by at most 6 u log2 L in the 2-norm (Higham, Accuracy and
    # Stability of Numerical Algorithms, Thm 24.2), the chirp-z route runs three of them
    # and three unit-modulus products, 18 u log2 L + 6 u; squaring doubles that; the
    # pairwise sums add log2 N u and (log2 n + 2) u; F(0), set to the plain trapezoid sum,
    # adds 2 log2 n u.  With L <= fast_len(2n) all of it is below (20 log2 L + 8) eps.
    grid = make_uniform_grid(a, a + width, n)
    f = SampledFunction(grid, 10.0**exponent * np.random.default_rng(seed).standard_normal(n), DecayClass.BOUNDED)
    F = fourier_transform(f).values[1:]  # drops k = -(n - 1), the mirror of k = n - 1
    lhs = (math.pi / grid.width) / (2.0 * math.pi) * float(np.sum(np.abs(F) ** 2))  # b - a, as rounded
    rhs = float(np.sum((trapezoid_weights(grid) * f.values) ** 2)) / grid.h
    slack = (20.0 * math.log2(fast_len(2 * n)) + 8.0) * np.finfo(float).eps
    assert abs(lhs - rhs) <= slack * rhs


# Amplitude: the three radial routes are linear in the profile, and each runs
# on its input scaled by a power of two to unit size, so a profile times 2^k
# gives answers times 2^k exactly while every value stays normal.  At 2^1016
# ibp once overflowed in its dim-3 f0' and refused dims 4-5 at budget 0.  The
# fractional integral I runs on f0 at unit scale too, so it is exactly linear
# as well, and every route is held at both powers.
RADIAL_GRID = make_uniform_grid(0.0, 2.0, 1025)
_u = (RADIAL_GRID.points - 1.0) / 0.5  # the raised cosine's support is [1/2, 3/2]
RADIAL_PROFILES = {
    "ball": (RADIAL_GRID.points <= 1.0).astype(float),
    "raised_cosine": np.where(np.abs(_u) <= 1.0, 0.5 * (1.0 + np.cos(np.pi * _u)), 0.0),
}
RADIAL_RADII = np.array([0.5, 1.0, 3.0])


@pytest.mark.parametrize("dim", range(1, 6))
@pytest.mark.parametrize("kind", sorted(RADIAL_PROFILES))
def test_radial_routes_are_exactly_linear_in_amplitude(kind, dim):
    routes = (radial_ft_leray, radial_ft_ibp, radial_ft_oracle)
    values = RADIAL_PROFILES[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit = RadialProfile.from_samples(RADIAL_GRID, values, dim)
        for power in (1016, -1000):
            scaled = RadialProfile.from_samples(RADIAL_GRID, np.ldexp(values, power), dim)
            for route in routes:
                want = np.ldexp(route(unit, RADIAL_RADII), power)
                assert np.array_equal(route(scaled, RADIAL_RADII), want), (route.__name__, power)


@pytest.mark.parametrize("dim", range(2, 8))
@pytest.mark.parametrize("kind", sorted(RADIAL_PROFILES))
def test_fractional_integral_is_exactly_linear_in_amplitude(kind, dim):
    # I once ran on f0 as given: at 2^-1000, where the raised cosine's I is subnormal
    # near its support end, it differed from 2^-1000 times the unit I in 10 samples
    # at dim 4 and 8 at dim 5
    unit = fractional_integral(RadialProfile.from_samples(RADIAL_GRID, RADIAL_PROFILES[kind], dim))
    for power in (1016, -1000):
        values = np.ldexp(RADIAL_PROFILES[kind], power)
        scaled = fractional_integral(RadialProfile.from_samples(RADIAL_GRID, values, dim))
        assert np.array_equal(scaled.samples.values, np.ldexp(unit.samples.values, power)), power
        if dim == 2:
            assert np.array_equal(scaled.slope, np.ldexp(unit.slope, power)), power


def test_radial_command_answers_on_a_ball_at_the_top_of_the_float_range(tmp_path, capsys):
    s, f0 = RADIAL_GRID.points, np.ldexp(RADIAL_PROFILES["ball"], 1016)
    src, out = tmp_path / "ball.csv", tmp_path / "r.csv"
    src.write_text("s,f0\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(s.tolist(), f0.tolist())))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["radial", "--csv", str(src), "--dim", "3", "--radii", "0.5,1,3", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    unit = RadialProfile.from_samples(RADIAL_GRID, RADIAL_PROFILES["ball"], 3)
    for column, route in enumerate((radial_ft_leray, radial_ft_ibp, radial_ft_oracle), start=1):
        want = np.ldexp(route(unit, RADIAL_RADII), 1016)
        assert np.all(np.abs(rows[:, column] - want) <= 5e-12 * np.abs(want))
