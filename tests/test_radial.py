import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j1

from bvfourier import (
    DecayClass,
    FractionalIntegral,
    RadialProfile,
    SampledFunction,
    fractional_integral,
    leray_condition,
    make_uniform_grid,
    radial_ft_ibp,
    radial_ft_leray,
    radial_ft_oracle,
    read_radial_csv,
)


def profile(values_fn, dim, r_end=2.0, n=2049):
    grid = make_uniform_grid(0.0, r_end, n)
    vals = values_fn(grid.points)
    decay = DecayClass.COMPACT_SUPPORT if vals[0] == 0.0 and vals[-1] == 0.0 else DecayClass.VANISHING_AT_INFINITY
    return RadialProfile(SampledFunction(grid, vals, decay), dim)


def ball(dim, n=2049):
    return profile(lambda s: (s <= 1.0).astype(float), dim, n=n)


def bump(dim, n=2049):
    def values(s):
        inside = np.abs(s - 1.0) <= 0.5
        out = np.zeros_like(s)
        out[inside] = 0.5 * (1.0 + np.cos(np.pi * (s[inside] - 1.0) / 0.5))
        return out

    return profile(values, dim, n=n)


def test_leray_condition_zero_profile():
    assert leray_condition(profile(np.zeros_like, 3)) == 0.0


def test_leray_condition_ball_closed_form():
    # int_0^1 t^2/(1+t) dt = ln 2 - 1/2; cross-checked by adaptive quadrature
    oracle, _ = quad(lambda t: t * t / (1.0 + t), 0.0, 1.0)
    assert oracle == pytest.approx(math.log(2.0) - 0.5, abs=1e-12)
    got = leray_condition(ball(3, n=8193))
    assert got == pytest.approx(math.log(2.0) - 0.5, abs=2e-4)  # half-cell indicator smear


def test_leray_condition_gaussian_stable_in_radius():
    vals = []
    for r_end in (8.0, 12.0):
        n = int(1024 * r_end / 8.0) + 1
        vals.append(leray_condition(profile(lambda s: np.exp(-s * s / 2.0), 2, r_end=r_end, n=n)))
    assert abs(vals[1] - vals[0]) <= 1e-6


def test_fractional_integral_zero_profile():
    frac = fractional_integral(profile(np.zeros_like, 3))
    assert np.max(np.abs(frac.samples.values)) == 0.0


def test_fractional_integral_ball_dim3():
    frac = fractional_integral(ball(3))
    s = frac.samples.x
    expected = np.where(s <= 1.0, 1.0 - s * s, 0.0)
    assert np.max(np.abs(frac.samples.values - expected)) <= 1e-12


def test_fractional_integral_disc_dim2_closed_form():
    # singular weight integrated exactly on the cut-off profile
    frac = fractional_integral(ball(2))
    s = frac.samples.x
    inside = s < 1.0
    expected = (2.0 / math.sqrt(math.pi)) * np.sqrt(1.0 - s[inside] ** 2)
    assert np.max(np.abs(frac.samples.values[inside] - expected)) <= 1e-6


@pytest.mark.parametrize("rho", [1.0, 0.75])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
def test_fractional_integral_ball_closed_form_all_dims(dim, rho):
    # a grid-aligned ball has no slope changes: I is f0(Rs) times the ball term
    frac = fractional_integral(profile(lambda s: (s <= rho).astype(float), dim))
    s = frac.samples.x
    expected = np.where(
        s < rho,
        2.0 * np.clip(rho * rho - s * s, 0.0, None) ** ((dim - 1) / 2.0) / ((dim - 1) * math.gamma((dim - 1) / 2.0)),
        0.0,
    )
    assert np.max(np.abs(frac.samples.values - expected)) <= 1e-14 * np.max(np.abs(expected))


def piecewise_linear_quad(p, i):
    """I(s_i) of the linear interpolant of f0 cut off at its last nonzero
    sample, by adaptive quadrature cell by cell; the cell at t = s_i takes
    the algebraic endpoint weight (s - t)^q of (s^2 - t^2)^q."""
    s, f, n = p.f0.x, p.f0.values, p.dim
    t, q = s[i], (n - 3) / 2.0
    total = 0.0
    for j in range(i, int(np.flatnonzero(f)[-1])):
        lo, hi = s[j], s[j + 1]

        def f0(x, lo=lo, fl=f[j], slope=(f[j + 1] - f[j]) / (hi - lo)):
            return fl + slope * (x - lo)

        if j == i and t > 0.0:
            v, _ = quad(lambda x: x * f0(x) * (x + t) ** q, lo, hi, weight="alg", wvar=(q, 0.0), epsabs=0.0, epsrel=1e-13)
        else:
            v, _ = quad(lambda x: x * f0(x) * (x * x - t * t) ** q, lo, hi, epsabs=0.0, epsrel=1e-13)
        total += v
    return 2.0 / math.gamma((n - 1) / 2.0) * total


@pytest.mark.parametrize("dim", [2, 4])
def test_fractional_integral_matches_quadrature_of_the_linear_interpolant(dim):
    p = bump(dim, n=129)
    vals = fractional_integral(p).samples.values
    rows = np.linspace(0, np.flatnonzero(p.f0.values)[-1] - 1, 20).astype(int)
    want = np.array([piecewise_linear_quad(p, i) for i in rows])
    assert np.max(np.abs(vals[rows] - want)) <= 1e-12 * np.max(np.abs(vals))


def test_fractional_integral_is_linear():
    # the cut-off follows the detected support radius, so linearity holds
    # to roundoff among profiles sharing it
    def first(s):
        inside = np.abs(s - 1.0) <= 0.5
        out = np.zeros_like(s)
        out[inside] = 0.5 * (1.0 + np.cos(np.pi * (s[inside] - 1.0) / 0.5))
        return out

    def second(s):
        return first(s) ** 2 * (1.0 + s)  # same exact zero set, different shape

    p1 = profile(first, 3)
    p2 = profile(second, 3)
    assert p1.support_index == p2.support_index
    combined = RadialProfile(
        p1.f0.with_values(2.0 * p1.f0.values + 0.5 * p2.f0.values, DecayClass.COMPACT_SUPPORT), 3
    )
    lhs = fractional_integral(combined).samples.values
    rhs = 2.0 * fractional_integral(p1).samples.values + 0.5 * fractional_integral(p2).samples.values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_fractional_integral_near_linear_across_supports():
    # each profile is cut off at its own last nonzero sample: alone the
    # ball stops at s = 1, inside the sum its edge is the linear ramp to
    # the next node, so linearity only holds to O(h) across supports
    p1 = bump(3)
    p2 = ball(3)
    combined = RadialProfile(
        p1.f0.with_values(2.0 * p1.f0.values + 0.5 * p2.f0.values, DecayClass.VANISHING_AT_INFINITY), 3
    )
    lhs = fractional_integral(combined).samples.values
    rhs = 2.0 * fractional_integral(p1).samples.values + 0.5 * fractional_integral(p2).samples.values
    assert np.max(np.abs(lhs - rhs)) <= 1e-3


def test_fractional_integral_vanishes_past_the_support():
    frac = fractional_integral(bump(2))
    s = frac.samples.x
    assert np.max(np.abs(frac.samples.values[s >= 1.5])) == 0.0


def test_fractional_integral_rejects_dim_one():
    with pytest.raises(ValueError, match="dim >= 2"):
        fractional_integral(bump(1))
    with pytest.raises(ValueError):
        RadialProfile(bump(2).f0, 0)


def test_radial_profile_validation():
    grid = make_uniform_grid(1.0, 2.0, 65)
    with pytest.raises(ValueError, match="start at 0"):
        RadialProfile(SampledFunction(grid, np.zeros(65), DecayClass.BOUNDED), 2)
    grid = make_uniform_grid(0.0, 2.0, 65)
    with pytest.raises(ValueError, match="grid end"):
        RadialProfile(SampledFunction(grid, np.ones(65), DecayClass.BOUNDED), 2)


def test_leray_ball_dim3_closed_form():
    p = ball(3, n=8193)
    radii = np.array([0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 6.0, 8.0, 10.0])
    got = radial_ft_leray(p, radii)
    expected = 4.0 * math.pi * (np.sin(radii) - radii * np.cos(radii)) / radii**3
    assert np.max(np.abs(got - expected) / np.abs(expected)) <= 1e-4


def test_leray_small_radius_recovers_the_ball_volume():
    p = ball(3, n=8193)
    v = radial_ft_leray(p, [1e-6])[0]
    assert v == pytest.approx(4.0 * math.pi / 3.0, rel=1e-4)


def test_leray_dim1_matches_even_extension_transform():
    from bvfourier import Family, FamilySpec, sample, transform_values

    p = profile(lambda s: np.exp(-s * s / 2.0), 1, r_end=8.0, n=2049)
    radii = np.linspace(0.1, 5.0, 17)
    got = radial_ft_leray(p, radii)
    even = sample(FamilySpec(Family.GAUSSIAN), make_uniform_grid(-8.0, 8.0, 4097))
    expected = transform_values(even, radii).real
    assert np.max(np.abs(got - expected)) <= 1e-6


def test_oracle_dim1_takes_the_limit_at_the_center():
    # J_{-1/2}(s r) s^{1/2} is inf * 0 at s = 0; the Bessel route must use its
    # limit there and match the even-extension transform like the leray route
    p = profile(lambda s: np.exp(-s * s / 2.0), 1, r_end=8.0, n=2049)
    radii = np.linspace(0.1, 5.0, 17)
    exact = math.sqrt(2.0 * math.pi) * np.exp(-radii * radii / 2.0)
    assert np.max(np.abs(radial_ft_leray(p, radii) - exact)) <= 1e-6
    assert np.max(np.abs(radial_ft_oracle(p, radii) - exact)) <= 1e-6


def test_leray_zero_profile_and_bad_radii():
    p = profile(np.zeros_like, 3)
    assert np.max(np.abs(radial_ft_leray(p, [1.0, 2.0]))) == 0.0
    with pytest.raises(ValueError):
        radial_ft_leray(p, [])
    with pytest.raises(ValueError):
        radial_ft_leray(p, [-1.0])


def test_ibp_dim1_degenerates_to_the_direct_route():
    p = profile(lambda s: np.exp(-s * s / 2.0), 1, r_end=8.0)
    radii = np.linspace(0.5, 5.0, 7)
    assert np.array_equal(radial_ft_ibp(p, radii), radial_ft_leray(p, radii))


@pytest.mark.parametrize("dim", [2, 3])
def test_three_way_agreement_on_smooth_bumps(dim):
    p = bump(dim, n=4097)
    radii = np.linspace(0.5, 10.0, 39)
    oracle = radial_ft_oracle(p, radii)
    scale = float(np.max(np.abs(oracle)))
    assert np.max(np.abs(radial_ft_leray(p, radii) - oracle)) <= 1e-3 * scale
    assert np.max(np.abs(radial_ft_ibp(p, radii) - oracle)) <= 1e-3 * scale


def test_ibp_disc_dim2_integrates_the_jump_end():
    # f0 jumps at the cut-off, so I' has an integrable (1 - t)^(-1/2) end
    p = profile(lambda s: (s <= 1.0).astype(float), 2, n=8193)
    radii = np.array([0.5, 1.0, 2.0, 5.0])
    got = radial_ft_ibp(p, radii)
    assert np.max(np.abs(got - 2.0 * math.pi * j1(radii) / radii)) <= math.sqrt(p.f0.h) * math.pi  # F(0) = pi


def test_ibp_small_radii_delegate_to_the_direct_route():
    p = bump(3)
    out = radial_ft_ibp(p, [0.05, 0.5])
    direct = radial_ft_leray(p, [0.05])[0]
    assert out[0] == pytest.approx(direct, rel=1e-12)


def test_ibp_rejects_nonvanishing_boundary_terms():
    p = bump(3)
    frac = fractional_integral(p)
    shifted = FractionalIntegral(
        samples=frac.samples.with_values(frac.samples.values + 0.5),
        dim=3,
        derivative_order_available=frac.derivative_order_available,
    )
    with pytest.raises(ValueError, match="offending k=0"):
        radial_ft_ibp(p, [1.0], frac=shifted)


def test_oracle_gaussian_dim3_closed_form():
    p = profile(lambda s: np.exp(-s * s / 2.0), 3, r_end=8.0, n=4097)
    radii = np.linspace(0.3, 4.0, 9)
    got = radial_ft_oracle(p, radii)
    expected = (2.0 * math.pi) ** 1.5 * np.exp(-(radii**2) / 2.0)
    assert np.max(np.abs(got - expected) / expected) <= 1e-6


def test_oracle_disc_transform_converges_to_bessel_form():
    # half-cell radius smear of the sampled indicator is O(h): the error
    # against 2 pi J1(r)/r must halve when the profile doubles
    radii = np.linspace(0.5, 10.0, 20)
    errs = []
    for n in (2049, 4097):
        got = radial_ft_oracle(ball(2, n=n), radii)
        expected = 2.0 * math.pi * j1(radii) / radii
        errs.append(float(np.max(np.abs(got - expected))))
    assert errs[0] / errs[1] >= 1.8
    assert errs[1] <= 2e-3  # half-cell radius smear ~ pi*h*|J0|


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_half_integer_bessel_matches_scipy(k):
    from scipy.special import jv

    from bvfourier.radial import _half_integer_jv

    x = np.linspace(0.0, 60.0, 60001)
    assert np.max(np.abs(_half_integer_jv(k, x) - jv(k + 0.5, x))) <= 1e-12


def test_oracle_zero_profile():
    assert np.max(np.abs(radial_ft_oracle(profile(np.zeros_like, 2), [1.0]))) == 0.0


def test_volume_consistency_across_dimensions():
    # r -> 0 reduces to the n-volume integral sigma_{n-1} int f0 s^{n-1} ds
    for dim in (2, 3):
        p = bump(dim, n=4097)
        sigma = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
        w = np.full(p.f0.n, p.f0.h)
        w[0] = w[-1] = p.f0.h / 2
        volume = sigma * float(np.sum(w * p.f0.values * p.f0.x ** (dim - 1)))
        got = radial_ft_leray(p, [1e-6])[0]
        assert got == pytest.approx(volume, rel=1e-4)


def test_radial_csv_round_trip(tmp_path):
    p = bump(2, n=257)
    path = tmp_path / "prof.csv"
    rows = ["s,f0"] + [f"{float(s)!r},{float(v)!r}" for s, v in zip(p.f0.x, p.f0.values)]
    path.write_text("\n".join(rows) + "\n")
    q = read_radial_csv(path, 2)
    assert q.dim == 2
    assert np.max(np.abs(q.f0.values - p.f0.values)) == 0.0


def test_radial_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0,1\n1,0\n2,0\n")
    with pytest.raises(ValueError, match="header"):
        read_radial_csv(path, 2)
    path.write_text("s,f0\n0,1\n1,0\n3,0\n")
    with pytest.raises(ValueError, match="equispaced"):
        read_radial_csv(path, 2)
    path.write_text("s,f0\n0,1\nnan,0\n2,0\n")
    with pytest.raises(ValueError, match="finite"):
        read_radial_csv(path, 2)
    path.write_text("s,f0\n0,1,5\n1,0,5\n2,0,5\n")
    with pytest.raises(ValueError, match="malformed data row"):
        read_radial_csv(path, 2)


def test_derivative_budget_reported():
    frac = fractional_integral(bump(5, n=4097))
    assert frac.dim == 5
    assert 0 <= frac.derivative_order_available <= 4


def test_ibp_zero_profile():
    z = profile(np.zeros_like, 3)
    assert np.max(np.abs(radial_ft_ibp(z, [1.0, 2.0]))) == 0.0


@pytest.mark.parametrize("dim", [4, 5])
def test_higher_dimensions_run_through_the_differencing_path(dim):
    # slower and not acceptance-gated, but the generic route must stay
    # consistent with the oracle on smooth bumps
    p = bump(dim, n=4097)
    radii = np.linspace(0.5, 8.0, 16)
    oracle = radial_ft_oracle(p, radii)
    scale = float(np.max(np.abs(oracle)))
    assert np.max(np.abs(radial_ft_ibp(p, radii) - oracle)) <= 1e-4 * scale
    assert np.max(np.abs(radial_ft_leray(p, radii) - oracle)) <= 1e-4 * scale
