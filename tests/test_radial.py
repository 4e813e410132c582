import math
import re
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import j1, jv, yv

from bvfourier import (
    DecayClass,
    RadialProfile,
    RadiiRefused,
    SampledFunction,
    fractional_integral,
    leray_condition,
    make_uniform_grid,
    radial_ft_ibp,
    radial_ft_leray,
    radial_ft_oracle,
    read_radial_csv,
)
from bvfourier import grids, radial
from bvfourier.radial import (
    _LEAF,
    _MAX_DIM,
    _cheb_points,
    _half_integer_jv,
    _integer_jv,
    _kink_sum_even,
)

import reference


def profile(values_fn, dim, r_end=2.0, n=2049):
    grid = make_uniform_grid(0.0, r_end, n)
    return RadialProfile.from_samples(grid, values_fn(grid.points), dim)


def ball(dim, n=2049):
    return profile(lambda s: (s <= 1.0).astype(float), dim, n=n)


def bump_values(s):
    inside = np.abs(s - 1.0) <= 0.5
    out = np.zeros_like(s)
    out[inside] = 0.5 * (1.0 + np.cos(np.pi * (s[inside] - 1.0) / 0.5))
    return out


def bump(dim, n=2049):
    return profile(bump_values, dim, n=n)


def test_leray_condition_zero_profile():
    assert leray_condition(profile(np.zeros_like, 3)) == 0.0


def test_leray_condition_ball_closed_form():
    # int_0^1 t^2/(1+t) dt = ln 2 - 1/2; cross-checked by adaptive quadrature
    oracle, _ = quad(lambda t: t * t / (1.0 + t), 0.0, 1.0)
    assert oracle == pytest.approx(math.log(2.0) - 0.5, abs=1e-12)
    got = leray_condition(ball(3, n=8193))
    assert got == pytest.approx(math.log(2.0) - 0.5, abs=2e-4)  # half-cell indicator smear


@pytest.mark.parametrize("n", [1025, 8193])
def test_leray_condition_ball_sits_at_the_euler_maclaurin_term(n):
    # on the support [0, 1] the jump node takes weight h/2, so what is left of
    # int_0^1 t^2/(1+t) dt = ln 2 - 1/2 is (h^2/12) (g'(1) - g'(0)) = h^2/16; the
    # node once took the full weight h, a gap of h/4 (6.1e-5 at n = 8193)
    p = ball(3, n=n)
    assert abs(leray_condition(p) - (math.log(2.0) - 0.5)) <= 1.5 * p.f0.h**2 / 16.0


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


def test_fractional_integral_at_dim_one_is_f0():
    # I_1 := f0, the base case of the recurrence I_n' = -2 t I_{n-2}
    p = bump(1)
    assert np.array_equal(fractional_integral(p).samples.values, p.f0.values)
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
    # dim 1 is the walk's base, the trapezoid sum cut at Rs; a profile that reaches its
    # grid end is cut nowhere, so the sum is leray's, bit for bit
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


def test_ibp_dim1_is_second_order_on_the_ball_cut_at_its_support():
    # the walk's base gives the support end Rs = 1 the end weight h/2, so on the
    # grid-aligned ball it is second order (measured 4.00x per halving).  Dim-1 ibp was
    # once leray's sum, which gives Rs the full weight h, off by h |cos r|: first order
    radii = np.array([0.5, 1.0, 2.5, 7.0])
    exact = 2.0 * np.sin(radii) / radii
    err = [np.max(np.abs(radial_ft_ibp(ball(1, n=n), radii) - exact)) for n in (1025, 2049)]
    assert err[0] >= 3.5 * err[1]


def test_ibp_answers_small_radii_with_its_own_construction():
    # radii below 0.1 were once handed to leray, so the ibp column copied leray's there.
    # Dim 3 now walks at r = 0.05: 6.485336626 against leray's 6.485337622, the walk's
    # trapezoid on f0 against leray's exact I.  Dim 2's by-parts route on the 8193-point
    # bump stays within 5.4e-7 of max|F| = F(0) = pi of the oracle down to r = 1e-3
    p = bump(3)
    got, direct = radial_ft_ibp(p, [0.05])[0], radial_ft_leray(p, [0.05])[0]
    assert got != direct and got == pytest.approx(direct, rel=1e-6)
    p = bump(2, n=8193)
    radii = [1e-3, 1e-2, 0.05, 0.5]
    assert np.max(np.abs(radial_ft_ibp(p, radii) - radial_ft_oracle(p, radii))) <= 6e-7 * math.pi


def test_ibp_never_asks_leray(monkeypatch):
    # ibp once returned leray's values at dim 1 and below r = 0.1, which voided the
    # three-way check there; it answers with its own constructions or refuses
    calls = []
    leray = radial.radial_ft_leray
    monkeypatch.setattr(radial, "radial_ft_leray", lambda *args: calls.append(args) or leray(*args))
    for dim in range(1, 9):
        assert walk_answers(bump(dim), [0.01, 0.05, 0.1, 0.5, 1.0, 10.0]), dim
    assert calls == []


def test_ibp_answers_in_dim_3_on_a_compact_profile_with_sloped_ends():
    # f0' was once built as a compact_support function, which refused the nonzero
    # one-sided differences at its ends: "compact_support requires zero first/last samples"
    p = profile(lambda s: 0.5 * (1.0 + np.cos(np.pi * (s - 1.0))), 3, n=1025)
    assert p.f0.decay_class is DecayClass.COMPACT_SUPPORT
    radii = [0.5, 1.0, 3.0]
    top = radial_ft_leray(p, [1e-9])[0]  # max|F| = F(0): f0 >= 0
    # measured 4.1e-7 of max|F|: the walk's trapezoid on f0 against leray's exact I
    assert np.max(np.abs(radial_ft_ibp(p, radii) - radial_ft_leray(p, radii))) <= 1e-5 * top


@pytest.mark.parametrize("end", ["R", "0"])
def test_ibp_answers_where_integration_by_parts_left_boundary_terms(end):
    # dim 3 once integrated by parts twice and refused these profiles, whose dropped
    # terms I'(R) cos(rR)/r^2 and I'(0)/r^2 (I' = -2 t f0) did not vanish.  At R: all of
    # the profile's mass off the origin sits in its last sample, at the allowed 1e-10 of
    # the peak.  At 0: the grid starts 1e-13 off the origin, within the allowed 1e-12.
    # The walk drops no term.  Its F_3 = -(2 pi / r) dF_1/dr of the trapezoid sum F_1 is
    # the oracle's trapezoid 4 pi sum w f0 s sin(rs) / r (3.30e-11 at r = 0.5); cut at
    # Rs = s_0, the second profile is zero, as leray reads it
    values = np.zeros(129)
    values[0] = 1.0
    start = 0.0
    if end == "R":
        values[-1] = 1e-10
    else:
        start = 1e-13
    p = RadialProfile.from_samples(make_uniform_grid(start, 2.0, 129), values, 3)
    radii = [0.5, 1.0, 2.5, 7.0]
    got = radial_ft_ibp(p, radii)
    if end == "R":
        assert got[0] == pytest.approx(3.30e-11, rel=1e-3)
        assert np.max(np.abs(got - radial_ft_oracle(p, radii))) <= 1e-12 * np.max(np.abs(got))
    else:
        assert np.array_equal(got, np.zeros(4))
        assert np.array_equal(radial_ft_leray(p, radii), np.zeros(4))


def test_oracle_gaussian_dim3_closed_form():
    p = profile(lambda s: np.exp(-s * s / 2.0), 3, r_end=8.0, n=4097)
    radii = np.linspace(0.3, 4.0, 9)
    got = radial_ft_oracle(p, radii)
    expected = (2.0 * math.pi) ** 1.5 * np.exp(-(radii**2) / 2.0)
    assert np.max(np.abs(got - expected) / expected) <= 1e-6


def ball_trapezoid_lead(dim, h, radii):
    """Leading error (h^2/12) (g'(1) - g'(0)) of the trapezoid sum cut at s = 1 on the unit ball.

    The transform is int_0^1 g, g(s) = (2 pi)^{n/2} r^{1-n/2} s^{nu+1} J_nu(rs),
    nu = n/2 - 1, and (s^{nu+1} J_nu(rs))' = r s^{nu+1} J_{nu-1}(rs) + s^nu J_nu(rs)
    (DLMF 10.6.2); g'(0) is 2 pi at dim 2 and 0 at every other dim.
    """
    nu = dim / 2.0 - 1.0
    g1 = (2.0 * math.pi) ** (dim / 2.0) * radii ** -nu * (radii * jv(nu - 1.0, radii) + jv(nu, radii))
    return h * h / 12.0 * (g1 - (2.0 * math.pi if dim == 2 else 0.0))


def test_oracle_disc_transform_converges_to_bessel_form():
    # the oracle sums over the support [0, 1] with end weight h/2, so its error
    # against 2 pi J1(r)/r is the trapezoid's (h^2/12) (g'(1) - g'(0)), with
    # the next order below 1e-5 of it: a quarter when the profile doubles
    radii = np.linspace(0.5, 10.0, 20)
    errs = []
    for n in (2049, 4097):
        got = radial_ft_oracle(ball(2, n=n), radii)
        expected = 2.0 * math.pi * j1(radii) / radii
        errs.append(float(np.max(np.abs(got - expected))))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] <= 1.5 * np.max(np.abs(ball_trapezoid_lead(2, 2.0 / 4096, radii)))


@pytest.mark.parametrize("dim", [4, 6])
def test_oracle_even_ball_converges_to_bessel_form(dim):
    # the node at s = 1 carries the end weight h/2 of the support grid, so the
    # error is the trapezoid's (h^2/12) g'(1) (g'(0) = 0 above dim 2) and falls
    # to a quarter when the profile doubles
    radii = np.linspace(0.5, 10.0, 20)
    expected = (2.0 * math.pi / radii) ** (dim / 2.0) * jv(dim / 2.0, radii)
    errs = [float(np.max(np.abs(radial_ft_oracle(ball(dim, n=n), radii) - expected))) for n in (2049, 4097)]
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] <= 1.5 * np.max(np.abs(ball_trapezoid_lead(dim, 2.0 / 4096, radii)))


@pytest.mark.parametrize(
    "route,dim",
    [(radial_ft_oracle, d) for d in (1, 3, 21, 81, 132)] + [(radial_ft_leray, 1)],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_ball_sum_is_second_order_on_the_support_grid(route, dim):
    # the oracle at every dim, and leray at dim 1 (I = f0), sum f0 over
    # RadialProfile.support, which ends at Rs = 1 with weight h/2, so the
    # error is the trapezoid's lead term and falls 4x per halving of h
    radii = np.array([0.5, 1.0, 3.0])
    exact = reference.ball_transform(dim, 1.0, radii)
    errs = []
    for n in (2049, 4097):
        err = np.abs(route(ball(dim, n=n), radii) - exact)
        assert np.all(err <= 1.5 * np.abs(ball_trapezoid_lead(dim, 2.0 / (n - 1), radii))), n
        errs.append(np.max(err / np.abs(exact)))
    assert errs[0] / errs[1] >= 3.5


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_half_integer_bessel_matches_scipy(k):
    x = np.linspace(0.0, 60.0, 60001)
    assert np.max(np.abs(_half_integer_jv(k, x) - jv(k + 0.5, x))) <= 1e-12


@pytest.mark.parametrize("k", [*range(11), 39])
def test_integer_bessel_matches_scipy(k):
    # both sides of the series/Miller switch at x = 1 and the Miller/Hankel one at 25 + k^2
    edges = [b * f for b in (1.0, 25.0 + k * k) for f in (1.0 - 2e-16, 1.0, 1.0 + 2e-16, 1.0 - 1e-9, 1.0 + 1e-9)]
    x = np.concatenate((np.linspace(0.0, 200.0, 20001), np.geomspace(1e-12, 1.0, 2001), edges))
    assert np.max(np.abs(_integer_jv(k, x) - jv(k, x))) <= 1e-14


def reference_kink_sum_even(a, h, n):
    """The direct O(N K) kink sum of _kink_sum_even, over row blocks of all kinks."""
    rows_total = a.size - 1
    out, slope = np.zeros(rows_total), np.zeros(rows_total)
    cols = np.flatnonzero(a)
    if cols.size == 0:
        return out, slope
    inv = 1.0 / cols[-1]
    rows = max(1, 2**16 // cols.size)
    for i0 in range(0, rows_total, rows):
        c = cols[np.searchsorted(cols, i0, side="right") :]
        if c.size == 0:
            break
        ci, ac = c.astype(float), a[c]
        ri = np.arange(i0, min(i0 + rows, rows_total), dtype=float)
        u = np.sqrt(np.maximum(ci * ci - (ri * ri)[:, None], 0.0))
        theta = np.arcsinh(u / np.where(ri > 0.0, ri, np.inf)[:, None])
        u *= inv
        y, x = ci * inv, ri * inv
        g, up = theta, u
        for k in range(n // 2 - 1):
            g = (y * up - (2 * k + 1) * (x * x)[:, None] * g) / (2 * k + 2)
            up = up * (u * u)
        gs = g @ ac
        out[i0 : i0 + rows] = (up @ (ac * y) / (n - 1) - x * x * gs) / n
        if n == 2:
            slope[i0 : i0 + rows] = -x * gs
    L = h * cols[-1]
    return L**n * out, L * slope


def slope_changes(p):
    """(a, h): the slope changes a_j that fractional_integral hands to the kink sum."""
    f, J = p.f0.values, p.support_index
    a = np.zeros(J + 1)
    a[1:] = np.diff(np.diff(f[: J + 1]) / p.f0.h, append=0.0)
    return a, p.f0.h


def gaussian(dim, n):
    return profile(lambda s: np.exp(-s * s / 2.0), dim, r_end=8.0, n=n)


@pytest.mark.parametrize("n", [4097, 8193])
@pytest.mark.parametrize("dim", [2, 4, 6, 8])
@pytest.mark.parametrize("shape", [bump, gaussian])
def test_hierarchical_kink_sum_matches_the_direct_sum(shape, dim, n):
    a, h = slope_changes(shape(dim, n))
    got, dgot = _kink_sum_even(a, h, dim)
    want, dwant = reference_kink_sum_even(a, h, dim)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    if dim == 2:
        assert np.max(np.abs(dgot - dwant)) <= 1e-14 * np.max(np.abs(dwant))


def best_of_3(fn, *args):
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return min(times)


def test_hierarchical_kink_sum_scales_as_n_log_n():
    # at most 2.5x per doubling over two doublings (the direct sum takes 4x),
    # and at least 4x faster than the direct sum at the larger size
    small, large = (slope_changes(bump(2, n)) for n in (8193, 32769))
    cost = best_of_3(_kink_sum_even, *large, 2)
    assert cost <= 2.5**2 * best_of_3(_kink_sum_even, *small, 2)
    assert best_of_3(reference_kink_sum_even, *large, 2) >= 4.0 * cost


PIECEWISE_LINEAR = {
    # exact binary nodes and slopes on h = 2^-12, so every slope change is exact:
    # the triangle has its one kink at Rs, the holed profile five kinks around a
    # stretch of 2048 samples without any, so whole boxes of kinks are empty
    "triangle": ([0.0, 1.0], [1.0, 0.0]),
    "holed": ([0.0, 0.25, 0.5, 1.0, 1.25, 1.5], [1.0, 1.0, 0.0, 0.0, 0.5, 0.0]),
}


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("kind", sorted(PIECEWISE_LINEAR))
def test_hierarchical_kink_sum_matches_the_direct_sum_on_isolated_kinks(kind, dim):
    nodes, values = PIECEWISE_LINEAR[kind]
    a, h = slope_changes(profile(lambda s: np.interp(s, nodes, values), dim, n=8193))
    assert np.count_nonzero(a) == len(nodes) - 1  # the inner nodes, and Rs = 1.5 - h or 1 - h
    got, dgot = _kink_sum_even(a, h, dim)
    want, dwant = reference_kink_sum_even(a, h, dim)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    if dim == 2:
        assert np.max(np.abs(dgot - dwant)) <= 1e-14 * np.max(np.abs(dwant))


def test_hierarchical_kink_sum_evaluates_o_n_log_n_kernel_entries(monkeypatch):
    # every kernel entry the sum evaluates passes through _even_kernel; count them.
    # Rows are the N = last samples before the last kink.  The near field gives each
    # row at most the 2 _LEAF kinks of its own and the next leaf box.  Each far-field
    # level pairs a row box with at most 1.5 column boxes on average, one P x P matrix
    # a pair, and all levels together hold fewer than 2 boxes boxes, boxes the leaf
    # count; the -ln x part takes one entry per row.
    count = []

    def spy(x, y, u, theta, n):
        count.append(np.broadcast(x, y, u, theta).size)
        return kernel(x, y, u, theta, n)

    kernel = radial._even_kernel
    monkeypatch.setattr(radial, "_even_kernel", spy)
    P = _cheb_points(2)
    for n in (8193, 32769):
        a, h = slope_changes(bump(2, n))
        count.clear()
        _kink_sum_even(a, h, 2)
        cols = np.flatnonzero(a)
        rows, kinks = int(cols[-1]), cols.size
        boxes = 1 << math.ceil(math.log2((rows + 1) / _LEAF))
        near = -(-rows // _LEAF) * _LEAF * 2 * _LEAF
        far = 3 * boxes * P * P
        assert sum(count) <= near + far + rows
        if n == 8193:
            # the one-sided far field evaluated 1,620,128 entries here: each row
            # against P nodes of every far column box, kinks or not
            assert sum(count) <= 1_620_128 // 2
        if n == 32769:
            assert sum(count) <= 0.05 * rows * kinks  # the direct sum evaluates N K entries


def raised_cosine(s):
    """Centred at 50, half-width 20: on [0, 100] its I grows to 9e306 at dim 327."""
    return np.where(np.abs(s - 50.0) <= 20.0, 0.5 * (1.0 + np.cos(np.pi * (s - 50.0) / 20.0)), 0.0)


@pytest.mark.parametrize(
    "dim, finite", [(166, True), (170, True), (317, True), (327, True), (328, True), (329, False), (330, False)]
)
def test_fractional_integral_refuses_in_one_line_where_float64_overflows(dim, finite):
    # I is answered up to the float64 range and refused past it, in one line and
    # without a warning: max|I| is 9.0e306 at dim 327 and 4.9e307 at dim 328, and both
    # branches overflow from dim 329 on.  The even closed form once formed L^n = 70^n
    # before 2 / Gamma((n - 1)/2) shrank it and refused from dim 168 on
    p = profile(raised_cosine, dim, r_end=100.0, n=1025)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if finite:
            assert np.all(np.isfinite(fractional_integral(p).samples.values))
        else:
            with pytest.raises(ValueError, match=f"^dimension {dim}: I overflows float64 on this profile$"):
                fractional_integral(p)


def test_even_dimension_I_answers_as_its_exact_dilation():
    # the even branch works in powers of two of Rs and of its prefactor, so the same
    # samples on [0, 100/64] give I / 64^(n - 1), and [0, 100] answers where forming
    # L^n = 70^n first once refused it from dim 168 on.  Measured: bit-identical at
    # every even dim 168-200
    values = raised_cosine(make_uniform_grid(0.0, 100.0, 1025).points)
    for dim in range(168, 201, 2):
        wide, narrow = (
            fractional_integral(RadialProfile.from_samples(make_uniform_grid(0.0, b, 1025), values, dim))
            for b in (100.0, 100.0 / 64.0)
        )
        want = np.ldexp(narrow.samples.values, 6 * (dim - 1))
        top = float(np.max(np.abs(want)))
        assert np.isfinite(top), dim
        assert np.max(np.abs(wide.samples.values - want)) <= 4.0 * np.finfo(float).eps * top, dim


def airy_start(k, xmax):
    """The start order of Miller's recurrence before the derived one, DLMF 10.19.8's turning-point rule."""
    return 2 * math.ceil((xmax + max(k + 40.0, 12.0 * xmax ** (1.0 / 3.0))) / 2.0)


@pytest.mark.parametrize("k", [0, 1, 2, 5, 10, 20, 39, 170])
def test_miller_starts_no_later_than_the_turning_point_rule_and_within_its_error_bound(k):
    # below the turning-point order, the start order bounds both terms of the
    # recurrence's relative error at xmax, from scipy: the normalisation's J_top and
    # J_{top+1} Y_k / (Y_{top+1} J_k), the start's share in J_k
    for xmax in np.geomspace(1.0, 25.0 + k * k, 97):
        top = radial._miller_start(k, float(xmax))
        assert top % 2 == 0 and k + 2 <= top <= airy_start(k, xmax)
        jk, jn, yk, yn = jv(k, xmax), jv(top + 1, xmax), yv(k, xmax), yv(top + 1, xmax)
        if top < airy_start(k, xmax) and abs(jk) > 1e-290 and np.isfinite(yn):
            assert abs(jv(top, xmax)) <= radial._MILLER_TOL
            assert abs(jn * yk / (yn * jk)) <= radial._MILLER_TOL


@pytest.mark.parametrize("k, xmax", [(20, 2.0), (20, 12.0), (39, 2.0), (39, 12.0), (170, 12.0)])
def test_miller_is_relatively_accurate_at_orders_past_its_arguments(k, xmax):
    # J_k(x) for k >> x is tiny, so an absolute error hides a start order that is
    # too low: a start from J_top's series bound alone erred by 1e-8 relative at
    # J_20(2) and 2e-7 at J_39(12).  J_170 underflows on [1, 2]
    x = np.linspace(1.0, xmax, 401)
    want = jv(k, x)
    normal = np.abs(want) > 1e-290
    assert normal.sum() > 100
    got = radial._miller_jv(k, x)
    assert np.max(np.abs(got - want)[normal] / np.abs(want[normal])) <= 10 * (k + 1) * np.finfo(float).eps


ODD_KINDS = {
    "ball": lambda s: (s <= 1.0).astype(float),
    "bump": bump_values,
    "triangle": lambda s: np.maximum(0.0, 1.0 - s / 1.5),
    "gaussian": lambda s: np.exp(-8.0 * s * s),
    "smoothed_box": lambda s: np.where(s <= 0.6, 1.0, 0.5 * (1.0 + np.cos(np.pi * np.minimum(s - 0.6, 0.6) / 0.6))),
}


def test_tail_sums_round_as_if_in_twice_the_precision():
    # Ogita, Rump & Oishi (2005), Prop. 4.5: the error is at most u |S| + gamma_{m-1}^2 sum |w|,
    # u = eps/2, gamma_k = k u / (1 - k u).  For m = 4096 positive terms the second part is
    # below 1e-24 |S|, so every entry is within eps |S| of its exact sum S
    rng = np.random.default_rng(7)
    w = rng.random(4096) * np.exp(rng.normal(0.0, 5.0, 4096))
    got, exact = radial._tail_sums(w), Fraction(0)
    for i in range(w.size - 1, -1, -1):
        exact += Fraction(w[i])
        assert abs(Fraction(got[i]) - exact) <= Fraction(np.finfo(float).eps) * exact, i


@pytest.mark.parametrize(
    "kind, n, dims",
    [(kind, 129, (3, 5, 21, 51, 101, 171, 343)) for kind in sorted(ODD_KINDS)] + [("bump", 1025, (3, 21, 41, 101))],
)
def test_odd_dimension_I_is_exact_to_rounding(kind, n, dims):
    # the cell recurrence against the binomial kink formula in mpmath (tests/reference.py),
    # within 128 eps max|I|, the roundoff test_dilation_scales_every_route allows I.  Measured: at most
    # 12 eps max|I| at n = 129 and 0.81 eps at n = 1025, so the bound holds an 11x margin.
    # The ball's max|I| at dim 343, 8.1e-310, is subnormal: there the error is 5 units of
    # the least subnormal, against the 100 allowed
    want = reference.odd_fractional_integral(profile(ODD_KINDS[kind], 3, n=n), dims)
    for dim in dims:
        got = fractional_integral(profile(ODD_KINDS[kind], dim, n=n)).samples.values
        tol = 128.0 * np.finfo(float).eps * np.max(np.abs(want[dim])) + 100.0 * np.finfo(float).smallest_subnormal
        assert np.max(np.abs(got - want[dim])) <= tol, dim


COMPARISON_KINDS = {
    **ODD_KINDS,
    "raised_cosine": lambda s: np.where(s <= 1.0, 0.5 * (1.0 + np.cos(np.pi * np.minimum(s, 1.0))), 0.0),
}
_WALK_REFUSAL = re.compile(r"radial_ft_ibp: at r = (\S+(?:, \S+)*) the walk's rounding bound exceeds 1e-06 \|\|f\|\|_1")


def test_walk_names_a_refused_radius_exactly():
    # six digits (%g) once named 0.22111784 as 0.221118, which no input radius matches
    p = profile(ODD_KINDS["bump"], 9, n=8193)
    with pytest.raises(ValueError, match=r"^radial_ft_ibp: at r = 0\.22111784 the walk's"):
        radial_ft_ibp(p, [0.22111784, 5.0])


def walk_answers(p, radii) -> dict[float, float]:
    """{r: ibp value} at the radii the walk answers; its refusal names the others, NaN in its values."""
    try:
        values = radial_ft_ibp(p, radii)
    except RadiiRefused as exc:
        named = [float(r) for r in _WALK_REFUSAL.fullmatch(str(exc))[1].split(", ")]
        assert named == [r for r, v in zip(radii, exc.values) if math.isnan(v)]
        values = exc.values
    return {r: v for r, v in zip(radii, values) if not math.isnan(v)}


@pytest.mark.parametrize("n", [129, 1025, 4097])
def test_walk_answers_finite_values_near_leray_on_the_comparison_grid(n):
    # ibp once differenced I n - 1 times: it answered wrongly with exit 0 (up to 1.3e18 of
    # max|F| on the 129-point ball at dims 12-23, 3.5 max|F| on the 1025-point ball at dim 11)
    # and refused every dim from 6 on the 4097-point bump.  Over the five odd-dimension
    # kinds and an origin-centred raised cosine, the walk's values are finite wherever it
    # answers, and from n = 1025 on within 1e-3 of max|F| of leray; at n = 129 the ball is
    # off by up to 1.7e-2, the coarse grid's discretization, so only finiteness is held
    # there.  Measured: 870 of 1440 answers, at most 7.5e-4 at n = 1025 and 9.4e-5 at
    # n = 4097 (both the ball at dim 12, r = 1)
    radii = [0.5, 1.0, 2.5, 7.0, 15.0]
    grid = make_uniform_grid(0.0, 2.0, n)
    for kind, values_fn in COMPARISON_KINDS.items():
        for dim in (*range(4, 13), 21, 27, 31, 41, 81, 151, 343):
            p = RadialProfile.from_samples(grid, values_fn(grid.points), dim)
            got = walk_answers(p, radii)
            assert all(math.isfinite(v) for v in got.values()), (kind, dim)
            if n >= 1025 and got:
                leray = radial_ft_leray(p, [1e-9, *got])  # max|F| = F(0): f0 >= 0
                err = np.abs(np.array(list(got.values())) - leray[1:])
                assert np.max(err) <= 1e-3 * abs(leray[0]), (kind, dim)


def test_walk_is_second_order_on_the_ball_at_odd_dimensions():
    # F_1's trapezoid sum, cut at the support radius with end weight h/2, is second order
    # on the grid-aligned ball, and the walk's derivatives of it are exact, so the error
    # against (2 pi / r)^{n/2} J_{n/2}(r) quarters with h.  Measured: 4.00x at every
    # odd dim 3-41, over the radii both grids answer (from all five at dims 3-5 to r = 15
    # alone from dim 27).  Dim 3 once differenced f0 and was first order on the jump
    radii = [0.5, 1.0, 2.5, 7.0, 15.0]
    for dim in range(3, 42, 2):
        exact = dict(zip(radii, reference.ball_transform(dim, 1.0, radii)))
        coarse, fine = (walk_answers(ball(dim, n=n), radii) for n in (2049, 4097))
        common = sorted(set(coarse) & set(fine))
        assert common, dim
        err = [max(abs(got[r] - exact[r]) for r in common) for got in (coarse, fine)]
        assert err[0] >= 3.5 * err[1], dim


def test_walk_answers_the_dim_7_ball_within_1e_3_or_refuses_in_one_line():
    # radius 0.5 on [0, 2]: the differencing route answered here with exit 0, off by
    # 2.2e-3 of max|F|, almost all at r = 0.25 where r^(1-n) = 4096 multiplied the six
    # times differenced rounding of I.  The walk refuses r = 0.25 and answers from 0.5 on
    # (measured within 8.3e-7 of max|F|)
    p = profile(lambda s: (s <= 0.5).astype(float), 7, n=8193)
    radii = np.linspace(0.25, 20.0, 80)
    exact = dict(zip(radii, reference.ball_transform(7, 0.5, radii)))
    top = math.pi**3.5 * 0.5**7 / math.gamma(4.5)  # the ball's volume, max|F| = F(0)
    try:
        got = dict(zip(radii, radial_ft_ibp(p, radii)))
    except ValueError as exc:
        assert _WALK_REFUSAL.fullmatch(str(exc))  # one line, naming the route and the radius
        got = walk_answers(p, radii)
    assert 0.5 in got
    assert max(abs(v - exact[r]) for r, v in got.items()) <= 1e-3 * top


@pytest.mark.parametrize("n", [1025, 4097])
@pytest.mark.parametrize("kind", ["bump", "gaussian", "smoothed_box", "triangle"])
def test_ibp_refuses_or_agrees_with_leray_at_high_odd_dimensions(kind, n):
    # ibp once returned values off by 1e47 to 1e161 of max|F| at odd dims 25-55 here, where
    # the binomial kink sum's rounding noise in I fooled its differencing budget.  The walk
    # reads no I at odd dims; each radius it refuses is named in one line, and every
    # radius it answers agrees with leray.  Measured: it refuses r <= 3 at all four dims
    # and answers from r = 7, 15 or 30 on, within 5.0e-5 of max|F| (smoothed_box, n = 1025,
    # dim 27)
    radii = [0.5, 1.0, 3.0, 7.0, 15.0, 30.0]
    for dim in (21, 27, 41, 53):
        p = profile(ODD_KINDS[kind], dim, n=n)
        got = walk_answers(p, radii)
        assert got, dim
        leray = radial_ft_leray(p, [1e-9, *got])  # max|F| = F(0): f0 >= 0
        err = np.abs(np.array(list(got.values())) - leray[1:])
        assert np.max(err) <= 1e-3 * abs(leray[0]), dim

def test_dimension_limit_is_where_a_prefactor_overflows():
    for n in (_MAX_DIM - 1, _MAX_DIM):
        for v in (math.gamma((n - 1) / 2.0), math.pi ** ((n - 1) / 2.0), (2.0 * math.pi) ** (n / 2.0), math.gamma(n / 2.0)):
            assert math.isfinite(v)
    with pytest.raises(OverflowError):
        math.gamma((_MAX_DIM + 1) / 2.0)
    RadialProfile(ball(2).f0, _MAX_DIM)
    with pytest.raises(ValueError, match=f"at most {_MAX_DIM}"):
        RadialProfile(ball(2).f0, _MAX_DIM + 1)


def test_oracle_zero_profile():
    assert np.max(np.abs(radial_ft_oracle(profile(np.zeros_like, 2), [1.0]))) == 0.0


@pytest.mark.parametrize("centre", [0.0, 1.5])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_profile_without_support_cell(dim, centre):
    # J = 0 (the zero profile, or a centre-only one): the support grid is
    # samples 0 .. 1, whose node s = 0 keeps its end weight h/2.  The profile
    # cut at Rs = 0 is zero for every route but the dim-1 even extension, where
    # leray (I = f0) and the oracle read the centre's half cell, 2 (h/2) f0(0);
    # the walk's base is cut at Rs = 0
    p = profile(lambda s: np.where(s == 0.0, centre, 0.0), dim, n=129)
    assert p.support_index == 0
    radii = [0.3, 1.0, 7.0]
    half_cell = np.full(3, centre / 64 if dim == 1 else 0.0)
    assert np.array_equal(radial_ft_leray(p, radii), half_cell)
    assert np.array_equal(radial_ft_oracle(p, radii), half_cell)
    assert np.array_equal(radial_ft_ibp(p, radii), np.zeros(3))


@pytest.mark.parametrize("dim", [2, 3, 5, 9])
def test_oracle_bits_at_a_radius_do_not_depend_on_the_other_radii(dim):
    # the radii reach the power series, Miller's recurrence over several octaves
    # and (at dim 2) Hankel's expansion, alone and in batches of 2, 3 and 8
    p = bump(dim)
    radii = np.array([0.3, 3.7, 40.0, 5.0, 0.01, 13.0, 100.0, 0.77])
    alone = np.array([radial_ft_oracle(p, [r])[0] for r in radii])
    for size in (2, 3, 8):
        for first in range(radii.size):
            batch = np.roll(radii, -first)[:size]
            assert radial_ft_oracle(p, batch).tobytes() == np.roll(alone, -first)[:size].tobytes(), (size, batch)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_oracle_ignores_zero_padding(dim):
    # the bump ends in zeros on [0, 2]: padding it with zeros to [0, 4]
    # adds only zero-weight nodes, so the oracle sum is unchanged
    radii = [0.3, 1.0, 4.7, 12.0]
    short = radial_ft_oracle(bump(dim, n=2049), radii)
    padded = radial_ft_oracle(profile(bump_values, dim, r_end=4.0, n=4097), radii)
    assert np.max(np.abs(padded - short)) <= 1e-14 * np.max(np.abs(short))


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


def test_oracle_refuses_a_value_past_the_float_range():
    # at dim 343 the r^(1 - n/2) prefactor overflows at r = 0.05 while the Bessel sum
    # underflows to 0; their product would be nan
    with pytest.raises(ValueError, match=r"^radial_ft_oracle: the value at r = 0\.05 is not finite in float64$"):
        radial_ft_oracle(ball(343, n=129), [0.5, 0.05, 1.0])


def test_no_radial_route_takes_a_finite_difference(monkeypatch):
    # the walk takes its r-derivatives of cosine sums exactly; no route differences,
    # through numpy or through the grids module (which radial does not import by name)
    def spy(*args, **kwargs):
        raise AssertionError("a finite difference was taken")

    monkeypatch.setattr(np, "gradient", spy)
    monkeypatch.setattr(grids, "derivative", spy)
    assert not hasattr(radial, "derivative")
    for dim in (2, 3, 4, 5, 6):
        p = bump(dim, n=1025)
        for route in (radial_ft_leray, radial_ft_ibp, radial_ft_oracle):
            route(p, [0.05, 1.0, 3.0])


def test_every_route_sums_over_the_support_grid(monkeypatch):
    # the routes share one quadrature: trapezoid weights and cosine sums on
    # RadialProfile.support, [0, Rs] on samples 0 .. J, never on the whole grid
    seen = []
    for name in ("trapezoid_weights", "transform_values"):
        real = getattr(radial, name)
        monkeypatch.setattr(radial, name, lambda f, *args, real=real: seen.append(getattr(f, "grid", f)) or real(f, *args))
    for dim in (1, 2, 3, 4):
        p = bump(dim, n=1025)
        assert p.support.n == p.support_index + 1 < p.f0.n
        for route in (radial_ft_leray, radial_ft_ibp, radial_ft_oracle):
            seen.clear()
            route(p, [0.05, 1.0, 3.0])
            assert seen and all(g is p.support for g in seen), (dim, route.__name__)


def test_ibp_zero_profile():
    z = profile(np.zeros_like, 3)
    assert np.max(np.abs(radial_ft_ibp(z, [1.0, 2.0]))) == 0.0


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_higher_dimensions_run_through_the_walk(dim):
    # not acceptance-gated, but the walk must stay consistent with the
    # oracle on smooth bumps
    p = bump(dim, n=4097)
    radii = np.linspace(0.5, 8.0, 16)
    oracle = radial_ft_oracle(p, radii)
    scale = float(np.max(np.abs(oracle)))
    assert np.max(np.abs(radial_ft_ibp(p, radii) - oracle)) <= 1e-4 * scale
    assert np.max(np.abs(radial_ft_leray(p, radii) - oracle)) <= 1e-4 * scale


@given(st.integers(min_value=2, max_value=5), st.floats(min_value=0.25, max_value=4.0))
@settings(max_examples=40, deadline=None)
def test_dilation_scales_every_route(dim, lam):
    # the same samples on [0, R/lam] read f0(lam s), whose transform is
    # lam^-n F(r/lam): evaluated at r = lam rho against F(rho)
    N, R = 129, 2.0
    vals = bump_values(np.linspace(0.0, R, N))
    p = RadialProfile.from_samples(make_uniform_grid(0.0, R, N), vals, dim)
    p_lam = RadialProfile.from_samples(make_uniform_grid(0.0, R / lam, N), vals, dim)
    rho = np.array([1.0, 2.5, 5.0, 9.0])
    eps = np.finfo(float).eps
    top = radial_ft_leray(p, [1e-9])[0]  # max|F| = F(0): f0 >= 0 and so I >= 0
    max_i = float(np.max(fractional_integral(p).samples.values))
    # Each route sums N weighted samples times a kernel bounded by its r = 0
    # value (cos, or x^{1-n/2} J_{n/2-1}(x)); the two sides differ by the
    # sums' rounding (N eps), the kernel argument's (2 eps r R), and for
    # leray the roundoff of the I samples, at most 128 eps max|I| (measured
    # at most 12 eps at odd dims, test_odd_dimension_I_is_exact_to_rounding,
    # and 73 eps at even dims 2-6 against an 80-bit evaluation), summed over
    # [0, R].  Below, the absolute terms of the oracle sum at most to max|F|
    # and those of the leray sum to 2 pi^{(n-1)/2} R max|I| >= max|F|.
    sums = eps * (N + 2.0 * rho.max() * R)
    leray = sums * top + 2.0 * math.pi ** ((dim - 1) / 2.0) * R * (128.0 * eps + sums) * max_i
    oracle = sums * top
    if dim == 2:
        # dim 2 integrates by parts with I' in closed form, dividing the roundoff by at
        # most h, and rho^{1-n} <= 1
        ibp = leray * p.f0.h ** (1 - dim)
    else:
        # the walk: (-1)^k P sum_j a_{k,j} x^{j-2k} S_j, x = r Rs, from g = f0 (dims 3
        # and 5) or the dim-2 I (dim 4), with |S_j| <= sum w |g| <= Rs max|g|,
        # P = (2 pi)^k 2 pi^{(n0-1)/2} Rs^{2k}, and D = r^-1 d, D^2 = r^-2 d^2 - r^-3 d,
        # so sum_j |a_{k,j}| x^{j-2k} is x^-1 (dims 3-4) or x^-2 + x^-3 (dim 5), largest at
        # rho = 1.  Its absolute terms take the sums' rounding, eps |ln P| more from P's
        # log form, and at dim 4 the dim-2 I's roundoff (128 eps of max|g| per sample)
        rs = p.f0.x[p.support_index]
        x = rs * rho.min()
        k, n0 = (dim - 1) // 2, 2 - dim % 2
        g = fractional_integral(RadialProfile(p.f0, 2)).samples.values if n0 == 2 else vals
        pref = (2.0 * math.pi) ** k * 2.0 * math.pi ** ((n0 - 1) / 2.0) * rs ** (2 * k)
        terms = pref * (1.0 / x if k == 1 else x**-2 + x**-3) * rs * float(np.max(np.abs(g)))
        ibp = (sums + eps * (abs(math.log(pref)) + 128.0 * (n0 == 2))) * terms
    for route, slack in ((radial_ft_leray, leray), (radial_ft_ibp, ibp), (radial_ft_oracle, oracle)):
        got = route(p_lam, lam * rho)
        want = lam**-dim * route(p, rho)
        assert np.max(np.abs(got - want)) <= lam**-dim * slack, route.__name__


def test_walk_answers_every_radius_under_its_bound_as_if_asked_for_those_alone():
    # the walk once raised at its first refused radius, so a caller lost the radii it
    # answers; now it refuses only the radii past its rounding bound, names them all,
    # and its answers are bit for bit those it gives when asked for them alone
    from bvfourier import Family, FamilySpec, family_value

    grid = make_uniform_grid(0.0, 2.0, 8193)  # `bvf radial --family raised_cosine --width 1 --dim 9`
    p = RadialProfile.from_samples(grid, family_value(FamilySpec(Family.RAISED_COSINE, {"width": 1.0}), grid.points), 9)
    radii = np.array([0.5, 1.0, 2.0, 5.0])
    with pytest.raises(RadiiRefused, match=r"^radial_ft_ibp: at r = 0\.5, 1\.0 the walk's") as refusal:
        radial_ft_ibp(p, radii)
    values = refusal.value.values
    assert np.array_equal(np.isnan(values), [True, True, False, False])
    assert np.array_equal(values[2:], radial_ft_ibp(p, radii[2:]))
