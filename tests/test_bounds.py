"""Bounds derived from the grid.

Each sits above its line's clean measurement and at or below the
per-profile literal it replaced, and each catches a seeded fault that
the literal let pass.
"""

import math

import pytest

from bvfourier import suites
from bvfourier.suites import run_suite

PROFILE_ORDER = ("fast", "default", "strict")

# the literals the derived bounds replaced, per profile in PROFILE_ORDER
OLD_BOUNDS = {
    "hilbert-pv-poisson-pair": (1e-3, 1e-3, 5e-4),
    "hilbert-cross-gaussian": (1e-3, 1e-3, 2.5e-4),
    "hardy-littlewood-box-log-slope": (0.1, 0.05, 0.05),
    "radial-ball-closed-form": (1e-3, 1e-4, 1e-4),
    "radial-threeway-dim2": (1e-3, 1e-3, 1e-3),
    "radial-threeway-dim3": (1e-3, 1e-3, 1e-3),
    "radial-leray-condition-ball": (2e-3, 2e-4, 2e-4),
}


@pytest.mark.parametrize("profile", PROFILE_ORDER)
def test_derived_bounds_lie_between_the_measurement_and_the_old_literal(profile):
    reports = {r.name: r for suite in ("hilbert", "hardy-littlewood", "radial") for r in run_suite(suite, profile)}
    for name, old in OLD_BOUNDS.items():
        report = reports[name]
        assert report.measured < report.bound <= old[PROFILE_ORDER.index(profile)], name


def _scaled(route, factor):
    def faulty(*args, **kwargs):
        out = route(*args, **kwargs)
        return out.with_values(out.values * factor) if hasattr(out, "with_values") else out * factor

    return faulty


@pytest.mark.parametrize("profile", ("default", "strict"))
@pytest.mark.parametrize(
    "route, factor, suite, name",
    [
        ("hilbert_pv", 1.0 + 1e-4, "hilbert", "hilbert-cross-gaussian"),
        ("radial_ft_leray", 1.0 + 1e-5, "radial", "radial-ball-closed-form"),
        ("radial_ft_oracle", 1.0 + 1e-4, "radial", "radial-threeway-dim2"),
        ("radial_ft_oracle", 1.0 + 1e-4, "radial", "radial-threeway-dim3"),
        # reads 3.73e-8: below the bound from dim 3's old differencing route, 5.34e-8,
        # above the one from leray's leading term, 2.53e-8
        ("radial_ft_leray", 1.0 + 3e-8, "radial", "radial-threeway-dim3"),
    ],
)
def test_a_seeded_fault_fails_the_line_the_old_literal_passed(monkeypatch, profile, route, factor, suite, name):
    monkeypatch.setattr(suites, route, _scaled(getattr(suites, route), factor))
    (report,) = [r for r in run_suite(suite, profile) if r.name == name]
    assert report.bound < report.measured <= OLD_BOUNDS[name][PROFILE_ORDER.index(profile)]


def test_a_record_measured_at_half_its_grid_gives_its_observed_order():
    # an observed-order twin needs no per-line code: the record's own measure at n
    # and n/2; the midpoint pv rule errs by (h^2/8) (Hg)'', so the order is 2
    (check,) = [c for checks in suites._CHECKS.values() for c in checks if c.name == "hilbert-cross-gaussian"]
    n = check.n(suites.PROFILES["default"])
    fine, coarse = (next(iter(check.measure(m).values())) for m in (n, n // 2))
    assert abs(math.log2(coarse / fine) - 2.0) <= 1e-3
