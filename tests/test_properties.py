"""Property-based checks of the structural invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvfourier import (
    DecayClass,
    SampledFunction,
    kernel_difference,
    lebesgue_point_defect,
    make_uniform_grid,
    total_variation,
)

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
@settings(max_examples=300, deadline=None)
def test_total_variation_is_subadditive(u, v):
    n = min(len(u), len(v))
    f = as_function(u[:n])
    g = as_function(v[:n])
    s = f.with_values(f.values + g.values)
    tv_f, tv_g = total_variation(f), total_variation(g)
    slack = 4.0 * n * np.finfo(float).eps * (1.0 + tv_f + tv_g)
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
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.01, max_value=2.0).flatmap(
        lambda m: st.sampled_from([m, -m])
    ),
)
@settings(max_examples=200, deadline=None)
def test_lebesgue_defect_is_nonnegative(x, t):
    grid = make_uniform_grid(-8.0, 8.0, 513)
    f = SampledFunction(grid, np.exp(-grid.points**2 / 2.0), DecayClass.VANISHING_AT_INFINITY)
    assert lebesgue_point_defect(f, x, t) >= 0.0


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
