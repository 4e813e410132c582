"""The CSV text kernel writes Python's own bytes: "%r" for the first column, "%.12g" for the rest."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvfourier import _text
from bvfourier._text import csv_rows


def python_rows(columns):
    table = np.column_stack(columns)
    row = "%r" + ",%.12g" * (table.shape[1] - 1) + "\n"
    return (row * table.shape[0]) % tuple(table.ravel().tolist())


def corpus():
    """Random bit patterns, signed zeros, subnormals, the ends of the range, nan and inf,
    every 10^k and 2^k with their neighbours, 12-digit ties and the default grids."""
    rng = np.random.default_rng(20260)
    bits = rng.integers(0, 2**64, 40000, dtype=np.uint64, endpoint=False).view(np.float64)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)] + [math.ldexp(1.0, k) for k in range(-1074, 1024)])
    near = np.concatenate((powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)))
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
               math.nan, math.inf, -math.inf, 1e-280, 1e280, 0.0001, 1e-5, 1e15, 1e16]
    ties = [123456789012.5, 999999999999.5, -999999999999.5, 0.5, 2.5, 1.0000000000005, 9.9999999999995,
            1234567890125.0, 2.0000000000005e-100]
    half = np.linspace(0.0, math.pi / (100.0 / 2**14), 2**14 + 1)
    grids = [
        np.linspace(-50.0, 50.0, 2**14 + 1),
        np.linspace(0.0, 2.0, 8193),
        np.linspace(-math.pi, math.pi, 4097),
        np.concatenate((-half[:0:-1], half)),  # the exactly mirrored Nyquist grid of `transform`
    ]
    values = np.concatenate([bits, near, -near, special, ties, np.negative(ties), *grids])
    return values[: values.size - values.size % 3]


def test_kernel_writes_pythons_bytes_on_the_corpus():
    values = corpus()
    # each value once in the first column and once in a value column
    for columns in (np.split(values, 3), np.split(np.roll(values, values.size // 3), 3)):
        assert csv_rows(columns) == python_rows(columns)


@pytest.mark.parametrize("count", [1, 2, 4])
def test_kernel_writes_pythons_bytes_for_any_column_count(count):
    values = corpus()[: 3000 * count]
    columns = np.split(values, count)
    assert csv_rows(columns) == python_rows(columns)


def test_kernel_writes_zeros_itself_and_hands_python_only_what_it_cannot_decide(monkeypatch):
    handed = []
    python_text = _text._python_text

    def spy(first, values):
        handed.extend(zip(first.tolist(), values.tolist()))
        return python_text(first, values)

    monkeypatch.setattr(_text, "_python_text", spy)
    columns = [np.array([0.0, -0.0, 1.5]), np.array([-0.0, 0.0, 2.0**-3]), np.array([0.0, 7.0, -0.0])]
    assert csv_rows(columns) == "0.0,-0,0\n-0.0,0,7\n1.5,0.125,-0\n"
    assert handed == []
    # a 12-digit tie, and values off the fast path
    columns = [np.array([1.0, -math.inf]), np.array([999999999999.5, 1e300]), np.array([math.nan, 5e-324])]
    assert csv_rows(columns) == python_rows(columns)
    # (first column, value), row by row
    assert [(r, repr(v)) for r, v in handed] == [
        (False, "999999999999.5"), (False, "nan"), (True, "-inf"), (False, "1e+300"), (False, "5e-324")
    ]


def test_kernel_writes_nothing_for_no_rows():
    assert csv_rows([np.empty(0), np.empty(0)]) == ""


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=20))
def test_kernel_writes_pythons_bytes_for_any_float(rows):
    columns = list(np.array(rows).T)
    assert csv_rows(columns) == python_rows(columns)


def test_a_fully_masked_column_writes_empty_cells():
    # a radial route refused at every radius leaves its cells empty; nan keeps Python's bytes
    x, v = np.array([0.5, 1.0]), np.array([math.nan, -0.0])
    assert csv_rows([x, np.ma.masked_all(2), v, np.ma.masked_all(2)]) == "0.5,,nan,\n1.0,,-0,\n"


def test_a_masked_cell_writes_empty():
    # the radial table leaves the radii a route refused empty and writes the rest
    x = np.array([0.5, 1.0, 2.0])
    v = np.ma.masked_invalid([math.nan, 0.25, -3.0])
    columns = [x, v, np.ma.masked_all(3), np.array([1.0, 2.0, math.nan])]
    assert csv_rows(columns) == "0.5,,,1\n1.0,0.25,,2\n2.0,-3,,nan\n"
