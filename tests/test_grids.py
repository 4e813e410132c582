import contextlib
import csv
import math
import os
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from bvfourier import (
    DecayClass,
    Family,
    FamilySpec,
    Grid,
    SampledFunction,
    derivative,
    family_value,
    make_uniform_grid,
    read_samples_csv,
    sample,
    total_variation,
)
from bvfourier.grids import _read_uniform_csv
from bvfourier.radial import read_radial_csv


def test_two_point_grid():
    g = make_uniform_grid(0, 1, 2)
    assert g.h == 1.0
    assert np.array_equal(g.points, [0.0, 1.0])


def test_five_point_grid_is_arithmetic_progression():
    g = make_uniform_grid(-1, 1, 5)
    assert np.allclose(g.points, [-1.0, -0.5, 0.0, 0.5, 1.0], atol=0)


def test_default_rig_spacing():
    g = make_uniform_grid(-50, 50, 2**14)
    assert g.h == pytest.approx(100.0 / 16383.0, rel=1e-15)
    assert g.h * (g.n - 1) == pytest.approx(g.b - g.a, rel=1e-15)


@pytest.mark.parametrize("a,b,n", [(1.0, 1.0, 4), (2.0, -2.0, 4), (0.0, 1.0, 1), (0.0, math.inf, 4)])
def test_grid_rejects_bad_inputs(a, b, n):
    with pytest.raises(ValueError):
        make_uniform_grid(a, b, n)


def test_box_values():
    spec = FamilySpec(Family.BOX, {"width": 2.0})
    assert family_value(spec, np.array([0.0]))[0] == 1.0
    assert family_value(spec, np.array([3.0]))[0] == 0.0


def test_poisson_peak_value():
    spec = FamilySpec(Family.POISSON_KERNEL, {"a": 1.0})
    assert family_value(spec, np.array([0.0]))[0] == pytest.approx(1.0 / math.pi, abs=1e-15)


def test_gaussian_peak_value():
    spec = FamilySpec(Family.GAUSSIAN, {"sigma": 1.0})
    assert family_value(spec, np.array([0.0]))[0] == 1.0


@pytest.mark.parametrize(
    "family,closed_form",
    [
        (Family.TRIANGLE, lambda x: max(0.0, 1.0 - abs(x))),
        (Family.GAUSSIAN, lambda x: math.exp(-x * x / 2.0)),
        (Family.POISSON_KERNEL, lambda x: 1.0 / (math.pi * (1.0 + x * x))),
        (Family.CONJUGATE_POISSON, lambda x: x / (math.pi * (1.0 + x * x))),
    ],
)
def test_sampling_matches_scalar_closed_forms(family, closed_form):
    grid = make_uniform_grid(-10, 10, 257)
    f = sample(FamilySpec(family), grid)
    expected = np.array([closed_form(float(x)) for x in grid.points])
    assert np.max(np.abs(f.values - expected)) <= 1e-14


def test_family_decay_classes():
    grid = make_uniform_grid(-10, 10, 101)
    assert sample(FamilySpec(Family.BOX), grid).decay_class is DecayClass.COMPACT_SUPPORT
    assert sample(FamilySpec(Family.GAUSSIAN), grid).decay_class is DecayClass.VANISHING_AT_INFINITY
    pgrid = make_uniform_grid(-math.pi, math.pi, 129)
    assert sample(FamilySpec(Family.TRIANGLE_WAVE_PERIODIC), pgrid).decay_class is DecayClass.PERIODIC


def test_compact_family_needs_room():
    # box touching the window ends violates the zero-endpoint invariant
    grid = make_uniform_grid(-1, 1, 65)
    with pytest.raises(ValueError, match="compact_support"):
        sample(FamilySpec(Family.BOX, {"width": 2.0}), grid)


def test_periodic_family_needs_full_period():
    grid = make_uniform_grid(-1.0, 1.0, 65)
    with pytest.raises(ValueError, match="period"):
        sample(FamilySpec(Family.TRIANGLE_WAVE_PERIODIC), grid)


def test_family_rejects_bad_params():
    with pytest.raises(ValueError):
        FamilySpec(Family.GAUSSIAN, {"sigma": -1.0})
    with pytest.raises(ValueError):
        FamilySpec(Family.BOX, {"nonsense": 1.0})


def test_total_variation_box_is_two_unit_jumps():
    grid = make_uniform_grid(-2, 2, 401)
    assert total_variation(sample(FamilySpec(Family.BOX), grid)) == pytest.approx(2.0, abs=1e-12)


def test_total_variation_triangle_up_down():
    grid = make_uniform_grid(-2, 2, 401)
    assert total_variation(sample(FamilySpec(Family.TRIANGLE), grid)) == pytest.approx(2.0, abs=1e-12)


def test_total_variation_gaussian_twice_the_peak():
    grid = make_uniform_grid(-8, 8, 2**12)
    f = sample(FamilySpec(Family.GAUSSIAN), grid)
    assert total_variation(f) == pytest.approx(2.0 * float(np.max(f.values)), abs=1e-6)


def test_total_variation_refinement_is_monotone():
    prev = None
    for n in (257, 513, 1025):
        f = sample(FamilySpec(Family.GAUSSIAN), make_uniform_grid(-8, 8, n))
        tv = total_variation(f)
        if prev is not None:
            assert tv >= prev - 1e-14
        prev = tv


def test_derivative_of_constant_is_zero():
    grid = make_uniform_grid(-3, 3, 101)
    f = SampledFunction(grid, np.full(101, 4.2), DecayClass.BOUNDED)
    assert np.max(np.abs(derivative(f).values)) == 0.0


def test_derivative_exact_on_linear():
    grid = make_uniform_grid(-3, 3, 101)
    f = SampledFunction(grid, grid.points.copy(), DecayClass.BOUNDED)
    assert np.max(np.abs(derivative(f).values - 1.0)) <= 1e-12


@pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.POISSON_KERNEL])
def test_derivative_second_order_on_smooth_families(family):
    # oracle: the closed-form family derivative; halving h must shrink
    # the max interior error at least 3.5x
    from bvfourier import family_derivative

    errs = []
    for n in (1025, 2049):
        grid = make_uniform_grid(-8, 8, n)
        spec = FamilySpec(family)
        f = sample(spec, grid)
        exact = family_derivative(spec, grid.points)
        errs.append(float(np.max(np.abs(derivative(f).values - exact)[1:-1])))
    assert errs[0] / errs[1] >= 3.5


# where each family at its default parameters, or its first or second derivative, jumps
_BREAKS = {
    Family.BOX: (-1.0, 1.0),
    Family.TRIANGLE: (-1.0, 0.0, 1.0),
    Family.RAISED_COSINE: (-1.0, 1.0),
    Family.SMOOTHED_BOX: (-1.0, -0.5, 0.5, 1.0),
    Family.TRIANGLE_WAVE_PERIODIC: tuple(k * math.pi for k in range(-2, 3)),
}


@pytest.mark.parametrize("family", list(Family))
def test_family_derivative_matches_a_centred_difference(family):
    # (f(x + d) - f(x - d)) / 2d errs from f'(x) by d^2/6 max|f'''| on a smooth
    # stretch.  At the default parameters max|f'''| is 4 pi^3, on the smoothed
    # box's flanks ((pi/r)^3/2, r = 1/2); it is pi^3/2 for the raised cosine,
    # 1.39 for the Gaussian, below 2 for both Poisson kernels and 0 for the
    # piecewise-linear families.  Each value is within 4 ulps of max|f| <= 1,
    # which the quotient scales by 1/2d.  x +- d are exact: d and the points are
    # dyadic.  Points within 2d of a break are left out
    from bvfourier import family_derivative

    d = 2.0**-17
    spec = FamilySpec(family)
    x = np.arange(-4096, 4097) / 512.0
    x = x[np.all(np.abs(x[:, None] - np.array(_BREAKS.get(family, ()))) > 2.0 * d, axis=1)]
    centred = (family_value(spec, x + d) - family_value(spec, x - d)) / (2.0 * d)
    bound = d * d * 4.0 * math.pi**3 / 6.0 + 4.0 * np.finfo(float).eps / d
    assert np.max(np.abs(centred - family_derivative(spec, x))) <= bound


def test_derivative_needs_three_points():
    grid = make_uniform_grid(0, 1, 2)
    f = SampledFunction(grid, np.zeros(2), DecayClass.BOUNDED)
    with pytest.raises(ValueError):
        derivative(f)


def test_sampled_function_validation():
    grid = make_uniform_grid(0, 1, 11)
    with pytest.raises(ValueError):
        SampledFunction(grid, np.ones(10), DecayClass.BOUNDED)
    with pytest.raises(ValueError):
        SampledFunction(grid, np.full(11, np.nan), DecayClass.BOUNDED)
    with pytest.raises(ValueError):
        SampledFunction(grid, np.ones(11), DecayClass.COMPACT_SUPPORT)


def test_csv_round_trip(tmp_path):
    grid = make_uniform_grid(-4, 4, 257)
    f = sample(FamilySpec(Family.GAUSSIAN), grid)
    path = tmp_path / "f.csv"
    lines = ["x,value"] + [f"{float(x)!r},{float(v)!r}" for x, v in zip(grid.points, f.values)]
    path.write_text("\n".join(lines) + "\n")
    g = read_samples_csv(path, DecayClass.VANISHING_AT_INFINITY)
    assert g.grid.n == 257
    assert np.max(np.abs(g.values - f.values)) == 0.0
    assert g.decay_class is DecayClass.VANISHING_AT_INFINITY


def test_csv_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("u,v\n0,1\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_samples_csv(p, DecayClass.BOUNDED)
    p.write_text("x,value\n0,1\n2,2\n3,3\n")
    with pytest.raises(ValueError, match="equispaced"):
        read_samples_csv(p, DecayClass.BOUNDED)
    p.write_text("x,value\n0,1\n-1,2\n")
    with pytest.raises(ValueError, match="increasing"):
        read_samples_csv(p, DecayClass.BOUNDED)
    p.write_text("x,value\n0,0\nnan,1\n2,0\n")
    with pytest.raises(ValueError, match="finite"):
        read_samples_csv(p, DecayClass.BOUNDED)


def test_csv_rejects_rows_with_extra_or_missing_fields(tmp_path):
    p = tmp_path / "bad.csv"
    for body in ("0,0,7\n1,1,8\n2,0,9\n", "0,0\n1,1,8\n2,0\n", "0,0\n1\n2,0\n"):
        p.write_text("x,value\n" + body)
        with pytest.raises(ValueError, match="malformed data row"):
            read_samples_csv(p, DecayClass.BOUNDED)


def _loop_read_csv(path, header, min_rows):
    # the row-loop reader that np.loadtxt replaced, kept as the reference
    path = Path(path)
    name = header[0]
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        if [c.strip().lower() for c in got] != list(header):
            raise ValueError(f"{path}: expected header {','.join(header)!r}, got {got!r}")
        rows = [row for row in reader if row]
    try:
        data = np.array([[float(x), float(v)] for x, v in rows])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed data row ({exc})") from None
    if data.shape[0] < min_rows:
        raise ValueError(f"{path}: need at least {min_rows} samples")
    xs, vals = data[:, 0], data[:, 1]
    if not np.all(np.isfinite(xs)):
        raise ValueError(f"{path}: {name} must be finite")
    dx = np.diff(xs)
    if np.any(dx <= 0):
        raise ValueError(f"{path}: {name} must be strictly increasing")
    h = (xs[-1] - xs[0]) / (xs.size - 1)
    if np.max(np.abs(dx - h)) > 1e-9 * h:
        raise ValueError(f"{path}: {name} must be equispaced (relative tolerance 1e-9)")
    return Grid(float(xs[0]), float(xs[-1]), int(xs.size)), vals


def _read_outcome(reader, path):
    """("ok", grid, value bytes) or ("error", message up to its parenthesised detail)."""
    try:
        grid, vals = reader(path, ("x", "value"), 2)
    except ValueError as exc:
        return ("error", str(exc).split(" (")[0])
    return ("ok", grid, vals.tobytes())


READER_CORPUS = {
    "plain": "x,value\n0,1\n1,2\n2,3\n",
    "quoted": 'x,value\n"0","1"\n"1",2\n2,"3"\n',
    "quoted header": '"x","value"\n0,1\n1,2\n',
    "crlf": "x,value\r\n0,1\r\n1,2\r\n",
    "crlf with quoted header": '"x","value"\r\n0,1\r\n\r\n"1",2\r\n',
    "cr line ends": "x,value\r0,1\r1,2\r",
    "quoted header over two lines": '"x\n","value"\n0,1\n1,2\n',
    "quoted header over two crlf lines": '"x\r\n","value"\r\n0,1\r\n1,2\r\n',
    "no final newline": "x,value\n0,1\n1,2",
    "blank lines": "x,value\n\n0,1\n\n\n1,2\n\n",
    "spaces around fields": " X , Value \n 0 , 1 \n1 ,2 \n",
    "exponents": "x,value\n-1e0,+1E3\n.0,.5\n1.,5e-324\n",
    "whitespace-only line": "x,value\n0,1\n   \n1,2\n",
    "whitespace-only body": "x,value\n \t \n",
    "quoted delimiter": 'x,value\n"0,5",1\n1,2\n',
    "trailing comma": "x,value\n0,1,\n1,2,\n",
    "trailing comma on one row": "x,value\n0,1\n1,2,\n",
    "empty field": "x,value\n0,\n1,2\n",
    "hash in field": "x,value\n0,1#c\n1,2\n",
    "hash line": "x,value\n0,1\n# note\n1,2\n",
    "empty file": "",
    "header only": "x,value\n",
    "wrong header": "u,v\n0,1\n1,2\n",
    "one row": "x,value\n0,1\n",
    "one field": "x,value\n0\n1\n",
    "three fields": "x,value\n0,1,2\n1,2,3\n",
    "one row short": "x,value\n0,1\n1\n2,0\n",
    "inf and nan values": "x,value\n0,inf\n1,nan\n2,-inf\n3,-Infinity\n",
    "nan in x": "x,value\n0,0\nnan,1\n2,0\n",
    "inf in x": "x,value\n0,0\n1,1\ninf,0\n",
    "hex": "x,value\n0,0x10\n1,2\n",
    "not increasing": "x,value\n0,1\n-1,2\n",
    "not equispaced": "x,value\n0,1\n2,2\n3,3\n",
}


@pytest.mark.parametrize("name", sorted(READER_CORPUS))
def test_csv_reader_matches_row_loop_reference(tmp_path, name):
    p = tmp_path / "f.csv"
    p.write_bytes(READER_CORPUS[name].encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. loadtxt's "input contained no data"
        assert _read_outcome(_read_uniform_csv, p) == _read_outcome(_loop_read_csv, p)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
@pytest.mark.parametrize("name", ["plain", "quoted header over two lines", "three fields"])
def test_csv_reader_reads_a_compressed_name_as_the_text_it_holds(tmp_path, suffix, name):
    # np.loadtxt given a path with one of these suffixes would decompress it; the reader's grammar
    # does not look at names
    plain, named = tmp_path / "f.csv", tmp_path / ("f.csv" + suffix)
    for p in (plain, named):
        p.write_bytes(READER_CORPUS[name].encode())
    want = _read_outcome(_read_uniform_csv, plain)
    if want[0] == "error":
        want = ("error", want[1].replace(str(plain), str(named)))
    assert _read_outcome(_read_uniform_csv, named) == want


def _read_through_fifo(tmp_path, text, read):
    """What read(path) returns or raises on a FIFO that a second thread fills with text.

    A FIFO cannot be rewound.  A reader that opened it a second time, after
    the writer had gone, would block; so after 30 s an empty writer ends it.
    """
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    got = []

    def feed():
        with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as fh:
            fh.write(text.encode())

    def consume():
        try:
            got.append(read(fifo))
        except Exception as exc:
            got.append(exc)

    writer, reader = threading.Thread(target=feed, daemon=True), threading.Thread(target=consume, daemon=True)
    writer.start()
    reader.start()
    reader.join(timeout=30)
    if reader.is_alive():
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=30)
    writer.join(timeout=30)
    assert not reader.is_alive() and not writer.is_alive()
    return got[0]


def _gaussian_rows(header, rows, a=-6.0):
    x = np.linspace(a, 6.0, rows)
    return header + "".join(f"{float(a)!r},{float(b)!r}\r\n" for a, b in zip(x, np.exp(-x * x)))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("rows", [2, 3, 2**14 + 1])
def test_csv_reader_reads_a_pipe_whole(tmp_path, rows):
    # 2^14 + 1 rows are far past the first read's buffer, which a second open of the path would lose
    text = _gaussian_rows('"x","value"\r\n', rows)
    p = tmp_path / "f.csv"
    p.write_text(text, newline="")
    want = _read_outcome(_read_uniform_csv, p)
    assert want[0] == "ok" and want[1].n == rows
    assert _read_through_fifo(tmp_path, text, lambda path: _read_outcome(_read_uniform_csv, path)) == want


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_radial_csv_reads_a_pipe_whole(tmp_path):
    text = _gaussian_rows("s,f0\r\n", 2**14 + 1, a=0.0)
    p = tmp_path / "f.csv"
    p.write_text(text, newline="")
    want = read_radial_csv(p, 3)
    got = _read_through_fifo(tmp_path, text, lambda path: read_radial_csv(path, 3))
    assert not isinstance(got, Exception), got
    assert got.f0.grid == want.f0.grid and got.f0.values.tobytes() == want.f0.values.tobytes()


def test_csv_reader_rejects_digit_group_underscores(tmp_path):
    # deliberate grammar change: Python's float() accepts "1_0", the C parser does not
    p = tmp_path / "f.csv"
    p.write_text("x,value\n0,1_0\n1,2\n")
    assert _read_outcome(_loop_read_csv, p)[0] == "ok"
    with pytest.raises(ValueError, match="malformed data row"):
        _read_uniform_csv(p, ("x", "value"), 2)



def test_trapezoid_integral_against_quad():
    from bvfourier import integrate
    from bvfourier.grids import trapezoid_weights

    grid = make_uniform_grid(-8, 8, 2**12 + 1)
    w = trapezoid_weights(grid)
    assert w[0] == w[-1] == 0.5 * grid.h and np.all(w[1:-1] == grid.h)
    f = sample(FamilySpec(Family.GAUSSIAN), grid)
    assert integrate(f) == float(np.sum(w * f.values))
    oracle, _ = quad(lambda x: math.exp(-x * x / 2.0), -8, 8)
    assert integrate(f) == pytest.approx(oracle, abs=1e-10)
