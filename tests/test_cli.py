import csv
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import bvfourier
from bvfourier import cli
from bvfourier.cli import EXIT_CHECK_FAILED, EXIT_DATA, EXIT_OK, _write_table, main
from bvfourier.grids import make_uniform_grid, read_samples_csv


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(c) for c in row] for row in rows[1:]])


def test_transform_box_zero_frequency_row(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(
        [
            "transform", "--family", "box", "--width", "2", "--cutoff", "50",
            "--a", "-50", "--b", "50", "--n", "16001", "--m", "101", "--out", str(out),
        ]
    )
    assert rc == EXIT_OK
    header, data = read_csv(out)
    assert header == ["t", "re", "im"]
    row0 = data[np.abs(data[:, 0]).argmin()]
    assert row0[0] == 0.0
    assert row0[1] == pytest.approx(2.0, abs=2.0 * (100.0 / 16000.0))  # O(h) indicator bias
    assert row0[2] == 0.0


def test_transform_default_grid_has_two_n_minus_one_rows(tmp_path):
    out = tmp_path / "t.csv"
    n = 2**14 + 1
    rc = main(["transform", "--family", "gaussian", "--n", str(n), "--out", str(out)])
    assert rc == EXIT_OK
    _, data = read_csv(out)
    assert data.shape[0] == 2 * n - 1
    assert data[-1, 0] == pytest.approx(math.pi * (n - 1) / 100.0, rel=1e-12)


def test_hilbert_poisson_matches_conjugate(tmp_path):
    out = tmp_path / "h.csv"
    rc = main(
        [
            "hilbert", "--family", "poisson_kernel", "--scale", "1",
            "--a", "-50", "--b", "50", "--n", "8193", "--out", str(out),
        ]
    )
    assert rc == EXIT_OK
    header, data = read_csv(out)
    assert header == ["x", "value"]
    x, v = data[:, 0], data[:, 1]
    inner = np.abs(x) <= 40.0
    expected = x / (math.pi * (1.0 + x * x))
    assert np.max(np.abs(v - expected)[inner]) <= 1e-3


def test_hilbert_periodic_method(tmp_path):
    out = tmp_path / "p.csv"
    rc = main(
        ["hilbert", "--family", "triangle_wave_periodic", "--method", "periodic",
         "--n", "1025", "--out", str(out)]
    )
    assert rc == EXIT_OK
    _, data = read_csv(out)
    assert data.shape[0] == 1025


def test_radial_columns(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(
        [
            "radial", "--family", "box", "--width", "2", "--dim", "3",
            "--b", "2", "--n", "2049", "--radii", "0.5,1,2,5", "--out", str(out),
        ]
    )
    assert rc == EXIT_OK
    header, data = read_csv(out)
    assert header == ["r", "leray", "ibp", "oracle"]
    r = data[:, 0]
    expected = 4.0 * math.pi * (np.sin(r) - r * np.cos(r)) / r**3
    assert np.max(np.abs(data[:, 1] - expected) / np.abs(expected)) <= 1e-3
    assert np.all(np.isfinite(data))


def test_radial_from_csv(tmp_path):
    prof = tmp_path / "prof.csv"
    s = np.linspace(0.0, 2.0, 1025)
    vals = np.where(np.abs(s - 1.0) <= 0.5, 0.5 * (1.0 + np.cos(np.pi * (s - 1.0) / 0.5)), 0.0)
    prof.write_text("s,f0\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(s, vals)) + "\n")
    out = tmp_path / "r.csv"
    rc = main(["radial", "--csv", str(prof), "--dim", "2", "--radii", "1,2", "--out", str(out)])
    assert rc == EXIT_OK


def test_verify_clean_suite_exit_zero(tmp_path):
    out = tmp_path / "report.txt"
    rc = main(["verify", "--suite", "periodic", "--profile", "fast", "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines, "empty report"
    for line in lines:
        name, status, measured, bound, grid_n = line.split(" ")
        assert status == "PASS"
        assert float(measured) <= float(bound)
    twin = out.with_suffix(".csv")
    with open(twin, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["name", "status", "measured", "bound", "grid_n", "notes"]
    assert len(rows) - 1 == len(lines)


def test_verify_exit_code_reflects_report(tmp_path):
    # the hardy suite carries the recorded unit-constant violations, so a
    # failing line and exit status must agree
    out = tmp_path / "report.txt"
    rc = main(["verify", "--suite", "hardy", "--profile", "fast", "--out", str(out)])
    statuses = [line.split(" ")[1] for line in out.read_text().strip().splitlines()]
    assert rc == (EXIT_CHECK_FAILED if "FAIL" in statuses else EXIT_OK)
    assert "FAIL" in statuses  # no silent passes


def test_verify_reports_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert main(["verify", "--suite", "lemma-dc", "--profile", "fast", "--out", str(out1)]) == main(
        ["verify", "--suite", "lemma-dc", "--profile", "fast", "--out", str(out2)]
    )
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.with_suffix(".csv").read_bytes() == out2.with_suffix(".csv").read_bytes()


def test_identical_config_gives_byte_identical_files(tmp_path):
    args = ["transform", "--family", "gaussian", "--n", "2049", "--cutoff", "10", "--m", "201"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("threads", [2, 3, 64])
def test_thread_cap_preserves_report_order(tmp_path, monkeypatch, threads):
    import threading

    from bvfourier.suites import SUITE_NAMES

    out1, out2 = tmp_path / "serial.txt", tmp_path / "threaded.txt"
    monkeypatch.setenv("BVF_THREADS", "1")
    main(["verify", "--suite", "all", "--profile", "fast", "--out", str(out1)])
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountedThread)
    monkeypatch.setenv("BVF_THREADS", str(threads))
    main(["verify", "--suite", "all", "--profile", "fast", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.with_suffix(".csv").read_bytes() == out2.with_suffix(".csv").read_bytes()
    # the caller runs suites too, and no thread waits without a suite to take
    assert len(started) == min(threads, len(SUITE_NAMES)) - 1


def test_longest_first_order_is_a_permutation_of_the_suites():
    from bvfourier import suites

    assert sorted(suites._LONGEST_FIRST) == sorted(suites.SUITE_NAMES)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_suite_error_does_not_depend_on_the_thread_count(tmp_path, monkeypatch, capsys, threads):
    from bvfourier import suites

    def broken(name):
        def run(profile):
            raise ValueError(f"{name} broke")

        return run

    for name in suites.SUITE_NAMES:
        monkeypatch.setitem(suites._SUITE_FUNCS, name, lambda profile: [])
    # lemma-dc comes before radial in the registry, radial before lemma-dc in
    # the longest-first queue: the registry decides which error is reported
    for name in ("lemma-dc", "radial"):
        monkeypatch.setitem(suites._SUITE_FUNCS, name, broken(name))
    monkeypatch.setenv("BVF_THREADS", threads)
    rc = main(["verify", "--suite", "all", "--profile", "fast", "--out", str(tmp_path / "r.txt")])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == "error: lemma-dc broke\n"


def test_more_threads_than_cores_run_each_suite_once(monkeypatch):
    import threading

    from bvfourier import suites

    calls = []

    def fake(name):
        def run(profile):
            calls.append(name)
            return [name]

        return run

    for name in suites.SUITE_NAMES:
        monkeypatch.setitem(suites._SUITE_FUNCS, name, fake(name))
    monkeypatch.setenv("BVF_THREADS", "64")
    runs = []

    def stress():
        for _ in range(200):
            runs.append(suites.run_suite("all", "fast"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=stress, daemon=True)
        worker.start()
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert runs == [list(suites.SUITE_NAMES)] * 200
    assert sorted(calls) == sorted(suites.SUITE_NAMES * 200)


def test_non_integer_thread_cap_names_the_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BVF_THREADS", "abc")
    rc = main(["verify", "--suite", "lemma-dc", "--profile", "fast", "--out", str(tmp_path / "r.txt")])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == "error: BVF_THREADS must be an integer, got 'abc'\n"


def test_every_profile_field_varies_across_profiles():
    # a field with one value in every profile is a constant, and belongs
    # at its one check
    from dataclasses import fields

    from bvfourier.suites import PROFILES, Profile

    for field in fields(Profile):
        if field.name != "name":
            values = {getattr(p, field.name) for p in PROFILES.values()}
            assert len(values) >= 2, field.name


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_data_error_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,value\n0,1\n0.5,nonsense\n")
    rc = main(["hilbert", "--csv", str(bad), "--out", str(tmp_path / "h.csv")])
    assert rc == EXIT_DATA


def test_transform_csv_row_with_extra_field_exits_data(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,value\n0,0,7\n1,1,8\n2,0,9\n")
    rc = main(["transform", "--csv", str(bad), "--out", str(tmp_path / "t.csv")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert "malformed data row" in err and err.count("\n") == 1
    assert not (tmp_path / "t.csv").exists()


def test_memory_error_maps_to_data_exit_code(tmp_path, monkeypatch, capsys):
    import bvfourier.fourier as fourier

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.37 GiB for an array with shape (318309887,)")

    # the transform command imports fourier_transform when it runs
    monkeypatch.setattr(fourier, "fourier_transform", out_of_memory)
    rc = main(["transform", "--family", "box", "--width", "2", "--n", "65", "--out", str(tmp_path / "t.csv")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and "2.37 GiB" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "t.csv").exists()


def test_hilbert_rejects_double_input(tmp_path):
    rc = main(
        ["hilbert", "--family", "gaussian", "--csv", "whatever.csv", "--out", str(tmp_path / "x.csv")]
    )
    assert rc == EXIT_DATA


def test_radial_rejects_double_input(tmp_path, capsys):
    prof = tmp_path / "prof.csv"
    prof.write_text("s,f0\n0,1\n1,1\n2,0\n")
    args = ["radial", "--family", "box", "--csv", str(prof), "--dim", "3", "--radii", "1"]
    assert main(args + ["--out", str(tmp_path / "r.csv")]) == EXIT_DATA
    assert capsys.readouterr().err == "error: exactly one of --family / --csv is required\n"
    assert not (tmp_path / "r.csv").exists()


def test_radial_rejects_non_finite_radii(tmp_path, capsys):
    args = ["radial", "--family", "box", "--width", "2", "--dim", "3", "--n", "257", "--radii", "nan,1,inf"]
    assert main(args + ["--out", str(tmp_path / "r.csv")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: radii must be finite") and err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["--family", "box", "--dim", "344"],
        ["--family", "box", "--dim", "400"],
        ["--family", "box", "--dim", "1000000000"],  # not refused as a request too large for memory
        ["--family", "gaussian", "--b", "8", "--dim", "345"],
    ],
)
def test_radial_rejects_dimensions_past_the_float_range(tmp_path, capsys, args):
    # Gamma(n/2) overflows float64 from n = 344 on: one error line, not a traceback
    assert main(["radial", *args, "--radii", "1", "--out", str(tmp_path / "r.csv")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: dimension must be at most 343") and err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


def test_radial_answers_the_raised_cosine_at_dim_6(tmp_path):
    # the differencing route refused this command with exit 3 on its noise budget
    out = tmp_path / "r.csv"
    args = ["radial", "--family", "raised_cosine", "--width", "1", "--dim", "6", "--radii", "0.5,1,2,5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*args, "--out", str(out)]) == EXIT_OK
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (4, 4) and np.all(np.isfinite(rows))


def raised_cosine_csv(path):
    """A raised cosine centred at 50, half-width 20, on [0, 100] with 1025 samples."""
    s = np.linspace(0.0, 100.0, 1025)
    f = np.where(np.abs(s - 50.0) <= 20.0, 0.5 * (1.0 + np.cos(np.pi * (s - 50.0) / 20.0)), 0.0)
    path.write_text("s,f0\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(s, f)))
    return path


@pytest.mark.parametrize("dim", [342, 343])
def test_radial_refuses_an_I_past_the_float_range_in_one_line(tmp_path, capsys, dim):
    # I reaches about 1e318 at dim 343: the odd recurrence once overflowed into five
    # RuntimeWarnings before its non-finite values were refused, and at dim 342 the
    # even closed form's L^n raised an OverflowError traceback
    src, out = raised_cosine_csv(tmp_path / "rc.csv"), tmp_path / "r.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["radial", "--csv", str(src), "--dim", str(dim), "--radii", "0.5,1", "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"error: dimension {dim}: I overflows float64 on this profile\n"
    assert not out.exists()


@pytest.mark.parametrize("dim, radius", [(205, "0.5"), (317, "0.5")])
def test_radial_refuses_a_leray_value_past_the_float_range_naming_the_radius(tmp_path, capsys, dim, radius):
    # I is finite in both, and the route names the first radius in input order whose
    # value is not finite.  At dim 205 on a step at 200 the prefactor takes the value
    # at r = 0.5 past the float64 range, and the cosine sum at r = 0.05 is past it
    # already; at dim 317 on the raised cosine the sums are finite, and the prefactor
    # pi^158 took them past it, written as inf after a RuntimeWarning
    if dim == 205:
        s = np.linspace(0.0, 300.0, 1025).tolist()
        src = tmp_path / "step.csv"
        src.write_text("s,f0\n" + "".join(f"{a!r},{float(a <= 200.0)!r}\n" for a in s))
    else:
        src = raised_cosine_csv(tmp_path / "rc.csv")
    out = tmp_path / "r.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["radial", "--csv", str(src), "--dim", str(dim), "--radii", "0.5,0.05", "--out", str(out)])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err == f"error: radial_ft_leray: the value at r = {radius} is not finite in float64\n"
    assert not out.exists()


def test_radial_refuses_a_radius_past_the_walks_rounding_bound_in_one_line(tmp_path, capsys):
    # the grid-aligned unit ball at dim 343: leray gives 1.12e-225, but at r = 0.5 the
    # walk's largest term is 1e820 times ||f||_1 before the terms cancel, and the oracle's
    # r^(1 - n/2) overflows at r = 0.05.  The walk's refusal once ended the command with
    # exit 3 (naming r = 0.5, since r = 0.05 went to leray); now each refusing route prints
    # one line, the walk naming every radius it refused and the oracle its first, and the
    # refused cells stay empty.  RuntimeWarnings are errors under the test settings
    s = np.linspace(0.0, 2.0, 129)
    src = tmp_path / "ball.csv"
    src.write_text("s,f0\n" + "".join(f"{float(a)!r},{float(a <= 1.0)!r}\n" for a in s))
    out = tmp_path / "r.csv"
    assert main(["radial", "--csv", str(src), "--dim", "343", "--radii", "0.05,0.5,1", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == (
        "warning: radial_ft_ibp: at r = 0.05, 0.5, 1.0 the walk's rounding bound exceeds 1e-06 ||f||_1\n"
        "warning: radial_ft_oracle: the value at r = 0.05 is not finite in float64\n"
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "r,leray,ibp,oracle"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["0.05", "0.5", "1.0"]
    assert all(row[2:] == ["", ""] for row in rows)
    assert float(rows[1][1]) == pytest.approx(1.12e-225, rel=1e-2)


def test_radial_writes_the_routes_that_answer_at_dim_9(tmp_path, capsys):
    # the walk refuses r = 0.5 and 1 here, and its refusal once ended the command with
    # exit 3 although leray and the oracle answer at every radius; later it emptied
    # the whole ibp column, although the walk answers r = 2 and 5 (2.6284e-4 and
    # 2.2102e-4).  Now only the refused cells are empty, named in one line, and the
    # answered cells hold the walk's values at the answered radii asked alone
    from bvfourier.grids import Family, FamilySpec, family_value
    from bvfourier.radial import RadialProfile, radial_ft_ibp

    out = tmp_path / "r.csv"
    args = ["radial", "--family", "raised_cosine", "--width", "1", "--dim", "9", "--radii", "0.5,1,2,5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*args, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == (
        "warning: radial_ft_ibp: at r = 0.5, 1.0 the walk's rounding bound exceeds 1e-06 ||f||_1\n"
    )
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 4 and [row[2] == "" for row in rows] == [True, True, False, False]
    grid = make_uniform_grid(0.0, 2.0, 8193)
    p = RadialProfile.from_samples(grid, family_value(FamilySpec(Family.RAISED_COSINE, {"width": 1.0}), grid.points), 9)
    assert [row[2] for row in rows[2:]] == [f"{v:.12g}" for v in radial_ft_ibp(p, [2.0, 5.0])]
    leray, oracle = (np.array([float(row[i]) for row in rows]) for i in (1, 3))
    assert np.max(np.abs(leray - oracle)) <= 1e-5 * np.max(np.abs(leray))


def test_hilbert_from_csv_round_trip(tmp_path):
    src = tmp_path / "g.csv"
    x = np.linspace(-20.0, 20.0, 2049)
    vals = np.exp(-x * x / 2.0)
    src.write_text("x,value\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, vals)) + "\n")
    out = tmp_path / "h.csv"
    rc = main(["hilbert", "--csv", str(src), "--method", "multiplier", "--out", str(out)])
    assert rc == EXIT_OK
    _, data = read_csv(out)
    from scipy.special import dawsn

    expected = 2.0 / math.sqrt(math.pi) * dawsn(data[:, 0] / math.sqrt(2.0))
    assert np.max(np.abs(data[:, 1] - expected)) <= 1e-4


def test_hilbert_reads_its_csv_from_stdin(tmp_path):
    # /dev/stdin cannot be reopened at the start: the whole input must come through one open
    src = tmp_path / "g.csv"
    x = np.linspace(-20.0, 20.0, 4097)
    src.write_text("x,value\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, np.exp(-x * x))))
    from_file = tmp_path / "file.csv"
    assert main(["hilbert", "--csv", str(src), "--method", "pv", "--out", str(from_file)]) == EXIT_OK
    from_pipe = tmp_path / "pipe.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(bvfourier.__file__).parents[1]))
    args = ["hilbert", "--csv", "/dev/stdin", "--method", "pv", "--out", str(from_pipe)]
    with src.open("rb") as fh:
        proc = subprocess.Popen([sys.executable, "-m", "bvfourier.cli", *args], env=env, stdin=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        _, err = proc.communicate(fh.read(), timeout=60)
    assert proc.returncode == EXIT_OK and err == b""
    assert from_pipe.read_bytes() == from_file.read_bytes()


def test_write_table_value_columns_match_the_row_loop(tmp_path):
    special = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e16, 1e-5, 123456789012.5, -1.0 / 3.0]
    values = np.array([complex(a, b) for a in special for b in special] + [complex(-0.0, -0.0)])
    t = np.linspace(-3.0, 7.0, values.size)
    out = tmp_path / "t.csv"
    _write_table(str(out), "t,re,im", t, values.real, values.imag)
    # the per-row loop the writer replaced, kept as the reference for the value columns
    ref = ["t,re,im"] + [f"{tt:.12g},{v.real:.12g},{v.imag:.12g}" for tt, v in zip(t, values)]
    lines = out.read_text().splitlines()
    assert lines[0] == ref[0] and len(lines) == len(ref)
    for line, want in zip(lines[1:], ref[1:]):
        assert line.split(",")[1:] == want.split(",")[1:]
    assert np.array_equal([float(line.split(",")[0]) for line in lines[1:]], t)


def _one_string_write_table(path, header, *columns):
    # the writer that formatted the whole table as one string, kept as the reference
    table = np.column_stack(columns)
    row = "%r" + ",%.12g" * (table.shape[1] - 1) + "\n"
    Path(path).write_text(header + "\n" + (row * table.shape[0]) % tuple(table.ravel().tolist()))


def _hostile_columns(rows, count, seed):
    """count columns of rows values: an increasing abscissa, then values mixed with -0.0, subnormals and +-1e308."""
    rng = np.random.default_rng(seed)
    special = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308, 1.0 / 3.0])
    x = np.linspace(-1e3, 1e3 * rng.uniform(1.0, 2.0), rows)
    values = []
    for _ in range(count - 1):
        v = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        v[rng.integers(0, rows, max(1, rows // 8))] = rng.choice(special, max(1, rows // 8))
        v[: min(rows, special.size)] = special[: min(rows, special.size)]
        values.append(v)
    return [x, *values]


@pytest.mark.parametrize("rows", [1, 4095, 4096, 4097, 131073])
@pytest.mark.parametrize("count", [2, 4])
def test_write_table_bytes_match_the_one_string_writer(tmp_path, rows, count):
    columns = _hostile_columns(rows, count, seed=rows + count)
    header = ",".join("c%d" % i for i in range(count))
    _write_table(str(tmp_path / "blocks.csv"), header, *columns)
    _one_string_write_table(tmp_path / "whole.csv", header, *columns)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--family", "gaussian", "--n", "16385"],
        ["hilbert", "--family", "gaussian", "--method", "multiplier"],
        ["radial", "--family", "box", "--width", "2", "--dim", "3",
         "--radii", "0.001,0.0137,0.25,0.5,1,1.7,3.14159,7.25,12.5,33.3,101.7,250"],
    ],
)
def test_commands_write_the_bytes_of_the_one_string_writer(tmp_path, monkeypatch, argv):
    # the command's own columns, among them the exactly mirrored Nyquist grid of `transform`
    written = []

    def both_writers(path, header, *columns):
        written.append(path)
        _one_string_write_table(tmp_path / "whole.csv", header, *columns)
        write_table(path, header, *columns)

    write_table = cli._write_table
    monkeypatch.setattr(cli, "_write_table", both_writers)
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert written == [str(out)]
    assert out.read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_write_table_failing_block_leaves_the_target_and_no_temp_file(tmp_path, monkeypatch):
    out = tmp_path / "t.csv"
    out.write_text("the earlier output\n")
    calls = []

    def third_block_fails(*args):
        calls.append(args[-1])
        if len(calls) == 3:
            raise MemoryError("Unable to allocate the third block")
        return format_rows(*args)

    format_rows = cli._format_rows
    monkeypatch.setattr(cli, "_format_rows", third_block_fails)
    columns = _hostile_columns(3 * cli._ROWS + 1, 3, seed=3)
    with pytest.raises(MemoryError):
        _write_table(str(out), "t,re,im", *columns)
    assert calls == [0, cli._ROWS, 2 * cli._ROWS]
    assert out.read_text() == "the earlier output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


def test_write_table_memory_does_not_grow_with_the_table(tmp_path):
    # formatting the whole table as one string peaked at 25 MB here
    columns = _hostile_columns(131073, 3, seed=5)
    tracemalloc.start()
    try:
        _write_table(str(tmp_path / "t.csv"), "t,re,im", *columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _gaussian_csv(path, scale):
    x = np.linspace(-50.0, 50.0, 4097)
    vals = np.exp(-x * x) * scale
    path.write_text("x,value\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), vals.tolist())))
    return read_samples_csv(path, "vanishing_at_infinity")


@pytest.mark.parametrize("method", ["pv", "multiplier"])
def test_hilbert_of_a_finite_input_near_the_float_range_is_finite(tmp_path, method):
    from bvfourier.hilbert import hilbert_multiplier, hilbert_pv

    huge = _gaussian_csv(tmp_path / "huge.csv", 1e308)
    unit = _gaussian_csv(tmp_path / "unit.csv", 1.0)
    out = tmp_path / "h.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["hilbert", "--csv", str(tmp_path / "huge.csv"), "--method", method, "--out", str(out)])
    assert rc == EXIT_OK
    _, data = read_csv(out)
    assert data.shape == (4097, 2) and np.all(np.isfinite(data))
    op = {"pv": hilbert_pv, "multiplier": hilbert_multiplier}[method]
    got, want = op(huge).values, 1e308 * op(unit).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the CSV holds the call's values to 12 significant digits
    assert np.all(np.abs(data[:, 1] - got) <= 5e-12 * np.abs(got))


def test_hilbert_refuses_a_result_past_the_float_range_in_one_line(tmp_path, capsys):
    src = tmp_path / "c.csv"
    x = np.linspace(-50.0, 50.0, 4097)
    src.write_text("x,value\n" + "".join(f"{a!r},1.5e308\n" for a in x.tolist()))
    out = tmp_path / "h.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["hilbert", "--csv", str(src), "--method", "pv", "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == "error: hilbert_pv: the result is not finite in float64\n"
    assert not out.exists()


def test_transform_of_a_finite_input_near_the_float_range_is_finite(tmp_path):
    from bvfourier.fourier import fourier_transform

    huge = _gaussian_csv(tmp_path / "huge.csv", 1e308)
    unit = _gaussian_csv(tmp_path / "unit.csv", 1.0)
    out = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["transform", "--csv", str(tmp_path / "huge.csv"), "--out", str(out)]) == EXIT_OK
    _, data = read_csv(out)
    assert data.shape == (8193, 3) and np.all(np.isfinite(data))
    got, want = fourier_transform(huge).values, 1e308 * fourier_transform(unit).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_transform_refuses_a_result_past_the_float_range_in_one_line(tmp_path, capsys):
    _gaussian_csv(tmp_path / "huge.csv", 1.5e308)  # its integral, 2.7e308, is the transform at t = 0
    out = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["transform", "--csv", str(tmp_path / "huge.csv"), "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == "error: transform_values: the result is not finite in float64\n"
    assert not out.exists()


@pytest.mark.parametrize("cutoff", ["inf", "nan"])
def test_transform_refuses_a_non_finite_cutoff_in_one_line(tmp_path, capsys, cutoff):
    # --cutoff inf once ended in an OverflowError traceback and exit 1, the code for a
    # failed verification; --cutoff nan in "cannot convert float NaN to integer"
    out = tmp_path / "t.csv"
    args = ["transform", "--family", "gaussian", "--n", "257", "--cutoff", cutoff, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == EXIT_DATA
    assert capsys.readouterr().err == "error: cutoff must be finite and positive\n"
    assert not out.exists()


def test_periodic_conjugate_of_a_finite_input_near_the_float_range_is_finite(tmp_path):
    from bvfourier.hilbert import periodic_conjugate

    x = np.linspace(-math.pi, math.pi, 1025)
    src = tmp_path / "c.csv"
    src.write_text("x,value\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), (1e308 * np.cos(x)).tolist())))
    out = tmp_path / "h.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["hilbert", "--csv", str(src), "--decay", "periodic", "--method", "periodic", "--out", str(out)])
    assert rc == EXIT_OK
    _, data = read_csv(out)
    got = periodic_conjugate(read_samples_csv(src, "periodic")).values
    assert np.all(np.isfinite(data)) and np.max(np.abs(got - 1e308 * np.sin(x))) <= 1e-12 * 1e308


@pytest.mark.parametrize("n", [16385, 65537])
def test_hilbert_output_reads_back_as_transform_input(tmp_path, n):
    h, t = tmp_path / "h.csv", tmp_path / "t.csv"
    assert main(["hilbert", "--family", "gaussian", "--n", str(n), "--out", str(h)]) == EXIT_OK
    assert main(["transform", "--csv", str(h), "--out", str(t)]) == EXIT_OK
    grid = make_uniform_grid(-50.0, 50.0, n)
    assert np.array_equal(read_samples_csv(h, "vanishing_at_infinity").x, grid.points)
    assert np.array_equal(read_csv(h)[1][:, 0], grid.points)


@pytest.mark.parametrize("window", [["--n", "3"], ["--a", "-20", "--b", "20", "--n", "63"], ["--a", "-20", "--b", "20", "--n", "61"]])
def test_multiplier_on_short_grids_returns(tmp_path, window):
    # a tail window reaching x = 0 once hung in LAPACK, so run in a child with a timeout
    out = tmp_path / "h.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(bvfourier.__file__).parents[1]))
    args = ["hilbert", "--family", "gaussian", *window, "--method", "multiplier", "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "bvfourier.cli", *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == EXIT_OK and proc.stderr == ""
    _, data = read_csv(out)
    assert data.shape == (int(window[-1]), 2) and np.all(np.isfinite(data))


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--family", "gaussian", "--n", "100000000"],
        ["hilbert", "--family", "gaussian", "--n", "100000000"],
        ["radial", "--family", "box", "--width", "1", "--dim", "3", "--n", "100000000", "--radii", "1,2"],
    ],
)
def test_a_request_past_physical_memory_is_refused_before_sampling(tmp_path, capsys, monkeypatch, argv):
    # `bvf transform --family gaussian --n 100000000` was once killed by the kernel's
    # OOM killer (exit 137) on an 8 GB machine.  The estimate is all this test takes:
    # the machine is made to report 1 GiB, and sampling would fail the test
    from bvfourier._fft import fast_len

    assert cli._peak_bytes(10**8, 2 * 10**8 - 1, fast_len(3 * 10**8 - 2)) > 8 * 2**30
    monkeypatch.setattr(cli, "_physical_memory", lambda: 2**30)
    for name in ("sample", "family_value"):
        monkeypatch.setattr(cli, name, lambda *args: pytest.fail("sampled an oversized request"))
    out = tmp_path / "o.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: the request needs about ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--family", "gaussian", "--n", "16385"],
        ["transform", "--family", "gaussian", "--n", "100003"],  # N = 2 (n - 1) takes the chirp-z
        ["transform", "--family", "gaussian", "--n", "16385", "--m", "49155"],
        *(["hilbert", "--family", "gaussian", "--n", "65537", "--method", m] for m in ("pv", "multiplier", "modified")),
        # the odd recurrence over a support of nearly the whole grid
        ["radial", "--family", "box", "--width", "3.9", "--n", "65537", "--dim", "41", "--radii", "0.5,1,2,5"],
        ["radial", "--family", "box", "--width", "1", "--n", "8193", "--dim", "8",
         "--radii", ",".join(str(0.1 * i) for i in range(1, 2001))],
    ],
)
def test_the_memory_estimate_bounds_the_measured_peak(tmp_path, monkeypatch, argv):
    needs = []
    check = cli._check_memory
    monkeypatch.setattr(cli, "_check_memory", lambda need: check(needs.append(need) or need))
    tracemalloc.start()
    try:
        assert main([*argv, "--out", str(tmp_path / "o.csv")]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an upper estimate, at most 6 times the peak past its 4 MB for blocked temporaries
    assert peak <= needs[0] <= 6 * peak + 2**22, (peak, needs)
