"""Tests of the benchmark's own checkers.

Run from the repository root: ``python3 -m pytest bvfbench -q``.
Correct program outputs must pass; outputs perturbed beyond tolerance,
with the Hilbert sign flipped, or with the wrong dim-2 ``ibp`` column
that ``radial_ft_ibp`` gives on a ball must fail.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bvfourier.cli import main as bvf  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

LINE_N = 2**12 + 1
RADIAL_N = 2049


def _rewrite(src: Path, dst: Path, column: int, fn) -> Path:
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array(rows[1:], dtype=float)
    data[:, column] = fn(data[:, column], data)
    with open(dst, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows(data.tolist())
    return dst


@pytest.fixture(scope="module")
def inp():
    return inputs.make_inputs(7)


@pytest.fixture(scope="module")
def outputs(inp, tmp_path_factory):
    work = tmp_path_factory.mktemp("outputs")
    gauss, mix = work / "gauss.csv", work / "mix.csv"
    inputs.write_line_csv(gauss, inp.gauss, LINE_N)
    inputs.write_line_csv(mix, inp.mix, LINE_N)
    out = {"transform": work / "transform.csv"}
    assert bvf(["transform", "--csv", str(gauss), "--out", str(out["transform"])]) == 0
    for method in ("pv", "multiplier"):
        out[method] = work / f"{method}.csv"
        assert bvf(["hilbert", "--csv", str(mix), "--method", method, "--out", str(out[method])]) == 0
    return out


def _radial(tmp_path: Path, profile, radii) -> Path:
    src, out = tmp_path / f"profile{profile.dim}.csv", tmp_path / f"radial{profile.dim}.csv"
    inputs.write_radial_csv(src, *profile.samples())
    radii_arg = ",".join(repr(float(r)) for r in radii)
    assert bvf(["radial", "--csv", str(src), "--dim", str(profile.dim), "--radii", radii_arg, "--out", str(out)]) == 0
    return out


def test_correct_line_outputs_pass(inp, outputs):
    assert checks.check_transform(outputs["transform"], inp.gauss, LINE_N) == []
    for method in ("pv", "multiplier"):
        assert checks.check_hilbert(outputs[method], inp.mix, LINE_N, method) == []


def test_transform_perturbed_beyond_tolerance_fails(inp, outputs, tmp_path):
    t = np.loadtxt(outputs["transform"], delimiter=",", skiprows=1)[:, 0]
    tol = checks.transform_tolerance(LINE_N, t, inp.gauss.l1_norm())

    def bump_one(col, data):
        col = col.copy()
        col[col.size // 3] += 2.0 * tol
        return col

    bad = _rewrite(outputs["transform"], tmp_path / "bad.csv", 1, bump_one)
    assert checks.check_transform(bad, inp.gauss, LINE_N)


@pytest.mark.parametrize("method", ["pv", "multiplier"])
def test_hilbert_perturbed_or_sign_flipped_fails(inp, outputs, tmp_path, method):
    h = (inputs.LINE_B - inputs.LINE_A) / (LINE_N - 1)
    tol = h * h * inp.mix.second_derivative_sup()
    shifted = _rewrite(outputs[method], tmp_path / "shift.csv", 1, lambda v, d: v + 2.0 * tol)
    flipped = _rewrite(outputs[method], tmp_path / "flip.csv", 1, lambda v, d: -v)
    assert checks.check_hilbert(shifted, inp.mix, LINE_N, method)
    assert checks.check_hilbert(flipped, inp.mix, LINE_N, method)


def test_radial_ball_and_bump_pass(inp, tmp_path):
    for profile in (
        inputs.Ball(3, int(0.6 * (RADIAL_N - 1)), n=RADIAL_N),
        inputs.Bump(inp.bump.centre, inp.bump.width, n=RADIAL_N),
    ):
        out = _radial(tmp_path, profile, inp.radii)
        assert checks.check_radial(out, profile, inp.radii, profile.transform(inp.radii)) == []


def test_ball_with_radii_far_from_the_origin_passes(tmp_path):
    """Seed 210's dim-4 ball: its radii start at 3.9, where max|F| is a twentieth of F(0)."""
    far = inputs.make_inputs(210)
    ball = far.balls[1]
    out = _radial(tmp_path, ball, far.radii)
    assert checks.check_radial(out, ball, far.radii, ball.transform(far.radii)) == []


def test_radial_perturbed_column_fails(inp, tmp_path):
    ball = inputs.Ball(3, int(0.6 * (RADIAL_N - 1)), n=RADIAL_N)
    exact = ball.transform(inp.radii)
    out = _radial(tmp_path, ball, inp.radii)
    tol = checks.radial_tolerance(ball) * ball.peak()
    bad = _rewrite(out, tmp_path / "bad.csv", 3, lambda v, d: v + 3.0 * tol)
    problems = checks.check_radial(bad, ball, inp.radii, exact)
    assert any("oracle vs closed form" in p for p in problems)


def test_wrong_dim2_ibp_column_fails(inp, tmp_path):
    """radial_ft_ibp misses the f0' spike of a dim-2 ball; only that column is flagged."""
    ball = inputs.Ball(2, int(0.5 * (RADIAL_N - 1)), n=RADIAL_N)
    out = _radial(tmp_path, ball, inp.radii)
    problems = checks.check_radial(out, ball, inp.radii, ball.transform(inp.radii))
    assert any("ibp vs closed form" in p for p in problems)
    assert not any("leray vs closed form" in p or "oracle vs closed form" in p for p in problems)


def _write_report(path: Path, lines: list[tuple[str, str]], grid_n: int = 16384) -> None:
    path.write_text("".join(f"{n} {s} 0 1 {grid_n}\n" for n, s in lines))
    with open(path.with_suffix(".csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "status", "measured", "bound", "grid_n", "notes"])
        writer.writerows([n, s, "0", "1", grid_n, ""] for n, s in lines)


def test_verify_report_checks(tmp_path):
    report = tmp_path / "report.txt"
    good = [(n, "FAIL" if n in checks.UNGATED else "PASS") for n in checks.VERIFY_LINES]
    _write_report(report, good)
    assert checks.check_verify(report, 1, "default") == (len(checks.GATED), [])

    gated_fail = [(n, "FAIL" if n == "radial-ball-closed-form" else s) for n, s in good]
    _write_report(report, gated_fail)
    assert checks.check_verify(report, 1, "default")[1]

    _write_report(report, good[::-1])
    assert checks.check_verify(report, 1, "default")[1]

    _write_report(report, good)
    assert checks.check_verify(report, 1, "strict")[1]  # grid_n of the default profile

    report.with_suffix(".csv").unlink()
    assert checks.check_verify(report, 1, "default")[0] == 0
