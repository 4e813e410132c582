"""Checkers for the program's outputs.

Each checker reads one output file and returns a list of problems; an
empty list means the output is correct.  References are computed from
the analytic inputs (see ``inputs.py``), never read from an earlier run.
Tolerances follow each route's order in the grid spacing h:

* ``bvf transform`` on a Gaussian mixture: the trapezoid rule is
  spectrally accurate (aliasing below e^{-(pi sigma / h)^2 / 2}), so the
  floor is the zoom DFT's rounding: eps times its largest chirp phase
  theta (n + m)^2 / 2, theta = dt h, accumulated over sqrt(n) terms and
  scaled by ||f||_1.
* ``bvf hilbert``: both line routes are second order, so the tolerance
  is h^2 sup|f''| on the interior |x| <= 40 (the middle 80% of the
  window).  The pv route truncates at the window and is compared with
  the Hilbert transform of the truncated mixture; the multiplier route
  extends the tails and is compared with the full closed form.
* ``bvf radial`` on a ball: the profile jumps at rho, so all three routes
  are first order; the leading error term is at most dim h / (2 rho) of
  max|F| = F(0) at every radius and the tolerance is twice that.  On the
  smooth dim-2 bump the routes are second order: h^2 sup|f0''| of F(0).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from inputs import LINE_A, LINE_B, Ball, Bump, Mixture

EPS = float(np.finfo(float).eps)
INTERIOR = 40.0

VERIFY_LINES = (
    "hilbert-pv-poisson-pair",
    "hilbert-multiplier-poisson-pair",
    "hilbert-cross-gaussian",
    "hilbert-cross-refinement",
    "hilbert-antisymmetry-gaussian",
    "modified-hilbert-constant-offset",
    "conjugate-derivative-raised-cosine",
    "conjugate-derivative-refinement",
    "ibp-limit-gaussian",
    "hardy-inequality-triangle",
    "hardy-inequality-raised_cosine",
    "hardy-inequality-smoothed_box",
    "hardy-cancellation-triangle",
    "hardy-cancellation-raised_cosine",
    "hardy-cancellation-smoothed_box",
    "hardy-constant-grid-stability",
    "hardy-constant-family-stability",
    "hardy-littlewood-triangle-plateau",
    "hardy-littlewood-box-log-slope",
    "hardy-littlewood-box-fit-r2",
    "hardy-littlewood-box-tv-growth",
    "hardy-littlewood-triangle-tv-stability",
    "periodic-conjugate-modes",
    "periodic-coefficient-modulus-triangle-wave",
    "periodic-absolute-sum-growth",
    "periodic-conjugate-involution",
    "kernel-difference-tail-t1",
    "kernel-difference-oddness",
    "kernel-difference-at-pi",
    "radial-ball-closed-form",
    "radial-ball-volume-limit",
    "radial-disc-fractional-integral",
    "radial-threeway-dim2",
    "radial-threeway-dim3",
    "radial-dim1-even-extension",
    "radial-leray-condition-ball",
)
# These fail by analysis (see ROADMAP item 4): their status is not gated.
UNGATED = frozenset(
    {
        "conjugate-derivative-refinement",
        "hardy-inequality-triangle",
        "hardy-inequality-raised_cosine",
        "hardy-inequality-smoothed_box",
        "hardy-constant-family-stability",
    }
)
GATED = tuple(name for name in VERIFY_LINES if name not in UNGATED)
LINE_N = {"default": 2**14, "strict": 2**15}


def _read_table(path: Path, header: list[str]) -> tuple[np.ndarray | None, list[str]]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return None, [f"{path.name}: unreadable ({exc})"]
    if not rows or rows[0] != header:
        return None, [f"{path.name}: header {rows[0] if rows else None!r} is not {header!r}"]
    try:
        data = np.array([[float(c) for c in row] for row in rows[1:]], dtype=float)
    except ValueError as exc:
        return None, [f"{path.name}: malformed row ({exc})"]
    if data.ndim != 2 or data.shape[0] < 2 or data.shape[1] != len(header):
        return None, [f"{path.name}: table of shape {data.shape}"]
    return data, []


def _within(label: str, got: np.ndarray, want: np.ndarray, tol: float) -> list[str]:
    err = float(np.max(np.abs(got - want)))
    if not err <= tol:  # also catches NaN
        return [f"{label}: max error {err:.3e} exceeds {tol:.3e}"]
    return []


def transform_tolerance(n: int, t: np.ndarray, l1_norm: float) -> float:
    h = (LINE_B - LINE_A) / (n - 1)
    m = t.size
    theta = (t[-1] - t[0]) / (m - 1) * h
    return EPS * 0.5 * theta * (n + m) ** 2 * math.sqrt(n) * l1_norm


def check_transform(path: Path, fn: Mixture, n: int) -> list[str]:
    data, problems = _read_table(path, ["t", "re", "im"])
    if data is None:
        return problems
    t, F = data[:, 0], data[:, 1] + 1j * data[:, 2]
    nyquist = math.pi * (n - 1) / (LINE_B - LINE_A)
    if abs(t[-1] - nyquist) > 1e-9 * nyquist or np.any(np.abs(t + t[::-1]) > 1e-9 * nyquist):
        problems.append(f"{path.name}: frequency grid is not the symmetric Nyquist grid")
        return problems
    tol = transform_tolerance(n, t, fn.l1_norm())
    problems += _within(f"{path.name} vs closed form", F, fn.transform(t), tol)
    problems += _within(f"{path.name} F(-t) vs conj F(t)", F[::-1], np.conj(F), tol)
    return problems


def check_hilbert(path: Path, fn: Mixture, n: int, method: str) -> list[str]:
    data, problems = _read_table(path, ["x", "value"])
    if data is None:
        return problems
    x, v = data[:, 0], data[:, 1]
    if x.size != n or np.max(np.abs(x - np.linspace(LINE_A, LINE_B, n))) > 1e-9 * LINE_B:
        return [f"{path.name}: x is not the input grid"]
    inner = np.abs(x) <= INTERIOR
    h = (LINE_B - LINE_A) / (n - 1)
    want = fn.truncated_hilbert(x[inner]) if method == "pv" else fn.hilbert(x[inner])
    return _within(f"{path.name} ({method}) vs closed form", v[inner], want, h * h * fn.second_derivative_sup())


def radial_tolerance(profile: Ball | Bump) -> float:
    """Relative tolerance (share of max|F| = F(0)) for all three radial columns."""
    if isinstance(profile, Ball):
        return profile.dim * profile.h / profile.rho
    s = np.linspace(profile.centre - profile.width, profile.centre + profile.width, 200_001)
    second = np.diff(profile.profile(s), 2) / (s[1] - s[0]) ** 2
    return profile.h**2 * float(np.max(np.abs(second)))


def check_radial(path: Path, profile: Ball | Bump, radii: np.ndarray, exact: np.ndarray) -> list[str]:
    data, problems = _read_table(path, ["r", "leray", "ibp", "oracle"])
    if data is None:
        return problems
    if data.shape[0] != radii.size or np.max(np.abs(data[:, 0] - radii)) > 1e-9 * float(np.max(radii)):
        return [f"{path.name}: radii differ from the request"]
    tol = radial_tolerance(profile) * profile.peak()
    cols = {"leray": data[:, 1], "ibp": data[:, 2], "oracle": data[:, 3]}
    for name, col in cols.items():
        problems += _within(f"{path.name} {name} vs closed form", col, exact, tol)
    for a, b in (("leray", "ibp"), ("leray", "oracle"), ("ibp", "oracle")):
        problems += _within(f"{path.name} {a} vs {b}", cols[a], cols[b], tol)
    return problems


def _parse_report_txt(path: Path) -> list[tuple[str, str]]:
    lines = []
    for raw in path.read_text().splitlines():
        parts = raw.split()
        if len(parts) >= 2:
            lines.append((parts[0], parts[1]))
    return lines


def check_verify(report: Path, returncode: int, profile: str) -> tuple[int, list[str]]:
    """Return (number of gated lines delivered, problems).

    A gated line that is missing counts as a failed operation; a line
    that is present but does not read PASS, or a report that disagrees
    with its CSV twin, makes the output incorrect.
    """
    twin = report.with_suffix(".csv")
    if returncode not in (0, 1) or not report.is_file() or not twin.is_file():
        return 0, [f"verify exited {returncode} without a report and its CSV twin"]
    txt = _parse_report_txt(report)
    with open(twin, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    names = [name for name, _ in txt]
    if names != list(VERIFY_LINES):
        problems.append(f"report lines {names} are not the registry order")
    if [(r.get("name"), r.get("status")) for r in rows] != txt:
        problems.append("the CSV twin disagrees with the text report")
    status = dict(txt)
    delivered = sum(1 for name in GATED if name in status)
    for name in GATED:
        if name in status and status[name] != "PASS":
            problems.append(f"{name} reads {status[name]}")
    grid = {r.get("name"): r.get("grid_n") for r in rows}
    if grid.get(GATED[0]) != str(LINE_N[profile]):
        problems.append(f"{GATED[0]} ran on grid_n={grid.get(GATED[0])}, not the {profile} profile's {LINE_N[profile]}")
    if returncode == 0 and any(s == "FAIL" for _, s in txt):
        problems.append("exit code 0 with a FAIL line in the report")
    return delivered, problems
