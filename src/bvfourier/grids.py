"""Uniform grids, sampled functions and the built-in analytic test families.

Everything downstream (conjugation operators, Fourier diagnostics, the
radial pipeline) consumes the two carriers defined here: :class:`Grid`,
a closed uniform partition of ``[a, b]``, and :class:`SampledFunction`,
grid values plus a caller-declared decay annotation.  The module also
provides the elementary estimators used by the verification suites:
discrete total variation and finite-difference derivatives.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "DecayClass",
    "Grid",
    "SampledFunction",
    "Family",
    "FamilySpec",
    "make_uniform_grid",
    "sample",
    "family_value",
    "family_derivative",
    "integrate",
    "trapezoid_weights",
    "total_variation",
    "derivative",
    "read_samples_csv",
]


class DecayClass(str, Enum):
    """Caller-declared behaviour of a sampled function outside its grid.

    The annotation is trusted, not inferred; only the checkable parts
    (endpoint zeros, period closure) are validated at construction.
    """

    COMPACT_SUPPORT = "compact_support"
    VANISHING_AT_INFINITY = "vanishing_at_infinity"
    BOUNDED = "bounded"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class Grid:
    """Closed uniform grid on ``[a, b]`` with ``n`` points, spacing ``h``."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("grid endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got a={self.a}, b={self.b}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValueError(f"need an integer n >= 2, got {self.n!r}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n - 1)

    @cached_property
    def points(self) -> np.ndarray:
        x = np.linspace(self.a, self.b, self.n)
        x.flags.writeable = False
        return x

    @property
    def width(self) -> float:
        return self.b - self.a


def make_uniform_grid(a: float, b: float, n: int) -> Grid:
    """Build the closed uniform grid with points ``x_i = a + i*h``."""
    return Grid(float(a), float(b), int(n))


_CLOSURE_TOL = 1e-12


@dataclass(eq=False)
class SampledFunction:
    """Real- or complex-valued samples on a uniform grid.

    ``decay_class`` records what the caller asserts about the function
    outside the window; compact support requires (numerically) zero
    endpoint samples, periodic requires first == last within 1e-12.
    """

    grid: Grid
    values: np.ndarray
    decay_class: DecayClass

    def __post_init__(self):
        v = np.asarray(self.values)
        if not np.iscomplexobj(v):
            v = v.astype(float, copy=False)
        if v.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if v.size != self.grid.n:
            raise ValueError(f"got {v.size} values for a grid of {self.grid.n} points")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must all be finite")
        self.values = v
        self.decay_class = DecayClass(self.decay_class)
        scale = float(np.max(np.abs(v))) if v.size else 0.0
        if self.decay_class is DecayClass.COMPACT_SUPPORT:
            tol = _CLOSURE_TOL * max(scale, 1.0)
            if abs(v[0]) > tol or abs(v[-1]) > tol:
                raise ValueError(
                    "compact_support requires zero first/last samples; widen the grid"
                )
        elif self.decay_class is DecayClass.PERIODIC:
            if abs(v[0] - v[-1]) > _CLOSURE_TOL * max(scale, 1.0):
                raise ValueError("periodic samples must close up (first == last)")

    @property
    def x(self) -> np.ndarray:
        return self.grid.points

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def h(self) -> float:
        return self.grid.h

    def is_real(self) -> bool:
        return not np.iscomplexobj(self.values)

    def with_values(self, values: np.ndarray, decay_class: DecayClass | None = None) -> "SampledFunction":
        return SampledFunction(self.grid, values, decay_class or self.decay_class)


class Family(str, Enum):
    BOX = "box"
    TRIANGLE = "triangle"
    GAUSSIAN = "gaussian"
    POISSON_KERNEL = "poisson_kernel"
    CONJUGATE_POISSON = "conjugate_poisson"
    RAISED_COSINE = "raised_cosine"
    SMOOTHED_BOX = "smoothed_box"
    TRIANGLE_WAVE_PERIODIC = "triangle_wave_periodic"


_FAMILY_DEFAULTS: dict[Family, dict[str, float]] = {
    Family.BOX: {"width": 2.0},
    Family.TRIANGLE: {"width": 2.0},
    Family.GAUSSIAN: {"sigma": 1.0},
    Family.POISSON_KERNEL: {"a": 1.0},
    Family.CONJUGATE_POISSON: {"a": 1.0},
    Family.RAISED_COSINE: {"width": 2.0},
    Family.SMOOTHED_BOX: {"width": 2.0, "taper": 0.5},
    Family.TRIANGLE_WAVE_PERIODIC: {"period": 2.0 * math.pi},
}

_FAMILY_DECAY: dict[Family, DecayClass] = {
    Family.BOX: DecayClass.COMPACT_SUPPORT,
    Family.TRIANGLE: DecayClass.COMPACT_SUPPORT,
    Family.GAUSSIAN: DecayClass.VANISHING_AT_INFINITY,
    Family.POISSON_KERNEL: DecayClass.VANISHING_AT_INFINITY,
    Family.CONJUGATE_POISSON: DecayClass.VANISHING_AT_INFINITY,
    Family.RAISED_COSINE: DecayClass.COMPACT_SUPPORT,
    Family.SMOOTHED_BOX: DecayClass.COMPACT_SUPPORT,
    Family.TRIANGLE_WAVE_PERIODIC: DecayClass.PERIODIC,
}


@dataclass(frozen=True)
class FamilySpec:
    """A named closed-form test function plus its scale parameters."""

    family: Family
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        fam = Family(self.family)
        object.__setattr__(self, "family", fam)
        merged = dict(_FAMILY_DEFAULTS[fam])
        for key, val in self.params.items():
            if key not in merged:
                raise ValueError(f"unknown parameter {key!r} for family {fam.value}")
            merged[key] = float(val)
        for key, val in merged.items():
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(f"parameter {key!r} must be a positive real, got {val}")
        if fam is Family.SMOOTHED_BOX and 2.0 * merged["taper"] >= merged["width"]:
            raise ValueError("smoothed_box taper must satisfy 2*taper < width")
        object.__setattr__(self, "params", merged)

    @property
    def decay_class(self) -> DecayClass:
        return _FAMILY_DECAY[self.family]


def family_value(spec: FamilySpec, x: np.ndarray) -> np.ndarray:
    """Closed-form values of a test family at arbitrary points."""
    x = np.asarray(x, dtype=float)
    p = spec.params
    fam = spec.family
    if fam is Family.BOX:
        return (np.abs(x) <= p["width"] / 2.0).astype(float)
    if fam is Family.TRIANGLE:
        return np.clip(1.0 - 2.0 * np.abs(x) / p["width"], 0.0, None)
    if fam is Family.GAUSSIAN:
        return np.exp(-(x * x) / (2.0 * p["sigma"] ** 2))
    if fam is Family.POISSON_KERNEL:
        a = p["a"]
        return a / (np.pi * (a * a + x * x))
    if fam is Family.CONJUGATE_POISSON:
        a = p["a"]
        return x / (np.pi * (a * a + x * x))
    if fam is Family.RAISED_COSINE:
        half = p["width"] / 2.0
        inside = np.abs(x) <= half
        out = np.zeros_like(x)
        out[inside] = 0.5 * (1.0 + np.cos(np.pi * x[inside] / half))
        return out
    if fam is Family.SMOOTHED_BOX:
        half, r = p["width"] / 2.0, p["taper"]
        plateau = half - r
        ax = np.abs(x)
        out = np.zeros_like(x)
        out[ax <= plateau] = 1.0
        flank = (ax > plateau) & (ax <= half)
        out[flank] = 0.5 * (1.0 + np.cos(np.pi * (ax[flank] - plateau) / r))
        return out
    if fam is Family.TRIANGLE_WAVE_PERIODIC:
        period = p["period"]
        # even wave, peak 1 at 0, minimum -1 at half period, zero mean
        phase = np.mod(x + period / 2.0, period) - period / 2.0
        return 1.0 - 4.0 * np.abs(phase) / period
    raise ValueError(f"unknown family {fam!r}")


def family_derivative(spec: FamilySpec, x: np.ndarray) -> np.ndarray:
    """Closed-form a.e. derivative of a test family (0 at jump points)."""
    x = np.asarray(x, dtype=float)
    p = spec.params
    fam = spec.family
    if fam is Family.BOX:
        return np.zeros_like(x)
    if fam is Family.TRIANGLE:
        half = p["width"] / 2.0
        out = np.where(np.abs(x) < half, -np.sign(x) / half, 0.0)
        return out
    if fam is Family.GAUSSIAN:
        s2 = p["sigma"] ** 2
        return -(x / s2) * np.exp(-(x * x) / (2.0 * s2))
    if fam is Family.POISSON_KERNEL:
        a = p["a"]
        return -2.0 * a * x / (np.pi * (a * a + x * x) ** 2)
    if fam is Family.CONJUGATE_POISSON:
        a = p["a"]
        return (a * a - x * x) / (np.pi * (a * a + x * x) ** 2)
    if fam is Family.RAISED_COSINE:
        half = p["width"] / 2.0
        inside = np.abs(x) <= half
        out = np.zeros_like(x)
        out[inside] = -0.5 * (np.pi / half) * np.sin(np.pi * x[inside] / half)
        return out
    if fam is Family.SMOOTHED_BOX:
        half, r = p["width"] / 2.0, p["taper"]
        plateau = half - r
        ax = np.abs(x)
        out = np.zeros_like(x)
        flank = (ax > plateau) & (ax <= half)
        out[flank] = -0.5 * (np.pi / r) * np.sin(np.pi * (ax[flank] - plateau) / r) * np.sign(x[flank])
        return out
    if fam is Family.TRIANGLE_WAVE_PERIODIC:
        period = p["period"]
        phase = np.mod(x + period / 2.0, period) - period / 2.0
        return -np.sign(phase) * 4.0 / period
    raise ValueError(f"unknown family {fam!r}")


def sample(spec: FamilySpec, grid: Grid) -> SampledFunction:
    """Evaluate a family on a grid, tagging the matching decay class.

    Compactly supported families must fit strictly inside the grid
    (nonzero endpoint samples are rejected by the invariant check);
    periodic families require the grid to span exactly one period.
    """
    decay = spec.decay_class
    if decay is DecayClass.PERIODIC:
        period = spec.params["period"]
        if abs(grid.width - period) > 1e-9 * period:
            raise ValueError(
                f"periodic family needs a grid spanning one period ({period}), "
                f"got width {grid.width}"
            )
    return SampledFunction(grid, family_value(spec, grid.points), decay)


def trapezoid_weights(grid: Grid) -> np.ndarray:
    """Composite-trapezoid weights: h at interior nodes, h/2 at both ends."""
    w = np.full(grid.n, grid.h)
    w[0] = w[-1] = 0.5 * grid.h
    return w


def integrate(f: SampledFunction) -> float | complex:
    """Composite-trapezoid integral over the grid."""
    total = np.sum(trapezoid_weights(f.grid) * f.values)
    return complex(total) if np.iscomplexobj(f.values) else float(total)


def total_variation(f: SampledFunction) -> float:
    """First-difference total variation sum over the sample sequence.

    This is the variation of the sampled restriction, i.e. the supremum
    over the grid-refined partitions; it is exact for piecewise-monotone
    functions whose breakpoints are grid-aligned and increases
    monotonically under grid refinement.
    """
    if f.n < 2:
        raise ValueError("total variation needs at least two samples")
    return float(np.sum(np.abs(np.diff(f.values))))


def derivative(f: SampledFunction) -> SampledFunction:
    """Finite-difference derivative: O(h^2) central interior stencils,
    one-sided O(h) at the two endpoints.  Jump discontinuities produce
    O(1/h) spikes at jump-adjacent samples; callers that need an
    L1-meaningful derivative should use continuous families.
    """
    if f.n < 3:
        raise ValueError("derivative needs at least three samples")
    v, h = f.values, f.h
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    d[0] = (v[1] - v[0]) / h
    d[-1] = (v[-1] - v[-2]) / h
    return f.with_values(d)


def _read_uniform_csv(path: str | Path, header: tuple[str, str], min_rows: int) -> tuple[Grid, np.ndarray]:
    """Grid and values of a two-column CSV whose first column is the abscissa.

    The header row must name the two columns.  Every data row holds
    exactly two float fields, comma separated and optionally double
    quoted; blank lines are skipped and there are no comments.  The
    abscissa must be finite, strictly increasing and equispaced to a
    relative tolerance of 1e-9 on the spacing.

    The header and the rows are read from one open handle, so a path that
    cannot be rewound (a pipe, a FIFO, ``/dev/stdin``) is read whole, and a
    name ending in .gz is read as the text it holds.
    """
    path = Path(path)
    name = header[0]
    with path.open(newline="") as fh:
        got = next(csv.reader(fh), None)
        if got is None:
            raise ValueError(f"{path}: empty CSV")
        if [c.strip().lower() for c in got] != list(header):
            raise ValueError(f"{path}: expected header {','.join(header)!r}, got {got!r}")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                data = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2, dtype=float)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed data row ({exc})") from None
    if data.size and data.shape[1] != 2:
        raise ValueError(f"{path}: malformed data row (expected 2 fields, got {data.shape[1]})")
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


def read_samples_csv(path: str | Path, decay_class: DecayClass | str) -> SampledFunction:
    """Load a user-supplied function from a two-column ``x,value`` CSV.

    x must be finite, strictly increasing and equispaced (see
    :func:`_read_uniform_csv`); the decay class is supplied by the
    caller as a side flag.
    """
    grid, vals = _read_uniform_csv(path, ("x", "value"), 2)
    return SampledFunction(grid, vals, DecayClass(decay_class))
