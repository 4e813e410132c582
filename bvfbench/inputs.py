"""Seeded inputs for the ``cli-calls`` workload and their analytic references.

Every input is a closed-form function whose transform, Hilbert transform
or radial transform the benchmark can evaluate on its own, so outputs are
checked against mathematics and never against a stored copy of an earlier
run.  The same seed always yields the same inputs.

Line inputs live on the window [-50, 50] (the CLI's default window):

* ``gauss``: 3 Gaussians c exp(-(x-mu)^2 / (2 sigma^2)), used for
  ``bvf transform``;
* ``mix``: 2 Gaussians plus 2 shifted and scaled Poisson kernels
  c a / (pi (a^2 + (x-mu)^2)), used for ``bvf hilbert``.

Radial inputs live on [0, 2] with 8193 samples: for dims 3-5 the
indicator of a ball whose radius is a seeded grid point, for dim 2 a
seeded C-infinity bump exp(1 - 1/(1-u^2)), u = (s - centre) / width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import dawsn, jv

LINE_A, LINE_B = -50.0, 50.0
LINE_SIZES = (2**14 + 1, 2**16 + 1)
RADIAL_R = 2.0
RADIAL_N = 8193
BALL_DIMS = (3, 4, 5)


@dataclass(frozen=True)
class Gaussian:
    c: float
    mu: float
    sigma: float

    def value(self, x):
        return self.c * np.exp(-((x - self.mu) ** 2) / (2.0 * self.sigma**2))

    def transform(self, t):
        """int g(x) e^{-itx} dx."""
        return (
            self.c * self.sigma * math.sqrt(2.0 * math.pi)
            * np.exp(-0.5 * (self.sigma * t) ** 2) * np.exp(-1j * t * self.mu)
        )

    def hilbert(self, x):
        """(1/pi) pv int g(t)/(x-t) dt = c (2/sqrt(pi)) D((x-mu)/(sqrt(2) sigma))."""
        return self.c * (2.0 / math.sqrt(math.pi)) * dawsn((x - self.mu) / (math.sqrt(2.0) * self.sigma))

    def second_derivative_sup(self) -> float:
        return abs(self.c) / self.sigma**2

    def l1_norm(self) -> float:
        return abs(self.c) * self.sigma * math.sqrt(2.0 * math.pi)

    def window_tail(self, x, lo, hi):
        """Hilbert contribution of the mass outside [lo, hi]: below e^-200 for these inputs."""
        return np.zeros_like(x)


@dataclass(frozen=True)
class Poisson:
    c: float
    mu: float
    a: float

    def value(self, x):
        return self.c * self.a / (math.pi * (self.a**2 + (x - self.mu) ** 2))

    def hilbert(self, x):
        y = x - self.mu
        return self.c * y / (math.pi * (self.a**2 + y * y))

    def second_derivative_sup(self) -> float:
        return 2.0 * abs(self.c) / (math.pi * self.a**3)

    def l1_norm(self) -> float:
        return abs(self.c)

    def window_tail(self, x, lo, hi):
        """(1/pi) int_{t outside [lo, hi]} p(t) / (x - t) dt in closed form.

        With u = t - mu, y = x - mu the integrand a/(pi (u^2+a^2)(y-u))
        splits into A/(y-u) + A (u+y)/(u^2+a^2), A = 1/(y^2+a^2), whose
        antiderivative is A [-ln|y-u| + ln(u^2+a^2)/2 + (y/a) atan(u/a)].
        """
        a = self.a
        y = np.asarray(x, dtype=float) - self.mu
        A = 1.0 / (y * y + a * a)

        def prim(u):
            return A * (-np.log(np.abs(y - u)) + 0.5 * np.log(u * u + a * a) + (y / a) * np.arctan(u / a))

        at_inf = A * (y / a) * (math.pi / 2.0)  # the log terms cancel as u -> +inf
        right = at_inf - prim(hi - self.mu)
        left = prim(lo - self.mu) + at_inf  # -inf limit is -(y/a) pi/2
        return self.c * (a / math.pi**2) * (right + left)


@dataclass(frozen=True)
class Mixture:
    parts: tuple

    def value(self, x):
        return sum(p.value(x) for p in self.parts)

    def transform(self, t):
        return sum(p.transform(t) for p in self.parts)

    def hilbert(self, x):
        return sum(p.hilbert(x) for p in self.parts)

    def truncated_hilbert(self, x):
        """Hilbert transform of the mixture restricted to the window [LINE_A, LINE_B]."""
        return self.hilbert(x) - sum(p.window_tail(x, LINE_A, LINE_B) for p in self.parts)

    def second_derivative_sup(self) -> float:
        return sum(p.second_derivative_sup() for p in self.parts)

    def l1_norm(self) -> float:
        return sum(p.l1_norm() for p in self.parts)


def gaussian_mixture(rng: np.random.Generator, k: int) -> list[Gaussian]:
    return [
        Gaussian(float(rng.uniform(0.5, 1.5)) * float(rng.choice((-1.0, 1.0))),
                 float(rng.uniform(-10.0, 10.0)), float(rng.uniform(0.5, 2.0)))
        for _ in range(k)
    ]


def poisson_mixture(rng: np.random.Generator, k: int) -> list[Poisson]:
    return [
        Poisson(float(rng.uniform(0.5, 1.5)) * float(rng.choice((-1.0, 1.0))),
                float(rng.uniform(-5.0, 5.0)), float(rng.uniform(0.5, 2.0)))
        for _ in range(k)
    ]


@dataclass(frozen=True)
class Ball:
    dim: int
    index: int  # radius = index * h on the profile grid
    n: int = RADIAL_N
    R: float = RADIAL_R

    @property
    def h(self) -> float:
        return self.R / (self.n - 1)

    @property
    def rho(self) -> float:
        return self.index * self.h

    def samples(self) -> tuple[np.ndarray, np.ndarray]:
        s = np.linspace(0.0, self.R, self.n)
        f0 = np.zeros(self.n)
        f0[: self.index + 1] = 1.0
        return s, f0

    def peak(self) -> float:
        """max |F| = F(0), the ball's volume."""
        return math.pi ** (self.dim / 2.0) * self.rho**self.dim / math.gamma(self.dim / 2.0 + 1.0)

    def transform(self, r):
        """Transform of the ball indicator on R^n: (2 pi rho / r)^{n/2} J_{n/2}(rho r)."""
        r = np.asarray(r, dtype=float)
        return (2.0 * math.pi * self.rho / r) ** (self.dim / 2.0) * jv(self.dim / 2.0, self.rho * r)


@dataclass(frozen=True)
class Bump:
    centre: float
    width: float
    dim: int = 2
    n: int = RADIAL_N
    R: float = RADIAL_R

    @property
    def h(self) -> float:
        return self.R / (self.n - 1)

    def profile(self, s):
        u = (np.asarray(s, dtype=float) - self.centre) / self.width
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
        return out

    def samples(self) -> tuple[np.ndarray, np.ndarray]:
        s = np.linspace(0.0, self.R, self.n)
        return s, self.profile(s)

    def peak(self) -> float:
        """max |F| = F(0) = 2 pi int f0(s) s ds, as f0 >= 0."""
        return float(self.transform([0.0])[0])

    def transform(self, r):
        """2 pi int f0(s) J_0(r s) s ds by adaptive quadrature of the analytic profile."""
        lo, hi = self.centre - self.width, self.centre + self.width

        def one(rr):
            val, _ = integrate.quad(
                lambda s: float(self.profile(np.array([s]))[0]) * float(jv(0, rr * s)) * s,
                lo, hi, limit=400, epsabs=1e-13, epsrel=1e-12,
            )
            return 2.0 * math.pi * val

        return np.array([one(float(rr)) for rr in np.asarray(r, dtype=float)])


@dataclass(frozen=True)
class CliInputs:
    gauss: Mixture
    mix: Mixture
    balls: tuple
    bump: Bump
    radii: np.ndarray


def make_inputs(seed: int) -> CliInputs:
    rng = np.random.default_rng([seed % 2**64, 0xB7F])
    gauss = Mixture(tuple(gaussian_mixture(rng, 3)))
    mix = Mixture(tuple(gaussian_mixture(rng, 2) + poisson_mixture(rng, 2)))
    h = RADIAL_R / (RADIAL_N - 1)
    balls = tuple(
        Ball(dim, int(rng.integers(int(0.4 / h), int(0.8 * RADIAL_R / h)))) for dim in BALL_DIMS
    )
    bump = Bump(float(rng.uniform(0.7, 1.2)), float(rng.uniform(0.3, 0.6)))
    radii = np.round(np.sort(rng.uniform(0.25, 15.0, size=12)), 6)
    return CliInputs(gauss, mix, balls, bump, radii)


def write_line_csv(path, fn: Mixture, n: int) -> None:
    x = np.linspace(LINE_A, LINE_B, n)
    np.savetxt(path, np.column_stack((x, fn.value(x))), delimiter=",", header="x,value", comments="", fmt="%.17g")


def write_radial_csv(path, s: np.ndarray, f0: np.ndarray) -> None:
    np.savetxt(path, np.column_stack((s, f0)), delimiter=",", header="s,f0", comments="", fmt="%.17g")
