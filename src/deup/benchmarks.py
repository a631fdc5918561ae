"""Analytic benchmark oracles with known optima and controllable noise.

All oracles follow the maximization convention; sample() adds Gaussian noise
whose standard deviation comes from the oracle's noise profile. Each oracle is
one row of `ORACLES`. This module imports no other `deup` module, so any of
them can import it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BoxDomain:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64).reshape(-1)
        hi = np.asarray(self.upper, dtype=np.float64).reshape(-1)
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ValueError("domain requires lower < upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def sample(self, gen: np.random.Generator, m: int) -> np.ndarray:
        return gen.uniform(self.lower, self.upper, size=(m, self.dimension))

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)


ACKLEY_A, ACKLEY_B, ACKLEY_C = 20.0, 0.2, 2.0 * np.pi


def ackley(x):
    """Negated Ackley function: global maximum 0 at the origin.

    a*exp(-b*sqrt(mean(x_i^2))) + exp(mean(cos(c*x_i))) - a - e, broadcast over
    the last axis, with (a, b, c) = (ACKLEY_A, ACKLEY_B, ACKLEY_C).
    """
    x = np.asarray(x, dtype=np.float64)
    # Grouped so the optimum at the origin evaluates to exactly 0.0.
    return ACKLEY_A * (np.exp(-ACKLEY_B * np.sqrt(np.mean(x**2, axis=-1))) - 1.0) + (
        np.exp(np.mean(np.cos(ACKLEY_C * x), axis=-1)) - np.e
    )


def levi13(x, y):
    """Negated Levi N.13: maximum 0 at (1, 1) on [-10, 10]^2."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return -(
        np.sin(3.0 * np.pi * x) ** 2
        + (x - 1.0) ** 2 * (1.0 + np.sin(3.0 * np.pi * y) ** 2)
        + (y - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * y) ** 2)
    )


# One-dimensional multimodal test function on [0, 1]: a sharp Gaussian bump at
# 0.55 riding on a decaying sine. The raw maximum sits on the first sine crest
# at x* = arctan(3*pi)/(9*pi); dividing by its value normalizes the peak to 1.
SYNTH1D_X_STAR = float(np.arctan(3.0 * np.pi) / (9.0 * np.pi))


def _synth1d_raw(x):
    x = np.asarray(x, dtype=np.float64)
    return 0.4 * np.exp(-((x - 0.55) ** 2) / 0.002) + 0.6 * np.sin(9.0 * np.pi * x) * np.exp(
        -3.0 * x
    )


SYNTH1D_SCALE = float(_synth1d_raw(SYNTH1D_X_STAR))


def synth1d(x):
    """Multimodal 1-D benchmark on [0, 1], normalized so the global maximum is 1."""
    return _synth1d_raw(x) / SYNTH1D_SCALE


@dataclass
class Oracle:
    """Ground-truth function f plus a noise profile sigma(x) >= 0."""

    name: str
    domain: BoxDomain
    f: object  # callable (m, d) array -> (m,) values
    noise_fn: object  # callable (m, d) array -> (m,) standard deviations
    known_optimum: tuple  # (x_star, f_star)

    def true_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return np.asarray(self.f(X), dtype=np.float64)

    def sample(self, x, gen: np.random.Generator, replicates: int = 1) -> np.ndarray:
        """replicates independent draws f(x) + sigma(x) * N(0, 1) at one point."""
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if not self.domain.contains(x):
            raise ValueError(f"query {x} outside domain of oracle {self.name}")
        if replicates < 1:
            raise ValueError("replicates must be >= 1")
        fx = self.true_batch(x[None, :])[0]
        sigma = float(np.asarray(self.noise_fn(x[None, :]))[0])
        return fx + sigma * gen.standard_normal(replicates)

    def draw(self, x_gen: np.random.Generator, y_gen: np.random.Generator, n: int) -> tuple:
        """(X, y): n uniform points of the domain from x_gen, then one `sample`
        at each point, in row order, from y_gen."""
        X = self.domain.sample(x_gen, n)
        return X, np.array([self.sample(x, y_gen, 1)[0] for x in X])


@dataclass(frozen=True)
class OracleRow:
    """One benchmark: its box [lower, upper]^d, f over (m, d) rows, and the
    maximizer x_star (in every coordinate) with its value f_star."""

    dimension: int | None  # None: any dimension >= 1, which the caller sets
    lower: float
    upper: float
    f: object  # callable (m, d) array -> (m,) values
    x_star: float
    f_star: float


ORACLES = {
    "ackley": OracleRow(None, -10.0, 15.0, ackley, 0.0, 0.0),
    "levi13": OracleRow(2, -10.0, 10.0, lambda X: levi13(X[..., 0], X[..., 1]), 1.0, 0.0),
    "synth1d": OracleRow(1, 0.0, 1.0, lambda X: synth1d(X[..., 0]), SYNTH1D_X_STAR, 1.0),
}


def make_oracle(name: str, dimension: int | None = None, noise=0.0) -> Oracle:
    """The oracle of row `name` of ORACLES with constant noise sigma `noise`,
    at `dimension` (by default the row's fixed one)."""
    sigma = float(noise)
    if not 0.0 <= sigma < np.inf:
        raise ValueError(f"noise sigma must be finite and nonnegative, got {noise}")
    if name not in ORACLES:
        raise ValueError(f"unknown oracle {name!r}")
    row = ORACLES[name]
    d = row.dimension if dimension is None else dimension
    if d is None or d < 1 or row.dimension not in (None, d):
        raise ValueError(f"{name} needs dimension {row.dimension or '>= 1'}, got {dimension}")
    return Oracle(
        name=name,
        domain=BoxDomain(np.full(d, row.lower), np.full(d, row.upper)),
        f=row.f,
        noise_fn=lambda X: np.full(len(X), sigma),
        known_optimum=(np.full(d, row.x_star), row.f_star),
    )
