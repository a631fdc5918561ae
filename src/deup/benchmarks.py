"""Analytic benchmark oracles with known optima and controllable noise.

All oracles follow the maximization convention; sample() adds Gaussian noise
whose standard deviation comes from the oracle's noise profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acquisition import BoxDomain


def ackley(x, a=20.0, b=0.2, c=2.0 * np.pi):
    """Negated Ackley function: global maximum 0 at the origin.

    a*exp(-b*sqrt(mean(x_i^2))) + exp(mean(cos(c*x_i))) - a - e, broadcast over
    the last axis.
    """
    x = np.asarray(x, dtype=np.float64)
    # Grouped so the optimum at the origin evaluates to exactly 0.0.
    out = a * (np.exp(-b * np.sqrt(np.mean(x**2, axis=-1))) - 1.0) + (
        np.exp(np.mean(np.cos(c * x), axis=-1)) - np.e
    )
    return float(out) if out.ndim == 0 else out


def levi13(x, y):
    """Negated Levi N.13: maximum 0 at (1, 1) on [-10, 10]^2."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    out = -(
        np.sin(3.0 * np.pi * x) ** 2
        + (x - 1.0) ** 2 * (1.0 + np.sin(3.0 * np.pi * y) ** 2)
        + (y - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * y) ** 2)
    )
    return float(out) if out.ndim == 0 else out


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
    out = _synth1d_raw(x) / SYNTH1D_SCALE
    return float(out) if np.ndim(out) == 0 else out


@dataclass
class Oracle:
    """Ground-truth function f plus a noise profile sigma(x) >= 0."""

    name: str
    dimension: int
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


def _const_noise(sigma: float):
    sigma = float(sigma)
    if sigma < 0:
        raise ValueError("noise sigma must be nonnegative")
    return lambda X: np.full(len(X), sigma)


def make_oracle(name: str, dimension: int | None = None, noise=0.0, noise_fn=None) -> Oracle:
    """Look up an oracle by name; `noise` is a constant sigma unless noise_fn is given."""
    name = name.lower()
    nf = noise_fn if noise_fn is not None else _const_noise(noise)
    if name == "ackley":
        if dimension is None or dimension < 1:
            raise ValueError("ackley requires an explicit dimension >= 1")
        domain = BoxDomain(np.full(dimension, -10.0), np.full(dimension, 15.0))
        return Oracle(
            name=name,
            dimension=dimension,
            domain=domain,
            f=lambda X: ackley(X),
            noise_fn=nf,
            known_optimum=(np.zeros(dimension), 0.0),
        )
    if name == "levi13":
        if dimension not in (None, 2):
            raise ValueError("levi13 is two-dimensional")
        domain = BoxDomain(np.full(2, -10.0), np.full(2, 10.0))
        return Oracle(
            name=name,
            dimension=2,
            domain=domain,
            f=lambda X: levi13(X[..., 0], X[..., 1]),
            noise_fn=nf,
            known_optimum=(np.array([1.0, 1.0]), 0.0),
        )
    if name == "synth1d":
        if dimension not in (None, 1):
            raise ValueError("synth1d is one-dimensional")
        domain = BoxDomain(np.array([0.0]), np.array([1.0]))
        return Oracle(
            name=name,
            dimension=1,
            domain=domain,
            f=lambda X: synth1d(X[..., 0]),
            noise_fn=nf,
            known_optimum=(np.array([SYNTH1D_X_STAR]), 1.0),
        )
    raise ValueError(f"unknown oracle {name!r}")
