"""Gaussian kernel density estimate used as the log-density feature."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .core import Dataset


def silverman_bandwidth(X: np.ndarray) -> float:
    """Rule-of-thumb bandwidth 1.06 * sigma * n^(-1/(d+4)).

    sigma is the per-dimension sample standard deviation averaged over
    dimensions; degenerate spreads fall back to 1.0.
    """
    n, d = X.shape
    if n < 2:
        return 1.0
    sigma = float(np.mean(np.std(X, axis=0, ddof=1)))
    if sigma <= 0.0 or not np.isfinite(sigma):
        return 1.0
    return 1.06 * sigma * n ** (-1.0 / (d + 4))


@dataclass
class KdePredictor:
    """Isotropic Gaussian mixture with one component per training point."""

    points: np.ndarray
    bandwidth: float

    def log_density_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        n, d = self.points.shape
        if X.shape[1] != d:
            raise ValueError(f"query dimension {X.shape[1]} != KDE dimension {d}")
        diff = X[:, None, :] - self.points[None, :, :]
        sq = np.einsum("ijk,ijk->ij", diff, diff)
        log_norm = np.log(n) + d * np.log(self.bandwidth * np.sqrt(2.0 * np.pi))
        return logsumexp(-0.5 * sq / self.bandwidth**2, axis=1) - log_norm

    def log_density(self, x) -> float:
        """Log mixture density at x, finite for any finite x by log-sum-exp."""
        return float(self.log_density_batch(np.asarray(x, dtype=np.float64)[None, :])[0])


def kde_fit(d: Dataset, bandwidth: float | None = None) -> KdePredictor:
    if len(d) < 1:
        raise ValueError("KDE fit needs at least 1 example")
    if bandwidth is not None and bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    X = d.inputs()
    h = float(bandwidth) if bandwidth is not None else silverman_bandwidth(X)
    return KdePredictor(points=X.copy(), bandwidth=h)
