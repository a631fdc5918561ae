"""Executable checks of the uncertainty-decomposition identities.

For squared loss with Gaussian ground truth N(f*, sigma^2), the expected loss
of a predictor splits into (f_hat - f*)^2 + sigma^2 (reducible + irreducible).
Under negative log-likelihood the same split is cross-entropy = entropy + KL.
Monte-Carlo estimates are reported with standard errors; algebraic identities
are checked to 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RngStream


@dataclass(frozen=True)
class GaussianPair:
    """Ground truth P = N(p_mean, p_std^2) and predictor Q = N(q_mean, q_std^2)."""

    p_mean: float
    p_std: float
    q_mean: float
    q_std: float

    def __post_init__(self):
        if self.p_std <= 0 or self.q_std <= 0:
            raise ValueError("standard deviations must be positive")


def mc_total_uncertainty(f_hat_value: float, f_star: float, sigma: float, n: int, rng: RngStream):
    """Monte-Carlo expected squared loss of a constant prediction at one x.

    Returns (estimate, standard_error) over n draws y ~ N(f_star, sigma^2).
    """
    if n < 1000:
        raise ValueError(f"need n >= 1000 draws, got {n}")
    gen = rng.generator()
    y = f_star + sigma * gen.standard_normal(n)
    sq = (f_hat_value - y) ** 2
    return float(np.mean(sq)), float(np.std(sq, ddof=1) / np.sqrt(n))


def gaussian_kl(pair: GaussianPair) -> float:
    """KL(P || Q) for the two Gaussians in closed form."""
    return float(
        np.log(pair.q_std / pair.p_std)
        + (pair.p_std**2 + (pair.q_mean - pair.p_mean) ** 2) / (2.0 * pair.q_std**2)
        - 0.5
    )


def check_prop5(pair: GaussianPair) -> float:
    """Residual of KL(P||Q) = MSE/(2 sigma_Q^2) + KL(P||Q~), Q~ = N(p_mean, q_std^2).

    The residual is exactly zero in algebra. It is normalized by the magnitude
    of the compared quantities: with std ratios up to 1e6 the KL terms reach
    ~1e12, where float64 cannot resolve an absolute 1e-10, so the scale-free
    defect is what the 1e-10 contract bounds. At moderate scales this equals
    the raw difference.
    """
    shifted = GaussianPair(pair.p_mean, pair.p_std, pair.p_mean, pair.q_std)
    mse = (pair.q_mean - pair.p_mean) ** 2
    lhs = gaussian_kl(pair)
    rhs = mse / (2.0 * pair.q_std**2) + gaussian_kl(shifted)
    return float((lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))


def gaussian_entropy(std: float) -> float:
    return float(0.5 * np.log(2.0 * np.pi * np.e * std**2))


@dataclass(frozen=True)
class NllDecomposition:
    """Monte-Carlo total, exact aleatoric, and the epistemic gap under NLL loss."""

    total_mc: float
    total_se: float
    aleatoric_exact: float
    epistemic_mc: float
    epistemic_exact: float
    identity_gap: float


def check_nll_decomposition(pair: GaussianPair, n: int, rng: RngStream) -> NllDecomposition:
    """Estimate cross-entropy CE(P||Q) by sampling and compare CE - H(P) to KL(P||Q)."""
    if n < 10**4:
        raise ValueError(f"need n >= 10^4 draws, got {n}")
    gen = rng.generator()
    y = pair.p_mean + pair.p_std * gen.standard_normal(n)
    nll = 0.5 * np.log(2.0 * np.pi * pair.q_std**2) + (y - pair.q_mean) ** 2 / (
        2.0 * pair.q_std**2
    )
    total = float(np.mean(nll))
    se = float(np.std(nll, ddof=1) / np.sqrt(n))
    aleatoric = gaussian_entropy(pair.p_std)
    epistemic_mc = total - aleatoric
    epistemic_exact = gaussian_kl(pair)
    return NllDecomposition(
        total_mc=total,
        total_se=se,
        aleatoric_exact=aleatoric,
        epistemic_mc=epistemic_mc,
        epistemic_exact=epistemic_exact,
        identity_gap=epistemic_mc - epistemic_exact,
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_theory_checks(seed: int = 1) -> list[CheckResult]:
    """The full identity suite, suitable for a pass/fail table.

    Deterministic identities use tolerance 1e-10; Monte-Carlo comparisons use
    3 standard errors so sampling noise is separated from algebra bugs.
    """
    results = []
    root = RngStream(seed, "theory")
    gen = root.child("pairs").generator()

    # Gaussian-shift identity over random pairs with stds spanning [1e-3, 1e3].
    n_pairs = 10**4
    means = gen.uniform(-10, 10, size=(n_pairs, 2))
    stds = np.exp(gen.uniform(np.log(1e-3), np.log(1e3), size=(n_pairs, 2)))
    max_resid = max(
        abs(check_prop5(GaussianPair(means[i, 0], stds[i, 0], means[i, 1], stds[i, 1])))
        for i in range(n_pairs)
    )
    results.append(
        CheckResult(
            "gaussian-shift identity (10^4 random pairs)",
            max_resid <= 1e-10,
            f"max residual {max_resid:.2e} (tol 1e-10)",
        )
    )

    # Squared-loss decomposition by Monte Carlo: total = gap^2 + sigma^2 and
    # total - sigma^2 = gap^2, each within 3 standard errors.
    cfg_gen = root.child("configs").generator()
    n_draws = 10**5
    failures = 0
    worst = 0.0
    for i in range(50):
        f_star = float(cfg_gen.uniform(-5, 5))
        sigma = float(np.exp(cfg_gen.uniform(np.log(0.1), np.log(3.0))))
        f_hat = f_star + float(cfg_gen.uniform(-3, 3))
        total, se = mc_total_uncertainty(f_hat, f_star, sigma, n_draws, root.child(f"mc-{i}"))
        expected = (f_hat - f_star) ** 2 + sigma**2
        eu_gap = abs((total - sigma**2) - (f_hat - f_star) ** 2)
        z1 = abs(total - expected) / se
        z2 = eu_gap / se
        worst = max(worst, z1, z2)
        if z1 > 3.0 or z2 > 3.0:
            failures += 1
    results.append(
        CheckResult(
            "squared-loss decomposition, 50 random configs at n=10^5",
            failures == 0,
            f"{failures} failures, worst |z| = {worst:.2f} (tol 3 SE)",
        )
    )

    # Aleatoric never exceeds the total uncertainty of any predictor.
    viol = 0
    for i in range(20):
        f_star = float(cfg_gen.uniform(-5, 5))
        sigma = float(np.exp(cfg_gen.uniform(np.log(0.1), np.log(3.0))))
        f_hat = f_star + float(cfg_gen.uniform(-3, 3))
        total, se = mc_total_uncertainty(f_hat, f_star, sigma, n_draws, root.child(f"ineq-{i}"))
        if sigma**2 > total + 3 * se:
            viol += 1
    results.append(
        CheckResult(
            "aleatoric <= total for every predictor (20 configs)",
            viol == 0,
            f"{viol} violations at 3 SE slack",
        )
    )

    # NLL split: Monte-Carlo cross-entropy minus entropy recovers the KL.
    cases = [
        GaussianPair(0.0, 1.0, 0.0, 1.0),
        GaussianPair(0.0, 1.0, 1.0, 1.0),
        GaussianPair(2.0, 0.5, 1.0, 2.0),
    ]
    bad = []
    for i, pair in enumerate(cases):
        rep = check_nll_decomposition(pair, 10**5, root.child(f"nll-{i}"))
        if abs(rep.identity_gap) > 3 * rep.total_se:
            bad.append(i)
    results.append(
        CheckResult(
            "NLL cross-entropy/entropy/KL split (3 cases)",
            not bad,
            "all gaps within 3 SE" if not bad else f"cases {bad} out of tolerance",
        )
    )
    return results
