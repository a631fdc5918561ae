import numpy as np
import pytest
from scipy.stats import norm

from deup.acquisition import (
    AcquisitionContext,
    AcquisitionSpec,
    BoxDomain,
    argmax_acquisition,
    expected_improvement,
    score_batch,
    ucb,
)
from deup.core import Acquisition, Dataset, Feature, RngStream
from deup.estimator import DeupFit, deup_fixed_train
from deup.models import GPPredictor, Learner, gp_fit


def fit_1d_gp(fn=lambda x: np.sin(6 * x), n=8):
    X = np.linspace(0, 1, n)[:, None]
    d = Dataset.from_arrays(X, fn(X[:, 0]))
    return gp_fit(d, {"noise_variance": 0.0, "n_restarts": 4}, RngStream(0, "fit")), d


class TestExpectedImprovement:
    def test_degenerate_no_improvement(self):
        assert expected_improvement(0.0, 0.0, best=1.0, xi=0.0) == 0.0
        assert expected_improvement(1.0, 0.0, best=1.0, xi=0.1) == 0.0

    def test_degenerate_positive_improvement(self):
        assert expected_improvement(2.0, 0.0, best=1.0, xi=0.0) == 1.0

    def test_at_the_mean_closed_form(self):
        # mean == best, sigma = 1, xi = 0: EI = phi(0) = 1/sqrt(2*pi)
        assert abs(expected_improvement(0.0, 1.0, 0.0, 0.0) - 1.0 / np.sqrt(2 * np.pi)) < 1e-12

    def test_matches_monte_carlo(self):
        gen = np.random.default_rng(0)
        for trial in range(10):
            mean = gen.uniform(-2, 2)
            sigma = gen.uniform(0.2, 2.0)
            best = gen.uniform(-2, 2)
            xi = gen.uniform(0, 0.2)
            draws = mean + sigma * gen.standard_normal(10**6)
            vals = np.maximum(draws - best - xi, 0.0)
            mc = vals.mean()
            se = vals.std(ddof=1) / 1e3
            assert abs(expected_improvement(mean, sigma**2, best, xi) - mc) <= 3 * se

    def test_nonnegative_and_increasing_in_sigma(self):
        sigmas = np.linspace(0.01, 3, 50)
        vals = expected_improvement(np.zeros(50), sigmas**2, best=1.0, xi=0.0)
        assert np.all(vals >= 0)
        assert np.all(np.diff(vals) > 0)

    def test_translation_invariance(self):
        a = expected_improvement(1.3, 0.8, best=2.0, xi=0.05)
        b = expected_improvement(1.3 + 7.0, 0.8, best=9.0, xi=0.05)
        assert abs(a - b) < 1e-12


def reference_expected_improvement(mean, variance, best, xi=0.0):
    """EI through `scipy.stats.norm`, which `expected_improvement` must match bit for bit."""
    improve = np.asarray(mean, dtype=np.float64) - best - xi
    sigma = np.sqrt(np.maximum(np.asarray(variance, dtype=np.float64), 0.0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = np.where(sigma > 0, improve / np.where(sigma > 0, sigma, 1.0), 0.0)
        ei = np.where(sigma > 0, improve * norm.cdf(z) + sigma * norm.pdf(z), np.maximum(improve, 0.0))
    return np.maximum(ei, 0.0)


class TestExpectedImprovementMatchesScipyStats:
    def test_bitwise_on_extreme_grid(self):
        # Every z scale from 1e-300 to overflow, both signs, and sigma == 0 rows.
        edges = np.array([0.0, 1e-300, 1e-150, 1e-8, 0.5, 1.0, 3.0, 37.0, 40.0, 1e8, 1e150, 1e300, np.inf])
        means = np.concatenate([-edges, edges])
        variances = np.array([0.0, 1e-300, 1e-16, 1.0, 1e16, 1e300])
        m, v = (a.ravel() for a in np.meshgrid(means, variances))
        with np.errstate(over="ignore", invalid="ignore"):
            got = expected_improvement(m, v, best=0.0)
        assert got.tobytes() == reference_expected_improvement(m, v, 0.0).tobytes()

    def test_bitwise_on_random_z(self):
        gen = np.random.default_rng(0)
        mean = gen.standard_normal(200_000) * 10.0 ** gen.uniform(-300, 300, 200_000)
        variance = 10.0 ** gen.uniform(-300, 300, 200_000)
        variance[::7] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            got = expected_improvement(mean, variance, best=0.3, xi=0.01)
        assert got.tobytes() == reference_expected_improvement(mean, variance, 0.3, 0.01).tobytes()


class TestUcb:
    def test_arithmetic(self):
        assert ucb(1.0, 4.0, 2.0) == 5.0

    def test_zero_variance_returns_mean(self):
        assert ucb(0.7, 0.0, 5.0) == 0.7

    def test_monotone_in_beta(self):
        betas = np.linspace(0.5, 5, 20)
        vals = [ucb(0.0, 2.0, b) for b in betas]
        assert np.all(np.diff(vals) > 0)


class TestScore:
    def test_ei_at_incumbent_is_tiny(self):
        gp, d = fit_1d_gp()
        best = float(np.max(d.targets()))
        x_best = d.inputs()[int(np.argmax(d.targets()))]
        spec = AcquisitionSpec(Acquisition.EI)
        (val,) = score_batch(spec, x_best[None], AcquisitionContext(best=best, model=gp))
        assert val <= 1e-6

    def test_deup_ucb_reduces_to_mean_when_eu_zero(self):
        gp, d = fit_1d_gp()
        train = Dataset.from_arrays(d.inputs(), d.targets())
        oos = Dataset.from_arrays(np.array([[0.31], [0.77]]), np.array([np.sin(6 * 0.31), np.sin(6 * 0.77)]))
        model = deup_fixed_train(
            train, oos, DeupFit(Learner("gp", {"noise_variance": 0.0, "n_restarts": 4}), (Feature.LOG_VARIANCE,)),
            RngStream(0, "deup"),
        )
        x = d.inputs()[3]
        spec = AcquisitionSpec(Acquisition.DEUP_UCB, beta=2.0)
        (val,) = score_batch(spec, x[None], AcquisitionContext(best=0.0, model=model))
        (eu,) = model.epistemic_batch(x[None])
        mean = model.predict_mean_batch(x[None, :])[0]
        assert abs(val - (mean + 2.0 * np.sqrt(eu))) < 1e-12
        if eu == 0.0:
            assert val == mean

    def test_deup_ei_is_direct_substitution(self):
        gp, d = fit_1d_gp()
        oos = Dataset.from_arrays(np.array([[0.11], [0.52]]), np.sin(6 * np.array([0.11, 0.52])))
        model = deup_fixed_train(
            d, oos, DeupFit(Learner("gp", {"noise_variance": 0.0, "n_restarts": 4}), (Feature.LOG_VARIANCE,)),
            RngStream(0, "deup"),
        )
        x = np.array([0.42])
        spec = AcquisitionSpec(Acquisition.DEUP_EI, xi=0.01)
        best = 0.5
        (val,) = score_batch(spec, x[None], AcquisitionContext(best=best, model=model))
        direct = expected_improvement(
            model.predict_mean_batch(x[None, :])[0], model.epistemic_batch(x[None])[0], best, 0.01
        )
        assert abs(val - direct) < 1e-12

    def test_deup_score_solves_main_posterior_once(self, monkeypatch):
        _, d = fit_1d_gp()
        oos = Dataset.from_arrays(np.array([[0.11], [0.52]]), np.sin(6 * np.array([0.11, 0.52])))
        model = deup_fixed_train(
            d, oos, DeupFit(Learner("gp", {"noise_variance": 0.0, "n_restarts": 4}), (Feature.LOG_VARIANCE,)),
            RngStream(0, "deup"),
        )
        rows = []
        predict_batch = GPPredictor.predict_batch

        def spy(self, X):
            rows.append(len(X))
            return predict_batch(self, X)

        monkeypatch.setattr(GPPredictor, "predict_batch", spy)
        X = np.linspace(0.0, 1.0, 64)[:, None]
        score_batch(AcquisitionSpec(Acquisition.DEUP_EI), X, AcquisitionContext(best=0.0, model=model))
        assert rows == [64]

    def test_missing_context_rejected(self):
        for kind in (Acquisition.EI, Acquisition.UCB, Acquisition.DEUP_EI, Acquisition.DEUP_UCB):
            with pytest.raises(ValueError, match="needs a model"):
                score_batch(AcquisitionSpec(kind), np.array([[0.0]]), AcquisitionContext(best=0.0))

    def test_random_scores_are_uniform_draws(self):
        spec = AcquisitionSpec(Acquisition.RANDOM)
        gen = np.random.default_rng(4)
        vals = score_batch(spec, np.zeros((100, 1)), AcquisitionContext(gen=gen))
        assert np.all((0 <= vals) & (vals <= 1))
        assert len(np.unique(vals)) == 100
        with pytest.raises(ValueError):
            score_batch(spec, np.array([[0.0]]), AcquisitionContext())


class TestArgmax:
    def test_random_mode_uniform_and_reproducible(self):
        domain = BoxDomain(np.array([-1.0, 0.0]), np.array([1.0, 4.0]))
        spec = AcquisitionSpec(Acquisition.RANDOM)
        a = argmax_acquisition(spec, domain, AcquisitionContext(), RngStream(5, "acq"))
        b = argmax_acquisition(spec, domain, AcquisitionContext(), RngStream(5, "acq"))
        np.testing.assert_array_equal(a, b)
        assert domain.contains(a)

    def test_finds_interior_peak(self):
        # Sharp noiseless GP peak: EI argmax should land within 1e-2 of it.
        def bump(x):
            return np.exp(-((x - 0.62) ** 2) / 0.005)

        gp, d = fit_1d_gp(fn=bump, n=14)
        domain = BoxDomain(np.array([0.0]), np.array([1.0]))
        spec = AcquisitionSpec(Acquisition.EI, xi=0.0, n_candidates=512, n_refine=3)
        best = float(np.max(d.targets())) - 0.05
        x = argmax_acquisition(spec, domain, AcquisitionContext(best=best, model=gp), RngStream(0, "acq"))

        grid = np.linspace(0, 1, 10_001)[:, None]
        mean, var = gp.predict_batch(grid)
        ei = expected_improvement(mean, var, best, 0.0)
        x_grid = grid[int(np.argmax(ei)), 0]
        assert abs(x[0] - x_grid) < 1e-2

    def test_never_worse_than_best_raw_candidate(self):
        gp, _ = fit_1d_gp()
        domain = BoxDomain(np.array([0.0]), np.array([1.0]))
        spec = AcquisitionSpec(Acquisition.UCB, n_candidates=64, n_refine=2)
        ctx = AcquisitionContext(best=0.0, model=gp)
        rng = RngStream(3, "acq")
        x = argmax_acquisition(spec, domain, ctx, rng)
        cands = domain.sample(rng.generator(), spec.n_candidates)
        raw_best = float(np.max(score_batch(spec, cands, ctx)))
        assert score_batch(spec, x[None], ctx)[0] >= raw_best - 1e-12

    def test_stays_inside_domain_property(self):
        gen = np.random.default_rng(9)
        gp, _ = fit_1d_gp()
        domain = BoxDomain(np.array([0.2]), np.array([0.8]))
        for trial in range(10):
            spec = AcquisitionSpec(
                Acquisition.EI, n_candidates=int(gen.integers(4, 64)), n_refine=2
            )
            x = argmax_acquisition(
                spec, domain, AcquisitionContext(best=0.5, model=gp), RngStream(trial, "acq")
            )
            assert domain.contains(x)

    def test_invalid_domain_rejected(self):
        with pytest.raises(ValueError):
            BoxDomain(np.array([1.0]), np.array([1.0]))
