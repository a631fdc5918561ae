import functools
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

from deup.acquisition import (
    AcquisitionSpec,
    BoxDomain,
    argmax_acquisition,
    expected_improvement,
    score_batch,
    score_candidates,
    ucb,
)
from deup.benchmarks import make_oracle
from deup.core import Acquisition, Dataset, ExperimentConfig, Feature, RngStream, one_blas_thread
from deup.estimator import DeupFit, deup_fixed_train, deup_init_state
from deup.models import GPPredictor, Learner, gp_fit
from deup.smo import deup_fit


def fit_1d_gp(fn=lambda x: np.sin(6 * x), n=8):
    X = np.linspace(0, 1, n)[:, None]
    d = Dataset(X, fn(X[:, 0]))
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
        (val,) = score_batch(spec, x_best[None], gp, best)
        assert val <= 1e-6

    def test_deup_ucb_reduces_to_mean_when_eu_zero(self):
        gp, d = fit_1d_gp()
        oos = Dataset(np.array([[0.31], [0.77]]), np.array([np.sin(6 * 0.31), np.sin(6 * 0.77)]))
        model = deup_fixed_train(
            d, oos, DeupFit(Learner("gp", {"noise_variance": 0.0, "n_restarts": 4}), (Feature.LOG_VARIANCE,)),
            RngStream(0, "deup"),
        ).model
        x = d.inputs()[3]
        spec = AcquisitionSpec(Acquisition.DEUP_UCB, beta=2.0)
        (val,) = score_batch(spec, x[None], model, 0.0)
        (eu,) = model.epistemic_batch(x[None])
        mean = model.predict_mean_batch(x[None, :])[0]
        assert abs(val - (mean + 2.0 * np.sqrt(eu))) < 1e-12
        if eu == 0.0:
            assert val == mean

    def test_deup_ei_is_direct_substitution(self):
        gp, d = fit_1d_gp()
        oos = Dataset(np.array([[0.11], [0.52]]), np.sin(6 * np.array([0.11, 0.52])))
        model = deup_fixed_train(
            d, oos, DeupFit(Learner("gp", {"noise_variance": 0.0, "n_restarts": 4}), (Feature.LOG_VARIANCE,)),
            RngStream(0, "deup"),
        ).model
        x = np.array([0.42])
        spec = AcquisitionSpec(Acquisition.DEUP_EI, xi=0.01)
        best = 0.5
        (val,) = score_batch(spec, x[None], model, best)
        direct = expected_improvement(
            model.predict_mean_batch(x[None, :])[0], model.epistemic_batch(x[None])[0], best, 0.01
        )
        assert abs(val - direct) < 1e-12

    def test_deup_score_solves_main_posterior_once(self, monkeypatch):
        _, d = fit_1d_gp()
        oos = Dataset(np.array([[0.11], [0.52]]), np.sin(6 * np.array([0.11, 0.52])))
        model = deup_fixed_train(
            d, oos, DeupFit(Learner("gp", {"noise_variance": 0.0, "n_restarts": 4}), (Feature.LOG_VARIANCE,)),
            RngStream(0, "deup"),
        ).model
        rows = []
        predict_batch = GPPredictor.predict_batch

        def spy(self, X):
            rows.append(len(X))
            return predict_batch(self, X)

        monkeypatch.setattr(GPPredictor, "predict_batch", spy)
        X = np.linspace(0.0, 1.0, 64)[:, None]
        score_batch(AcquisitionSpec(Acquisition.DEUP_EI), X, model, 0.0)
        assert rows == [64]

    def test_missing_context_rejected(self):
        for kind in Acquisition:
            with pytest.raises(ValueError, match="needs a model"):
                score_batch(AcquisitionSpec(kind), np.array([[0.0]]), None, 0.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_candidates", 0),
        ("n_refine", 0),
        ("n_refine", -3),
        ("beta", 0.0),
        ("xi", -0.1),
        ("beta", np.nan),
        ("beta", np.inf),
        ("xi", np.inf),
        ("xi", -np.inf),
        ("n_candidates", None),
        ("beta", None),
    ],
)
def test_spec_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=f"key 'smo.{field}': must be "):
        AcquisitionSpec(Acquisition.EI, **{field: value})


class TestArgmax:
    def test_random_mode_uniform_and_reproducible(self):
        domain = BoxDomain(np.array([-1.0, 0.0]), np.array([1.0, 4.0]))
        spec = AcquisitionSpec(Acquisition.RANDOM)
        a = argmax_acquisition(spec, domain, None, -np.inf, RngStream(5, "acq"))
        b = argmax_acquisition(spec, domain, None, -np.inf, RngStream(5, "acq"))
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
        x = argmax_acquisition(spec, domain, gp, best, RngStream(0, "acq"))

        grid = np.linspace(0, 1, 10_001)[:, None]
        mean, var = gp.predict_batch(grid)
        ei = expected_improvement(mean, var, best, 0.0)
        x_grid = grid[int(np.argmax(ei)), 0]
        assert abs(x[0] - x_grid) < 1e-2

    def test_never_worse_than_best_raw_candidate(self):
        gp, _ = fit_1d_gp()
        domain = BoxDomain(np.array([0.0]), np.array([1.0]))
        spec = AcquisitionSpec(Acquisition.UCB, n_candidates=64, n_refine=2)
        rng = RngStream(3, "acq")
        x = argmax_acquisition(spec, domain, gp, 0.0, rng)
        cands = domain.sample(rng.generator(), spec.n_candidates)
        raw_best = float(np.max(score_batch(spec, cands, gp, 0.0)))
        assert score_batch(spec, x[None], gp, 0.0)[0] >= raw_best - 1e-12

    def test_stays_inside_domain_property(self):
        gen = np.random.default_rng(9)
        gp, _ = fit_1d_gp()
        domain = BoxDomain(np.array([0.2]), np.array([0.8]))
        for trial in range(10):
            spec = AcquisitionSpec(
                Acquisition.EI, n_candidates=int(gen.integers(4, 64)), n_refine=2
            )
            x = argmax_acquisition(
                spec, domain, gp, 0.5, RngStream(trial, "acq")
            )
            assert domain.contains(x)

    def test_invalid_domain_rejected(self):
        with pytest.raises(ValueError):
            BoxDomain(np.array([1.0]), np.array([1.0]))


# Dimension, feature layout and budget of the two benchmark workloads,
# synth1d-deup and levi13-mlp.
BENCH_LAYOUTS = {
    "synth1d": (1, ("log_variance",), 56),
    "levi13": (2, ("x", "seen_bit", "log_density", "log_variance"), 26),  # error model: the MLP
}


@functools.cache
def bench_layout_search(oracle_name):
    """(domain, model, best) of a DEUP-EI search on a benchmark layout, default settings,
    with as many points as the workload's last step sees."""
    dimension, features, n = BENCH_LAYOUTS[oracle_name]
    cfg = ExperimentConfig(
        oracle_name=oracle_name,
        dimension=dimension,
        n_init=n,
        budget=n,
        acquisition=Acquisition.DEUP_EI,
        feature_set=frozenset(Feature(f) for f in features),
    )
    oracle = make_oracle(oracle_name, dimension)
    gen = np.random.default_rng(0)
    X = oracle.domain.sample(gen, n)
    y = np.array([oracle.sample(x, gen, 1)[0] for x in X])
    with one_blas_thread():
        state = deup_init_state(Dataset(X, y), deup_fit(cfg), RngStream(0, "deup"))
    return oracle.domain, state.model, float(np.max(y))


class TestBlockScoring:
    """Host-pinned like `PINNED_TRACES` in test_smo.py: one BLAS thread, as `run_smo` runs."""

    @pytest.mark.parametrize("oracle_name", sorted(BENCH_LAYOUTS))
    @pytest.mark.parametrize("m", [2048, 2000, 2050])  # blocks of 256 rows; the last of 256, 464 and 258
    def test_blocks_keep_every_score_bit(self, oracle_name, m):
        domain, model, best = bench_layout_search(oracle_name)
        spec = AcquisitionSpec(Acquisition.DEUP_EI)
        X = domain.sample(np.random.default_rng(1), m)
        with one_blas_thread():
            whole = score_batch(spec, X, model, best)
            blocks = score_candidates(spec, X, model, best)
        assert blocks.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("oracle_name", sorted(BENCH_LAYOUTS))
    def test_search_memory_does_not_grow_with_candidates(self, oracle_name):
        domain, model, best = bench_layout_search(oracle_name)
        peaks = []
        with one_blas_thread():
            for m in (2048, 16384):
                spec = AcquisitionSpec(Acquisition.DEUP_EI, n_candidates=m)
                tracemalloc.start()
                try:
                    argmax_acquisition(spec, domain, model, best, RngStream(0, "acq"))
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                peaks.append(peak)
        assert peaks[1] < 2 * peaks[0], peaks
