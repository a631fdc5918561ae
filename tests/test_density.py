import numpy as np
import pytest

from deup.core import Dataset
from deup.density import kde_fit, silverman_bandwidth


def dataset_1d(values):
    return Dataset.from_arrays(np.asarray(values, dtype=float)[:, None], np.zeros(len(values)))


class TestKdeFit:
    def test_single_point_unit_bandwidth_closed_form(self):
        k = kde_fit(dataset_1d([0.0]), bandwidth=1.0)
        expected = -np.log(np.sqrt(2 * np.pi))
        assert abs(k.log_density(np.array([0.0])) - expected) < 1e-12

    def test_density_integrates_to_one(self):
        gen = np.random.default_rng(0)
        pts = gen.normal(size=100)
        k = kde_fit(dataset_1d(pts))
        lo = pts.min() - 10 * k.bandwidth
        hi = pts.max() + 10 * k.bandwidth
        grid = np.linspace(lo, hi, 20001)
        dens = np.exp(k.log_density_batch(grid[:, None]))
        integral = np.trapezoid(dens, grid)
        assert abs(integral - 1.0) < 1e-3

    def test_silverman_matches_rule_on_unit_variance_data(self):
        gen = np.random.default_rng(1)
        x = gen.normal(size=100)
        x = (x - x.mean()) / x.std(ddof=1)  # exact unit sample variance
        h = silverman_bandwidth(x[:, None])
        assert abs(h - 1.06 * 100 ** (-1 / 5)) < 1e-6

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            kde_fit(dataset_1d([0.0, 1.0]), bandwidth=0.0)

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError):
            kde_fit(Dataset())


class TestKdeLogDensity:
    def test_midpoint_lower_than_modes_for_small_bandwidth(self):
        k = kde_fit(dataset_1d([-1.0, 1.0]), bandwidth=0.5)
        at_mode = k.log_density(np.array([1.0]))
        at_mid = k.log_density(np.array([0.0]))
        assert at_mid < at_mode

    def test_far_query_stays_finite(self):
        k = kde_fit(dataset_1d([0.0, 0.5]), bandwidth=0.1)
        val = k.log_density(np.array([0.5 + 50 * 0.1 * 100]))
        assert np.isfinite(val)

    def test_matches_direct_summation(self):
        gen = np.random.default_rng(5)
        pts = gen.uniform(-2, 2, size=(5, 3))
        d = Dataset.from_arrays(pts, np.zeros(5))
        k = kde_fit(d, bandwidth=0.7)
        for _ in range(20):
            x = gen.uniform(-2, 2, size=3)
            direct = np.mean(
                [
                    np.prod(
                        np.exp(-0.5 * ((x - p) / 0.7) ** 2) / (0.7 * np.sqrt(2 * np.pi))
                    )
                    for p in pts
                ]
            )
            assert direct > 0
            assert abs(k.log_density(x) - np.log(direct)) < 1e-10

    def test_dimension_mismatch(self):
        k = kde_fit(dataset_1d([0.0]))
        with pytest.raises(ValueError):
            k.log_density(np.array([0.0, 1.0]))

    def test_finite_everywhere_property(self):
        gen = np.random.default_rng(9)
        pts = gen.normal(size=(20, 2))
        k = kde_fit(Dataset.from_arrays(pts, np.zeros(20)))
        queries = gen.uniform(-1e3, 1e3, size=(200, 2))
        assert np.all(np.isfinite(k.log_density_batch(queries)))

    def test_adding_point_never_decreases_density_there(self):
        gen = np.random.default_rng(13)
        for trial in range(10):
            pts = list(gen.normal(size=(6, 1)))
            x = gen.normal(size=1)
            h = 0.8
            before = kde_fit(Dataset.from_arrays(np.array(pts), np.zeros(6)), h)
            after = kde_fit(
                Dataset.from_arrays(np.array(pts + [x]), np.zeros(7)), h
            )
            assert after.log_density(x) >= before.log_density(x) - 1e-12
