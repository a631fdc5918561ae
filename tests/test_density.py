import numpy as np
import pytest
from scipy.special import logsumexp

from deup.core import ConfigError, Dataset, ExperimentConfig, load_config
from deup.density import _logsumexp_rows, kde_fit, silverman_bandwidth


def dataset_1d(values):
    return Dataset(np.asarray(values, dtype=float)[:, None], np.zeros(len(values)))


class TestKdeFit:
    def test_single_point_unit_bandwidth_closed_form(self):
        k = kde_fit(dataset_1d([0.0]), bandwidth=1.0)
        expected = -np.log(np.sqrt(2 * np.pi))
        (val,) = k.log_density_batch(np.array([[0.0]]))
        assert abs(val - expected) < 1e-12

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

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_rejects_nonpositive_bandwidth(self, bandwidth):
        with pytest.raises(ValueError, match="key 'kde.bandwidth': must be "):
            kde_fit(dataset_1d([0.0, 1.0]), bandwidth=bandwidth)

    @pytest.mark.parametrize("bandwidth", [1e-200, 1e155])
    def test_rejects_a_bandwidth_whose_square_is_not_a_finite_normal_float(self, bandwidth, tmp_path):
        # 1e-200 squares to 0.0 (NaN at a training point), 1e155 past the largest float (OverflowError).
        message = f"key 'kde.bandwidth': must be in [1e-150, 1e150], got {bandwidth}"
        with pytest.raises(ConfigError) as fitted:
            kde_fit(dataset_1d([0.0, 1.0]), bandwidth=bandwidth)
        cfg = ExperimentConfig(oracle_name="synth1d", dimension=1, hyperparameters={"kde.bandwidth": bandwidth})
        with pytest.raises(ConfigError) as validated:
            cfg.validate()
        path = tmp_path / "exp.cfg"
        path.write_text(f"[oracle]\nname = synth1d\n\n[kde]\nbandwidth = {bandwidth}\n")
        with pytest.raises(ConfigError) as loaded:
            load_config(path)
        assert str(fitted.value) == str(validated.value) == str(loaded.value) == message

    @pytest.mark.parametrize("bandwidth", [1e-150, 1e150])
    def test_bandwidths_at_the_bounds_give_finite_log_densities(self, bandwidth):
        k = kde_fit(dataset_1d([0.0, 1.0]), bandwidth=bandwidth)
        assert np.isfinite(k.log_density_batch(np.array([[0.0], [0.5], [2.0]]))).all()

    def test_a_query_past_the_overflow_at_the_smallest_bandwidth_reads_minus_inf(self):
        # 1e4 squared over 1e-300 is 1e308, a float; 2e4 squared over it is not.
        k = kde_fit(dataset_1d([0.0, 1.0]), bandwidth=1e-150)
        assert np.isfinite(k.log_density_batch(np.array([[1e4]])))
        assert k.log_density_batch(np.array([[2e4]]))[0] == -np.inf

    def test_rejects_a_silverman_bandwidth_whose_square_is_subnormal(self):
        h = silverman_bandwidth(np.array([[0.0], [1e-155]]))
        assert 0.0 < h**2 < np.finfo(float).tiny
        with pytest.raises(ConfigError, match=rf"^key 'kde.bandwidth': must be in \[1e-150, 1e150\], got {h}$"):
            kde_fit(dataset_1d([0.0, 1e-155]))

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError):
            kde_fit(Dataset())


class TestKdeLogDensity:
    def test_midpoint_lower_than_modes_for_small_bandwidth(self):
        k = kde_fit(dataset_1d([-1.0, 1.0]), bandwidth=0.5)
        at_mode, at_mid = k.log_density_batch(np.array([[1.0], [0.0]]))
        assert at_mid < at_mode

    def test_far_query_stays_finite(self):
        k = kde_fit(dataset_1d([0.0, 0.5]), bandwidth=0.1)
        (val,) = k.log_density_batch(np.array([[0.5 + 50 * 0.1 * 100]]))
        assert np.isfinite(val)

    def test_matches_direct_summation(self):
        gen = np.random.default_rng(5)
        pts = gen.uniform(-2, 2, size=(5, 3))
        d = Dataset(pts, np.zeros(5))
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
            assert abs(k.log_density_batch(x[None])[0] - np.log(direct)) < 1e-10

    def test_dimension_mismatch(self):
        k = kde_fit(dataset_1d([0.0]))
        with pytest.raises(ValueError):
            k.log_density_batch(np.array([[0.0, 1.0]]))

    def test_finite_everywhere_property(self):
        gen = np.random.default_rng(9)
        pts = gen.normal(size=(20, 2))
        k = kde_fit(Dataset(pts, np.zeros(20)))
        queries = gen.uniform(-1e3, 1e3, size=(200, 2))
        assert np.all(np.isfinite(k.log_density_batch(queries)))

    def test_adding_point_never_decreases_density_there(self):
        gen = np.random.default_rng(13)
        for trial in range(10):
            pts = list(gen.normal(size=(6, 1)))
            x = gen.normal(size=1)
            h = 0.8
            before = kde_fit(Dataset(np.array(pts), np.zeros(6)), h)
            after = kde_fit(
                Dataset(np.array(pts + [x]), np.zeros(7)), h
            )
            assert after.log_density_batch(x[None])[0] >= before.log_density_batch(x[None])[0] - 1e-12


class TestLogSumExpRows:
    """The KDE's own log-sum-exp must keep `scipy.special.logsumexp`'s bits."""

    def test_random_blocks_with_ties_match_scipy_bitwise(self):
        gen = np.random.default_rng(21)
        for _ in range(300):
            rows, n = int(gen.integers(1, 8)), int(gen.integers(1, 150))
            a = -gen.exponential(scale=10 ** gen.uniform(-3, 3), size=(rows, n))
            a[:, : int(gen.integers(1, n + 1))] = a[:, :1]  # the row max may repeat
            if gen.random() < 0.3:
                a = np.round(a, 1)  # many ties, also below the max
            assert _logsumexp_rows(a).tobytes() == logsumexp(a, axis=1).tobytes()

    @pytest.mark.parametrize("points", [[[0.3]], [[0.0], [0.0], [1.0]], [[0.5, -1.0]]])
    def test_log_density_of_one_point_and_duplicate_kdes_matches_scipy_bitwise(self, points):
        pts = np.array(points)
        k = kde_fit(Dataset(pts, np.zeros(len(pts))), bandwidth=0.4)
        Q = np.vstack([pts, np.random.default_rng(2).uniform(-3, 3, size=(20, pts.shape[1]))])
        diff = Q[:, None, :] - pts[None, :, :]
        sq = np.einsum("ijk,ijk->ij", diff, diff)
        n, d = pts.shape
        log_norm = np.log(n) + d * np.log(0.4 * np.sqrt(2.0 * np.pi))
        expected = logsumexp(-0.5 * sq / 0.4**2, axis=1) - log_norm
        assert k.log_density_batch(Q).tobytes() == expected.tobytes()
