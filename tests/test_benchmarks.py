import numpy as np
import pytest

from deup.benchmarks import (
    SYNTH1D_X_STAR,
    ackley,
    levi13,
    make_oracle,
    synth1d,
)
from deup.core import RngStream
from deup.estimator import estimate_aleatoric_from_replicates
from deup.models import Learner


def ackley_reference(x, a=20.0, b=0.2, c=2 * np.pi):
    """Independent re-evaluation, term by term, without numpy reductions."""
    d = len(x)
    s1 = sum(float(v) ** 2 for v in x) / d
    s2 = sum(np.cos(c * float(v)) for v in x) / d
    return a * np.exp(-b * np.sqrt(s1)) + np.exp(s2) - a - np.e


class TestAckley:
    def test_origin_is_global_maximum_value_zero(self):
        for d in (1, 2, 10):
            assert ackley(np.zeros(d)) == 0.0

    def test_agrees_with_independent_reimplementation(self):
        x = np.zeros(10)
        x[0] = 1.0
        assert abs(ackley(x) - ackley_reference(x)) < 1e-12
        gen = np.random.default_rng(0)
        for _ in range(50):
            v = gen.uniform(-10, 15, size=int(gen.integers(1, 12)))
            assert abs(ackley(v) - ackley_reference(v)) < 1e-12

    def test_negative_away_from_origin(self):
        gen = np.random.default_rng(1)
        for d in (2, 5, 10):
            X = gen.uniform(-10, 15, size=(10_000 // 3, d))
            X = X[np.any(np.abs(X) > 1e-9, axis=1)]
            assert np.all(ackley(X) < 0)


class TestLevi13:
    def test_maximum_at_one_one(self):
        assert abs(levi13(1.0, 1.0)) < 1e-15

    def test_hand_evaluated_origin(self):
        assert levi13(0.0, 0.0) == -2.0

    def test_nonpositive_on_domain(self):
        gen = np.random.default_rng(2)
        pts = gen.uniform(-10, 10, size=(10_000, 2))
        assert np.all(levi13(pts[:, 0], pts[:, 1]) <= 0)


class TestSynth1d:
    def test_normalized_peak(self):
        assert synth1d(SYNTH1D_X_STAR) == 1.0

    def test_grid_maximum_matches_documented_optimum(self):
        grid = np.linspace(0, 1, 100_001)
        vals = synth1d(grid)
        i = int(np.argmax(vals))
        assert abs(grid[i] - SYNTH1D_X_STAR) < 1e-3
        assert abs(vals[i] - 1.0) < 1e-3
        assert np.all(vals <= 1.0 + 1e-12)

    def test_at_least_three_local_maxima(self):
        grid = np.linspace(0, 1, 100_001)
        vals = synth1d(grid)
        interior = (vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])
        assert int(np.sum(interior)) >= 3


class TestOracle:
    def test_zero_noise_samples_bitwise_equal(self):
        o = make_oracle("synth1d")
        x = np.array([0.3])
        ys = o.sample(x, RngStream(0, "oracle").generator(), replicates=4)
        assert np.all(ys == o.true_batch(x[None])[0])

    def test_constant_noise_variance(self):
        o = make_oracle("synth1d", noise=0.5)
        ys = o.sample(np.array([0.5]), RngStream(1, "oracle").generator(), replicates=100_000)
        assert 0.2375 <= np.var(ys, ddof=1) <= 0.2625

    def test_draw_samples_points_then_one_oracle_value_per_point(self, monkeypatch):
        o = make_oracle("ackley", dimension=3, noise=0.2)
        calls = []
        real = type(o).sample
        monkeypatch.setattr(type(o), "sample", lambda self, *a: calls.append(a) or real(self, *a))
        X, y = o.draw(RngStream(0, "x").generator(), RngStream(0, "y").generator(), 5)
        y_gen = RngStream(0, "y").generator()
        np.testing.assert_array_equal(X, o.domain.sample(RngStream(0, "x").generator(), 5))
        np.testing.assert_array_equal(y, [real(o, x, y_gen, 1)[0] for x in X])
        assert len(calls) == 5 and y.shape == (5,)

    def test_out_of_domain_rejected(self):
        o = make_oracle("levi13")
        with pytest.raises(ValueError):
            o.sample(np.array([11.0, 0.0]), RngStream(0, "oracle").generator())

    def test_replicates_feed_aleatoric_estimator(self):
        o = make_oracle("synth1d", noise=0.3)
        rng = RngStream(3, "oracle")
        groups = []
        for i, x in enumerate(np.linspace(0.1, 0.9, 8)):
            groups.append((np.array([x]), o.sample(np.array([x]), rng.child(str(i)).generator(), replicates=5)))
        est = estimate_aleatoric_from_replicates(groups, Learner("gp"), RngStream(0, "fit"))
        assert est.values(np.array([[0.5]]))[0] >= 0.0

    def test_known_optimum_unbeaten(self):
        # Dense grid for the low-dimensional oracles, random probing for Ackley-5.
        o1 = make_oracle("synth1d")
        grid = np.linspace(0, 1, 200_001)[:, None]
        assert np.max(o1.true_batch(grid)) <= o1.known_optimum[1] + 1e-9

        o2 = make_oracle("levi13")
        axis = np.linspace(-10, 10, 501)
        mesh = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        assert np.max(o2.true_batch(mesh)) <= o2.known_optimum[1] + 1e-9

        o3 = make_oracle("ackley", dimension=5)
        gen = np.random.default_rng(4)
        X = gen.uniform(-10, 15, size=(1_000_000, 5))
        assert np.max(o3.true_batch(X)) <= o3.known_optimum[1] + 1e-9

    def test_registry_and_default_dimensions(self):
        assert make_oracle("levi13").domain.dimension == 2
        assert make_oracle("synth1d").domain.dimension == 1
        with pytest.raises(ValueError):
            make_oracle("rosenbrock")
        with pytest.raises(ValueError):
            make_oracle("ackley")  # dimension required

    def test_make_oracle_takes_the_name_as_given(self):
        # Only load_config lower-cases a name, as validate() expects.
        with pytest.raises(ValueError, match="unknown oracle 'Synth1d'"):
            make_oracle("Synth1d")
