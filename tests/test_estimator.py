import logging

import numpy as np
import pytest
from scipy.stats import spearmanr

from deup.core import Dataset, Feature, RngStream
from deup.estimator import (
    LOG_TARGET_EPS,
    AleatoricEstimator,
    ConstantModel,
    DeupFit,
    build_features_batch,
    deup_fixed_train,
    deup_init_state,
    deup_interactive_step,
    deup_pretrain_cv,
    error_learner,
    estimate_aleatoric_from_replicates,
    export_error_dataset,
    fit_feature_context,
    log_error_target,
)
from deup.models import GPPredictor, Learner, MLPPredictor

GP_NOISELESS = {"noise_variance": 0.0, "n_restarts": 4}
FULL_LAYOUT = (Feature.X, Feature.SEEN_BIT, Feature.LOG_DENSITY, Feature.LOG_VARIANCE)


def make_1d_dataset(n, seed=0, fn=lambda x: np.sin(6 * x)):
    gen = np.random.default_rng(seed)
    X = np.sort(gen.uniform(0, 1, size=n))[:, None]
    return Dataset(X, fn(X[:, 0]))


class TestBuildFeatures:
    def test_seen_bit_flips_on_insertion(self):
        d = make_1d_dataset(8)
        x_new = np.array([0.734])
        learner = Learner("gp", GP_NOISELESS)
        gp = learner.fit(d, RngStream(0, "fit"))
        ctx = fit_feature_context(DeupFit(learner, FULL_LAYOUT), gp, d, RngStream(0, "feat"))
        before = build_features_batch(ctx, x_new[None, :])[0]
        assert before[1] == 0.0

        d2 = d.append(x_new[None, :], [0.5])
        gp2 = learner.fit(d2, RngStream(1, "fit"))
        ctx2 = fit_feature_context(DeupFit(learner, FULL_LAYOUT), gp2, d2, RngStream(1, "feat"))
        after = build_features_batch(ctx2, x_new[None, :])[0]
        assert after[1] == 1.0

    def test_variance_only_layout_single_component(self):
        d = make_1d_dataset(6)
        gp = Learner("gp", GP_NOISELESS).fit(d, RngStream(0, "fit"))
        layout = (Feature.LOG_VARIANCE,)
        ctx = fit_feature_context(DeupFit(Learner("gp", GP_NOISELESS), layout), gp, d, RngStream(0, "feat"))
        row = build_features_batch(ctx, np.array([0.7])[None, :])[0]
        assert row.shape == (1,)

    def test_log_variance_matches_direct_posterior_call(self):
        d = make_1d_dataset(6)
        gp = Learner("gp", GP_NOISELESS).fit(d, RngStream(0, "fit"))
        layout = (Feature.LOG_VARIANCE,)
        ctx = fit_feature_context(DeupFit(Learner("gp", GP_NOISELESS), layout), gp, d, RngStream(0, "feat"))
        x = np.array([0.45])
        row = build_features_batch(ctx, x[None, :])[0]
        _, (var,) = gp.predict_batch(x[None])
        assert abs(row[0] - np.log(var)) < 1e-12

    def test_context_keeps_the_dataset_it_was_fitted_on(self):
        d = make_1d_dataset(6)
        layout = (Feature.SEEN_BIT, Feature.LOG_VARIANCE)
        gp = Learner("gp", GP_NOISELESS).fit(d, RngStream(0, "fit"))
        ctx = fit_feature_context(DeupFit(Learner("gp", GP_NOISELESS), layout), gp, d, RngStream(0, "feat"))
        x = np.array([[0.9]])
        before = build_features_batch(ctx, x)
        d.append(x, [0.0])
        assert ctx.dataset is d and ctx.layout == layout and len(d) == 6
        np.testing.assert_array_equal(build_features_batch(ctx, x), before)
        assert before[0, 0] == 0.0


class TestFixedTrain:
    def test_interpolator_train_targets_hit_log_eps(self):
        X = np.linspace(0, 1, 8)[:, None]
        train = Dataset(X, np.sin(6 * X[:, 0]))
        oos = make_1d_dataset(4, seed=1)
        model = deup_fixed_train(
            train, oos, DeupFit(Learner("gp", GP_NOISELESS), (Feature.LOG_VARIANCE,)), RngStream(0, "deup")
        ).model
        # An exact interpolator has ~zero in-sample residuals, so the error rows
        # for train points sit at the log-eps floor.
        resid_sq = (train.targets() - model.main.predict_batch(X)[0]) ** 2
        targets = log_error_target(resid_sq)
        assert np.all(targets <= np.log(LOG_TARGET_EPS) + 0.02)

    def test_error_row_count(self):
        train = make_1d_dataset(8)
        oos = make_1d_dataset(5, seed=2)
        state = deup_fixed_train(
            train, oos, DeupFit(Learner("gp", GP_NOISELESS), (Feature.LOG_VARIANCE,)), RngStream(0, "deup")
        )
        assert len(state.d_u) == len(train) + len(oos) and state.step == 0

    def test_empty_out_of_sample_flagged(self, caplog):
        train = make_1d_dataset(8)
        with caplog.at_level(logging.WARNING, logger="deup.estimator"):
            state = deup_fixed_train(
                train, Dataset(), DeupFit(Learner("gp", GP_NOISELESS), (Feature.LOG_VARIANCE,)), RngStream(0, "deup")
            )
        assert "no out-of-sample data" in caplog.text
        assert len(state.d_u) == len(train)

    def test_error_predictor_ranks_true_squared_error(self):
        # Oracle known; an imperfect main fit should leave u ranking the true
        # squared error of the main predictor on a held-out grid.
        truth = lambda x: np.sin(4.0 * x) * np.exp(-0.5 * x)
        gen = np.random.default_rng(3)
        X_train = np.sort(gen.uniform(0.0, 1.0, size=10))[:, None]
        train = Dataset(X_train, truth(X_train[:, 0]))
        X_oos = np.sort(gen.uniform(0.0, 2.0, size=10))[:, None]
        oos = Dataset(X_oos, truth(X_oos[:, 0]))

        model = deup_fixed_train(
            train,
            oos,
            DeupFit(Learner("gp", GP_NOISELESS), (Feature.LOG_VARIANCE,)),
            RngStream(1, "deup"),
        ).model
        grid = np.linspace(0.0, 2.0, 200)[:, None]
        u_vals = model.epistemic_batch(grid)
        true_err = (model.main.predict_batch(grid)[0] - truth(grid[:, 0])) ** 2
        rho = spearmanr(u_vals, true_err).statistic
        assert rho >= 0.8


class TestPretrainCv:
    def test_default_row_budget_is_four_per_point(self):
        d = make_1d_dataset(6)
        state = deup_init_state(
            d, DeupFit(Learner("gp", GP_NOISELESS), (Feature.LOG_VARIANCE,)), RngStream(0, "deup")
        )
        assert len(state.d_u) >= 4 * len(d)

    def test_one_pass_adds_one_row_per_point(self):
        d = make_1d_dataset(6)
        d_u = deup_pretrain_cv(
            d, 2, 1, DeupFit(Learner("gp", GP_NOISELESS), (Feature.LOG_VARIANCE,)), RngStream(0, "cv")
        )
        assert len(d_u) == 6

    def test_seen_bits_reflect_fold_membership(self):
        d = make_1d_dataset(6)
        layout = (Feature.SEEN_BIT,)
        d_u = deup_pretrain_cv(d, 2, 1, DeupFit(Learner("gp", GP_NOISELESS), layout), RngStream(0, "cv"))
        bits = sorted(d_u.inputs()[:, 0])
        # K=2 folds over 6 points: 3 in-fold rows (bit 1), 3 held-out rows (bit 0)
        assert bits == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]

    @pytest.mark.parametrize("k", [1, 7])
    def test_rejects_fold_counts_outside_two_to_n(self, k):
        fit = DeupFit(Learner("gp", GP_NOISELESS), (Feature.SEEN_BIT,))
        with pytest.raises(ValueError, match="2 <= k <= 6"):
            deup_pretrain_cv(make_1d_dataset(6), k, 1, fit, RngStream(0, "cv"))

    def test_rejects_a_split_that_trains_f_on_one_row(self):
        # 2 <= k <= n holds, but the first fold of 2 rows keeps 2 - 2 // 2 = 1 row for f.
        fit = DeupFit(Learner("gp", GP_NOISELESS), (Feature.SEEN_BIT,))
        with pytest.raises(ValueError, match=r"k=2 folds over n=2 examples trains f on 1 < 2 rows"):
            deup_pretrain_cv(make_1d_dataset(2), 2, 1, fit, RngStream(0, "cv"))

    def test_n_folds_hold_out_one_row_each(self):
        fit = DeupFit(Learner("gp", GP_NOISELESS), (Feature.SEEN_BIT,))
        d_u = deup_pretrain_cv(make_1d_dataset(6), 6, 1, fit, RngStream(0, "cv"))
        assert sorted(d_u.inputs()[:, 0]) == [0.0] + [1.0] * 5


def mlp_params(model) -> list:
    """Copies of an MLP's weights and biases; empty for any other model."""
    return [p.copy() for p in model.weights + model.biases] if isinstance(model, MLPPredictor) else []


class TestInteractiveStep:
    def setup_state(self, n_init=6, layout=(Feature.LOG_VARIANCE,), n_pretrain=None):
        d = make_1d_dataset(n_init)
        return deup_init_state(
            d,
            DeupFit(Learner("gp", GP_NOISELESS), layout),
            RngStream(0, "deup"),
            n_pretrain=n_pretrain,
        )

    def test_error_dataset_grows_by_two(self):
        state = self.setup_state()
        n0 = len(state.d_u)
        state = deup_interactive_step(state, np.array([0.77]), 0.3)
        assert len(state.d_u) == n0 + 2

    def test_appended_rows_flip_seen_bit(self):
        state = self.setup_state(layout=(Feature.SEEN_BIT, Feature.LOG_VARIANCE), n_pretrain=0)
        state = deup_interactive_step(state, np.array([0.77]), 0.3)
        assert state.d_u.inputs()[-2, 0] == 0.0  # pre-refit row
        assert state.d_u.inputs()[-1, 0] == 1.0  # post-refit row

    def test_post_refit_row_is_near_log_eps_for_interpolator(self):
        state = self.setup_state(n_pretrain=0)
        state = deup_interactive_step(state, np.array([0.77]), 0.3)
        assert state.d_u.targets()[-1] <= np.log(LOG_TARGET_EPS) + 3.0

    def test_bookkeeping_n0_plus_2t(self):
        state = self.setup_state()
        n0 = len(state.d_u)
        xs = [0.13, 0.37, 0.61, 0.93]
        for t, xv in enumerate(xs, start=1):
            state = deup_interactive_step(state, np.array([xv]), float(np.sin(3 * xv)))
            assert len(state.d_u) == n0 + 2 * t
            assert len(state.model.context.dataset) == 6 + t

    @pytest.mark.parametrize("layout", [(Feature.LOG_VARIANCE,), FULL_LAYOUT], ids=["gp-error", "mlp-error"])
    def test_original_state_not_mutated(self, layout):
        state = self.setup_state(layout=layout)
        n_d, n_du = len(state.model.context.dataset), len(state.d_u)
        u = state.model.error.model
        params = mlp_params(u)
        new_state = deup_interactive_step(state, np.array([0.42]), 0.1)
        assert len(state.model.context.dataset) == n_d
        assert len(state.d_u) == n_du
        assert new_state.step == state.step + 1
        # An MLP u's weights, which the refit starts from, are left as they were.
        assert isinstance(u, MLPPredictor) == (Feature.X in layout)
        for before, after in zip(params, mlp_params(u), strict=True):
            np.testing.assert_array_equal(before, after)
        assert new_state.model.error.model is not u


class TestAleatoricEstimator:
    def test_zero_spread_group_gives_zero_target(self):
        groups = [(np.array([0.0]), [1.0, 1.0, 1.0]), (np.array([1.0]), [0.0, 2.0])]
        est = estimate_aleatoric_from_replicates(groups, Learner("gp", {"n_restarts": 2}), RngStream(0, "a"))
        assert est.training_targets[0] == 0.0

    def test_two_outcome_group_hand_value(self):
        # {0, 2}: biased variance 1, unbiased scaling K/(K-1) = 2 -> target 2.
        groups = [(np.array([0.0]), [0.0, 2.0]), (np.array([1.0]), [1.0, 1.0])]
        est = estimate_aleatoric_from_replicates(groups, Learner("gp", {"n_restarts": 2}), RngStream(0, "a"))
        assert est.training_targets[0] == 2.0

    def test_unbiased_under_constant_noise(self):
        gen = np.random.default_rng(7)
        sigma2 = 0.25
        groups = []
        for _ in range(500):
            x = gen.uniform(0, 1, size=1)
            groups.append((x, np.sqrt(sigma2) * gen.standard_normal(5)))
        est = estimate_aleatoric_from_replicates(
            groups, Learner("mlp", {"epochs": 30}), RngStream(1, "a")
        )
        mean_target = float(np.mean(est.training_targets))
        assert 0.2375 <= mean_target <= 0.2625

    def test_small_group_rejected(self):
        with pytest.raises(ValueError):
            estimate_aleatoric_from_replicates(
                [(np.array([0.0]), [1.0])], Learner("gp"), RngStream(0, "a")
            )

    def test_predictions_clamped_nonnegative(self):
        gen = np.random.default_rng(8)
        groups = [
            (gen.uniform(0, 1, size=1), gen.normal(size=3) * 0.01) for _ in range(20)
        ]
        est = estimate_aleatoric_from_replicates(groups, Learner("gp", {"n_restarts": 2}), RngStream(0, "a"))
        vals = est.values(gen.uniform(-1, 2, size=(50, 1)))
        assert np.all(vals >= 0.0)


class TestEpistemicQuery:
    def test_zero_aleatoric_equals_error_prediction(self):
        train = make_1d_dataset(8)
        oos = make_1d_dataset(4, seed=5)
        model = deup_fixed_train(
            train, oos, DeupFit(Learner("gp", GP_NOISELESS), (Feature.LOG_VARIANCE,)), RngStream(0, "deup")
        ).model
        assert model.aleatoric is None
        x = np.array([0.9])
        F = build_features_batch(model.context, x[None, :])
        u_val = np.exp(model.error.predict_log_error_batch(F))[0]
        assert model.epistemic_batch(x[None])[0] == u_val

    def test_clamped_at_zero_when_aleatoric_dominates(self):
        train = make_1d_dataset(8)
        oos = make_1d_dataset(4, seed=6)
        model = deup_fixed_train(
            train,
            oos,
            DeupFit(Learner("gp", GP_NOISELESS), (Feature.LOG_VARIANCE,)),
            RngStream(0, "deup"),
            aleatoric=AleatoricEstimator(lambda X: np.full(len(X), 1e12)),
        ).model
        assert model.epistemic_batch(np.array([[0.9]]))[0] == 0.0

    def test_near_zero_at_training_points_of_interpolator(self):
        # Noiseless linear truth: the GP interpolates and pretrained u sees
        # only tiny errors, so EU at a training point is tiny.
        X = np.linspace(0, 1, 8)[:, None]
        train = Dataset(X, 2.0 * X[:, 0] + 1.0)
        oos_X = np.linspace(0.05, 0.95, 5)[:, None]
        oos = Dataset(oos_X, 2.0 * oos_X[:, 0] + 1.0)
        model = deup_fixed_train(
            train, oos, DeupFit(Learner("gp", GP_NOISELESS), (Feature.LOG_VARIANCE,)), RngStream(2, "deup")
        ).model
        assert model.epistemic_batch(X[3:4])[0] <= 1e-4


class TestErrorLearner:
    @pytest.mark.parametrize("layout", [(Feature.LOG_VARIANCE,), FULL_LAYOUT], ids=["without-x", "with-x"])
    def test_deup_fit_without_u_takes_the_default_error_learner(self, layout):
        u = DeupFit(Learner("gp", GP_NOISELESS), layout).u
        assert u == error_learner(layout)
        assert u.kind == ("mlp" if Feature.X in layout else "gp")

    def test_rejects_an_unknown_kind_when_built(self):
        with pytest.raises(ValueError, match="unknown learner kind 'svm'"):
            error_learner((Feature.LOG_VARIANCE,), {"deup.error_model": "svm"})


class TestUncertaintyModelPredictBatch:
    """predict_batch is (predict_mean_batch, epistemic_batch), bit for bit, in every setup."""

    SMALL_MLP = {"epochs": 30, "hidden_units": 16}

    @pytest.mark.parametrize(
        "main_kind, layout, n_pretrain, error_type",
        [
            ("gp", (Feature.LOG_VARIANCE,), None, GPPredictor),
            ("gp", FULL_LAYOUT, None, MLPPredictor),
            ("mlp", (Feature.LOG_VARIANCE,), None, GPPredictor),
            ("gp", (Feature.LOG_VARIANCE,), 0, ConstantModel),
        ],
        ids=["gp-main-gp-error", "gp-main-mlp-error", "mlp-main-side-gp", "constant-error"],
    )
    def test_equals_mean_and_epistemic(self, main_kind, layout, n_pretrain, error_type):
        learner = Learner(main_kind, GP_NOISELESS if main_kind == "gp" else self.SMALL_MLP)
        state = deup_init_state(
            make_1d_dataset(6),
            DeupFit(learner, layout, error_learner(layout, {f"mlp.{k}": v for k, v in self.SMALL_MLP.items()})),
            RngStream(0, "deup"),
            n_pretrain=n_pretrain,
        )
        model = state.model
        assert isinstance(model.error.model, error_type)
        assert (model.context.variance_source is model.main) == (main_kind == "gp")
        X = np.linspace(-0.2, 1.2, 37)[:, None]
        mean, eu = model.predict_batch(X)
        assert mean.tobytes() == model.predict_mean_batch(X).tobytes()
        assert eu.tobytes() == model.epistemic_batch(X).tobytes()


def test_log_target_round_trip_property():
    # exp(log(e + eps)) recovers e up to the floor: within [e, e + 2*eps].
    gen = np.random.default_rng(21)
    errors = np.concatenate([np.zeros(5), np.exp(gen.uniform(-40, 5, size=200))])
    back = np.exp(log_error_target(errors))
    assert np.all(back >= errors)
    assert np.all(back <= errors + 2 * LOG_TARGET_EPS)


class TestErrorDatasetExport:
    def test_csv_columns_and_rows(self, tmp_path):
        d = make_1d_dataset(6)
        layout = (Feature.SEEN_BIT, Feature.LOG_VARIANCE)
        d_u = deup_pretrain_cv(d, 2, 12, DeupFit(Learner("gp", GP_NOISELESS), layout), RngStream(0, "cv"))
        path = tmp_path / "du.csv"
        export_error_dataset(d_u, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "feature_0,feature_1,target_log_error"
        assert len(lines) == 1 + len(d_u)
