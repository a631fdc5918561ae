"""Error-predictor machinery: stationarizing features, training modes, and
the epistemic-uncertainty query max(u(x) - a(x), 0), or u(x) with no a(x).

The error predictor u is trained on log((y - f(x))^2 + eps) targets built
from in-sample and out-of-sample rows; the seen bit and the feature context
track which side each row came from.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .core import HYPERPARAMETERS, Dataset, Feature, RngStream, cv_train_rows, schema_section, write_csv
from .density import KdePredictor, kde_fit
from .models import Learner

logger = logging.getLogger(__name__)

LOG_TARGET_EPS = 1e-10
# Floor under model variances before taking logs; posterior variances can be
# clamped to exactly zero at interpolated points.
VARIANCE_LOG_FLOOR = 1e-25

# A GP u is RBF (gp_fit's default kernel) with a searched noise and this many sweeps per restart.
ERROR_GP_MAX_SWEEPS = 10


def log_error_target(residual_sq) -> np.ndarray:
    return np.log(np.asarray(residual_sq, dtype=np.float64) + LOG_TARGET_EPS)


@dataclass(frozen=True)
class FeatureContext:
    """Main predictor f fitted on `dataset`, and the layout and estimators its features are built from."""

    main: object
    dataset: Dataset
    layout: tuple
    kde: KdePredictor | None = None
    variance_source: object | None = None  # f or the side GP; exposes predict_batch -> (mean, var)


def fit_feature_context(fit: DeupFit, main, d: Dataset, rng: RngStream) -> FeatureContext:
    """f = `main`, fitted by `fit.learner` on d, with the density / variance estimators `fit.layout` requires.

    The log-variance source is f itself when it is a GP, whose posterior
    variance doubles as the feature at no extra cost; an MLP f gets the side
    GP `fit.variance_gp`, fitted on d.
    """
    kde = kde_fit(d, fit.bandwidth) if Feature.LOG_DENSITY in fit.layout else None
    source = None
    if Feature.LOG_VARIANCE in fit.layout:
        source = main if fit.learner.kind == "gp" else fit.variance_gp.fit(d, rng.child("variance-gp"))
    return FeatureContext(main, d, fit.layout, kde, source)


def build_features_batch(context: FeatureContext, X: np.ndarray, variance: np.ndarray | None = None) -> np.ndarray:
    """Stationarizing feature rows for X, in the context's layout and against its dataset.

    `variance` is the variance source's posterior variance at X when the
    caller has already solved it; otherwise the source is queried here.
    """
    X = np.asarray(X, dtype=np.float64)
    cols = []
    for feat in context.layout:
        if feat is Feature.X:
            cols.append(X)
        elif feat is Feature.SEEN_BIT:
            cols.append(context.dataset.contains(X).astype(np.float64)[:, None])
        elif feat is Feature.LOG_DENSITY:
            cols.append(context.kde.log_density_batch(X)[:, None])
        elif feat is Feature.LOG_VARIANCE:
            var = context.variance_source.predict_batch(X)[1] if variance is None else variance
            cols.append(np.log(np.maximum(var, VARIANCE_LOG_FLOOR))[:, None])
    return np.hstack(cols)


@dataclass
class ConstantModel:
    """Fallback regressor used while fewer than two error rows exist."""

    value: float

    def predict_mean_batch(self, X: np.ndarray) -> np.ndarray:
        return np.full(len(X), self.value)


@dataclass
class ErrorPredictor:
    """Regressor over feature vectors with log-transformed squared-error targets.

    Queries are clamped into the training feature range: beyond it, a
    standardized zero-mean GP would revert toward the average log target,
    which the log-eps floor rows drag to a near-zero error estimate at
    never-seen variance levels, exactly inverting the exploration signal.
    Saturating instead predicts the error level of the most extreme features
    actually observed.
    """

    model: object  # GPPredictor, MLPPredictor, or ConstantModel
    feature_lows: np.ndarray | None = None
    feature_highs: np.ndarray | None = None

    def predict_log_error_batch(self, F: np.ndarray) -> np.ndarray:
        F = np.asarray(F, dtype=np.float64)
        if self.feature_lows is not None:
            F = np.clip(F, self.feature_lows, self.feature_highs)
        return self.model.predict_mean_batch(F)


def error_learner(layout: tuple, hyperparameters: dict | None = None) -> Learner:
    """The error model u for `layout` under `hyperparameters` ("section.key" names
    over the schema defaults, as in `ExperimentConfig.hyperparameters`).

    `deup.error_model = auto` is an MLP when the layout contains raw x, which a
    GP overfits, and a GP otherwise. An MLP u holds the [mlp] keys; a GP u holds
    `deup.error_gp_restarts` as n_restarts, ERROR_GP_MAX_SWEEPS and `gp.noise_floor`.
    """
    deup = schema_section("deup", hyperparameters)
    kind = deup["error_model"]
    if kind == "auto":
        kind = "mlp" if Feature.X in layout else "gp"
    if kind == "mlp":
        return Learner("mlp", schema_section("mlp", hyperparameters))
    noise_floor = schema_section("gp", hyperparameters)["noise_floor"]
    return Learner(
        kind, {"n_restarts": deup["error_gp_restarts"], "max_sweeps": ERROR_GP_MAX_SWEEPS, "noise_floor": noise_floor}
    )


def fit_error_predictor(d_u: Dataset, learner: Learner, rng: RngStream, previous=None) -> ErrorPredictor:
    """Fit u = `learner` on the error dataset.

    With fewer than two rows (pretraining disabled and nothing acquired yet)
    u degenerates to a constant at the observed target or the log-eps floor.
    `previous` is the regressor of the u this fit replaces, passed to
    `Learner.fit`: an MLP u warm-starts from it when it is an MLP too.
    """
    if len(d_u) < 2:
        value = float(d_u.targets()[0]) if len(d_u) == 1 else float(np.log(LOG_TARGET_EPS))
        return ErrorPredictor(model=ConstantModel(value))
    F = d_u.inputs()
    return ErrorPredictor(learner.fit(d_u, rng, previous), F.min(axis=0), F.max(axis=0))


@dataclass
class AleatoricEstimator:
    """Nonnegative estimate a(x) = max(fn(x), 0) of irreducible noise variance."""

    fn: object  # X -> noise variance per row
    training_targets: np.ndarray | None = None

    def values(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return np.maximum(np.asarray(self.fn(X), dtype=np.float64), 0.0)


def estimate_aleatoric_from_replicates(groups, regressor: Learner, rng: RngStream) -> AleatoricEstimator:
    """Fit a(x) on unbiased per-group variance targets K/(K-1) * biased variance.

    Each group is (x, outcomes) with K >= 2 outcomes observed at the same x.
    """
    inputs, targets = [], []
    for x, ys in groups:
        ys = np.asarray(ys, dtype=np.float64)
        if len(ys) < 2:
            raise ValueError(f"replicate group at {x} has K={len(ys)} < 2 outcomes")
        inputs.append(np.asarray(x, dtype=np.float64).reshape(-1))
        targets.append(float(np.var(ys, ddof=1)))
    X = np.stack(inputs)
    t = np.array(targets)
    model = regressor.fit(Dataset(X, t), rng)
    return AleatoricEstimator(model.predict_mean_batch, training_targets=t)


@dataclass
class UncertaintyModel:
    """Error predictor, aleatoric estimator (None: a(x) = 0) and feature context, with f, queried together."""

    error: ErrorPredictor
    aleatoric: AleatoricEstimator | None
    context: FeatureContext

    @property
    def main(self):
        return self.context.main

    def predict_batch(self, X: np.ndarray):
        """(mean, epistemic) at each row of X, shaped like a GP's (mean, variance).

        When the main GP is the log-variance source, its posterior is solved
        once and serves both the mean and the feature.
        """
        if self.context.variance_source is self.main:
            mean, var = self.main.predict_batch(X)
            return mean, self.epistemic_batch(X, var)
        return self.predict_mean_batch(X), self.epistemic_batch(X)

    def predict_mean_batch(self, X: np.ndarray) -> np.ndarray:
        return self.main.predict_mean_batch(X)

    def epistemic_batch(self, X: np.ndarray, variance: np.ndarray | None = None) -> np.ndarray:
        """max(u(features(x)) - a(x), 0) per row; with no a(x) this is u, the total-uncertainty estimate.

        `variance` is the variance source's posterior variance at X, if already solved."""
        F = build_features_batch(self.context, X, variance)
        u = np.exp(self.error.predict_log_error_batch(F))
        if self.aleatoric is None:
            return u
        return np.maximum(u - self.aleatoric.values(X), 0.0)


@dataclass(frozen=True)
class DeupFit:
    """What every DEUP fit shares: main learner f, feature layout, error model u
    (default `error_learner(layout)`), KDE bandwidth and side variance GP."""

    learner: Learner
    layout: tuple
    u: Learner | None = None
    bandwidth: float | None = None
    variance_gp: Learner = Learner("gp")

    def __post_init__(self):
        if self.u is None:
            object.__setattr__(self, "u", error_learner(self.layout))

    def main(self, d: Dataset, rng: RngStream, labels: tuple) -> FeatureContext:
        """Fit f on d under stream labels[0], then its feature context under labels[1]."""
        return fit_feature_context(self, self.learner.fit(d, rng.child(labels[0])), d, rng.child(labels[1]))

    def state(self, context: FeatureContext, d_u: Dataset, rng: RngStream, error_label: str, aleatoric=None):
        """The step-0 state of f and its `context`, and u fitted on d_u under stream `error_label`."""
        error = fit_error_predictor(d_u, self.u, rng.child(error_label))
        return DeupState(self, d_u, UncertaintyModel(error, aleatoric, context), rng)


def error_rows(context: FeatureContext, d: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """(features, targets): the error rows of the context's f at the rows of d,
    with log squared errors as targets."""
    X = d.inputs()
    targets = log_error_target((d.targets() - context.main.predict_mean_batch(X)) ** 2)
    return build_features_batch(context, X), targets


def deup_fixed_train(
    train: Dataset,
    out_of_sample: Dataset,
    fit: DeupFit,
    rng: RngStream,
    aleatoric: AleatoricEstimator | None = None,
) -> DeupState:
    """Fixed-training-set mode: fit f on train, then u on errors over train + held-out.

    Every pair in train and out_of_sample contributes one error row; rows from
    train carry seen bit 1, held-out rows 0. Returns the state at step 0, whose
    d_u holds those rows. An empty out_of_sample is logged as a warning.
    """
    if len(train) < 1:
        raise ValueError("train dataset is empty")
    context = fit.main(train, rng, ("main", "features"))

    d_u = Dataset(*error_rows(context, train))
    if len(out_of_sample):
        d_u = d_u.append(*error_rows(context, out_of_sample))
    else:
        logger.warning("deup_fixed_train: no out-of-sample data; u sees in-sample errors only")

    return fit.state(context, d_u, rng, "error", aleatoric)


def deup_pretrain_cv(d_init: Dataset, k: int, n_pretrain: int, fit: DeupFit, rng: RngStream) -> Dataset:
    """Pre-fill the error dataset by cross-validation before any acquisition.

    Repeats {random split into k folds; fit f and features on k-1 folds; add an
    error row for every point of d_init} until at least n_pretrain rows exist.
    Held-out-fold rows get seen bit 0, in-fold rows 1. Each pass permutes d_init;
    its k-1 training folds are the first `cv_train_rows(n, k)` rows, the held-out fold the rest.
    """
    n = len(d_init)
    if not 2 <= k <= n:
        raise ValueError(f"cv needs 2 <= k <= {n} folds for {n} examples, got {k}")
    n_train = cv_train_rows(n, k)
    if n_train < 2:
        raise ValueError(f"cv with k={k} folds over n={n} examples trains f on {n_train} < 2 rows")
    d_u = Dataset()
    pass_idx = 0
    while len(d_u) < n_pretrain:
        pass_idx += 1
        perm = rng.child(f"split-{pass_idx}").generator().permutation(n)
        d_tilde = d_init.take(perm[:n_train])
        context = fit.main(d_tilde, rng, (f"fit-{pass_idx}", f"features-{pass_idx}"))
        d_u = d_u.append(*error_rows(context, d_init))
    return d_u


@dataclass
class DeupState:
    """Everything the interactive loop carries between acquisitions; `update` is `deup_interactive_step`."""

    fit: DeupFit
    d_u: Dataset
    model: UncertaintyModel
    rng: RngStream
    step: int = 0

    def update(self, x, y: float) -> DeupState:
        return deup_interactive_step(self, x, y)


def deup_init_state(
    d_init: Dataset,
    fit: DeupFit,
    rng: RngStream,
    k: int = HYPERPARAMETERS["deup.cv_folds"],
    n_pretrain: int | None = None,
    aleatoric: AleatoricEstimator | None = None,
) -> DeupState:
    """Fit the initial model, optionally pre-filling D_u by cross-validation.

    n_pretrain defaults to 4 rows per initial training point; 0 disables
    pretraining (u then starts from the first acquired point's rows).
    """
    if n_pretrain is None:
        n_pretrain = 4 * len(d_init)
    d_u = deup_pretrain_cv(d_init, k, n_pretrain, fit, rng.child("pretrain")) if n_pretrain > 0 else Dataset()
    return fit.state(fit.main(d_init, rng, ("main-0", "features-0")), d_u, rng, "error-0", aleatoric)


def deup_interactive_step(state: DeupState, x_acq, y_acq: float) -> DeupState:
    """One acquisition update; D_u grows by exactly two rows.

    The acquired point contributes a pre-refit row (seen bit 0, error of the
    current f) and a post-refit row (seen bit 1, error of the refitted f);
    the main predictor, features and u are all refit on the grown datasets.
    An MLP u is refit from the weights of the u it replaces, on a quarter of
    the from-scratch epochs. The input state is never mutated, so failures
    leave it usable.
    """
    X, y = np.reshape(x_acq, (1, -1)), [y_acq]
    acquired = Dataset(X, y)
    fit, old = state.fit, state.model
    pre = error_rows(old.context, acquired)

    t = state.step + 1
    context = fit.main(old.context.dataset.append(X, y), state.rng, (f"main-{t}", f"features-{t}"))
    post = error_rows(context, acquired)

    new_du = state.d_u.append(*pre).append(*post)
    error = fit_error_predictor(new_du, fit.u, state.rng.child(f"error-{t}"), old.error.model)
    model = replace(old, error=error, context=context)
    return replace(state, d_u=new_du, model=model, step=t)


def export_error_dataset(d_u: Dataset, path) -> None:
    """Write D_u as CSV with columns feature_0..feature_{k-1}, target_log_error."""
    rows = np.column_stack([d_u.inputs(), d_u.targets()])
    write_csv(path, [f"feature_{i}" for i in range(rows.shape[1] - 1)] + ["target_log_error"], rows)
