"""Error-predictor machinery: stationarizing features, training modes, and
the epistemic-uncertainty query max(u(x) - a(x), 0).

The error predictor u is trained on log((y - f(x))^2 + eps) targets built
from in-sample and out-of-sample rows; the seen bit and the feature context
track which side each row came from.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .core import HYPERPARAMETERS, Dataset, Feature, RngStream, split_dataset
from .density import KdePredictor, kde_fit
from .models import Learner, gp_fit, mlp_fit

logger = logging.getLogger(__name__)

LOG_TARGET_EPS = 1e-10
# Floor under model variances before taking logs; posterior variances can be
# clamped to exactly zero at interpolated points.
VARIANCE_LOG_FLOOR = 1e-25

ERROR_GP_DEFAULTS = {"n_restarts": HYPERPARAMETERS["deup.error_gp_restarts"], "max_sweeps": 10}


class StaleFeaturesError(RuntimeError):
    """Feature context was fitted on a different dataset than the one queried."""


def log_error_target(residual_sq) -> np.ndarray:
    return np.log(np.asarray(residual_sq, dtype=np.float64) + LOG_TARGET_EPS)


@dataclass
class FeatureContext:
    """Estimators backing the feature layout, pinned to one dataset state."""

    dataset_fingerprint: bytes
    kde: KdePredictor | None = None
    variance_source: object | None = None  # exposes predict_batch -> (mean, var)


def fit_feature_context(
    d: Dataset,
    layout: tuple,
    rng: RngStream,
    bandwidth: float | None = None,
    variance_source=None,
    gp_cfg: dict | None = None,
) -> FeatureContext:
    """Fit the density / variance estimators the layout requires on d.

    A main-model GP can be passed as `variance_source` so its posterior
    variance doubles as the feature at no extra cost; otherwise a side GP with
    settings `gp_cfg` is fitted when the layout asks for log variance.
    """
    kde = kde_fit(d, bandwidth) if Feature.LOG_DENSITY in layout else None
    if Feature.LOG_VARIANCE not in layout:
        variance_source = None
    elif variance_source is None:
        variance_source = gp_fit(d, gp_cfg, rng.child("variance-gp"))
    return FeatureContext(
        dataset_fingerprint=d.fingerprint(),
        kde=kde,
        variance_source=variance_source,
    )


def build_features_batch(
    d: Dataset, X: np.ndarray, context: FeatureContext, layout: tuple, variance: np.ndarray | None = None
) -> np.ndarray:
    """Stationarizing feature rows for X under the context fitted on d.

    `variance` is the variance source's posterior variance at X when the
    caller has already solved it; otherwise the source is queried here.
    """
    if context.dataset_fingerprint != d.fingerprint():
        raise StaleFeaturesError("feature context is stale: dataset changed since fit")
    X = np.asarray(X, dtype=np.float64)
    cols = []
    for feat in layout:
        if feat is Feature.X:
            cols.append(X)
        elif feat is Feature.SEEN_BIT:
            cols.append(np.array([[1.0 if d.contains(x) else 0.0] for x in X]))
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


def fit_error_predictor(d_u: Dataset, layout: tuple, rng: RngStream, cfg: dict | None = None) -> ErrorPredictor:
    """Fit u on the error dataset; GP unless the layout includes raw x.

    A GP error model overfits raw coordinates, so layouts containing x default
    to the MLP. `cfg` may force 'gp' or 'mlp' via key 'error_model' and carries
    the chosen model's hyperparameters. With fewer than two rows (pretraining
    disabled and nothing acquired yet) u degenerates to a constant at the
    observed target or the log-eps floor.
    """
    cfg = dict(cfg or {})
    choice = cfg.pop("error_model", HYPERPARAMETERS["deup.error_model"])
    if choice == "auto":
        choice = "mlp" if Feature.X in layout else "gp"
    if len(d_u) < 2:
        value = float(d_u[0].y) if len(d_u) == 1 else float(np.log(LOG_TARGET_EPS))
        return ErrorPredictor(model=ConstantModel(value))
    if choice == "gp":
        model = gp_fit(d_u, {**ERROR_GP_DEFAULTS, **cfg}, rng)
    elif choice == "mlp":
        model = mlp_fit(d_u, cfg, rng)
    else:
        raise ValueError(f"unknown error model {choice!r}")
    F = d_u.inputs()
    return ErrorPredictor(
        model=model,
        feature_lows=F.min(axis=0),
        feature_highs=F.max(axis=0),
    )


@dataclass
class AleatoricEstimator:
    """Nonnegative estimate a(x) = max(fn(x), 0) of irreducible noise variance."""

    fn: object  # X -> noise variance per row
    training_targets: np.ndarray | None = None

    def values(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return np.maximum(np.asarray(self.fn(X), dtype=np.float64), 0.0)


def zero_aleatoric() -> AleatoricEstimator:
    return AleatoricEstimator(lambda X: np.zeros(len(X)))


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
    model = regressor.fit(Dataset.from_arrays(X, t), rng)
    return AleatoricEstimator(model.predict_mean_batch, training_targets=t)


@dataclass
class UncertaintyModel:
    """Main predictor, error predictor, and aleatoric estimator queried together."""

    main: object
    error: ErrorPredictor
    aleatoric: AleatoricEstimator
    dataset: Dataset
    context: FeatureContext
    layout: tuple
    meta: dict = field(default_factory=dict)

    def predict_batch(self, X: np.ndarray):
        """(mean, epistemic) at each row of X, shaped like a GP's (mean, variance).

        When the main GP is the log-variance source, its posterior is solved
        once and serves both the mean and the feature.
        """
        if self.context.variance_source is self.main:
            mean, var = self.main.predict_batch(X)
            return mean, self._epistemic(X, var)
        return self.predict_mean_batch(X), self.epistemic_batch(X)

    def predict_mean_batch(self, X: np.ndarray) -> np.ndarray:
        return self.main.predict_mean_batch(X)

    def epistemic_batch(self, X: np.ndarray) -> np.ndarray:
        """max(u(features(x)) - a(x), 0) per row; with a == 0 this is the total-uncertainty estimate."""
        return self._epistemic(X, None)

    def _epistemic(self, X: np.ndarray, variance: np.ndarray | None) -> np.ndarray:
        F = build_features_batch(self.dataset, X, self.context, self.layout, variance)
        u = np.exp(self.error.predict_log_error_batch(F))
        a = self.aleatoric.values(X)
        return np.maximum(u - a, 0.0)


@dataclass(frozen=True)
class DeupFit:
    """The settings every DEUP fit shares: main learner f, feature layout, and
    the settings of the error model u, the KDE bandwidth and the side GP."""

    learner: Learner
    layout: tuple
    error_cfg: dict | None = None
    bandwidth: float | None = None
    gp_cfg: dict | None = None

    def main(self, d: Dataset, rng: RngStream, labels: tuple):
        """Fit f on d under stream labels[0], then the feature context under labels[1].

        A main GP doubles as the log-variance source; an MLP main gets a side GP
        with settings `gp_cfg`.
        """
        main = self.learner.fit(d, rng.child(labels[0]))
        variance_source = main if self.learner.kind == "gp" else None
        context = fit_feature_context(
            d, self.layout, rng.child(labels[1]), self.bandwidth, variance_source, self.gp_cfg
        )
        return main, context

    def error_rows(self, d: Dataset, main, context: FeatureContext, X: np.ndarray, y: np.ndarray):
        """(features, log-error targets) of f = `main`, fitted on d with `context`, at rows (X, y)."""
        F = build_features_batch(d, X, context, self.layout)
        return F, log_error_target((y - main.predict_mean_batch(X)) ** 2)

    def error(self, d_u: Dataset, rng: RngStream) -> ErrorPredictor:
        return fit_error_predictor(d_u, self.layout, rng, self.error_cfg)


def deup_fixed_train(
    train: Dataset,
    out_of_sample: Dataset,
    fit: DeupFit,
    rng: RngStream,
    aleatoric: AleatoricEstimator | None = None,
) -> UncertaintyModel:
    """Fixed-training-set mode: fit f on train, then u on errors over train + held-out.

    Every pair in train and out_of_sample contributes one error row; rows from
    train carry seen bit 1, held-out rows 0. With an empty out_of_sample the
    model is flagged in-sample-only in its metadata.
    """
    if len(train) < 1:
        raise ValueError("train dataset is empty")
    main, context = fit.main(train, rng, ("main", "features"))

    meta = {}
    if len(out_of_sample) == 0:
        meta["in_sample_only"] = True
        logger.warning("deup_fixed_train: no out-of-sample data; u sees in-sample errors only")

    d_u = Dataset()
    for part in (train, out_of_sample):
        if len(part):
            for f_row, t in zip(*fit.error_rows(train, main, context, part.inputs(), part.targets())):
                d_u.append_xy(f_row, t)

    return UncertaintyModel(
        main=main,
        error=fit.error(d_u, rng.child("error")),
        aleatoric=aleatoric or zero_aleatoric(),
        dataset=train,
        context=context,
        layout=fit.layout,
        meta={**meta, "n_error_rows": len(d_u), "error_dataset": d_u},
    )


def deup_pretrain_cv(d_init: Dataset, k: int, n_pretrain: int, fit: DeupFit, rng: RngStream) -> Dataset:
    """Pre-fill the error dataset by cross-validation before any acquisition.

    Repeats {random split into k folds; fit f and features on k-1 folds; add an
    error row for every point of d_init} until at least n_pretrain rows exist.
    Held-out-fold rows get seen bit 0, in-fold rows 1.
    """
    if k < 2:
        raise ValueError(f"cv needs k >= 2 folds, got {k}")
    d_u = Dataset()
    pass_idx = 0
    X_all = d_init.inputs()
    y_all = d_init.targets()
    while len(d_u) < n_pretrain:
        pass_idx += 1
        folds = split_dataset(d_init, k, rng.child(f"split-{pass_idx}"))
        d_tilde = Dataset()
        for fold in folds[:-1]:
            for ex in fold:
                d_tilde.append(ex)
        main, context = fit.main(d_tilde, rng, (f"fit-{pass_idx}", f"features-{pass_idx}"))
        for f_row, t in zip(*fit.error_rows(d_tilde, main, context, X_all, y_all)):
            d_u.append_xy(f_row, t)
    return d_u


@dataclass
class DeupState:
    """Everything the interactive loop carries between acquisitions."""

    fit: DeupFit
    d_u: Dataset
    model: UncertaintyModel
    rng: RngStream
    step: int = 0


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
    main, context = fit.main(d_init, rng, ("main-0", "features-0"))
    model = UncertaintyModel(
        main=main,
        error=fit.error(d_u, rng.child("error-0")),
        aleatoric=aleatoric or zero_aleatoric(),
        dataset=d_init,
        context=context,
        layout=fit.layout,
        meta={"pretrain_rows": len(d_u)},
    )
    return DeupState(fit=fit, d_u=d_u, model=model, rng=rng)


def deup_interactive_step(state: DeupState, x_acq, y_acq: float) -> DeupState:
    """One acquisition update; D_u grows by exactly two rows.

    The acquired point contributes a pre-refit row (seen bit 0, error of the
    current f) and a post-refit row (seen bit 1, error of the refitted f);
    the main predictor, features and u are all refit on the grown datasets.
    The input state is never mutated, so failures leave it usable.
    """
    X = np.asarray(x_acq, dtype=np.float64).reshape(1, -1)
    y = np.array([float(y_acq)])
    fit, old = state.fit, state.model
    pre = fit.error_rows(old.dataset, old.main, old.context, X, y)

    new_d = old.dataset.copy()
    new_d.append_xy(X[0], y[0])
    t = state.step + 1
    main, context = fit.main(new_d, state.rng, (f"main-{t}", f"features-{t}"))
    post = fit.error_rows(new_d, main, context, X, y)

    new_du = state.d_u.copy()
    for F, target in (pre, post):
        new_du.append_xy(F[0], target[0])
    error = fit.error(new_du, state.rng.child(f"error-{t}"))
    model = replace(old, main=main, error=error, dataset=new_d, context=context, meta=dict(old.meta))
    return replace(state, d_u=new_du, model=model, step=t)


def export_error_dataset(d_u: Dataset, path) -> None:
    """Write D_u as CSV with columns feature_0..feature_{k-1}, target_log_error."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        width = d_u.dimension if len(d_u) else 0
        writer.writerow([f"feature_{i}" for i in range(width)] + ["target_log_error"])
        for ex in d_u:
            writer.writerow([repr(float(v)) for v in ex.x] + [repr(ex.y)])
