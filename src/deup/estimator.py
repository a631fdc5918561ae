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

from .core import Dataset, Feature, RngStream, split_dataset
from .density import KdePredictor, kde_fit
from .models import Learner, gp_fit, mlp_fit

logger = logging.getLogger(__name__)

LOG_TARGET_EPS = 1e-10
# Floor under model variances before taking logs; posterior variances can be
# clamped to exactly zero at interpolated points.
VARIANCE_LOG_FLOOR = 1e-25

ERROR_GP_DEFAULTS = {"n_restarts": 4, "max_sweeps": 10}


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
) -> FeatureContext:
    """Fit the density / variance estimators the layout requires on d.

    A main-model GP can be passed as `variance_source` so its posterior
    variance doubles as the feature at no extra cost; otherwise a side GP is
    fitted when the layout asks for log variance.
    """
    kde = kde_fit(d, bandwidth) if Feature.LOG_DENSITY in layout else None
    if Feature.LOG_VARIANCE not in layout:
        variance_source = None
    elif variance_source is None:
        variance_source = gp_fit(d, None, rng.child("variance-gp"))
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
    if X.ndim == 1:
        X = X[None, :]
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


def build_features(d: Dataset, x, context: FeatureContext, layout: tuple) -> np.ndarray:
    return build_features_batch(d, np.asarray(x, dtype=np.float64)[None, :], context, layout)[0]


@dataclass
class ConstantModel:
    """Fallback regressor used while fewer than two error rows exist."""

    value: float

    def predict_mean_batch(self, X: np.ndarray) -> np.ndarray:
        return np.full(len(np.atleast_2d(X)), self.value)


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
    layout: tuple
    feature_lows: np.ndarray | None = None
    feature_highs: np.ndarray | None = None
    epsilon: float = LOG_TARGET_EPS

    def predict_log_error_batch(self, F: np.ndarray) -> np.ndarray:
        F = np.asarray(F, dtype=np.float64)
        if F.ndim == 1:
            F = F[None, :]
        if self.feature_lows is not None:
            F = np.clip(F, self.feature_lows, self.feature_highs)
        return self.model.predict_mean_batch(F)

    def predict_error_batch(self, F: np.ndarray) -> np.ndarray:
        return np.exp(self.predict_log_error_batch(F))

    def predict_error(self, f_row: np.ndarray) -> float:
        return float(self.predict_error_batch(np.asarray(f_row)[None, :])[0])


def fit_error_predictor(d_u: Dataset, layout: tuple, rng: RngStream, cfg: dict | None = None) -> ErrorPredictor:
    """Fit u on the error dataset; GP unless the layout includes raw x.

    A GP error model overfits raw coordinates, so layouts containing x default
    to the MLP. `cfg` may force 'gp' or 'mlp' via key 'error_model' and carries
    the chosen model's hyperparameters. With fewer than two rows (pretraining
    disabled and nothing acquired yet) u degenerates to a constant at the
    observed target or the log-eps floor.
    """
    cfg = dict(cfg or {})
    choice = cfg.pop("error_model", "auto")
    if choice == "auto":
        choice = "mlp" if Feature.X in layout else "gp"
    if len(d_u) < 2:
        value = float(d_u[0].y) if len(d_u) == 1 else float(np.log(LOG_TARGET_EPS))
        return ErrorPredictor(model=ConstantModel(value), layout=layout)
    if choice == "gp":
        model = gp_fit(d_u, {**ERROR_GP_DEFAULTS, **cfg}, rng)
    elif choice == "mlp":
        model = mlp_fit(d_u, cfg, rng)
    else:
        raise ValueError(f"unknown error model {choice!r}")
    F = d_u.inputs()
    return ErrorPredictor(
        model=model,
        layout=layout,
        feature_lows=F.min(axis=0),
        feature_highs=F.max(axis=0),
    )


@dataclass
class AleatoricEstimator:
    """Nonnegative estimate a(x) of irreducible noise variance."""

    mode: str  # "zero" | "known" | "replicates"
    model: object | None = None
    known_fn: object | None = None
    training_inputs: np.ndarray | None = None
    training_targets: np.ndarray | None = None

    def values(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if self.mode == "zero":
            return np.zeros(len(X))
        if self.mode == "known":
            return np.maximum(np.asarray(self.known_fn(X), dtype=np.float64), 0.0)
        return np.maximum(self.model.predict_mean_batch(X), 0.0)

    def value(self, x) -> float:
        return float(self.values(np.asarray(x, dtype=np.float64)[None, :])[0])


def zero_aleatoric() -> AleatoricEstimator:
    return AleatoricEstimator(mode="zero")


def known_aleatoric(fn) -> AleatoricEstimator:
    """Wrap a callable X -> noise variance array as a KNOWN-mode estimator."""
    return AleatoricEstimator(mode="known", known_fn=fn)


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
    return AleatoricEstimator(
        mode="replicates", model=model, training_inputs=X, training_targets=t
    )


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
        u = self.error.predict_error_batch(F)
        a = self.aleatoric.values(X)
        return np.maximum(u - a, 0.0)

    def epistemic(self, x) -> float:
        return float(self.epistemic_batch(np.asarray(x, dtype=np.float64)[None, :])[0])


def _fit_main(learner: Learner, d: Dataset, layout: tuple, rng: RngStream, labels: tuple, bandwidth):
    """Fit f on d under stream labels[0], then the feature context under labels[1].

    A main GP doubles as the log-variance source; an MLP main gets a side GP.
    """
    main = learner.fit(d, rng.child(labels[0]))
    variance_source = main if learner.kind == "gp" else None
    context = fit_feature_context(d, layout, rng.child(labels[1]), bandwidth, variance_source)
    return main, context


def deup_fixed_train(
    train: Dataset,
    out_of_sample: Dataset,
    learner: Learner,
    layout: tuple,
    rng: RngStream,
    aleatoric: AleatoricEstimator | None = None,
    error_cfg: dict | None = None,
    bandwidth: float | None = None,
) -> UncertaintyModel:
    """Fixed-training-set mode: fit f on train, then u on errors over train + held-out.

    Every pair in train and out_of_sample contributes one error row; rows from
    train carry seen bit 1, held-out rows 0. With an empty out_of_sample the
    model is flagged in-sample-only in its metadata.
    """
    if len(train) < 1:
        raise ValueError("train dataset is empty")
    main, context = _fit_main(learner, train, layout, rng, ("main", "features"), bandwidth)

    meta = {}
    if len(out_of_sample) == 0:
        meta["in_sample_only"] = True
        logger.warning("deup_fixed_train: no out-of-sample data; u sees in-sample errors only")

    d_u = Dataset()
    for part in (train, out_of_sample):
        if len(part) == 0:
            continue
        X = part.inputs()
        F = build_features_batch(train, X, context, layout)
        resid_sq = (part.targets() - main.predict_mean_batch(X)) ** 2
        t = log_error_target(resid_sq)
        for i in range(len(part)):
            d_u.append_xy(F[i], t[i])

    error = fit_error_predictor(d_u, layout, rng.child("error"), error_cfg)
    return UncertaintyModel(
        main=main,
        error=error,
        aleatoric=aleatoric or zero_aleatoric(),
        dataset=train,
        context=context,
        layout=layout,
        meta={**meta, "n_error_rows": len(d_u), "error_dataset": d_u},
    )


def deup_pretrain_cv(
    d_init: Dataset,
    k: int,
    n_pretrain: int,
    learner: Learner,
    layout: tuple,
    rng: RngStream,
    bandwidth: float | None = None,
) -> Dataset:
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
        labels = (f"fit-{pass_idx}", f"features-{pass_idx}")
        main, context = _fit_main(learner, d_tilde, layout, rng, labels, bandwidth)
        F = build_features_batch(d_tilde, X_all, context, layout)
        t = log_error_target((y_all - main.predict_mean_batch(X_all)) ** 2)
        for i in range(len(d_init)):
            d_u.append_xy(F[i], t[i])
    return d_u


@dataclass
class DeupState:
    """Everything the interactive loop carries between acquisitions."""

    learner: Learner
    layout: tuple
    dataset: Dataset
    d_u: Dataset
    model: UncertaintyModel
    rng: RngStream
    step: int = 0
    error_cfg: dict | None = None
    bandwidth: float | None = None


def deup_init_state(
    d_init: Dataset,
    learner: Learner,
    layout: tuple,
    rng: RngStream,
    k: int = 2,
    n_pretrain: int | None = None,
    aleatoric: AleatoricEstimator | None = None,
    error_cfg: dict | None = None,
    bandwidth: float | None = None,
) -> DeupState:
    """Fit the initial model, optionally pre-filling D_u by cross-validation.

    n_pretrain defaults to 4 rows per initial training point; 0 disables
    pretraining (u then starts from the first acquired point's rows).
    """
    if n_pretrain is None:
        n_pretrain = 4 * len(d_init)
    d_u = Dataset()
    if n_pretrain > 0:
        d_u = deup_pretrain_cv(
            d_init, k, n_pretrain, learner, layout, rng.child("pretrain"), bandwidth
        )
    main, context = _fit_main(learner, d_init, layout, rng, ("main-0", "features-0"), bandwidth)
    error = fit_error_predictor(d_u, layout, rng.child("error-0"), error_cfg)
    model = UncertaintyModel(
        main=main,
        error=error,
        aleatoric=aleatoric or zero_aleatoric(),
        dataset=d_init,
        context=context,
        layout=layout,
        meta={"pretrain_rows": len(d_u)},
    )
    return DeupState(
        learner=learner,
        layout=layout,
        dataset=d_init,
        d_u=d_u,
        model=model,
        rng=rng,
        step=0,
        error_cfg=error_cfg,
        bandwidth=bandwidth,
    )


def deup_interactive_step(state: DeupState, x_acq, y_acq: float) -> DeupState:
    """One acquisition update; D_u grows by exactly two rows.

    The acquired point contributes a pre-refit row (seen bit 0, error of the
    current f) and a post-refit row (seen bit 1, error of the refitted f);
    the main predictor, features and u are all refit on the grown datasets.
    The input state is never mutated, so failures leave it usable.
    """
    x_acq = np.asarray(x_acq, dtype=np.float64).reshape(-1)
    y_acq = float(y_acq)
    layout = state.layout

    f_pre = build_features(state.dataset, x_acq, state.model.context, layout)
    resid_pre = (y_acq - state.model.predict_mean_batch(x_acq[None, :])[0]) ** 2
    t_pre = float(log_error_target(resid_pre))

    new_d = state.dataset.copy()
    new_d.append_xy(x_acq, y_acq)

    t = state.step + 1
    main, context = _fit_main(
        state.learner, new_d, layout, state.rng, (f"main-{t}", f"features-{t}"), state.bandwidth
    )
    f_post = build_features(new_d, x_acq, context, layout)
    resid_post = (y_acq - main.predict_mean_batch(x_acq[None, :])[0]) ** 2
    t_post = float(log_error_target(resid_post))

    new_du = state.d_u.copy()
    new_du.append_xy(f_pre, t_pre)
    new_du.append_xy(f_post, t_post)
    error = fit_error_predictor(new_du, layout, state.rng.child(f"error-{t}"), state.error_cfg)

    model = UncertaintyModel(
        main=main,
        error=error,
        aleatoric=state.model.aleatoric,
        dataset=new_d,
        context=context,
        layout=layout,
        meta=dict(state.model.meta),
    )
    return replace(state, dataset=new_d, d_u=new_du, model=model, step=t)


def export_error_dataset(d_u: Dataset, path) -> None:
    """Write D_u as CSV with columns feature_0..feature_{k-1}, target_log_error."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        width = d_u.dimension if len(d_u) else 0
        writer.writerow([f"feature_{i}" for i in range(width)] + ["target_log_error"])
        for ex in d_u:
            writer.writerow([repr(float(v)) for v in ex.x] + [repr(ex.y)])
