"""Shared data model: datasets, named RNG streams, experiment configuration,
the scoped one-BLAS-thread limiter, and the CSV and JSON writers of every
output file."""

from __future__ import annotations

import configparser
import contextlib
import csv
import ctypes
import enum
import functools
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

_UINT64_MASK = (1 << 64) - 1


class ConfigError(ValueError):
    """Config cannot be parsed, or names an unknown section/key or choice."""


class ValidationError(ValueError):
    """A structural invariant of a config or dataset is violated."""


class NumericsError(RuntimeError):
    """A numerical routine failed beyond recovery (e.g. Cholesky after max jitter)."""


class Acquisition(enum.Enum):
    EI = "ei"
    UCB = "ucb"
    DEUP_EI = "deup_ei"
    DEUP_UCB = "deup_ucb"
    RANDOM = "random"

    @property
    def uses_error_model(self) -> bool:
        return self in (Acquisition.DEUP_EI, Acquisition.DEUP_UCB)


class Feature(enum.Enum):
    """Inputs available to the error predictor, in canonical layout order."""

    X = "x"
    SEEN_BIT = "seen_bit"
    LOG_DENSITY = "log_density"
    LOG_VARIANCE = "log_variance"


FEATURE_ORDER = (Feature.X, Feature.SEEN_BIT, Feature.LOG_DENSITY, Feature.LOG_VARIANCE)


class AleatoricMode(enum.Enum):
    ZERO = "zero"
    REPLICATES = "replicates"
    KNOWN = "known"


class Dataset:
    """Immutable pair of read-only float64 arrays: inputs (n, d) and targets (n,).

    The constructor copies its arguments and is the one place that checks
    shape and finiteness; the unchecked LAPACK calls in `models` rely on it.
    `append` and `take` return new datasets. Membership (`contains`) uses
    exact coordinate equality: acquired points are appended verbatim, so
    bitwise comparison is safe. It is not suitable for user-supplied
    near-duplicates.
    """

    def __init__(self, X=np.empty((0, 0)), y=np.empty(0)):
        X = np.array(X, dtype=np.float64)
        y = np.array(y, dtype=np.float64)
        if X.ndim != 2 or y.shape != (len(X),):
            raise ValidationError(f"need inputs (n, d) and targets (n,), got {X.shape} and {y.shape}")
        if not np.all(np.isfinite(X)):
            raise ValidationError("example input has non-finite coordinates")
        if not np.all(np.isfinite(y)):
            raise ValidationError("example target is not finite")
        X.setflags(write=False)
        y.setflags(write=False)
        self._X, self._y = X, y

    def append(self, X, y) -> "Dataset":
        """A new dataset: these rows, then the rows of (X, y)."""
        rows = Dataset(X, y)
        if not len(self):
            return rows
        if rows._X.shape[1] != self._X.shape[1]:
            raise ValidationError(f"dimension mismatch: got {rows._X.shape[1]}, dataset has {self._X.shape[1]}")
        return Dataset(np.vstack([self._X, rows._X]), np.concatenate([self._y, rows._y]))

    def take(self, idx) -> "Dataset":
        """A new dataset of the rows at `idx`, in that order."""
        return Dataset(self._X[idx], self._y[idx])

    def contains(self, X: np.ndarray) -> np.ndarray:
        """Per row of the (m, d) batch X: whether it equals a stored input bit for bit."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if not len(self):
            return np.zeros(len(X), dtype=bool)
        rows, stored = X.view(np.uint64), self._X.view(np.uint64)
        return (rows[:, None, :] == stored[None, :, :]).all(axis=2).any(axis=1)

    def inputs(self) -> np.ndarray:
        return self._X

    def targets(self) -> np.ndarray:
        return self._y

    def __len__(self):
        return len(self._y)


@dataclass(frozen=True)
class RngStream:
    """Named, reproducible random stream derived from (seed, label).

    Identical (seed, label) pairs yield identical generators; distinct labels
    yield statistically independent streams, so consumers never share draw
    order.
    """

    seed: int
    label: str

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed) & _UINT64_MASK)

    def generator(self) -> np.random.Generator:
        digest = hashlib.sha256(self.label.encode("utf-8")).digest()
        words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
        return np.random.default_rng(np.random.SeedSequence([self.seed, *words]))

    def child(self, suffix: str) -> "RngStream":
        return RngStream(self.seed, f"{self.label}/{suffix}")


# Config schema: section -> {key: (type, default)}. `None` default means the
# key is optional with behavior documented where it is consumed.
_SCHEMA = {
    "oracle": {
        "name": (str, "ackley"),
        "dimension": (int, None),
        "noise": (float, 0.0),
    },
    "smo": {
        "n_init": (int, 20),
        "budget": (int, 120),
        "acquisition": (str, "deup_ei"),
        "seed": (int, 0),
        "n_candidates": (int, 2048),
        "n_refine": (int, 5),
        "beta": (float, 2.0),
        "xi": (float, 0.01),
    },
    "deup": {
        "features": (str, "log_variance"),
        "aleatoric": (str, "zero"),
        "n_pretrain": (int, None),  # default 4 * n_init, resolved at run time
        "cv_folds": (int, 2),
        "main_model": (str, "gp"),
        "error_model": (str, "auto"),
        "error_gp_restarts": (int, 4),
        "replicates_k": (int, 5),
    },
    "gp": {
        "kernel": (str, "rbf"),
        "n_restarts": (int, 8),
        "noise_floor": (float, 1e-6),
        "noise_variance": (float, None),  # fixed observation noise if set
        "max_sweeps": (int, 12),
    },
    "mlp": {
        "epochs": (int, 400),
        "learning_rate": (float, 1e-3),
        "batch_size": (int, 256),
        "hidden_layers": (int, 3),
        "hidden_units": (int, 128),
    },
    "kde": {
        "bandwidth": (float, None),  # None -> Silverman's rule
    },
}


# Schema keys held as typed ExperimentConfig fields; every other key is a
# hyperparameter, named "section.key" in ExperimentConfig.hyperparameters.
_FIELD_KEYS = {
    "oracle.name", "oracle.dimension", "smo.n_init", "smo.budget",
    "smo.acquisition", "smo.seed", "deup.features", "deup.aleatoric",
}
_DEFAULTS = {f"{s}.{k}": default for s, keys in _SCHEMA.items() for k, (_, default) in keys.items()}
HYPERPARAMETERS = {key: default for key, default in _DEFAULTS.items() if key not in _FIELD_KEYS}
# Keys whose value is one of a fixed set of lower-case names; `load_config`
# lower-cases what it reads, `validate()` rejects anything else.
_CHOICES = {
    "smo.acquisition": [a.value for a in Acquisition],
    "deup.aleatoric": [m.value for m in AleatoricMode],
    "deup.main_model": ["gp", "mlp"],
    "deup.error_model": ["auto", "gp", "mlp"],
    "gp.kernel": ["rbf", "matern52"],
}


def _choice(key: str, raw: str, allowed) -> str:
    value = raw.strip().lower()
    if value not in allowed:
        raise ConfigError(f"key '{key}': expected one of {', '.join(allowed)}, got {raw!r}")
    return value


def _features(raw: str) -> frozenset:
    names = [t.strip() for t in raw.split(",") if t.strip()]
    return frozenset(Feature(_choice("deup.features", n, [f.value for f in Feature])) for n in names)


def schema_section(name: str, hyperparameters: dict | None = None) -> dict:
    """One section's hyperparameters by bare key: `hyperparameters` ("section.key"
    names) over the schema defaults, with optional keys that are unset left out."""
    hyperparameters = hyperparameters or {}
    out = {}
    for key, default in HYPERPARAMETERS.items():
        section, _, bare = key.partition(".")
        value = default if hyperparameters.get(key) is None else hyperparameters[key]
        if section == name and value is not None:
            out[bare] = value
    return out


@dataclass
class ExperimentConfig:
    """Fully validated description of one SMO experiment."""

    oracle_name: str
    dimension: int
    n_init: int = _DEFAULTS["smo.n_init"]
    budget: int = _DEFAULTS["smo.budget"]
    acquisition: Acquisition = Acquisition(_DEFAULTS["smo.acquisition"])
    feature_set: frozenset = _features(_DEFAULTS["deup.features"])
    seed: int = _DEFAULTS["smo.seed"]
    aleatoric_mode: AleatoricMode = AleatoricMode(_DEFAULTS["deup.aleatoric"])
    hyperparameters: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.dimension < 1:
            raise ValidationError("dimension must be >= 1")
        _oracle(self.oracle_name, self.dimension)
        if self.n_init < 2:
            raise ValidationError(f"n_init must be >= 2, got {self.n_init}")
        if self.budget < self.n_init:
            raise ValidationError(
                f"budget ({self.budget}) must be >= n_init ({self.n_init})"
            )
        if self.acquisition.uses_error_model and not self.feature_set:
            raise ValidationError(
                "feature_set must be nonempty for DEUP acquisitions"
            )
        unknown = sorted(set(self.hyperparameters) - HYPERPARAMETERS.keys())
        if unknown:
            raise ConfigError(f"not hyperparameter keys: {', '.join(unknown)}")
        for key, allowed in _CHOICES.items():
            if key in HYPERPARAMETERS and self.hp(key) not in allowed:
                raise ConfigError(f"key '{key}': expected one of {', '.join(allowed)}, got {self.hp(key)!r}")
        bandwidth = self.hp("kde.bandwidth")  # None: Silverman's rule
        noise_variance = self.hp("gp.noise_variance")  # None: searched
        n_pretrain = self.hp("deup.n_pretrain")  # None: 4 * n_init
        for key, ok, rule in (
            ("smo.n_candidates", self.hp("smo.n_candidates") >= 1, ">= 1"),
            ("smo.n_refine", self.hp("smo.n_refine") >= 1, ">= 1"),
            ("smo.beta", self.hp("smo.beta") > 0, "> 0"),
            ("smo.xi", self.hp("smo.xi") >= 0, ">= 0"),
            ("gp.noise_floor", 0 < self.hp("gp.noise_floor") <= 1, "in (0, 1]"),
            ("gp.noise_variance", noise_variance is None or noise_variance >= 0, ">= 0"),
            ("gp.n_restarts", self.hp("gp.n_restarts") >= 0, ">= 0"),
            ("gp.max_sweeps", self.hp("gp.max_sweeps") >= 1, ">= 1"),
            ("deup.error_gp_restarts", self.hp("deup.error_gp_restarts") >= 0, ">= 0"),
            ("deup.n_pretrain", n_pretrain is None or n_pretrain >= 0, ">= 0"),
            ("kde.bandwidth", bandwidth is None or bandwidth > 0, "> 0"),
            ("oracle.noise", self.hp("oracle.noise") >= 0, ">= 0"),
            ("mlp.epochs", self.hp("mlp.epochs") >= 1, ">= 1"),
            ("mlp.batch_size", self.hp("mlp.batch_size") >= 1, ">= 1"),
            ("mlp.hidden_units", self.hp("mlp.hidden_units") >= 1, ">= 1"),
            ("mlp.hidden_layers", self.hp("mlp.hidden_layers") >= 0, ">= 0"),
            ("mlp.learning_rate", self.hp("mlp.learning_rate") > 0, "> 0"),
            (
                "deup.replicates_k",
                self.aleatoric_mode is not AleatoricMode.REPLICATES or self.hp("deup.replicates_k") >= 2,
                ">= 2 with deup.aleatoric = replicates",
            ),
        ):
            if not ok:
                raise ConfigError(f"key '{key}': must be {rule}, got {self.hp(key)}")
        folds = self.hp("deup.cv_folds")  # read only by a DEUP run's CV pretraining
        pretrains = self.acquisition.uses_error_model and self.hp("deup.n_pretrain") != 0
        if pretrains and not 2 <= folds <= self.n_init:
            raise ConfigError(f"key 'deup.cv_folds': must be in [2, n_init={self.n_init}], got {folds}")
        # The CV fits of f see every fold but the smallest, the last one: n_init - n_init // folds rows.
        if pretrains and self.n_init - self.n_init // folds < 2:
            raise ConfigError(f"key 'smo.n_init': must leave >= 2 rows in {folds}-fold CV training folds, got {self.n_init}")

    def layout(self) -> tuple:
        """Feature layout in canonical order, fixed for the whole run."""
        return tuple(f for f in FEATURE_ORDER if f in self.feature_set)

    def hp(self, key: str):
        """The value of hyperparameter `key` ("section.key"), or its schema default."""
        v = self.hyperparameters.get(key)
        return HYPERPARAMETERS[key] if v is None else v

    def section(self, name: str) -> dict:
        """This config's settings for section `name`, as `schema_section` gives them."""
        return schema_section(name, self.hyperparameters)

    def replace(self, **kwargs) -> "ExperimentConfig":
        import dataclasses

        cfg = dataclasses.replace(self, **kwargs)
        cfg.validate()
        return cfg

    def as_dict(self) -> dict:
        return {
            "oracle_name": self.oracle_name,
            "dimension": self.dimension,
            "n_init": self.n_init,
            "budget": self.budget,
            "acquisition": self.acquisition.value,
            "feature_set": sorted(f.value for f in self.feature_set),
            "seed": self.seed,
            "aleatoric_mode": self.aleatoric_mode.value,
            "hyperparameters": {key: self.hp(key) for key in HYPERPARAMETERS},
        }


def _parse_value(section: str, key: str, raw: str):
    typ, _ = _SCHEMA[section][key]
    raw = raw.strip()
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(
            f"key '{section}.{key}': cannot parse {raw!r} as {typ.__name__}"
        ) from None


def _oracle(name: str, dimension):
    """`benchmarks.make_oracle(name, dimension)`, with its refusal as a ConfigError naming the key."""
    from . import benchmarks  # deferred: benchmarks imports this module

    try:
        return benchmarks.make_oracle(name, dimension)
    except ValueError as exc:
        key = "oracle.name" if str(exc).startswith("unknown oracle") else "oracle.dimension"
        raise ConfigError(f"key '{key}': {exc}") from None


def load_config(path) -> ExperimentConfig:
    """Load and validate an experiment config from a key = value file.

    Sections are [oracle], [smo], [deup], [gp], [mlp], [kde]; unknown sections
    or keys are errors, and so are choice values outside `_CHOICES`. Unset keys
    take their `_SCHEMA` defaults.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    values = dict(_DEFAULTS)
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{section}.{key}'")
            values[f"{section}.{key}"] = _parse_value(section, key, raw)
    for key, allowed in _CHOICES.items():
        values[key] = _choice(key, values[key], allowed)

    oracle_name = values["oracle.name"].lower()
    dimension = values["oracle.dimension"]
    if dimension is None:
        dimension = _oracle(oracle_name, None).dimension

    cfg = ExperimentConfig(
        oracle_name=oracle_name,
        dimension=int(dimension),
        n_init=values["smo.n_init"],
        budget=values["smo.budget"],
        acquisition=Acquisition(values["smo.acquisition"]),
        feature_set=_features(values["deup.features"]),
        seed=values["smo.seed"],
        aleatoric_mode=AleatoricMode(values["deup.aleatoric"]),
        hyperparameters={key: values[key] for key in HYPERPARAMETERS},
    )
    cfg.validate()
    return cfg


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS loaded in this process;
    numpy and scipy wheels each bundle one, under their own symbol names."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(None, 5)[5].strip() for line in fh if "openblas" in line}
    except OSError:  # no procfs: leave the BLAS alone
        return ()
    return _thread_controls(sorted(paths))


def _thread_controls(paths) -> tuple:
    names = [f"{p}_{{}}_num_threads{s}" for p in ("openblas", "scipy_openblas") for s in ("", "64_")]
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. "... (deleted)" after a reinstall: leave that copy alone
            continue
        for name in (n for n in names if hasattr(lib, n.format("get"))):
            get, put = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            controls.append((get, put))
            break
    return tuple(controls)


@contextlib.contextmanager
def one_blas_thread():
    """Run the body on one thread of each loaded OpenBLAS; restore the counts after.

    The SMO loop's matrices are too small for BLAS threads to help, and a fixed
    count keeps reruns bitwise equal across hosts.
    """
    controls = _openblas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), n in zip(controls, saved):
            put(n)


def write_csv(path, header, rows) -> None:
    """Write UTF-8 CSV: `header`, then `rows`. Floats, numpy ones included, are
    written as repr(float(v)), so they read back bit for bit; every other cell is
    left to the csv module."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row] for row in rows)


def write_json(path, obj) -> None:
    """Write `obj` as UTF-8 JSON, indented by 2."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
