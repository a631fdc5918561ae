"""Shared data model: datasets, named RNG streams, experiment configuration,
the scoped one-BLAS-thread limiter, and the CSV and JSON writers of every
output file."""

from __future__ import annotations

import configparser
import contextlib
import csv
import ctypes
import dataclasses
import enum
import functools
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .benchmarks import ORACLES

_UINT64_MASK = (1 << 64) - 1


class ConfigError(ValueError):
    """Config cannot be parsed, names an unknown section/key or choice, or breaks a `validate()` rule."""


class ValidationError(ValueError):
    """A `Dataset`'s inputs or targets break its shape or finiteness invariant."""


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
        if np.ndim(X) != 2:
            raise ValidationError(f"need a batch of inputs (m, d), got {np.shape(X)}")
        X = np.ascontiguousarray(X, dtype=np.float64)
        if not len(self):
            return np.zeros(len(X), dtype=bool)
        if X.shape[1] != self._X.shape[1]:
            raise ValidationError(f"dimension mismatch: got {X.shape[1]}, dataset has {self._X.shape[1]}")
        rows, stored = X.view(np.uint64), self._X.view(np.uint64)
        # One (m, n) comparison per column: faster than reducing an (m, n, d) array over its short last axis.
        equal = np.ones((len(rows), len(stored)), dtype=bool)
        for j in range(stored.shape[1]):
            equal &= rows[:, j, None] == stored[None, :, j]
        return equal.any(axis=1)

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


# Config schema: section -> {key: (type, default, rule)}. A `None` default
# means the key is optional, with behavior documented where it is consumed.
# The rule is the tuple of allowed lower-case names, a `_RANGES` text, or None;
# `validate()` checks each rule and writes out the rules that read a second key.
_RANGES = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    ">= 2": lambda v: v >= 2,
    "> 0": lambda v: v > 0,
    "in (0, 1]": lambda v: 0 < v <= 1,
}
_SCHEMA = {
    "oracle": {
        "name": (str, "ackley", tuple(ORACLES)),
        "dimension": (int, None, ">= 1"),
        "noise": (float, 0.0, ">= 0"),
    },
    "smo": {
        "n_init": (int, 20, ">= 2"),
        "budget": (int, 120, None),  # >= n_init
        "acquisition": (str, "deup_ei", tuple(a.value for a in Acquisition)),
        "seed": (int, 0, None),
        "n_candidates": (int, 2048, ">= 1"),
        "n_refine": (int, 5, ">= 1"),
        "beta": (float, 2.0, "> 0"),
        "xi": (float, 0.01, ">= 0"),
    },
    "deup": {
        "features": (str, "log_variance", tuple(f.value for f in Feature)),  # a comma list
        "aleatoric": (str, "zero", tuple(m.value for m in AleatoricMode)),
        "n_pretrain": (int, None, ">= 0"),  # default 4 * n_init, resolved at run time
        "cv_folds": (int, 2, None),  # in [2, n_init] when a DEUP run pretrains
        "main_model": (str, "gp", ("gp", "mlp")),
        "error_model": (str, "auto", ("auto", "gp", "mlp")),
        "error_gp_restarts": (int, 4, ">= 0"),
        "replicates_k": (int, 5, None),  # >= 2 under aleatoric = replicates
    },
    "gp": {
        "kernel": (str, "rbf", ("rbf", "matern52")),
        "n_restarts": (int, 8, ">= 0"),
        "noise_floor": (float, 1e-6, "in (0, 1]"),
        "noise_variance": (float, None, ">= 0"),  # fixed observation noise if set
        "max_sweeps": (int, 12, ">= 1"),
    },
    "mlp": {
        "epochs": (int, 400, ">= 1"),
        "learning_rate": (float, 1e-3, "> 0"),
        "batch_size": (int, 256, ">= 1"),
        "hidden_layers": (int, 3, ">= 0"),
        "hidden_units": (int, 128, ">= 1"),
    },
    "kde": {
        "bandwidth": (float, None, "> 0"),  # None -> Silverman's rule
    },
}


_ROWS = {f"{s}.{k}": row for s, keys in _SCHEMA.items() for k, row in keys.items()}
_DEFAULTS = {key: default for key, (_, default, _) in _ROWS.items()}


def _breach(key: str, value) -> str | None:
    """The error message if `value` breaks `key`'s rule, else None. An unset
    optional key (None) breaks none; an int key takes an integer and a float key
    a finite number, never a bool."""
    typ, default, rule = _ROWS[key]
    if value is None:
        return None if default is None else f"key '{key}': must be set"
    if isinstance(rule, tuple):
        return None if value in rule else f"key '{key}': expected one of {', '.join(rule)}, got {value!r}"
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if typ is int else numbers.Real):
        return f"key '{key}': must be {'an integer' if typ is int else 'a number'}, got {value!r}"
    if typ is float and not -math.inf < value < math.inf:
        return f"key '{key}': must be finite, got {value}"
    return None if rule is None or _RANGES[rule](value) else f"key '{key}': must be {rule}, got {value}"


def check_rule(key: str, value) -> None:
    """Raise ConfigError if `value` breaks `key`'s `_SCHEMA` rule, as `validate()` does."""
    if message := _breach(key, value):
        raise ConfigError(message)


def _choice(key: str, raw: str) -> str:
    """`raw` lower-cased, if `key`'s rule allows it."""
    value = raw.strip().lower()
    if value not in _ROWS[key][2]:
        raise ConfigError(_breach(key, raw))
    return value


def _features(raw: str) -> frozenset:
    names = [t.strip() for t in raw.split(",") if t.strip()]
    return frozenset(Feature(_choice("deup.features", n)) for n in names)


# Schema keys held as typed ExperimentConfig fields: key -> (field name, what
# turns the key's loaded value into the field's, or None where they are equal).
# Every other key is a hyperparameter, named "section.key" in
# ExperimentConfig.hyperparameters.
_FIELDS = {
    "oracle.name": ("oracle_name", None),
    "oracle.dimension": ("dimension", None),
    "smo.n_init": ("n_init", None),
    "smo.budget": ("budget", None),
    "smo.acquisition": ("acquisition", Acquisition),
    "deup.features": ("feature_set", _features),
    "smo.seed": ("seed", None),
    "deup.aleatoric": ("aleatoric_mode", AleatoricMode),
}
_FIELD_KEYS = set(_FIELDS)
HYPERPARAMETERS = {key: default for key, default in _DEFAULTS.items() if key not in _FIELD_KEYS}


def _json_value(value):
    """A field value as written to JSON: an enum as its value, a feature set as its sorted values."""
    if isinstance(value, frozenset):
        return sorted(f.value for f in value)
    return value.value if isinstance(value, enum.Enum) else value


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
        unknown = sorted(set(self.hyperparameters) - HYPERPARAMETERS.keys())
        if unknown:
            raise ConfigError(f"not hyperparameter keys: {', '.join(unknown)}")
        # The fields that hold their key's value as loaded: no rule names a converted enum or feature set.
        typed = {key: getattr(self, name) for key, (name, convert) in _FIELDS.items() if convert is None}
        checked = {**typed, **{k: self.hp(k) for k in HYPERPARAMETERS}}
        for key, value in checked.items():
            check_rule(key, value)
        fixed = ORACLES[self.oracle_name].dimension
        if self.dimension is None or fixed not in (None, self.dimension):
            raise ConfigError(f"key 'oracle.dimension': must be {fixed or 'set'} for {self.oracle_name}, got {self.dimension}")
        if self.budget < self.n_init:
            raise ConfigError(f"key 'smo.budget': must be >= smo.n_init ({self.n_init}), got {self.budget}")
        if self.acquisition.uses_error_model and not self.feature_set:
            raise ConfigError("key 'deup.features': must be nonempty for DEUP acquisitions")
        if self.aleatoric_mode is AleatoricMode.REPLICATES and self.hp("deup.replicates_k") < 2:
            raise ConfigError(
                f"key 'deup.replicates_k': must be >= 2 with deup.aleatoric = replicates, got {self.hp('deup.replicates_k')}"
            )
        folds = self.hp("deup.cv_folds")  # read only by a DEUP run's CV pretraining
        pretrains = self.acquisition.uses_error_model and self.hp("deup.n_pretrain") != 0
        if pretrains and not 2 <= folds <= self.n_init:
            raise ConfigError(f"key 'deup.cv_folds': must be in [2, n_init={self.n_init}], got {folds}")
        # The CV fits of f see every fold but the smallest, the last one: n_init - n_init // folds rows.
        if pretrains and self.n_init - self.n_init // folds < 2:
            raise ConfigError(f"key 'smo.n_init': must leave >= 2 rows in {folds}-fold CV training folds, got {self.n_init}")

    def layout(self) -> tuple:
        """Feature layout in canonical order, fixed for the whole run."""
        return tuple(f for f in Feature if f in self.feature_set)

    def hp(self, key: str):
        """The value of hyperparameter `key` ("section.key"), or its schema default."""
        v = self.hyperparameters.get(key)
        return HYPERPARAMETERS[key] if v is None else v

    def section(self, name: str) -> dict:
        """This config's settings for section `name`, as `schema_section` gives them."""
        return schema_section(name, self.hyperparameters)

    def replace(self, **kwargs) -> "ExperimentConfig":
        cfg = dataclasses.replace(self, **kwargs)
        cfg.validate()
        return cfg

    def as_dict(self) -> dict:
        """Every field in field order, with each hyperparameter's value or default."""
        out = {f.name: _json_value(getattr(self, f.name)) for f in dataclasses.fields(self)}
        return {**out, "hyperparameters": {key: self.hp(key) for key in HYPERPARAMETERS}}


def _parse_value(section: str, key: str, raw: str):
    typ = _SCHEMA[section][key][0]
    raw = raw.strip()
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(
            f"key '{section}.{key}': cannot parse {raw!r} as {typ.__name__}"
        ) from None


def load_config(path) -> ExperimentConfig:
    """Load and validate an experiment config from a key = value file.

    Sections are [oracle], [smo], [deup], [gp], [mlp], [kde]; unknown sections
    or keys are errors, and so are choice values their `_SCHEMA` rule does not
    name, in any case. Unset keys take their `_SCHEMA` defaults.
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
    for key, (_, _, rule) in _ROWS.items():
        if isinstance(rule, tuple) and key != "deup.features":  # a comma list, read by _features
            values[key] = _choice(key, values[key])

    if values["oracle.dimension"] is None:  # not `or`: a set 0 gets validate()'s ">= 1" message
        values["oracle.dimension"] = ORACLES[values["oracle.name"]].dimension

    cfg = ExperimentConfig(
        **{name: convert(values[key]) if convert else values[key] for key, (name, convert) in _FIELDS.items()},
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
