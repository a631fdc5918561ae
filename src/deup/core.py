"""Shared data model: datasets, named RNG streams, experiment configuration."""

from __future__ import annotations

import configparser
import enum
import hashlib
from dataclasses import dataclass, field

import numpy as np

_UINT64_MASK = (1 << 64) - 1


class ConfigError(ValueError):
    """Config file cannot be parsed or contains an unknown section/key."""


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


@dataclass(frozen=True)
class LabeledExample:
    """One (input, target) pair."""

    x: np.ndarray
    y: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64).reshape(-1)
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", float(self.y))
        if not np.all(np.isfinite(x)):
            raise ValidationError("example input has non-finite coordinates")
        if not np.isfinite(self.y):
            raise ValidationError("example target is not finite")


class Dataset:
    """Ordered, append-only collection of labeled examples.

    Membership (`contains`) uses exact coordinate equality: acquired points are
    appended verbatim, so bitwise comparison is safe. It is not suitable for
    user-supplied near-duplicates.
    """

    def __init__(self, examples=()):
        self._examples: list[LabeledExample] = []
        self._keys: set[bytes] = set()
        self._hasher = hashlib.sha256()
        for ex in examples:
            self.append(ex)

    @classmethod
    def from_arrays(cls, X, y) -> "Dataset":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if len(X) != len(y):
            raise ValidationError("X and y lengths differ")
        d = cls()
        for i in range(len(y)):
            d.append(LabeledExample(X[i], y[i]))
        return d

    def append(self, example: LabeledExample) -> None:
        if self._examples and example.x.shape != self._examples[0].x.shape:
            raise ValidationError(
                f"dimension mismatch: got {example.x.shape[0]}, dataset has {self.dimension}"
            )
        self._examples.append(example)
        self._keys.add(example.x.tobytes())
        self._hasher.update(example.x.tobytes())
        self._hasher.update(np.float64(example.y).tobytes())

    def append_xy(self, x, y) -> None:
        self.append(LabeledExample(np.asarray(x, dtype=np.float64), y))

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        return x.tobytes() in self._keys

    def inputs(self) -> np.ndarray:
        if not self._examples:
            return np.empty((0, 0))
        return np.stack([ex.x for ex in self._examples])

    def targets(self) -> np.ndarray:
        return np.array([ex.y for ex in self._examples], dtype=np.float64)

    @property
    def dimension(self) -> int:
        if not self._examples:
            raise ValidationError("empty dataset has no dimension")
        return self._examples[0].x.shape[0]

    def fingerprint(self) -> bytes:
        return self._hasher.digest()

    def copy(self) -> "Dataset":
        d = Dataset()
        d._examples = list(self._examples)
        d._keys = set(self._keys)
        d._hasher = self._hasher.copy()
        return d

    def __len__(self):
        return len(self._examples)

    def __iter__(self):
        return iter(self._examples)

    def __getitem__(self, i):
        return self._examples[i]


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


def split_dataset(d: Dataset, k: int, rng: RngStream) -> list[Dataset]:
    """Partition `d` into k disjoint random subsets of near-equal size.

    Sizes differ by at most one; the remainder goes to the first len(d) % k
    subsets. The union of the parts is exactly `d`.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > len(d):
        raise ValueError(f"cannot split {len(d)} examples into {k} subsets")
    order = rng.generator().permutation(len(d))
    base, extra = divmod(len(d), k)
    parts, start = [], 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        part = Dataset()
        for j in order[start : start + size]:
            part.append(d[int(j)])
        parts.append(part)
        start += size
    return parts


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


@dataclass
class ExperimentConfig:
    """Fully validated description of one SMO experiment."""

    oracle_name: str
    dimension: int
    n_init: int = 20
    budget: int = 120
    acquisition: Acquisition = Acquisition.DEUP_EI
    feature_set: frozenset = frozenset({Feature.LOG_VARIANCE})
    seed: int = 0
    aleatoric_mode: AleatoricMode = AleatoricMode.ZERO
    hyperparameters: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.dimension < 1:
            raise ValidationError("dimension must be >= 1")
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

    def layout(self) -> tuple:
        """Feature layout in canonical order, fixed for the whole run."""
        return tuple(f for f in FEATURE_ORDER if f in self.feature_set)

    def hp(self, key: str, default=None):
        v = self.hyperparameters.get(key)
        return default if v is None else v

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
            "hyperparameters": dict(self.hyperparameters),
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


def _enum_from_value(enum_cls, section_key: str, raw: str):
    try:
        return enum_cls(raw.strip().lower())
    except ValueError:
        allowed = ", ".join(e.value for e in enum_cls)
        raise ConfigError(f"key '{section_key}': expected one of {allowed}, got {raw!r}") from None


def load_config(path) -> ExperimentConfig:
    """Load and validate an experiment config from a key = value file.

    Sections are [oracle], [smo], [deup], [gp], [mlp], [kde]; unknown sections
    or keys are errors. Unset keys take the documented defaults (e.g. budget
    120, n_init 20).
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    values: dict[str, dict] = {s: {} for s in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{section}.{key}'")
            values[section][key] = _parse_value(section, key, raw)

    def get(section, key):
        if key in values[section]:
            return values[section][key]
        return _SCHEMA[section][key][1]

    oracle_name = str(get("oracle", "name")).lower()
    dimension = get("oracle", "dimension")
    if dimension is None:
        from . import benchmarks  # deferred: benchmarks imports this module

        dimension = benchmarks.oracle_default_dimension(oracle_name)
        if dimension is None:
            raise ConfigError(
                f"key 'oracle.dimension' is required for oracle '{oracle_name}'"
            )

    acquisition = _enum_from_value(Acquisition, "smo.acquisition", get("smo", "acquisition"))
    aleatoric = _enum_from_value(AleatoricMode, "deup.aleatoric", get("deup", "aleatoric"))

    feature_names = [t.strip().lower() for t in str(get("deup", "features")).split(",") if t.strip()]
    features = frozenset(
        _enum_from_value(Feature, "deup.features", name) for name in feature_names
    )

    hyper = {}
    for section in ("oracle", "smo", "deup", "gp", "mlp", "kde"):
        for key in _SCHEMA[section]:
            if f"{section}.{key}" in (
                "oracle.name",
                "oracle.dimension",
                "smo.n_init",
                "smo.budget",
                "smo.acquisition",
                "smo.seed",
                "deup.features",
                "deup.aleatoric",
            ):
                continue
            hyper[f"{section}.{key}"] = get(section, key)

    cfg = ExperimentConfig(
        oracle_name=oracle_name,
        dimension=int(dimension),
        n_init=get("smo", "n_init"),
        budget=get("smo", "budget"),
        acquisition=acquisition,
        feature_set=features,
        seed=get("smo", "seed"),
        aleatoric_mode=aleatoric,
        hyperparameters=hyper,
    )
    cfg.validate()
    return cfg
