import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from deup.acquisition import AcquisitionSpec
from deup.core import (
    _FIELD_KEYS,
    _FIELDS,
    _ROWS,
    _SCHEMA,
    HYPERPARAMETERS,
    Acquisition,
    AleatoricMode,
    ConfigError,
    Dataset,
    ExperimentConfig,
    Feature,
    RngStream,
    ValidationError,
    load_config,
)
from deup.density import kde_fit

README = Path(__file__).resolve().parents[1] / "README.md"


def make_dataset(n, d=2, seed=0):
    gen = np.random.default_rng(seed)
    return Dataset(gen.normal(size=(n, d)), gen.normal(size=n))


class TestDataset:
    def test_exact_membership(self):
        d = make_dataset(5)
        x = d.inputs()[2]
        batch = np.stack([x, x + 1e-8, [99.0, 99.0], d.inputs()[0], -x])
        np.testing.assert_array_equal(d.contains(batch), [True, False, False, True, False])
        assert d.contains(batch).tolist() == [any(np.array_equal(b, s) for s in d.inputs()) for b in batch]
        assert not Dataset().contains(batch).any()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_membership_has_the_bits_of_the_broadcast_comparison(self, dim):
        gen = np.random.default_rng(dim)
        stored = gen.choice([0.0, 0.5, 1.0], size=(20, dim))
        stored[0] = 0.0
        signed = np.where(stored == 0.0, -0.0, stored)  # -0.0 == 0.0, but not bit for bit
        batch = np.vstack([stored[:6], signed[:6], gen.choice([0.0, -0.0, 0.5, 1.0, 2.0], size=(40, dim))])
        rows, ref = batch.view(np.uint64), stored.view(np.uint64)
        expected = (rows[:, None, :] == ref[None, :, :]).all(axis=2).any(axis=1)
        got = Dataset(stored, np.zeros(20)).contains(batch)
        assert got.tolist() == expected.tolist()
        assert got[:6].all() and not got[6]  # exact duplicates are members; the all -0.0 row is not

    def test_append_preserves_order(self):
        d = Dataset()
        for i in range(4):
            d = d.append([[float(i)]], [float(i) * 2])
        assert d.targets().tolist() == [0.0, 2.0, 4.0, 6.0]
        assert d.inputs().shape == (4, 1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            Dataset([[np.nan]], [0.0])
        with pytest.raises(ValidationError):
            Dataset([[0.0]], [np.inf])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            Dataset([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValidationError):
            Dataset([[0.0], [1.0]], [0.0])

    def test_dimension_mismatch(self):
        d = make_dataset(3, d=2)
        with pytest.raises(ValidationError):
            d.append([[1.0]], [0.0])
        for width in (1, 3):
            with pytest.raises(ValidationError, match=f"got {width}, dataset has 2"):
                d.contains(np.zeros((4, width)))

    @pytest.mark.parametrize("batch", [np.zeros(3), np.zeros((1, 2, 2)), np.float64(0.0)], ids=["1-D", "3-D", "scalar"])
    @pytest.mark.parametrize("stored", [0, 3], ids=["empty", "non-empty"])
    def test_contains_rejects_a_batch_that_is_not_2d(self, batch, stored):
        d = make_dataset(stored) if stored else Dataset()
        with pytest.raises(ValidationError, match=re.escape(f"need a batch of inputs (m, d), got {np.shape(batch)}")):
            d.contains(batch)

    def test_arrays_are_read_only(self):
        d = make_dataset(3)
        with pytest.raises(ValueError):
            d.inputs()[0, 0] = 1.0
        with pytest.raises(ValueError):
            d.targets()[0] = 1.0

    def test_constructor_copies(self):
        X, y = np.zeros((2, 1)), np.zeros(2)
        d = Dataset(X, y)
        X[0, 0] = y[0] = 5.0
        assert d.inputs()[0, 0] == d.targets()[0] == 0.0
        assert X.flags.writeable

    def test_append_leaves_original_unchanged(self):
        d = make_dataset(3)
        X, y = d.inputs(), d.targets()
        grown = d.append([[5.0, 5.0]], [0.0])
        assert len(d) == 3 and len(grown) == 4
        assert d.inputs() is X and d.targets() is y
        np.testing.assert_array_equal(grown.inputs()[:3], X)
        assert not d.contains(np.array([[5.0, 5.0]]))[0]

    def test_take_selects_rows_in_order(self):
        d = make_dataset(5)
        part = d.take([3, 0])
        np.testing.assert_array_equal(part.inputs(), d.inputs()[[3, 0]])
        np.testing.assert_array_equal(part.targets(), d.targets()[[3, 0]])


class TestRngStream:
    def test_same_label_same_draws(self):
        a = RngStream(7, "x").generator().normal(size=5)
        b = RngStream(7, "x").generator().normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_labels_independent(self):
        a = RngStream(7, "x").generator().normal(size=5)
        b = RngStream(7, "y").generator().normal(size=5)
        assert not np.array_equal(a, b)

    def test_child_streams_stable(self):
        s = RngStream(3, "root")
        a = s.child("sub").generator().integers(0, 1 << 30, size=3)
        b = s.child("sub").generator().integers(0, 1 << 30, size=3)
        np.testing.assert_array_equal(a, b)


class TestLoadConfig:
    def test_minimal_file_defaults(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[oracle]\nname = ackley\ndimension = 10\n")
        cfg = load_config(path)
        assert cfg.budget == 120
        assert cfg.n_init == 20
        assert cfg.oracle_name == "ackley"
        assert cfg.dimension == 10
        assert cfg.acquisition is Acquisition.DEUP_EI
        assert cfg.feature_set == frozenset({Feature.LOG_VARIANCE})

    def test_fixed_dimension_oracle_needs_no_dimension(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[oracle]\nname = levi13\n")
        assert load_config(path).dimension == 2

    def test_n_init_invariant(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[oracle]\nname = synth1d\n\n[smo]\nn_init = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_empty_features_with_deup_acquisition(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "[oracle]\nname = synth1d\n\n[smo]\nacquisition = deup_ei\n\n[deup]\nfeatures =\n"
        )
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[oracle]\nname = synth1d\nbogus = 3\n")
        with pytest.raises(ConfigError, match="oracle.bogus"):
            load_config(path)

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[oracle]\nname = synth1d\n\n[mystery]\nkey = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            load_config(path)

    def test_bad_type_named_in_error(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[oracle]\nname = synth1d\n\n[smo]\nbudget = soon\n")
        with pytest.raises(ConfigError, match="smo.budget"):
            load_config(path)

    def test_budget_below_n_init(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[oracle]\nname = synth1d\n\n[smo]\nn_init = 10\nbudget = 5\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_feature_list_parsing(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "[oracle]\nname = synth1d\n\n[deup]\nfeatures = x, seen_bit, log_density\n"
        )
        cfg = load_config(path)
        assert cfg.feature_set == frozenset({Feature.X, Feature.SEEN_BIT, Feature.LOG_DENSITY})
        assert cfg.layout() == (Feature.X, Feature.SEEN_BIT, Feature.LOG_DENSITY)

    @pytest.mark.parametrize(
        "oracle, key",
        [
            ("name = branin", "oracle.name"),
            ("name = branin\ndimension = 2", "oracle.name"),
            ("name = levi13\ndimension = 3", "oracle.dimension"),
            ("name = synth1d\ndimension = 2", "oracle.dimension"),
            ("name = ackley", "oracle.dimension"),
        ],
    )
    def test_oracle_the_benchmarks_do_not_offer_named_in_error(self, tmp_path, oracle, key):
        path = tmp_path / "exp.cfg"
        path.write_text(f"[oracle]\n{oracle}\n")
        with pytest.raises(ConfigError, match=re.escape(f"key '{key}'")):
            load_config(path)

    def test_choice_keys_are_lower_cased(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "[oracle]\nname = Synth1D\n\n[deup]\nmain_model = GP\nerror_model = GP\n\n[gp]\nkernel = RBF\n"
        )
        cfg = load_config(path)
        assert (cfg.oracle_name, cfg.dimension) == ("synth1d", 1)
        assert (cfg.hp("deup.main_model"), cfg.hp("deup.error_model"), cfg.hp("gp.kernel")) == ("gp", "gp", "rbf")

    @pytest.mark.parametrize(
        "section, key, value",
        [("deup", "main_model", "mpl"), ("deup", "error_model", "svm"), ("gp", "kernel", "matern")],
    )
    def test_choice_typo_named_in_error(self, tmp_path, section, key, value):
        path = tmp_path / "exp.cfg"
        path.write_text(f"[oracle]\nname = synth1d\n\n[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            load_config(path)


def range_edges(typ, rule):
    """(passing, failing) per bound of a range rule: the bound itself, or the
    nearest value inside an open bound, and the first value past it."""
    step = (lambda v, d: v + d) if typ is int else (lambda v, d: float(np.nextafter(v, d * np.inf)))
    edges = {
        ">= 0": [(0, step(0, -1))],
        ">= 1": [(1, step(1, -1))],
        ">= 2": [(2, step(2, -1))],
        "> 0": [(step(0, 1), 0)],
        "in (0, 1]": [(step(0, 1), 0), (1, step(1, 1))],
    }[rule]
    return [(typ(passing), typ(failing)) for passing, failing in edges]


RANGE_EDGES = [
    (key, rule, passing, failing)
    for key, (typ, _, rule) in _ROWS.items()
    if isinstance(rule, str)
    for passing, failing in range_edges(typ, rule)
]


FLOAT_KEYS = [key for key, (typ, _, _) in _ROWS.items() if typ is float]
INT_KEYS = [key for key, (typ, _, _) in _ROWS.items() if typ is int]
NON_FINITE = [np.inf, -np.inf, np.nan]


def config_with(key, value):
    """A synth1d EI config (ackley for `oracle.dimension`) with `key` set to `value`."""
    fields = {"oracle.dimension": {"oracle_name": "ackley", "dimension": value}, "smo.n_init": {"n_init": value}}
    kwargs = fields.get(key, {"hyperparameters": {key: value}})
    return ExperimentConfig(**{"oracle_name": "synth1d", "dimension": 1, "acquisition": Acquisition.EI, **kwargs})


def int_config_with(key, value):
    """`config_with`, reaching the `smo.budget` and `smo.seed` fields too (n_init 2, so a budget of 3 passes)."""
    if key == "smo.budget":
        return ExperimentConfig(oracle_name="synth1d", dimension=1, n_init=2, budget=value, acquisition=Acquisition.EI)
    if key == "smo.seed":
        return ExperimentConfig(oracle_name="synth1d", dimension=1, seed=value, acquisition=Acquisition.EI)
    return config_with(key, value)


class TestExperimentConfig:
    @pytest.mark.parametrize("key", ["gp.kernal", "smo.budget"])
    def test_validate_rejects_keys_that_are_not_hyperparameters(self, key):
        cfg = ExperimentConfig(oracle_name="synth1d", dimension=1, hyperparameters={key: 1})
        with pytest.raises(ConfigError, match=re.escape(key)):
            cfg.validate()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("deup.error_model", "GP"),
            ("gp.kernel", "Matern"),
            ("deup.main_model", "MLP"),
            ("deup.cv_folds", 9),
            ("deup.cv_folds", 1),
            ("smo.n_candidates", 0),
            ("smo.n_refine", 0),
            ("smo.beta", 0.0),
            ("smo.xi", -0.01),
            ("kde.bandwidth", 0.0),
            ("gp.noise_floor", 0.0),
            ("gp.noise_floor", 2.0),
            ("gp.noise_variance", -0.01),
            ("oracle.noise", -0.1),
            ("mlp.epochs", 0),
            ("mlp.batch_size", 0),
            ("mlp.hidden_units", 0),
            ("mlp.hidden_layers", -1),
            ("mlp.learning_rate", 0.0),
            ("mlp.learning_rate", -1.0),
            ("gp.n_restarts", -1),
            ("gp.max_sweeps", 0),
            ("deup.error_gp_restarts", -1),
            ("deup.n_pretrain", -1),
        ],
    )
    def test_validate_rejects_choice_values_outside_the_lower_case_names(self, key, value):
        # A DEUP-EI config with 4 initial points: cv_folds must lie in [2, 4].
        cfg = ExperimentConfig(oracle_name="synth1d", dimension=1, n_init=4, hyperparameters={key: value})
        with pytest.raises(ConfigError, match=re.escape(key)):
            cfg.validate()

    def test_validate_accepts_the_search_and_pretrain_boundaries(self):
        edges = {"gp.n_restarts": 0, "gp.max_sweeps": 1, "deup.error_gp_restarts": 0, "deup.n_pretrain": 0}
        ExperimentConfig(oracle_name="synth1d", dimension=1, n_init=4, hyperparameters=edges).validate()

    @pytest.mark.parametrize("key, rule, passing, failing", RANGE_EDGES, ids=[f"{e[0]}:{e[3]}" for e in RANGE_EDGES])
    def test_validate_accepts_each_range_bound_and_rejects_the_first_value_past_it(self, key, rule, passing, failing):
        config_with(key, passing).validate()
        with pytest.raises(ConfigError, match=re.escape(f"key '{key}': must be {rule}, got {failing}")):
            config_with(key, failing).validate()

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_every_float_key_must_be_finite(self, tmp_path, key, value):
        message = re.escape(f"key '{key}': must be finite, got {value}")
        with pytest.raises(ConfigError, match=message):
            config_with(key, value).validate()
        section, _, bare = key.partition(".")
        sections = {"oracle": "name = synth1d\n", "smo": "acquisition = ei\n"}
        sections[section] = sections.get(section, "") + f"{bare} = {value}\n"
        path = tmp_path / "exp.cfg"
        path.write_text("".join(f"[{name}]\n{lines}\n" for name, lines in sections.items()))
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    @pytest.mark.parametrize("value", [2.5, math.inf, True, "3"], ids=repr)
    @pytest.mark.parametrize("key", INT_KEYS)
    def test_every_int_key_must_be_an_integer(self, key, value):
        with pytest.raises(ConfigError, match=re.escape(f"key '{key}': must be an integer, got {value!r}")):
            int_config_with(key, value).validate()
        int_config_with(key, np.int64(3)).validate()

    @pytest.mark.parametrize("value", [True, "0.1"], ids=repr)
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_every_float_key_must_be_a_number(self, key, value):
        with pytest.raises(ConfigError, match=re.escape(f"key '{key}': must be a number, got {value!r}")):
            config_with(key, value).validate()

    def test_typed_field_table_holds_every_field_but_the_hyperparameters(self):
        names = [name for name, _ in _FIELDS.values()]
        assert names == [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "hyperparameters"]
        assert _FIELD_KEYS == set(_FIELDS) == set(_ROWS) - set(HYPERPARAMETERS)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"n_init": 1}, "key 'smo.n_init': must be >= 2, got 1"),
            ({"n_init": 6, "budget": 5}, "key 'smo.budget': must be >= smo.n_init (6), got 5"),
            ({"oracle_name": "ackley", "dimension": 0}, "key 'oracle.dimension': must be >= 1, got 0"),
            ({"feature_set": frozenset()}, "key 'deup.features': must be nonempty for DEUP acquisitions"),
            ({"acquisition": "ei"}, "key 'smo.acquisition': must be an Acquisition, got 'ei'"),
            ({"aleatoric_mode": "known"}, "key 'deup.aleatoric': must be an AleatoricMode, got 'known'"),
            ({"feature_set": frozenset({"x"})}, "key 'deup.features': must be a frozenset of Feature members, got frozenset({'x'})"),
            ({"feature_set": {Feature.LOG_VARIANCE}}, "key 'deup.features': must be a frozenset of Feature members, got {<Feature."),
            ({"feature_set": [Feature.LOG_VARIANCE]}, "key 'deup.features': must be a frozenset of Feature members, got [<Feature."),
        ],
        ids=[
            "smo.n_init", "smo.budget", "oracle.dimension", "deup.features",
            "acquisition-str", "aleatoric-str", "feature-str", "feature-plain-set", "feature-list",
        ],
    )
    def test_typed_field_errors_name_the_key(self, fields, message):
        cfg = ExperimentConfig(**{"oracle_name": "synth1d", "dimension": 1, **fields})
        with pytest.raises(ConfigError, match=re.escape(message)):
            cfg.validate()

    @pytest.mark.parametrize(
        "name, dimension, error, key",
        [
            ("branin", 1, ConfigError, "oracle.name"),
            ("Synth1d", 1, ConfigError, "oracle.name"),  # only load_config lower-cases a name
            ("levi13", 3, ConfigError, "oracle.dimension"),
            ("ackley", 0, ConfigError, "oracle.dimension"),
        ],
    )
    def test_programmatic_oracle_errors_keep_their_class_and_key(self, name, dimension, error, key):
        cfg = ExperimentConfig(oracle_name=name, dimension=dimension)
        with pytest.raises(ValueError, match=re.escape(f"key '{key}'")) as info:
            cfg.validate()
        assert type(info.value) is error

    def test_validate_rejects_cv_training_folds_too_small_to_fit(self):
        # Two initial points in 2 folds leave 1 row to fit f on in each CV pass.
        cfg = ExperimentConfig(oracle_name="synth1d", dimension=1, n_init=2, budget=4, acquisition=Acquisition.DEUP_EI)
        with pytest.raises(ConfigError, match=re.escape("key 'smo.n_init'")):
            cfg.validate()
        cfg.replace(hyperparameters={"deup.n_pretrain": 0})  # no pretraining: no CV fit
        cfg.replace(acquisition=Acquisition.EI)  # no error model
        cfg.replace(n_init=3)

    @pytest.mark.parametrize("k", [0, 1])
    def test_validate_rejects_fewer_than_two_replicates(self, k):
        cfg = ExperimentConfig(oracle_name="synth1d", dimension=1, hyperparameters={"deup.replicates_k": k})
        cfg.validate()  # zero aleatoric: replicates_k is not read
        with pytest.raises(ConfigError, match=re.escape("deup.replicates_k")):
            cfg.replace(aleatoric_mode=AleatoricMode.REPLICATES)

    def test_programmatic_defaults_match_loaded_defaults(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[oracle]\nname = synth1d\n")
        cfg = ExperimentConfig(oracle_name="synth1d", dimension=1)
        assert cfg.as_dict() == load_config(path).as_dict()
        assert cfg.as_dict()["hyperparameters"] == HYPERPARAMETERS

    def test_section_fills_defaults_and_drops_unset_optional_keys(self):
        cfg = ExperimentConfig(oracle_name="synth1d", dimension=1, hyperparameters={"gp.kernel": "matern52"})
        assert cfg.section("gp") == {"kernel": "matern52", "n_restarts": 8, "noise_floor": 1e-6, "max_sweeps": 12}
        assert cfg.section("kde") == {}


# The keys whose rules AcquisitionSpec and kde_fit check, with a call that sets them.
RULE_USERS = {
    "smo.n_candidates": lambda v: AcquisitionSpec(Acquisition.EI, n_candidates=v),
    "smo.n_refine": lambda v: AcquisitionSpec(Acquisition.EI, n_refine=v),
    "smo.beta": lambda v: AcquisitionSpec(Acquisition.UCB, beta=v),
    "smo.xi": lambda v: AcquisitionSpec(Acquisition.EI, xi=v),
    "kde.bandwidth": lambda v: kde_fit(Dataset([[0.0], [1.0]], [0.0, 0.0]), v),
}
RULE_BREACHES = [
    (key, value)
    for key in RULE_USERS
    for value in [e[3] for e in RANGE_EDGES if e[0] == key] + (NON_FINITE if _ROWS[key][0] is float else [])
]


class TestOneRuleTable:
    @pytest.mark.parametrize("key, value", RULE_BREACHES, ids=[f"{k}:{v}" for k, v in RULE_BREACHES])
    def test_each_breach_gets_the_message_validate_gives(self, key, value):
        with pytest.raises(ConfigError) as validated:
            config_with(key, value).validate()
        with pytest.raises(ConfigError) as constructed:
            RULE_USERS[key](value)
        assert str(constructed.value) == str(validated.value)
        assert str(validated.value).startswith(f"key '{key}': must be ")


def readme_config_lines():
    """(section, key, value, commented, comment) for each `key = value` line of the README's ini block."""
    block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    section, out = None, []
    for line in block.splitlines():
        if m := re.match(r"\[(\w+)\]", line):
            section = m.group(1)
        elif m := re.match(r"(#\s*)?(\w+)\s*=\s*([^\s#]*)\s*(?:#\s*(.*))?", line):
            out.append((section, m.group(2), m.group(3), bool(m.group(1)), m.group(4) or ""))
    return out


class TestReadmeConfig:
    def test_every_key_is_a_schema_key_and_every_schema_key_is_listed(self):
        listed = {(section, key) for section, key, _, _, _ in readme_config_lines()}
        assert listed == {(section, key) for section in _SCHEMA for key in _SCHEMA[section]}

    def test_uncommented_values_are_the_defaults(self):
        for section, key, value, commented, _ in readme_config_lines():
            typ, default, _ = _SCHEMA[section][key]
            if not commented and default is not None:
                assert typ(value) == default, f"{section}.{key}"

    def test_each_comment_states_its_rule(self):
        for section, key, _, _, comment in readme_config_lines():
            rule = _SCHEMA[section][key][2]
            for text in rule if isinstance(rule, tuple) else [rule] if rule else []:
                assert re.search(rf"(?<!\w){re.escape(text)}(?!\w)", comment), f"{section}.{key}: {text!r}"
