import re
from pathlib import Path

import numpy as np
import pytest

from deup.core import (
    _SCHEMA,
    HYPERPARAMETERS,
    Acquisition,
    ConfigError,
    Dataset,
    ExperimentConfig,
    Feature,
    LabeledExample,
    RngStream,
    ValidationError,
    load_config,
    split_dataset,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def make_dataset(n, d=2, seed=0):
    gen = np.random.default_rng(seed)
    return Dataset.from_arrays(gen.normal(size=(n, d)), gen.normal(size=n))


class TestDataset:
    def test_exact_membership(self):
        d = make_dataset(5)
        assert d.contains(d[2].x)
        assert not d.contains(d[2].x + 1e-8)
        assert not d.contains(np.array([99.0, 99.0]))

    def test_append_preserves_order(self):
        d = Dataset()
        for i in range(4):
            d.append_xy([float(i)], float(i) * 2)
        assert [ex.y for ex in d] == [0.0, 2.0, 4.0, 6.0]
        assert d.dimension == 1

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            LabeledExample(np.array([np.nan]), 0.0)
        with pytest.raises(ValidationError):
            LabeledExample(np.array([0.0]), np.inf)

    def test_dimension_mismatch(self):
        d = make_dataset(3, d=2)
        with pytest.raises(ValidationError):
            d.append_xy([1.0], 0.0)

    def test_fingerprint_changes_on_append(self):
        d = make_dataset(3)
        before = d.fingerprint()
        d.append_xy([9.0, 9.0], 1.0)
        assert d.fingerprint() != before

    def test_copy_is_independent(self):
        d = make_dataset(3)
        c = d.copy()
        c.append_xy([5.0, 5.0], 0.0)
        assert len(d) == 3 and len(c) == 4


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


class TestSplitDataset:
    def test_even_partition(self):
        d = make_dataset(6)
        parts = split_dataset(d, 2, RngStream(0, "split"))
        assert [len(p) for p in parts] == [3, 3]
        keys = set()
        for p in parts:
            keys.update(ex.x.tobytes() for ex in p)
        assert keys == {ex.x.tobytes() for ex in d}

    def test_remainder_to_first_subsets(self):
        parts = split_dataset(make_dataset(7), 2, RngStream(0, "split"))
        assert [len(p) for p in parts] == [4, 3]

    def test_deterministic(self):
        d = make_dataset(10)
        a = split_dataset(d, 3, RngStream(4, "split"))
        b = split_dataset(d, 3, RngStream(4, "split"))
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.inputs(), pb.inputs())

    def test_partition_property_random_sizes(self):
        gen = np.random.default_rng(11)
        for trial in range(25):
            n = int(gen.integers(2, 40))
            k = int(gen.integers(2, n + 1))
            d = make_dataset(n, seed=trial)
            parts = split_dataset(d, k, RngStream(trial, "split"))
            sizes = [len(p) for p in parts]
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1
            seen = [ex.x.tobytes() for p in parts for ex in p]
            assert len(seen) == len(set(seen)) == n

    def test_k_larger_than_dataset(self):
        with pytest.raises(ValueError):
            split_dataset(make_dataset(3), 4, RngStream(0, "split"))


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
        with pytest.raises(ValidationError):
            load_config(path)

    def test_empty_features_with_deup_acquisition(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "[oracle]\nname = synth1d\n\n[smo]\nacquisition = deup_ei\n\n[deup]\nfeatures =\n"
        )
        with pytest.raises(ValidationError):
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
        with pytest.raises(ValidationError):
            load_config(path)

    def test_feature_list_parsing(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "[oracle]\nname = synth1d\n\n[deup]\nfeatures = x, seen_bit, log_density\n"
        )
        cfg = load_config(path)
        assert cfg.feature_set == frozenset({Feature.X, Feature.SEEN_BIT, Feature.LOG_DENSITY})
        assert cfg.layout() == (Feature.X, Feature.SEEN_BIT, Feature.LOG_DENSITY)

    def test_choice_keys_are_lower_cased(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "[oracle]\nname = synth1d\n\n[deup]\nmain_model = GP\nerror_model = GP\n\n[gp]\nkernel = RBF\n"
        )
        cfg = load_config(path)
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


class TestExperimentConfig:
    @pytest.mark.parametrize("key", ["gp.kernal", "smo.budget"])
    def test_validate_rejects_keys_that_are_not_hyperparameters(self, key):
        cfg = ExperimentConfig(oracle_name="synth1d", dimension=1, hyperparameters={key: 1})
        with pytest.raises(ConfigError, match=re.escape(key)):
            cfg.validate()

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


def readme_config_lines():
    """(section, key, value, commented) for each `key = value` line of the README's ini block."""
    block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    section, out = None, []
    for line in block.splitlines():
        if m := re.match(r"\[(\w+)\]", line):
            section = m.group(1)
        elif m := re.match(r"(#\s*)?(\w+)\s*=\s*([^\s#]*)", line):
            out.append((section, m.group(2), m.group(3), bool(m.group(1))))
    return out


class TestReadmeConfig:
    def test_every_key_is_a_schema_key_and_every_schema_key_is_listed(self):
        listed = {(section, key) for section, key, _, _ in readme_config_lines()}
        assert listed == {(section, key) for section in _SCHEMA for key in _SCHEMA[section]}

    def test_uncommented_values_are_the_defaults(self):
        for section, key, value, commented in readme_config_lines():
            typ, default = _SCHEMA[section][key]
            if not commented and default is not None:
                assert typ(value) == default, f"{section}.{key}"
