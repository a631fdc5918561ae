import csv
import json
import re

import numpy as np
import pytest

import deup.cli
import deup.estimator
import deup.models
import deup.smo
from deup.cli import demo_fig1, main, report_command
from deup.core import HYPERPARAMETERS

FAST_CFG = """
[oracle]
name = synth1d

[smo]
n_init = 6
budget = 10
acquisition = {mode}
n_candidates = 128
n_refine = 2

[gp]
n_restarts = 4
noise_variance = 0.0

[deup]
error_gp_restarts = 2
"""


def write_cfg(tmp_path, mode="random", name="exp.cfg"):
    path = tmp_path / name
    path.write_text(FAST_CFG.format(mode=mode))
    return path


class TestRunSmoCommand:
    def test_writes_trace_and_summary_per_seed(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        rc = main(["run-smo", "--config", str(cfg), "--seeds", "0,1", "--out", str(out)])
        assert rc == 0
        for seed in (0, 1):
            assert (out / f"synth1d_random_seed{seed}_trace.csv").exists()
            assert (out / f"synth1d_random_seed{seed}_summary.json").exists()

    def test_refuses_overwrite_without_force(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["run-smo", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["run-smo", "--config", str(cfg), "--out", str(out)]) == 1
        assert main(["run-smo", "--config", str(cfg), "--out", str(out), "--force"]) == 0

    def test_bad_config_exits_nonzero(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[oracle]\nname = synth1d\nbogus = 1\n")
        assert main(["run-smo", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1


class TestDemoFig1:
    def test_outputs_and_columns(self, tmp_path):
        summary = demo_fig1(tmp_path / "fig1", seed=0)
        grid_csv = tmp_path / "fig1" / "fig1_grid_seed0.csv"
        with open(grid_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "x",
            "f_true",
            "gp1_mean",
            "gp1_std",
            "gp2_mean",
            "gp2_std",
            "deup_eu",
            "true_sq_error",
        ]
        assert len(rows) == 1 + 401
        assert np.isfinite(summary["spearman_deup_eu"])

    def test_gp1_std_small_near_training_points(self, tmp_path):
        demo_fig1(tmp_path / "fig1", seed=0)
        grid_csv = tmp_path / "fig1" / "fig1_grid_seed0.csv"
        xs, gp1_std = [], []
        with open(grid_csv, newline="") as fh:
            for row in csv.DictReader(fh):
                xs.append(float(row["x"]))
                gp1_std.append(float(row["gp1_std"]))
        xs = np.array(xs)
        gp1_std = np.array(gp1_std)
        gap_max = gp1_std[(xs >= 0.5) & (xs <= 1.5)].max()
        # Interior of the sampled regions, away from the gap and the boundary.
        near_data = gp1_std[((xs >= 0.1) & (xs <= 0.4)) | ((xs >= 1.6) & (xs <= 1.9))]
        assert near_data.min() <= 0.1 * gap_max

    def test_recalibration_beats_collapsed_variance(self, tmp_path):
        summary = demo_fig1(tmp_path / "fig1", seed=1)
        assert summary["spearman_deup_eu"] > summary["spearman_gp2_variance"]

    def test_cli_entry(self, tmp_path):
        rc = main(["demo-fig1", "--out", str(tmp_path / "f"), "--seed", "2"])
        assert rc == 0


class TestCheckTheoryCommand:
    def test_writes_report_and_passes(self, tmp_path, capsys):
        rc = main(["check-theory", "--out", str(tmp_path / "t")])
        assert rc == 0
        lines = (tmp_path / "t" / "theory_report.csv").read_text().splitlines()
        assert lines[0] == "check,passed,detail"
        assert len(lines) >= 5
        assert "PASS" in capsys.readouterr().out


class TestFitUncertaintyCommand:
    def test_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, mode="deup_ei")
        out = tmp_path / "fit"
        rc = main(["fit-uncertainty", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        du = (out / "error_dataset.csv").read_text().splitlines()
        assert du[0] == "feature_0,target_log_error"
        assert len(du) == 1 + 12  # n_init train rows + n_init held-out rows
        summary = json.loads((out / "fit_summary.json").read_text())
        assert summary["error_rows"] == 12
        assert (out / "eu_grid.csv").exists()


MLP_KEYS = {"epochs": 7, "learning_rate": 0.01, "batch_size": 4, "hidden_layers": 1, "hidden_units": 8}


def spy_fits(monkeypatch):
    """Record (fit function, cfg) of every model fit, keyed by the last label of its
    stream without a step suffix ("main-3" -> "main")."""
    calls = {}
    for module in (deup.models, deup.estimator):
        for name in ("gp_fit", "mlp_fit"):
            fit = getattr(module, name)

            def spy(d, cfg, rng, fit=fit, name=name):
                calls[re.sub(r"-\d+$", "", rng.label.rsplit("/", 1)[-1])] = (name, dict(cfg or {}))
                return fit(d, cfg, rng)

            monkeypatch.setattr(module, name, spy)
    return calls


class TestFitUncertaintyConfigKeys:
    def fit(self, tmp_path, monkeypatch, sections):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("[oracle]\nname = synth1d\nnoise = 0.1\n\n[smo]\nn_init = 6\n\n" + sections)
        calls = spy_fits(monkeypatch)
        assert main(["fit-uncertainty", "--config", str(cfg), "--out", str(tmp_path / "fit")]) == 0
        return calls

    def test_gp_keys_reach_main_error_and_aleatoric_fits(self, tmp_path, monkeypatch):
        calls = self.fit(
            tmp_path,
            monkeypatch,
            "[gp]\nnoise_variance = 0.01\nmax_sweeps = 3\nnoise_floor = 1e-5\n\n"
            "[deup]\nerror_gp_restarts = 2\naleatoric = replicates\nreplicates_k = 3\n",
        )
        name, main_cfg = calls["main"]
        assert name == "gp_fit"
        assert (main_cfg["noise_variance"], main_cfg["max_sweeps"], main_cfg["noise_floor"]) == (0.01, 3, 1e-5)
        name, error_cfg = calls["error"]
        assert name == "gp_fit"
        assert (error_cfg["n_restarts"], error_cfg["noise_floor"]) == (2, 1e-5)
        assert "aleatoric-fit" in calls

    def test_mlp_keys_reach_main_and_error_mlps(self, tmp_path, monkeypatch):
        mlp = "".join(f"{k} = {v}\n" for k, v in MLP_KEYS.items())
        calls = self.fit(tmp_path, monkeypatch, f"[deup]\nmain_model = mlp\nfeatures = x\n\n[mlp]\n{mlp}")
        for label in ("main", "error"):
            name, cfg = calls[label]
            assert name == "mlp_fit"
            assert MLP_KEYS.items() <= cfg.items()


def _fit(label, key=None):
    """Where a key arrives in a model fit: the fit's kind ("gp"/"mlp") or one of its settings."""
    return lambda c: c[label][0].removesuffix("_fit") if key is None else c[label][1][key]


# Every hyperparameter key, with a value other than its default and the place
# that value must arrive. The config sets an MLP main model (so [gp] reaches the
# side variance GP), a GP error model over a layout with x (where `auto` would
# pick an MLP), and replicate-based aleatoric noise, so that every key is read.
KEY_REACH = {
    "oracle.noise": (0.1, lambda c: c["oracle_noise"]),
    "smo.n_candidates": (64, lambda c: c["spec"].n_candidates),
    "smo.n_refine": (1, lambda c: c["spec"].n_refine),
    "smo.beta": (1.5, lambda c: c["spec"].beta),
    "smo.xi": (0.5, lambda c: c["spec"].xi),
    "deup.n_pretrain": (6, lambda c: c["init_state"]["n_pretrain"]),
    "deup.cv_folds": (3, lambda c: c["init_state"]["k"]),
    "deup.main_model": ("mlp", _fit("main")),
    "deup.error_model": ("gp", _fit("error")),
    "deup.error_gp_restarts": (1, _fit("error", "n_restarts")),
    "deup.replicates_k": (3, lambda c: c["replicates"]),
    "gp.kernel": ("matern52", _fit("variance-gp", "kernel")),
    "gp.n_restarts": (2, _fit("variance-gp", "n_restarts")),
    "gp.noise_floor": (1e-5, _fit("variance-gp", "noise_floor")),
    "gp.noise_variance": (0.01, _fit("variance-gp", "noise_variance")),
    "gp.max_sweeps": (3, _fit("variance-gp", "max_sweeps")),
    "mlp.epochs": (7, _fit("main", "epochs")),
    "mlp.learning_rate": (0.01, _fit("main", "learning_rate")),
    "mlp.batch_size": (4, _fit("main", "batch_size")),
    "mlp.hidden_layers": (1, _fit("main", "hidden_layers")),
    "mlp.hidden_units": (8, _fit("main", "hidden_units")),
    "kde.bandwidth": (0.3, lambda c: c["bandwidth"]),
}
# Keys of the acquisition loop, which fit-uncertainty does not run.
RUN_SMO_ONLY = {"smo.n_candidates", "smo.n_refine", "smo.beta", "smo.xi", "deup.n_pretrain", "deup.cv_folds"}


class TestEveryKeyReaches:
    def run(self, tmp_path, monkeypatch, command):
        values = {
            "oracle.name": "synth1d",
            "smo.n_init": 4,
            "smo.budget": 5,
            "deup.features": "x,log_density,log_variance",
            "deup.aleatoric": "replicates",
            **{key: value for key, (value, _) in KEY_REACH.items()},
        }
        sections = {}
        for key, value in values.items():
            section, name = key.split(".")
            sections.setdefault(section, []).append(f"{name} = {value}\n")
        cfg = tmp_path / "keys.cfg"
        cfg.write_text("".join(f"[{s}]\n" + "".join(lines) + "\n" for s, lines in sections.items()))

        calls = spy_fits(monkeypatch)

        def spy(module, name, record):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                record(*args, **kwargs)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        def replicates(groups, *a):
            calls["replicates"] = len(groups[0][1])

        for module in (deup.smo, deup.cli):
            spy(module, "make_oracle", lambda *a, noise, **kw: calls.update(oracle_noise=noise))
        spy(deup.smo, "argmax_acquisition", lambda spec, *a: calls.update(spec=spec))
        spy(deup.estimator, "deup_init_state", lambda *a, **kw: calls.update(init_state=kw))
        spy(deup.estimator, "estimate_aleatoric_from_replicates", replicates)
        spy(deup.estimator, "kde_fit", lambda d, bandwidth: calls.update(bandwidth=bandwidth))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        return calls

    def test_every_hyperparameter_has_a_row(self):
        assert set(KEY_REACH) == set(HYPERPARAMETERS)
        assert all(value != HYPERPARAMETERS[key] for key, (value, _) in KEY_REACH.items())

    def test_run_smo(self, tmp_path, monkeypatch):
        calls = self.run(tmp_path, monkeypatch, "run-smo")
        for key, (value, arrived) in KEY_REACH.items():
            assert arrived(calls) == value, key

    def test_fit_uncertainty(self, tmp_path, monkeypatch):
        calls = self.run(tmp_path, monkeypatch, "fit-uncertainty")
        for key, (value, arrived) in KEY_REACH.items():
            if key not in RUN_SMO_ONLY:
                assert arrived(calls) == value, key


class TestReportCommand:
    def make_traces(self, tmp_path, modes=("random", "ei"), seeds=(0, 1, 2)):
        out = tmp_path / "traces"
        for mode in modes:
            cfg = write_cfg(tmp_path, mode=mode, name=f"{mode}.cfg")
            seed_list = ",".join(str(s) for s in seeds)
            assert main(["run-smo", "--config", str(cfg), "--seeds", seed_list, "--out", str(out)]) == 0
        return out

    def test_per_mode_rows_and_se(self, tmp_path):
        out = self.make_traces(tmp_path)
        path = report_command(out)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_mode = {}
        for r in rows:
            by_mode.setdefault(r["mode"], []).append(r)
        # budget 10, n_init 6: one row per step incl. the init best
        assert {m: len(v) for m, v in by_mode.items()} == {"random": 5, "ei": 5}
        assert all(int(r["n_runs"]) == 3 for r in rows)
        assert all(float(r["stderr"]) >= 0 for r in rows)

    def test_single_seed_zero_stderr(self, tmp_path):
        out = self.make_traces(tmp_path, modes=("random",), seeds=(0,))
        path = report_command(out)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["stderr"]) == 0.0 for r in rows)

    def test_refuses_mixed_oracles(self, tmp_path):
        out = self.make_traces(tmp_path, modes=("random",), seeds=(0,))
        other = tmp_path / "levi.cfg"
        other.write_text(
            "[oracle]\nname = levi13\n\n[smo]\nn_init = 6\nbudget = 8\nacquisition = random\n"
        )
        assert main(["run-smo", "--config", str(other), "--out", str(out)]) == 0
        with pytest.raises(ValueError, match="different oracles"):
            report_command(out)

    def test_empty_dir_is_error(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert main(["report", "--traces", str(tmp_path / "empty")]) == 1
