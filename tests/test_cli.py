import csv
import hashlib
import json
import multiprocessing
import os
import re

import numpy as np
import pytest
from scipy.stats import ConstantInputWarning, spearmanr

import deup.cli
import deup.estimator
import deup.models
import deup.smo
from deup.cli import _max_workers, _spearman, demo_fig1, fit_uncertainty_command, main, report_command, run_smo_command
from deup.core import HYPERPARAMETERS, ConfigError

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


REAL_RUN_SMO = deup.cli.run_smo


def failing_seed_one(cfg):
    if cfg.seed == 1:
        raise RuntimeError("injected failure")
    return REAL_RUN_SMO(cfg)


def trace_rows_without_ms(path):
    with open(path, newline="") as fh:
        return [row[:-1] for row in csv.reader(fh)]


class TestRunSmoSeeds:
    @pytest.mark.parametrize(
        "workers, message",
        [("1", "error: injected failure"), ("2", "seed 1: raised RuntimeError: injected failure")],
    )
    def test_failing_seed_keeps_the_other_seeds_files(self, tmp_path, monkeypatch, capsys, workers, message):
        # Worker processes see the patched module only when they are forked.
        if workers != "1" and multiprocessing.get_start_method() != "fork":
            pytest.skip("the injected failure reaches workers only through fork")
        monkeypatch.setenv("DEUP_THREADS", workers)
        monkeypatch.setattr(deup.cli, "run_smo", failing_seed_one)
        out = tmp_path / "out"
        rc = main(["run-smo", "--config", str(write_cfg(tmp_path)), "--seeds", "0,1", "--out", str(out)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == [
            "synth1d_random_seed0_summary.json",
            "synth1d_random_seed0_trace.csv",
        ]

    def test_repeated_seed_is_rejected_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run-smo", "--config", str(write_cfg(tmp_path)), "--seeds", "0,1,0", "--out", str(out)])
        assert rc == 1
        assert "seeds [0] repeated" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "seeds, message",
        [
            (",", "',' names no seed"),
            ("", "'' names no seed"),
            (" , ,", "' , ,' names no seed"),
            ("0,x", "seed 'x' is not an integer"),
            ("0, 1.5", "seed '1.5' is not an integer"),
        ],
    )
    def test_a_seed_list_naming_no_integer_seed_is_refused_before_any_output(self, tmp_path, capsys, seeds, message):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exited:
            main(["run-smo", "--config", str(write_cfg(tmp_path)), f"--seeds={seeds}", "--out", str(out)])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --seeds: {message}" in err
        assert "_parse_seeds" not in err
        assert not out.exists()

    def test_a_seed_list_skips_empty_entries(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run-smo", "--config", str(write_cfg(tmp_path)), "--seeds", " 3,,4, ", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*_trace.csv")) == ["synth1d_random_seed3_trace.csv", "synth1d_random_seed4_trace.csv"]

    def test_python_seeds_none_runs_the_config_seed_and_an_empty_list_is_refused(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FAST_CFG.format(mode="random").replace("[smo]\n", "[smo]\nseed = 7\n"))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="no seeds to run"):
            run_smo_command(cfg, [], out)
        assert not out.exists()
        written = run_smo_command(cfg, None, out)
        assert sorted(p.name for p in written) == ["synth1d_random_seed7_summary.json", "synth1d_random_seed7_trace.csv"]

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_worker_cap_is_rejected_before_any_output(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("DEUP_THREADS", value)
        out = tmp_path / "out"
        rc = main(["run-smo", "--config", str(write_cfg(tmp_path)), "--seeds", "0,1", "--out", str(out)])
        assert rc == 1
        assert f"DEUP_THREADS must be a positive integer, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_two_workers_match_a_serial_run(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, mode="ei")
        monkeypatch.setenv("DEUP_THREADS", "2")
        assert main(["run-smo", "--config", str(cfg), "--seeds", "0,1", "--out", str(tmp_path / "par")]) == 0
        monkeypatch.setenv("DEUP_THREADS", "1")
        assert main(["run-smo", "--config", str(cfg), "--seeds", "0,1", "--out", str(tmp_path / "ser")]) == 0
        for seed in (0, 1):
            name = f"synth1d_ei_seed{seed}_trace.csv"
            assert trace_rows_without_ms(tmp_path / "par" / name) == trace_rows_without_ms(tmp_path / "ser" / name)
            summary = f"synth1d_ei_seed{seed}_summary.json"
            assert (tmp_path / "par" / summary).read_text() == (tmp_path / "ser" / summary).read_text()

    def test_workers_default_to_the_cpus_this_process_may_run_on(self, monkeypatch):
        # A container pinned to 1 of 64 host CPUs runs one worker, not one per seed.
        monkeypatch.delenv("DEUP_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _max_workers(4) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _max_workers(4) == 4


class TestLibraryWarnings:
    def test_elevated_jitter_warning_reaches_stderr(self, tmp_path, monkeypatch, capsys):
        real_chol = deup.models._chol_with_jitter

        def high_base(kernel, log_ls, signal, noise, base_jitter, clean=0):
            return real_chol(kernel, log_ls, signal, noise, 1e3 * base_jitter, clean=clean)

        monkeypatch.setattr(deup.models, "_chol_with_jitter", high_base)
        cfg = write_cfg(tmp_path, mode="ei")
        assert main(["run-smo", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert "WARNING deup.models: GP fit used elevated jitter" in capsys.readouterr().err


class TestSpearman:
    """demo_fig1's rank correlation is scipy's spearmanr, bit for bit, without importing scipy.stats."""

    GEN = np.random.default_rng(4)
    A = GEN.normal(size=60)
    B = A + GEN.normal(size=60)

    @pytest.mark.parametrize(
        "a, b",
        [(A, B), (np.round(A), np.round(2 * B) / 2), (np.round(A), -A), ([3, 1, 2, 2, 5, 1], [1, 2, 3, 4, 5, 6])],
        ids=["no-ties", "ties-in-both", "ties-in-one", "small"],
    )
    def test_equals_scipy(self, a, b):
        assert np.float64(_spearman(a, b)).tobytes() == np.float64(spearmanr(a, b).statistic).tobytes()

    @pytest.mark.parametrize("a, b", [(np.ones(5), np.arange(5.0)), (np.arange(5.0), np.full(5, 2.0))])
    def test_constant_input_is_nan(self, a, b):
        with pytest.warns(ConstantInputWarning):
            assert np.isnan(spearmanr(a, b).statistic)
        assert np.isnan(_spearman(a, b))


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

    def test_existing_grid_stops_it_before_any_write(self, tmp_path, capsys):
        out = tmp_path / "fit"
        out.mkdir()
        (out / "eu_grid.csv").write_text("kept\n")
        rc = main(["fit-uncertainty", "--config", str(write_cfg(tmp_path, mode="deup_ei")), "--out", str(out)])
        assert rc == 1
        assert "eu_grid.csv exists; pass --force" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["eu_grid.csv"]
        assert (out / "eu_grid.csv").read_text() == "kept\n"

    def test_an_empty_feature_set_is_refused_before_any_output(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FAST_CFG.format(mode="ei") + "features =\n")  # [deup] is the last section
        out = tmp_path / "fit"
        message = "key 'deup.features': must be nonempty for fit-uncertainty"
        with pytest.raises(ConfigError, match=re.escape(message)):
            fit_uncertainty_command(cfg, out)
        assert main(["fit-uncertainty", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


# sha256 of fit-uncertainty's outputs for a small levi13 config with all four
# features (so u is the MLP and every feature column is exported). Host-pinned
# like `PINNED_TRACES` in test_smo.py.
PINNED_FIT_UNCERTAINTY = {
    "error_dataset.csv": "d240b71127573975364f6032de395c391e36afd6465a053e137b726273a29f1d",
    "eu_grid.csv": "ffab1d3ad2dfc848c63f88480fedb65223ab51c95eea9876d9e4b932e338cbd9",
}


def test_pinned_fit_uncertainty_outputs(tmp_path):
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(
        "[oracle]\nname = levi13\n\n[smo]\nn_init = 8\n\n"
        "[deup]\nfeatures = x,seen_bit,log_density,log_variance\n\n"
        "[mlp]\nepochs = 100\nhidden_units = 32\n"
    )
    assert main(["fit-uncertainty", "--config", str(cfg), "--out", str(tmp_path / "fit")]) == 0
    digests = {name: hashlib.sha256((tmp_path / "fit" / name).read_bytes()).hexdigest() for name in PINNED_FIT_UNCERTAINTY}
    assert digests == PINNED_FIT_UNCERTAINTY


def output_digest(path, out_dir):
    """sha256 of a written file, with `out_dir` (recorded in the JSON summaries)
    read as "OUT" and each trace row's wall-clock `ms` field dropped."""
    data = path.read_bytes().replace(str(out_dir).encode(), b"OUT")
    if path.name.endswith("_trace.csv"):
        data = re.sub(rb",[^,\r\n]*\r\n", b"\r\n", data)
    return hashlib.sha256(data).hexdigest()


# sha256 of every file the commands write, by command, from `output_digest`.
# Generated before the outputs moved to `core.write_csv`/`core.write_json`, so
# they pin every byte of the format. Host-pinned like `PINNED_TRACES`.
PINNED_OUTPUTS = {
    "run-smo": {
        "synth1d_deup_ei_seed0_summary.json": "99c16d2a4ced36906ae119902ede6ad68a3417629c454aa98f468b71def5fa13",
        "synth1d_deup_ei_seed0_trace.csv": "cf77063e57300092667ff97cf099297bc3f9a93f41a1e1828735738827af4532",
        "synth1d_deup_ei_seed1_summary.json": "cbb0aabe9ae51fccbdc5b554da03f7a15d06820524febb7094ebf697ee5b8cb7",
        "synth1d_deup_ei_seed1_trace.csv": "dfe307cacbcc073ec565084150511cbb7b8ad3b4d93e4d98a56a10427262a4f9",
        "synth1d_random_seed0_summary.json": "b00c0d486b4f50432622bb5efa6ab92fcf02f96cf2ece9326e0241da9e10f163",
        "synth1d_random_seed0_trace.csv": "efebfd660e3ac6a2c19027f874d57fe7a1a7ae5ae826bfefa903129e9f97db84",
        "synth1d_random_seed1_summary.json": "d1244dc2f085d6b36070ee701479b10485d46d3563b7994f8dd2a740ca290cd5",
        "synth1d_random_seed1_trace.csv": "63308a62595e5cc0ea0c4a46695b87fd11fcca873bb958f012633767d1b314e2",
        "report.csv": "4b85ae7df318ab8b946f3c0e2fd856d18c86e17b95daacbce6cecf957c745ccf",
    },
    "demo-fig1": {
        "fig1_grid_seed0.csv": "5645ae6afdf1e45d41d23266605de0fb7dd0bbb0481d19a0c4800c45ca6e5fd6",
        "fig1_summary_seed0.json": "ce8cdc31cf7bd9302c5f5eab182526d69353f10ff531933b1a52848f39368c77",
    },
    "check-theory": {
        "theory_report.csv": "e4e182ec045754893956a0db7676da8639990ac39f32e674332d5554c0af5854",
    },
    "fit-uncertainty": {
        "error_dataset.csv": "f22e24323d4ceb0e29f87c44efb5781d73172741d1f9336495516dc7d01a2765",
        "eu_grid.csv": "c0271cf3ddd5f54aeec5e7a0a1b65fadfc2bb18a6d2231518d698a473b9f86c5",
        "fit_summary.json": "70ac486366a72608ee57fda5c4eb84ebb0a47e01254cddc8a7310465be1bd293",
    },
}


@pytest.mark.parametrize("command", sorted(PINNED_OUTPUTS))
def test_pinned_outputs(tmp_path, command):
    out = tmp_path / "out"
    if command == "run-smo":
        for mode in ("deup_ei", "random"):
            cfg = write_cfg(tmp_path, mode=mode, name=f"{mode}.cfg")
            assert main(["run-smo", "--config", str(cfg), "--seeds", "0,1", "--out", str(out)]) == 0
        assert main(["report", "--traces", str(out)]) == 0
    elif command == "fit-uncertainty":
        assert main([command, "--config", str(write_cfg(tmp_path, mode="deup_ei")), "--out", str(out)]) == 0
    else:
        assert main([command, "--out", str(out)]) == 0
    digests = {p.name: output_digest(p, out) for p in out.iterdir()}
    assert digests == PINNED_OUTPUTS[command]


MLP_KEYS = {"epochs": 7, "learning_rate": 0.01, "batch_size": 4, "hidden_layers": 1, "hidden_units": 8}


def spy_fits(monkeypatch):
    """Record (fit function, cfg) of every model fit, keyed by the last label of its
    stream without a step suffix ("main-3" -> "main")."""
    calls = {}
    for name in ("gp_fit", "mlp_fit"):
        fit = getattr(deup.models, name)

        def spy(d, cfg, rng, fit=fit, name=name, **kwargs):
            calls[re.sub(r"-\d+$", "", rng.label.rsplit("/", 1)[-1])] = (name, dict(cfg or {}))
            return fit(d, cfg, rng, **kwargs)

        monkeypatch.setattr(deup.models, name, spy)
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
        assert error_cfg.keys() == {"n_restarts", "max_sweeps", "noise_floor"}
        assert "aleatoric-fit" in calls

    def test_mlp_keys_reach_main_and_error_mlps(self, tmp_path, monkeypatch):
        mlp = "".join(f"{k} = {v}\n" for k, v in MLP_KEYS.items())
        calls = self.fit(tmp_path, monkeypatch, f"[deup]\nmain_model = mlp\nfeatures = x\n\n[mlp]\n{mlp}")
        for label in ("main", "error"):
            name, cfg = calls[label]
            assert name == "mlp_fit"
            assert MLP_KEYS.items() <= cfg.items()
        assert calls["error"][1].keys() == MLP_KEYS.keys()


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

    def test_refuses_mixed_dimensions(self, tmp_path):
        out = tmp_path / "traces"
        for seed, dimension in ((0, 2), (1, 3)):
            cfg = tmp_path / f"ackley{dimension}.cfg"
            cfg.write_text(
                f"[oracle]\nname = ackley\ndimension = {dimension}\n\n"
                f"[smo]\nn_init = 6\nbudget = 8\nacquisition = random\nseed = {seed}\n"
            )
            assert main(["run-smo", "--config", str(cfg), "--out", str(out)]) == 0
        with pytest.raises(ValueError, match=r"different dimensions: \[2, 3\]"):
            report_command(out)

    def test_refuses_one_mode_with_different_configs(self, tmp_path):
        out = self.make_traces(tmp_path, modes=("random",), seeds=(0,))
        other = tmp_path / "other.cfg"
        other.write_text(FAST_CFG.format(mode="random").replace("n_candidates = 128", "n_candidates = 64"))
        assert main(["run-smo", "--config", str(other), "--seeds", "1", "--out", str(out)]) == 0
        with pytest.raises(ValueError, match=r"random traces whose configs differ in \['smo.n_candidates'\]"):
            report_command(out)

    def test_refuses_incomplete_trace(self, tmp_path, monkeypatch, capsys):
        real_fit = deup.models.gp_fit

        def fail_seed_one_at_step_two(d, cfg, rng):
            if rng.seed == 1 and rng.label.endswith("/fit-2"):
                raise RuntimeError("injected fit failure")
            return real_fit(d, cfg, rng)

        monkeypatch.setenv("DEUP_THREADS", "1")
        monkeypatch.setattr(deup.models, "gp_fit", fail_seed_one_at_step_two)
        out = self.make_traces(tmp_path, modes=("ei",), seeds=(0, 1))
        capsys.readouterr()
        assert main(["report", "--traces", str(out)]) == 1
        err = capsys.readouterr().err
        assert "incomplete trace" in err
        assert str(out / "synth1d_ei_seed1_trace.csv") in err
        assert "RuntimeError: injected fit failure" in err
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("removed", ["_trace.csv", "_summary.json"])
    def test_refuses_a_trace_file_without_its_partner(self, tmp_path, capsys, removed):
        out = self.make_traces(tmp_path, modes=("random",))
        (out / f"synth1d_random_seed1{removed}").unlink()
        kept = "_summary.json" if removed == "_trace.csv" else "_trace.csv"
        capsys.readouterr()
        assert main(["report", "--traces", str(out)]) == 1
        err = capsys.readouterr().err
        assert "without their summary or trace CSV" in err
        assert str(out / f"synth1d_random_seed1{kept}") in err
        assert not (out / "report.csv").exists()

    def test_refuses_a_trace_csv_shorter_than_its_summary(self, tmp_path, capsys):
        out = self.make_traces(tmp_path, modes=("random",))
        csv_path = out / "synth1d_random_seed2_trace.csv"
        lines = csv_path.read_text().splitlines(keepends=True)
        csv_path.write_text("".join(lines[:2]))  # the header and the first of 4 records
        capsys.readouterr()
        assert main(["report", "--traces", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{csv_path} has 1 rows, but {out / 'synth1d_random_seed2_summary.json'} has n_records 4" in err
        assert not (out / "report.csv").exists()

    def test_empty_dir_is_error(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert main(["report", "--traces", str(tmp_path / "empty")]) == 1
