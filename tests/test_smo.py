import numpy as np
import pytest

import deup.estimator
import deup.smo
from deup.core import Acquisition, AleatoricMode, ExperimentConfig, Feature, NumericsError
from deup.smo import best_so_far, read_trace, run_smo

FAST_HP = {
    "smo.n_candidates": 128,
    "smo.n_refine": 2,
    "gp.n_restarts": 4,
    "gp.noise_variance": 0.0,
    "deup.error_gp_restarts": 2,
}


def config(acquisition, budget=16, n_init=6, seed=0, **hp):
    return ExperimentConfig(
        oracle_name="synth1d",
        dimension=1,
        n_init=n_init,
        budget=budget,
        acquisition=acquisition,
        seed=seed,
        hyperparameters={**FAST_HP, **hp},
    )


class TestRunSmo:
    def test_random_mode_bookkeeping(self):
        trace = run_smo(config(Acquisition.RANDOM, budget=56, n_init=6))
        assert len(trace.records) == 50
        assert trace.evaluations == 56
        bests = [r.best for r in trace.records]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
        assert not trace.incomplete

    def test_shared_init_across_modes(self):
        t_gp = run_smo(config(Acquisition.EI, seed=3))
        t_deup = run_smo(config(Acquisition.DEUP_EI, seed=3))
        np.testing.assert_array_equal(t_gp.init_X, t_deup.init_X)
        np.testing.assert_array_equal(t_gp.init_y, t_deup.init_y)

    def test_oracle_call_budget_exact(self):
        for kind in (Acquisition.RANDOM, Acquisition.EI, Acquisition.DEUP_EI):
            trace = run_smo(config(kind, budget=12, n_init=6))
            assert trace.evaluations == 12
            assert len(trace.records) == 12 - 6

    def test_deterministic_rerun_bitwise(self):
        a = run_smo(config(Acquisition.DEUP_EI, seed=11))
        b = run_smo(config(Acquisition.DEUP_EI, seed=11))
        np.testing.assert_array_equal(a.init_X, b.init_X)
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra == rb  # ms excluded from record equality

    def test_deup_ucb_and_gp_ucb_run(self):
        for kind in (Acquisition.UCB, Acquisition.DEUP_UCB):
            trace = run_smo(config(kind, budget=10))
            assert len(trace.records) == 4

    def test_mlp_main_model(self):
        trace = run_smo(
            config(Acquisition.DEUP_EI, budget=9, **{"deup.main_model": "mlp", "mlp.epochs": 60})
        )
        assert len(trace.records) == 3
        assert not trace.incomplete

    def test_mlp_keys_reach_error_mlp(self, monkeypatch):
        epochs = []
        mlp_fit = deup.estimator.mlp_fit

        def spy(d, cfg, rng):
            epochs.append(cfg.get("epochs"))
            return mlp_fit(d, cfg, rng)

        monkeypatch.setattr(deup.estimator, "mlp_fit", spy)
        cfg = config(Acquisition.DEUP_EI, budget=8, **{"mlp.epochs": 7})
        run_smo(cfg.replace(feature_set=frozenset({Feature.X, Feature.LOG_VARIANCE})))
        assert epochs and all(e == 7 for e in epochs)

    def test_gp_keys_reach_side_variance_gp(self, monkeypatch):
        kernels = []
        gp_fit = deup.estimator.gp_fit

        def spy(d, cfg, rng):
            if rng.label.endswith("/variance-gp"):
                kernels.append(cfg["kernel"])
            return gp_fit(d, cfg, rng)

        monkeypatch.setattr(deup.estimator, "gp_fit", spy)
        hp = {"deup.main_model": "mlp", "mlp.epochs": 7, "gp.kernel": "matern52"}
        run_smo(config(Acquisition.DEUP_EI, budget=8, **hp))
        assert kernels and all(k == "matern52" for k in kernels)

    @pytest.mark.parametrize("kind", [Acquisition.EI, Acquisition.UCB, Acquisition.DEUP_EI])
    def test_epistemic_column_is_the_scored_models_spread(self, kind, monkeypatch):
        steps = []
        argmax = deup.smo.argmax_acquisition

        def spy(spec, domain, ctx, rng):
            x = argmax(spec, domain, ctx, rng)
            steps.append((ctx.model, x))
            return x

        monkeypatch.setattr(deup.smo, "argmax_acquisition", spy)
        trace = run_smo(config(kind, budget=10))
        expected = [
            model.epistemic_batch(x[None])[0] if kind.uses_error_model else model.predict_batch(x[None])[1][0]
            for model, x in steps
        ]
        assert [r.epistemic for r in trace.records] == expected

    def test_epistemic_recorded_for_deup(self):
        trace = run_smo(config(Acquisition.DEUP_EI, budget=10))
        assert all(np.isfinite(r.epistemic) and r.epistemic >= 0 for r in trace.records)

    def test_known_aleatoric_mode(self):
        cfg = ExperimentConfig(
            oracle_name="synth1d",
            dimension=1,
            n_init=6,
            budget=10,
            acquisition=Acquisition.DEUP_EI,
            seed=0,
            aleatoric_mode=AleatoricMode.KNOWN,
            hyperparameters={**FAST_HP, "oracle.noise": 0.1, "gp.noise_variance": None},
        )
        trace = run_smo(cfg)
        assert len(trace.records) == 4

    @pytest.mark.incomplete_ok
    @pytest.mark.parametrize("error", [NumericsError, ValueError])
    def test_fit_failure_yields_incomplete_trace(self, error, monkeypatch):
        import deup.smo as smo_mod

        calls = {"n": 0}
        real_fit = smo_mod.gp_fit

        def flaky_fit(d, cfg, rng):
            calls["n"] += 1
            if calls["n"] > 2:
                raise error("synthetic factorization failure")
            return real_fit(d, cfg, rng)

        monkeypatch.setattr(smo_mod, "gp_fit", flaky_fit)
        trace = run_smo(config(Acquisition.EI, budget=12))
        assert trace.incomplete
        assert trace.failure == f"{error.__name__}: synthetic factorization failure"
        assert 0 < len(trace.records) < 6

    def test_replicates_aleatoric_mode(self):
        cfg = ExperimentConfig(
            oracle_name="synth1d",
            dimension=1,
            n_init=4,
            budget=7,
            acquisition=Acquisition.DEUP_EI,
            seed=0,
            aleatoric_mode=AleatoricMode.REPLICATES,
            hyperparameters={
                **FAST_HP,
                "oracle.noise": 0.1,
                "gp.noise_variance": None,
                "deup.replicates_k": 3,
            },
        )
        trace = run_smo(cfg)
        assert len(trace.records) == 3


class TestBestSoFar:
    def test_running_max(self):
        trace = run_smo(config(Acquisition.RANDOM, budget=9, n_init=6))
        curve = best_so_far(trace)
        assert len(curve) == 4  # init best + 3 steps
        assert curve[0] == trace.init_best
        recomputed = [trace.init_best]
        for r in trace.records:
            recomputed.append(max(recomputed[-1], r.y))
        assert curve == recomputed

    def test_final_equals_max_of_all_values(self):
        trace = run_smo(config(Acquisition.RANDOM, budget=12, n_init=6))
        all_y = list(trace.init_y) + [r.y for r in trace.records]
        assert best_so_far(trace)[-1] == max(all_y)

    def test_idempotent_recompute(self):
        trace = run_smo(config(Acquisition.RANDOM, budget=10, n_init=6))
        assert best_so_far(trace) == best_so_far(trace)


class TestTraceSerialization:
    def test_csv_and_summary_round_trip(self, tmp_path):
        trace = run_smo(config(Acquisition.DEUP_EI, budget=10))
        csv_path = tmp_path / "t_trace.csv"
        json_path = tmp_path / "t_summary.json"
        trace.to_csv(csv_path)
        trace.write_summary(json_path)

        header = csv_path.read_text().splitlines()[0]
        assert header == "step,x_0,y,best,acq_value,epistemic,ms"

        loaded = read_trace(csv_path, json_path)
        assert loaded["config"]["acquisition"] == "deup_ei"
        assert loaded["init_best"] == trace.init_best
        np.testing.assert_allclose(loaded["best_by_step"], [r.best for r in trace.records])
        assert loaded["final_best"] == trace.final_best

    def test_csv_identical_across_reruns_except_ms(self, tmp_path):
        def strip_ms(path):
            lines = path.read_text().splitlines()
            return ["," .join(line.split(",")[:-1]) for line in lines]

        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_smo(config(Acquisition.EI, seed=2)).to_csv(p1)
        run_smo(config(Acquisition.EI, seed=2)).to_csv(p2)
        assert strip_ms(p1) == strip_ms(p2)
