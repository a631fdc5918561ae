import hashlib

import numpy as np
import pytest

import deup.models
import deup.smo
from deup.benchmarks import make_oracle
from deup.core import Acquisition, AleatoricMode, Dataset, ExperimentConfig, Feature, NumericsError, RngStream
from deup.estimator import DeupState, UncertaintyModel
from deup.models import GPPredictor, Learner, gp_fit
from deup.smo import GpState, StepRecord, best_so_far, build_aleatoric, initial_state, read_trace, run_smo

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
        mlp_fit = deup.models.mlp_fit

        def spy(d, cfg, rng, init=None):
            epochs.append(cfg.get("epochs"))
            return mlp_fit(d, cfg, rng, init=init)

        monkeypatch.setattr(deup.models, "mlp_fit", spy)
        cfg = config(Acquisition.DEUP_EI, budget=8, **{"mlp.epochs": 7})
        run_smo(cfg.replace(feature_set=frozenset({Feature.X, Feature.LOG_VARIANCE})))
        assert epochs and all(e == 7 for e in epochs)

    def test_error_mlp_without_pretraining_fits_from_scratch_then_warm_starts(self, monkeypatch):
        inits, fits = [], []
        mlp_fit = deup.models.mlp_fit

        def spy(d, cfg, rng, init=None):
            inits.append(init)
            fits.append(mlp_fit(d, cfg, rng, init=init))
            return fits[-1]

        monkeypatch.setattr(deup.models, "mlp_fit", spy)
        cfg = config(Acquisition.DEUP_EI, budget=10, **{"mlp.epochs": 20, "deup.n_pretrain": 0})
        trace = run_smo(cfg.replace(feature_set=frozenset({Feature.X, Feature.LOG_VARIANCE})))
        assert len(trace.records) == 4 and not trace.incomplete
        # u is a constant until D_u holds 2 rows; the first MLP fit (step 1) has
        # no MLP to start from, every later one starts from the u it replaces.
        assert len(inits) == 4 and inits[0] is None
        assert all(init is fit for init, fit in zip(inits[1:], fits))

    def test_gp_keys_reach_side_variance_gp(self, monkeypatch):
        kernels = []
        gp_fit = deup.models.gp_fit

        def spy(d, cfg, rng):
            if rng.label.endswith("/variance-gp"):
                kernels.append(cfg["kernel"])
            return gp_fit(d, cfg, rng)

        monkeypatch.setattr(deup.models, "gp_fit", spy)
        hp = {"deup.main_model": "mlp", "mlp.epochs": 7, "gp.kernel": "matern52"}
        run_smo(config(Acquisition.DEUP_EI, budget=8, **hp))
        assert kernels and all(k == "matern52" for k in kernels)

    @pytest.mark.parametrize("kind", [Acquisition.EI, Acquisition.UCB, Acquisition.DEUP_EI])
    def test_epistemic_column_is_the_scored_models_spread(self, kind, monkeypatch):
        steps = []
        argmax = deup.smo.argmax_acquisition

        def spy(spec, domain, model, best, rng):
            x = argmax(spec, domain, model, best, rng)
            steps.append((model, x))
            return x

        monkeypatch.setattr(deup.smo, "argmax_acquisition", spy)
        trace = run_smo(config(kind, budget=10))
        expected = [
            model.epistemic_batch(x[None])[0] if kind.uses_error_model else model.predict_batch(x[None])[1][0]
            for model, x in steps
        ]
        assert [r.epistemic for r in trace.records] == expected

    @pytest.mark.parametrize("kind", [Acquisition.EI, Acquisition.DEUP_EI])
    def test_record_queries_the_model_once_per_step(self, kind, monkeypatch):
        """Outside the candidate search, each step queries its model once, at the
        acquired x, for both `acq_value` and `epistemic`."""
        cls = UncertaintyModel if kind.uses_error_model else GPPredictor
        searching, outside = [False], []
        argmax, predict_batch = deup.smo.argmax_acquisition, cls.predict_batch

        def search(*args):
            searching[0] = True
            try:
                return argmax(*args)
            finally:
                searching[0] = False

        def spy(self, X):
            if not searching[0]:
                outside.append(len(X))
            return predict_batch(self, X)

        monkeypatch.setattr(deup.smo, "argmax_acquisition", search)
        monkeypatch.setattr(cls, "predict_batch", spy)
        trace = run_smo(config(kind, budget=10))
        assert len(trace.records) == 4 and outside == [1] * 4

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
        calls = {"n": 0}
        real_fit = deup.models.gp_fit

        def flaky_fit(d, cfg, rng):
            calls["n"] += 1
            if calls["n"] > 2:
                raise error("synthetic factorization failure")
            return real_fit(d, cfg, rng)

        monkeypatch.setattr(deup.models, "gp_fit", flaky_fit)
        trace = run_smo(config(Acquisition.EI, budget=12))
        assert trace.incomplete
        assert trace.failure == f"{error.__name__}: synthetic factorization failure"
        assert 0 < len(trace.records) < 6

    @pytest.mark.incomplete_ok
    def test_non_finite_record_ends_the_run_incomplete(self):
        # An MLP u at learning rate 1 predicts a log error that overflows np.exp at step 2.
        hp = {
            "deup.error_model": "mlp",
            "mlp.learning_rate": 1.0,
            "mlp.epochs": 5,
            "deup.n_pretrain": 10,
            "gp.kernel": "matern52",
            "gp.noise_variance": 100.0,
            "kde.bandwidth": 0.1,
        }
        cfg = ExperimentConfig(
            oracle_name="ackley",
            dimension=3,
            n_init=4,
            budget=7,
            acquisition=Acquisition.DEUP_UCB,
            feature_set=frozenset({Feature.SEEN_BIT}),
            aleatoric_mode=AleatoricMode.KNOWN,
            seed=19,
            hyperparameters=hp,
        )
        with pytest.warns(RuntimeWarning, match="overflow encountered in exp"):
            trace = run_smo(cfg)
        assert trace.failure.startswith("NumericsError: step 2: acq_value inf and epistemic inf at x = ")
        assert len(trace.records) == 1
        assert all(np.isfinite([r.acq_value, r.epistemic]).all() for r in trace.records)

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


class TestSurrogateState:
    @staticmethod
    def spy_gp_fits(monkeypatch):
        """The stream label of every gp_fit a run makes."""
        labels = []
        real_fit = deup.models.gp_fit

        def spy(d, cfg, rng):
            labels.append(rng.label)
            return real_fit(d, cfg, rng)

        monkeypatch.setattr(deup.models, "gp_fit", spy)
        return labels

    def test_random_fits_no_gp(self, monkeypatch):
        labels = self.spy_gp_fits(monkeypatch)
        trace = run_smo(config(Acquisition.RANDOM, budget=10))
        assert len(trace.records) == 4 and not trace.incomplete
        assert labels == []

    def test_ei_fits_once_per_step_under_its_labels(self, monkeypatch):
        labels = self.spy_gp_fits(monkeypatch)
        trace = run_smo(config(Acquisition.EI, budget=10))
        assert len(trace.records) == 4 and not trace.incomplete
        assert labels == [f"smo/fit-{t}" for t in range(10 - 6 + 1)]

    def test_initial_state_holds_the_modes_surrogate(self):
        oracle = make_oracle("synth1d", 1)
        d = Dataset(np.array([[0.1], [0.4], [0.7], [0.9]]), np.array([0.2, -0.1, 0.5, 0.3]))
        root = RngStream(0, "smo")
        states = {kind: initial_state(config(kind), oracle, d, root) for kind in Acquisition}
        assert states[Acquisition.RANDOM].model is None
        for kind, state in states.items():
            assert isinstance(state, DeupState if kind.uses_error_model else GpState)
            assert state.step == 0
        assert isinstance(states[Acquisition.EI].model, GPPredictor)
        assert isinstance(states[Acquisition.DEUP_UCB].model, UncertaintyModel)

    @pytest.mark.parametrize("with_gp", [True, False], ids=["gp", "random"])
    def test_gp_state_update_leaves_its_input_unchanged(self, with_gp):
        X, y = np.array([[0.1], [0.4], [0.7]]), np.array([0.2, -0.1, 0.5])
        rng, gp_cfg = RngStream(0, "smo"), config(Acquisition.EI).section("gp")
        model = gp_fit(Dataset(X, y), gp_cfg, rng.child("fit-0")) if with_gp else None
        state = GpState(Dataset(X.copy(), y.copy()), Learner("gp", gp_cfg) if with_gp else None, rng, model)
        grid = np.linspace(0.0, 1.0, 7)[:, None]
        before = model.predict_batch(grid) if with_gp else None

        new = state.update(np.array([0.55]), 0.25)
        assert (state.step, new.step) == (0, 1)
        assert state.model is model
        np.testing.assert_array_equal(state.d.inputs(), X)
        np.testing.assert_array_equal(state.d.targets(), y)
        assert len(new.d) == 4 and new.d.inputs()[-1, 0] == 0.55 and new.d.targets()[-1] == 0.25
        if with_gp:
            np.testing.assert_array_equal(model.predict_batch(grid), before)
            assert new.model is not model
        else:
            assert new.model is None


# The settings a u `Learner` holds, by kind: the [mlp] keys, or the error GP's own three.
U_KEYS = {
    "mlp": {"epochs", "learning_rate", "batch_size", "hidden_layers", "hidden_units"},
    "gp": {"n_restarts", "max_sweeps", "noise_floor"},
}


@pytest.mark.parametrize(
    "error_model, with_x, kind",
    [
        ("auto", False, "gp"),
        ("auto", True, "mlp"),
        ("gp", False, "gp"),
        ("gp", True, "gp"),
        ("mlp", False, "mlp"),
        ("mlp", True, "mlp"),
    ],
)
def test_deup_fit_builds_u_with_only_its_kinds_keys(error_model, with_x, kind):
    features = {Feature.X, Feature.LOG_VARIANCE} if with_x else {Feature.LOG_VARIANCE}
    cfg = config(Acquisition.DEUP_EI, **{"deup.error_model": error_model}).replace(feature_set=frozenset(features))
    u = deup.smo.deup_fit(cfg).u
    assert (u.kind, u.hyperparameters.keys()) == (kind, U_KEYS[kind])


def trace_bytes(trace) -> bytes:
    """Every trace value but the `ms` column as raw float64 bytes, laid out as perfbench's `fingerprint`."""
    rows = [np.asarray(trace.init_X, dtype=np.float64).tobytes(), np.asarray(trace.init_y).tobytes()]
    for r in trace.records:
        rows.append(np.array([r.step, r.y, r.best, r.acq_value, r.epistemic], dtype=np.float64).tobytes())
        rows.append(np.asarray(r.x, dtype=np.float64).tobytes())
    return b"".join(rows)


# sha256 of `trace_bytes` for short DEUP-EI runs with default settings (seed 0,
# budget 12). The rerun tests compare a commit with itself; these pins fail on
# any drift in the GP search, the posterior, the KDE or the error MLP. Like
# `GOLDEN_FITS` in test_models.py they are host-pinned: generated on x86-64
# with numpy 2.4 and scipy 1.17's bundled OpenBLAS, at one BLAS thread. A
# change that moves trajectories on purpose must regenerate them.
PINNED_TRACES = {
    "synth1d": (1, ("log_variance",), "ce3179174dca58870bf98ef0ef4acbc388376576509d78bc729bf61c0c02739f"),
    "levi13": (
        2,
        ("x", "seen_bit", "log_density", "log_variance"),  # x in the layout: the error model is the MLP
        "c2ccb4f9fc2f7e7710465028003e364bf3ad6329e4b0353e8c6244ee8f28838e",
    ),
}


@pytest.mark.parametrize("oracle", sorted(PINNED_TRACES))
def test_pinned_trace_bytes(oracle):
    dimension, features, digest = PINNED_TRACES[oracle]
    cfg = ExperimentConfig(
        oracle_name=oracle,
        dimension=dimension,
        n_init=6,
        budget=12,
        acquisition=Acquisition.DEUP_EI,
        feature_set=frozenset(Feature(f) for f in features),
        seed=0,
    )
    assert hashlib.sha256(trace_bytes(run_smo(cfg))).hexdigest() == digest


# sha256 of `trace_bytes` for a short EI run (synth1d, seed 0, budget 12, default
# settings): it pins the plain-GP loop, whose dataset grows outside the estimator.
# Host-pinned like `PINNED_TRACES`.
PINNED_EI_TRACE = "298b885bd4ef9b8527ae24b1fd655e22bc776f5467520f8fe4416a3083c429e3"


def test_pinned_ei_trace_bytes():
    cfg = ExperimentConfig(
        oracle_name="synth1d", dimension=1, n_init=6, budget=12, acquisition=Acquisition.EI, seed=0
    )
    assert hashlib.sha256(trace_bytes(run_smo(cfg))).hexdigest() == PINNED_EI_TRACE


# sha256 of `trace_bytes` for the other three modes, on the run of
# `PINNED_EI_TRACE` (synth1d, seed 0, n_init 6, budget 12, default settings).
# Host-pinned like `PINNED_TRACES`.
PINNED_MODE_TRACES = {
    Acquisition.UCB: "efa6f2937032c8edf81b6f10767a34945e4dc566af200505948f867efef1af65",
    Acquisition.DEUP_UCB: "61a172129052c82facc5794a8980d75c88c555bffebfd4b6857bd36e51a90234",
    Acquisition.RANDOM: "39178d544864042e1469c367a800ece623942466b0246ef0184beef23b7aceff",
}
# sha256 of `trace_bytes` for the run of `TestRunSmo.test_known_aleatoric_mode`
# (DEUP-EI under aleatoric = known, synth1d, sigma 0.1, seed 0). Host-pinned like `PINNED_TRACES`.
PINNED_KNOWN_ALEATORIC_TRACE = "a02958d45a3cfdc0c7f0f3d0eaaf3f42795d731edcacec5de2ab09385ecb4c4b"


@pytest.mark.parametrize("kind", list(PINNED_MODE_TRACES), ids=lambda kind: kind.value)
def test_pinned_mode_trace_bytes(kind):
    cfg = ExperimentConfig(oracle_name="synth1d", dimension=1, n_init=6, budget=12, acquisition=kind, seed=0)
    assert hashlib.sha256(trace_bytes(run_smo(cfg))).hexdigest() == PINNED_MODE_TRACES[kind]


def test_pinned_known_aleatoric_trace_bytes():
    cfg = config(Acquisition.DEUP_EI, budget=10, **{"oracle.noise": 0.1, "gp.noise_variance": None})
    trace = run_smo(cfg.replace(aleatoric_mode=AleatoricMode.KNOWN))
    assert hashlib.sha256(trace_bytes(trace)).hexdigest() == PINNED_KNOWN_ALEATORIC_TRACE


@pytest.mark.parametrize("sigma", [0.0, 0.1, 0.3])
def test_known_aleatoric_values_are_sigma_squared_bit_for_bit(sigma):
    cfg = config(Acquisition.DEUP_EI, **{"oracle.noise": sigma}).replace(aleatoric_mode=AleatoricMode.KNOWN)
    aleatoric = build_aleatoric(cfg, make_oracle("synth1d", 1, noise=sigma), None, None)
    X = np.linspace(0.0, 1.0, 9)[:, None]
    assert aleatoric.values(X).tobytes() == np.full(9, sigma**2).tobytes()


def test_step_record_compares_unequal_to_other_types():
    r = StepRecord(step=1, x=np.array([0.5]), y=0.2, best=0.3, acq_value=np.nan, epistemic=0.1, ms=1.0)
    assert not r == None  # noqa: E711 -- the == operator itself is under test
    assert r != "record"
    assert r in [None, r]


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
