"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The end-to-end optimization criteria (4-6) run full benchmark sweeps and take
a few minutes; everything is deterministic under the fixed seeds used here.
"""

import numpy as np

from deup.cli import demo_fig1
from deup.core import Acquisition, Dataset, ExperimentConfig, Feature, RngStream
from deup.estimator import DeupFit, deup_init_state, deup_interactive_step, estimate_aleatoric_from_replicates
from deup.models import Learner, gp_fit, loss_and_gradients, _init_params
from deup.density import kde_fit
from deup.smo import best_so_far, run_smo
from deup.theory import GaussianPair, check_prop5, mc_total_uncertainty

from test_models import dense_gp_reference


def report(criterion, passed, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"{criterion}: {detail}"


def first_hit_calls(trace, threshold):
    curve = best_so_far(trace)
    idx = next((i for i, b in enumerate(curve) if b >= threshold), None)
    if idx is None:
        return trace.config.budget + 1
    return trace.config.n_init + idx


def test_criterion_1_theory_suite():
    """Shift identity on 1e4 random pairs; squared-loss MC identities, 50 configs."""
    gen = np.random.default_rng(1)
    worst_resid = 0.0
    for _ in range(10**4):
        pair = GaussianPair(
            gen.uniform(-10, 10),
            np.exp(gen.uniform(np.log(1e-3), np.log(1e3))),
            gen.uniform(-10, 10),
            np.exp(gen.uniform(np.log(1e-3), np.log(1e3))),
        )
        worst_resid = max(worst_resid, abs(check_prop5(pair)))

    worst_z = 0.0
    root = RngStream(1, "acceptance-theory")
    cfg_gen = root.child("configs").generator()
    for i in range(50):
        f_star = float(cfg_gen.uniform(-5, 5))
        sigma = float(np.exp(cfg_gen.uniform(np.log(0.1), np.log(3.0))))
        f_hat = f_star + float(cfg_gen.uniform(-3, 3))
        total, se = mc_total_uncertainty(f_hat, f_star, sigma, 10**5, root.child(f"mc-{i}"))
        z_total = abs(total - ((f_hat - f_star) ** 2 + sigma**2)) / se
        z_epi = abs((total - sigma**2) - (f_hat - f_star) ** 2) / se
        worst_z = max(worst_z, z_total, z_epi)

    report(
        "C1 theory suite",
        worst_resid <= 1e-10 and worst_z <= 3.0,
        f"max shift-identity residual {worst_resid:.2e} (tol 1e-10); "
        f"worst MC |z| {worst_z:.2f} (tol 3 SE, n=1e5, 50 configs)",
    )


def test_criterion_2_aleatoric_unbiasedness():
    """Replicate-variance targets average to the true noise within 5%."""
    gen = np.random.default_rng(0)
    groups = [
        (gen.uniform(0, 1, size=2), 0.5 * gen.standard_normal(5)) for _ in range(500)
    ]
    est = estimate_aleatoric_from_replicates(
        groups, Learner("mlp", {"epochs": 30}), RngStream(2, "acceptance-aleatoric")
    )
    mean_target = float(np.mean(est.training_targets))
    report(
        "C2 aleatoric unbiasedness",
        0.2375 <= mean_target <= 0.2625,
        f"mean replicate target {mean_target:.4f} for sigma^2=0.25 (tol +/-5%)",
    )


def test_criterion_3_fig1_recalibration(tmp_path):
    """Recalibrated EU out-ranks the refit GP's variance on the unexplored gap."""
    wins, rhos = 0, []
    for seed in range(5):
        s = demo_fig1(tmp_path / f"seed{seed}", seed=seed)
        wins += s["spearman_deup_eu"] > s["spearman_gp2_variance"]
        rhos.append((round(s["spearman_deup_eu"], 3), round(s["spearman_gp2_variance"], 3)))
    report(
        "C3 fig1 recalibration",
        wins >= 4,
        f"deup_eu beats gp2 variance on {wins}/5 seeds (need >=4); (deup, gp2) rhos: {rhos}",
    )


def test_criterion_4_synth1d_smo():
    """1-D benchmark: DEUP-EI reaches the optimum and is no slower in median."""
    threshold = 1.0 - 1e-2
    calls = {}
    for kind in (Acquisition.DEUP_EI, Acquisition.EI):
        calls[kind] = []
        for seed in range(5):
            cfg = ExperimentConfig(
                oracle_name="synth1d",
                dimension=1,
                n_init=6,
                budget=56,
                acquisition=kind,
                seed=seed,
            )
            calls[kind].append(first_hit_calls(run_smo(cfg), threshold))
    deup_calls = calls[Acquisition.DEUP_EI]
    gp_calls = calls[Acquisition.EI]
    hits = sum(c <= 56 for c in deup_calls)
    med_deup, med_gp = np.median(deup_calls), np.median(gp_calls)
    report(
        "C4 synth1d SMO",
        hits >= 4 and med_deup <= med_gp,
        f"DEUP-EI within 1e-2 of max on {hits}/5 seeds (need >=4); "
        f"median calls-to-optimum DEUP {med_deup} vs GP-EI {med_gp} (need <=); "
        f"calls DEUP {deup_calls}, GP {gp_calls}",
    )


def test_criterion_5_levi13_smo():
    """Levi N.13: DEUP-EI cracks -0.1 on more seeds than GP-EI within 56 calls."""
    calls = {}
    for kind, features in (
        (Acquisition.DEUP_EI, frozenset({Feature.SEEN_BIT, Feature.LOG_VARIANCE})),
        (Acquisition.EI, frozenset({Feature.LOG_VARIANCE})),
    ):
        calls[kind] = []
        for seed in range(5):
            cfg = ExperimentConfig(
                oracle_name="levi13",
                dimension=2,
                n_init=6,
                budget=56,
                acquisition=kind,
                seed=seed,
                feature_set=features,
            )
            calls[kind].append(first_hit_calls(run_smo(cfg), -0.1))
    deup_calls, gp_calls = calls[Acquisition.DEUP_EI], calls[Acquisition.EI]
    deup_seeds = sum(c <= 56 for c in deup_calls)
    gp_seeds = sum(c <= 56 for c in gp_calls)
    ok = deup_seeds >= 3 and (
        gp_seeds < deup_seeds or np.median(gp_calls) > np.median(deup_calls)
    )
    report(
        "C5 levi13 SMO",
        ok,
        f"DEUP-EI reaches >=-0.1 on {deup_seeds}/5 seeds (need >=3), GP-EI on {gp_seeds}/5 "
        f"(need fewer seeds or later median); calls DEUP {deup_calls}, GP {gp_calls}",
    )


def test_criterion_6_ackley5_trend():
    """Ackley-5 directional check: mean final best of DEUP-EI >= GP-EI's."""
    finals = {}
    for kind in (Acquisition.DEUP_EI, Acquisition.EI):
        finals[kind] = []
        for seed in range(3):
            cfg = ExperimentConfig(
                oracle_name="ackley",
                dimension=5,
                n_init=20,
                budget=120,
                acquisition=kind,
                seed=seed,
            )
            finals[kind].append(best_so_far(run_smo(cfg))[-1])
    mean_deup = float(np.mean(finals[Acquisition.DEUP_EI]))
    mean_gp = float(np.mean(finals[Acquisition.EI]))
    report(
        "C6 ackley-5 trend",
        mean_deup >= mean_gp,
        f"mean final best DEUP-EI {mean_deup:.3f} vs GP-EI {mean_gp:.3f} over 3 shared-init seeds "
        f"(finals DEUP {np.round(finals[Acquisition.DEUP_EI], 3).tolist()}, "
        f"GP {np.round(finals[Acquisition.EI], 3).tolist()})",
    )


def test_criterion_7_bookkeeping():
    """|D_u| = n0 + 2t, exact call budget, bitwise-identical reruns."""
    gen = np.random.default_rng(7)
    X = np.sort(gen.uniform(0, 1, size=6))[:, None]
    d = Dataset.from_arrays(X, np.sin(6 * X[:, 0]))
    state = deup_init_state(
        d,
        DeupFit(Learner("gp", {"noise_variance": 0.0, "n_restarts": 4}), (Feature.LOG_VARIANCE,)),
        RngStream(7, "acceptance-bookkeeping"),
    )
    n0 = len(state.d_u)
    growth_ok = True
    for t, xv in enumerate([0.21, 0.47, 0.83], start=1):
        state = deup_interactive_step(state, np.array([xv]), float(np.sin(6 * xv)))
        growth_ok = growth_ok and len(state.d_u) == n0 + 2 * t

    cfg = ExperimentConfig(
        oracle_name="synth1d",
        dimension=1,
        n_init=6,
        budget=16,
        acquisition=Acquisition.DEUP_EI,
        seed=7,
        hyperparameters={"smo.n_candidates": 256, "smo.n_refine": 2},
    )
    t1, t2 = run_smo(cfg), run_smo(cfg)
    budget_ok = t1.evaluations == 16 and len(t1.records) == 10
    rerun_ok = (
        np.array_equal(t1.init_X, t2.init_X)
        and np.array_equal(t1.init_y, t2.init_y)
        and all(a == b for a, b in zip(t1.records, t2.records))
    )
    report(
        "C7 bookkeeping",
        growth_ok and budget_ok and rerun_ok,
        f"|D_u| growth n0+2t: {growth_ok}; exact 16-call budget: {budget_ok}; "
        f"bitwise rerun (timing excluded): {rerun_ok}",
    )


def test_criterion_8_numeric_kernels():
    """GP vs dense-inverse oracle at 1e-8; MLP gradients at 1e-4; KDE integral at 1e-3."""
    gen = np.random.default_rng(8)
    worst_gp = 0.0
    for kernel in ("rbf", "matern52"):
        for _ in range(8):
            n = int(gen.integers(3, 31))
            dim = int(gen.integers(1, 6))
            X = gen.uniform(-3, 3, size=(n, dim))
            y = gen.normal(size=n)
            ls = float(gen.uniform(0.5, 2.0))
            sig = float(gen.uniform(0.5, 2.0))
            noise = float(gen.uniform(1e-4, 0.1))
            d = Dataset.from_arrays(X, y)
            gp = gp_fit(
                d,
                {"lengthscale": ls, "signal_variance": sig, "noise_variance": noise,
                 "kernel": kernel, "n_restarts": 0},
                RngStream(8, "acceptance-gp"),
            )
            for _ in range(5):
                xq = gen.uniform(-3, 3, size=dim)
                (mean,), (var,) = gp.predict_batch(xq[None])
                mean_ref, var_ref = dense_gp_reference(X, y, xq, kernel, ls, sig, noise, gp.jitter)
                worst_gp = max(worst_gp, abs(mean - mean_ref), abs(var - var_ref))

    X = gen.normal(size=(8, 3))
    y = gen.normal(size=8)
    weights, biases = _init_params([3, 16, 16, 1], np.random.default_rng(81))
    _, grad_w, _ = loss_and_gradients(weights, biases, X, y)
    h = 1e-5
    worst_grad = 0.0
    for _ in range(10):
        li = int(gen.integers(0, len(weights)))
        idx = tuple(int(gen.integers(0, s)) for s in weights[li].shape)
        wp = [W.copy() for W in weights]
        wm = [W.copy() for W in weights]
        wp[li][idx] += h
        wm[li][idx] -= h
        lp, _, _ = loss_and_gradients(wp, biases, X, y)
        lm, _, _ = loss_and_gradients(wm, biases, X, y)
        fd = (lp - lm) / (2 * h)
        denom = max(abs(fd), abs(grad_w[li][idx]), 1e-8)
        worst_grad = max(worst_grad, abs(fd - grad_w[li][idx]) / denom)

    pts = gen.normal(size=100)
    k = kde_fit(Dataset.from_arrays(pts[:, None], np.zeros(100)))
    grid = np.linspace(pts.min() - 10 * k.bandwidth, pts.max() + 10 * k.bandwidth, 20001)
    integral = float(np.trapezoid(np.exp(k.log_density_batch(grid[:, None])), grid))

    report(
        "C8 numeric kernels",
        worst_gp <= 1e-8 and worst_grad <= 1e-4 and abs(integral - 1.0) <= 1e-3,
        f"GP vs dense-inverse max dev {worst_gp:.2e} (tol 1e-8); "
        f"MLP grad rel err {worst_grad:.2e} (tol 1e-4); KDE integral {integral:.6f} (tol 1e-3)",
    )
