"""Direct epistemic uncertainty prediction for sequential model optimization."""

from .core import (
    Acquisition,
    AleatoricMode,
    Dataset,
    ExperimentConfig,
    Feature,
    RngStream,
    load_config,
)
from .models import Learner, gp_fit, mlp_fit
from .density import kde_fit
from .estimator import (
    DeupFit,
    UncertaintyModel,
    deup_fixed_train,
    deup_init_state,
    deup_interactive_step,
    deup_pretrain_cv,
    estimate_aleatoric_from_replicates,
)
from .acquisition import (
    AcquisitionSpec,
    argmax_acquisition,
    expected_improvement,
    ucb,
)
from .benchmarks import BoxDomain, Oracle, ackley, levi13, make_oracle, synth1d
from .smo import RunTrace, best_so_far, run_smo
from .theory import GaussianPair, check_nll_decomposition, check_prop5, gaussian_kl, mc_total_uncertainty

__all__ = [
    "Acquisition",
    "AcquisitionSpec",
    "AleatoricMode",
    "BoxDomain",
    "Dataset",
    "DeupFit",
    "ExperimentConfig",
    "Feature",
    "GaussianPair",
    "Learner",
    "Oracle",
    "RngStream",
    "RunTrace",
    "UncertaintyModel",
    "ackley",
    "argmax_acquisition",
    "best_so_far",
    "check_nll_decomposition",
    "check_prop5",
    "deup_fixed_train",
    "deup_init_state",
    "deup_interactive_step",
    "deup_pretrain_cv",
    "estimate_aleatoric_from_replicates",
    "expected_improvement",
    "gaussian_kl",
    "gp_fit",
    "kde_fit",
    "levi13",
    "load_config",
    "make_oracle",
    "mc_total_uncertainty",
    "mlp_fit",
    "run_smo",
    "synth1d",
    "ucb",
]
