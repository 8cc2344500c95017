"""Proportional optimal-transport post-processing of risk scores.

Moves a tunable top fraction of the disadvantaged group's scores onto the
other group's score distribution, trading ranking accuracy (AUC, or top-region
partial AUC) against cross-group ranking disparity, with baselines, Pareto
filtering, and a synthetic experiment harness.
"""

from . import io
from .baselines import PostLogitParams, apply_post_logit, fit_post_logit, wasserstein_fair
from .datagen import (
    LogisticScorer,
    SyntheticCohort,
    SyntheticConfig,
    fit_logistic_scorer,
    generate_synthetic,
)
from .metrics import (
    GROUP_A,
    GROUP_B,
    ScoreSet,
    TopAlphaRegion,
    auc,
    pauc,
    pxauc,
    pxauc_disparity,
    top_alpha_region,
    xauc,
    xauc_disparity,
)
from .ot import (
    TransportPlan,
    barycentric_projection,
    solve_ot_1d,
    wasserstein1_distance,
)
from .pareto import TradeoffPoint, pareto_frontier
from .transport import ScoreMap, apply_psi, build_score_map, fit_transport, sweep

__version__ = "0.1.0"

__all__ = [
    "GROUP_A",
    "GROUP_B",
    "LogisticScorer",
    "PostLogitParams",
    "ScoreMap",
    "ScoreSet",
    "SyntheticCohort",
    "SyntheticConfig",
    "TopAlphaRegion",
    "TradeoffPoint",
    "TransportPlan",
    "apply_post_logit",
    "apply_psi",
    "auc",
    "barycentric_projection",
    "build_score_map",
    "fit_logistic_scorer",
    "fit_post_logit",
    "fit_transport",
    "generate_synthetic",
    "pareto_frontier",
    "pauc",
    "pxauc",
    "pxauc_disparity",
    "solve_ot_1d",
    "sweep",
    "top_alpha_region",
    "wasserstein1_distance",
    "wasserstein_fair",
    "xauc",
    "xauc_disparity",
]
