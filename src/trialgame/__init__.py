"""Strategic trial sizing against a one-sided binomial approval test.

A regulator approves when a size-``alpha`` test against a baseline rate
passes; a profit-driven applicant decides whether to run a trial at all
and, if so, how many samples to buy.  This package solves the applicant's
best response, locates the participation and critical significance
thresholds, and decomposes the regulator's approval errors under a belief
prior.
"""

from .agent import (
    BELIEF_CEIL,
    BELIEF_FLOOR,
    BestResponse,
    EconomicInstance,
    best_response,
    best_response_bruteforce,
    pass_probability,
    utility,
)
from .config import (
    RunConfig,
    available_presets,
    default_alpha_grid,
    load_config,
    preset_path,
)
from .errors import ConfigError, DomainError, SearchRangeError, TrialGameError
from .loss import (
    LossBreakdown,
    LossWeights,
    QuadratureSpec,
    loss_components,
    sweep_alpha,
)
from .stats import (
    TruncatedNormalPrior,
    std_normal_cdf,
    std_normal_quantile,
    std_normal_sf,
)
from .thresholds import (
    DEFAULT_EPS,
    CriticalAlpha,
    ParticipationThreshold,
    critical_alpha,
    critical_alpha_closed_form,
    participation_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "BELIEF_CEIL",
    "BELIEF_FLOOR",
    "BestResponse",
    "ConfigError",
    "CriticalAlpha",
    "DEFAULT_EPS",
    "DomainError",
    "EconomicInstance",
    "LossBreakdown",
    "LossWeights",
    "ParticipationThreshold",
    "QuadratureSpec",
    "RunConfig",
    "SearchRangeError",
    "TrialGameError",
    "TruncatedNormalPrior",
    "available_presets",
    "best_response",
    "best_response_bruteforce",
    "critical_alpha",
    "critical_alpha_closed_form",
    "default_alpha_grid",
    "load_config",
    "loss_components",
    "participation_threshold",
    "pass_probability",
    "preset_path",
    "std_normal_cdf",
    "std_normal_quantile",
    "std_normal_sf",
    "sweep_alpha",
    "utility",
]
