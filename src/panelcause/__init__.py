"""panelcause: panel-data policy evaluation.

Estimators for single- and staggered-adoption policy designs (interrupted
time series, comparative ITS, difference-in-differences and event studies,
group-time and imputation ATT estimators, synthetic control and its
augmented/staggered extensions, a debiased autoregressive model), a
method-selection advisor keyed to study-design features, and a Monte Carlo
harness for comparing estimators on bias, coverage, and type-I error.
"""

__version__ = "0.1.0"

from .advisor import (ALL_METHODS, DesignFeatures, MethodRecommendation,
                      derive_features, recommend, recommend_for_panel)
from .ar import DebiasedArEstimate, fit_debiased_ar
from .did import (BaconComparison, BaconDecomposition, DidEstimate,
                  EventStudyEstimate, GroupTimeAtts, ImputationEstimate,
                  NEVER_TREATED, NOT_YET_TREATED, fit_did_twfe,
                  fit_event_study, fit_group_time_att, fit_imputation_did,
                  goodman_bacon_decompose)
from .errors import PanelCauseError, PanelCauseWarning
from .its import (CitsEstimate, ItsEstimate, MultiBaselineItsEstimate,
                  fit_cits, fit_its, fit_its_multiple_baseline)
from .panel import (NEVER, AdoptionSchedule, BalanceReport, ColumnSpec,
                    PanelDataset, balance_panel, cumulative_adoption_counts,
                    derive_adoption, load_panel)
from .scm import (PlaceboResult, ScmEstimate, ScmWeights,
                  StaggeredAscmEstimate, fit_ascm, fit_scm,
                  fit_staggered_ascm, placebo_inference, project_simplex,
                  solve_simplex_lsq)
from .simharness import (DgpConfig, SimMetrics, TruthRecord, evaluate,
                         simulate_panel)

__all__ = [
    "__version__",
    "ALL_METHODS", "DesignFeatures", "MethodRecommendation",
    "derive_features", "recommend", "recommend_for_panel",
    "DebiasedArEstimate", "fit_debiased_ar",
    "BaconComparison", "BaconDecomposition", "DidEstimate",
    "EventStudyEstimate", "GroupTimeAtts", "ImputationEstimate",
    "NEVER_TREATED", "NOT_YET_TREATED", "fit_did_twfe", "fit_event_study",
    "fit_group_time_att", "fit_imputation_did", "goodman_bacon_decompose",
    "PanelCauseError", "PanelCauseWarning",
    "CitsEstimate", "ItsEstimate", "MultiBaselineItsEstimate",
    "fit_cits", "fit_its", "fit_its_multiple_baseline",
    "NEVER", "AdoptionSchedule", "BalanceReport", "ColumnSpec",
    "PanelDataset", "balance_panel", "cumulative_adoption_counts",
    "derive_adoption", "load_panel",
    "PlaceboResult", "ScmEstimate", "ScmWeights", "StaggeredAscmEstimate",
    "fit_ascm", "fit_scm", "fit_staggered_ascm", "placebo_inference",
    "project_simplex", "solve_simplex_lsq",
    "DgpConfig", "SimMetrics", "TruthRecord", "evaluate", "simulate_panel",
]
