"""Method-selection advisor.

Maps a panel's design features (how many treated units, adoption timing,
how many comparison units) to the set of viable estimators, each carrying
its identification-assumption checklist, heterogeneity-support flags, and
advisory data cautions. Viability is a pure function of the features;
cautions are guidance, never vetoes.

Each method is declared once, in ``METHODS``: how to fit it, which number
summarizes the fit, which true value the Monte Carlo harness scores it
against, its assumptions and its heterogeneity support. The CLI and the
harness read the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ar import fit_debiased_ar
from .did import (fit_did_twfe, fit_event_study, fit_group_time_att,
                  fit_imputation_did)
from .errors import PanelCauseError
from .its import fit_cits, fit_its, fit_its_multiple_baseline
from .panel import (NO_TREATED, SINGLE_TREATED, STAGGERED, PanelDataset,
                    derive_adoption)
from .scm import fit_ascm, fit_scm, fit_staggered_ascm

ITS = "ITS"
ITS_MULTI_BASELINE = "ITS_MULTI_BASELINE"
SCM = "SCM"
ASCM = "ASCM"
DID_TWFE = "DID_TWFE"
EVENT_STUDY = "EVENT_STUDY"
CITS = "CITS"
GROUP_TIME_DID = "GROUP_TIME_DID"
IMPUTATION_DID = "IMPUTATION_DID"
DEBIASED_AR = "DEBIASED_AR"
STAGGERED_ASCM = "STAGGERED_ASCM"

IGNORABILITY = "ignorability"
POSITIVITY = "positivity"
NO_ANTICIPATION = "no anticipation"
CONSISTENCY = "consistency"
NO_SPILLOVER = "no spillover"
PARALLEL_TRENDS = "parallel trends"


def _overall(est, truth):
    return truth.att_overall


def _post_event_times(est):
    return sorted(k for k in est.coefficients if isinstance(k, int) and k >= 0)


def _event_study_point(est):
    """Mean of the post-period event coefficients and its SE."""
    ks = _post_event_times(est)
    if not ks:
        return None
    V = est.fit.subvcov([f"k[{k}]" for k in ks])
    w = np.full(len(ks), 1.0 / len(ks))
    return (float(np.mean([est.coefficients[k][0] for k in ks])),
            float(np.sqrt(max(w @ V @ w, 0.0))))


def _event_study_target(est, truth):
    return float(np.mean([truth.by_event[k] for k in _post_event_times(est)
                          if k in truth.by_event]))


def _single_treated(panel, method):
    """The one treated unit a synthetic control matches."""
    treated = derive_adoption(panel).treated_units
    if len(treated) != 1:
        raise PanelCauseError(
            "TOO_MANY_TREATED",
            f"{method} needs exactly one treated unit, found {len(treated)}")
    return treated[0]


@dataclass(frozen=True)
class MethodSpec:
    """What the advisor, the CLI and the Monte Carlo harness know of a method.

    ``fit`` calls the estimator through this module's global name, so
    anything that rebinds that name (a tracer, a test double) sees the call.
    """
    fit: Callable               # (panel, covariates, ci_level, seed) -> estimate
    point: Callable             # estimate -> (estimate, se), None if undefined
    assumptions: tuple          # identification assumptions the method leans on
    by_time: bool               # supports effect heterogeneity by time
    by_cohort: bool             # supports effect heterogeneity by cohort
    label: str | None = None    # names a point estimate that is not the ATT
    target: Callable = _overall  # (estimate, truth) -> true value it estimates
    placebo: bool = False       # fit adds placebo inference on the treated unit


METHODS = {
    ITS: MethodSpec(
        lambda p, cov, ci, seed: fit_its(p, covariates=cov),
        lambda e: (e.level_change, e.level_change_se),
        (IGNORABILITY, NO_ANTICIPATION, CONSISTENCY), True, False),
    ITS_MULTI_BASELINE: MethodSpec(
        lambda p, cov, ci, seed: fit_its_multiple_baseline(p, covariates=cov),
        lambda e: (e.pooled_level_change, e.pooled_level_change_se),
        (IGNORABILITY, NO_ANTICIPATION, CONSISTENCY, NO_SPILLOVER),
        True, True),
    SCM: MethodSpec(
        lambda p, cov, ci, seed: fit_scm(p, _single_treated(p, SCM),
                                         covariates=cov),
        lambda e: (e.att, float("nan")),
        (IGNORABILITY, POSITIVITY, NO_ANTICIPATION, CONSISTENCY,
         NO_SPILLOVER), True, False, placebo=True),
    ASCM: MethodSpec(
        lambda p, cov, ci, seed: fit_ascm(p, _single_treated(p, ASCM),
                                          covariates=cov),
        lambda e: (e.att, float("nan")),
        (IGNORABILITY, POSITIVITY, NO_ANTICIPATION, CONSISTENCY,
         NO_SPILLOVER), True, False, placebo=True),
    DID_TWFE: MethodSpec(
        lambda p, cov, ci, seed: fit_did_twfe(p, covariates=cov, ci_level=ci),
        lambda e: (e.att, e.se),
        (POSITIVITY, NO_ANTICIPATION, CONSISTENCY, NO_SPILLOVER,
         PARALLEL_TRENDS), False, False),
    EVENT_STUDY: MethodSpec(
        lambda p, cov, ci, seed: fit_event_study(p, covariates=cov,
                                                 ci_level=ci),
        _event_study_point,
        (IGNORABILITY, POSITIVITY, NO_ANTICIPATION, CONSISTENCY,
         NO_SPILLOVER, PARALLEL_TRENDS), True, False,
        label="mean post-period event effect", target=_event_study_target),
    CITS: MethodSpec(
        lambda p, cov, ci, seed: fit_cits(p, covariates=cov),
        lambda e: (e.diff_level_change, e.diff_level_change_se),
        (POSITIVITY, NO_ANTICIPATION, CONSISTENCY, NO_SPILLOVER), True, False),
    GROUP_TIME_DID: MethodSpec(
        lambda p, cov, ci, seed: fit_group_time_att(p, covariates=cov,
                                                    seed=seed),
        lambda e: e.overall,
        (POSITIVITY, NO_ANTICIPATION, CONSISTENCY, NO_SPILLOVER,
         PARALLEL_TRENDS), True, True),
    IMPUTATION_DID: MethodSpec(
        lambda p, cov, ci, seed: fit_imputation_did(p, covariates=cov),
        lambda e: (e.att, e.se),
        (POSITIVITY, NO_ANTICIPATION, CONSISTENCY, NO_SPILLOVER,
         PARALLEL_TRENDS), True, True),
    DEBIASED_AR: MethodSpec(
        lambda p, cov, ci, seed: fit_debiased_ar(p, covariates=cov,
                                                 ci_level=ci),
        lambda e: (e.gamma, e.gamma_se),
        ("ignorability (conditional on prior outcomes absent treatment)",
         POSITIVITY, NO_ANTICIPATION, CONSISTENCY, NO_SPILLOVER),
        False, False),
    STAGGERED_ASCM: MethodSpec(
        lambda p, cov, ci, seed: fit_staggered_ascm(p),
        lambda e: (e.att, e.se),
        (IGNORABILITY, NO_ANTICIPATION, CONSISTENCY, NO_SPILLOVER),
        True, True),
}

ALL_METHODS = tuple(METHODS)

CAUTION_CONFIG = {"min_pre_periods": 2, "single_cluster_at": 1}


@dataclass(frozen=True)
class DesignFeatures:
    n_treated: int
    n_control: int
    timing_class: str
    cohort_sizes: dict          # adoption time label -> unit count
    pre_periods_min: int
    post_periods_min: int
    has_missing: bool
    singleton_cohorts: int


@dataclass
class MethodAssessment:
    method: str
    viable: bool
    reasons: tuple              # (code, message) pairs; empty when viable
    assumptions: tuple
    heterogeneity_by_time: bool
    heterogeneity_by_cohort: bool
    cautions: tuple             # (code, message) pairs, advisory only


@dataclass
class MethodRecommendation:
    features: DesignFeatures
    methods: dict               # method id -> MethodAssessment, all ids present

    @property
    def viable(self) -> tuple:
        return tuple(m for m in ALL_METHODS if self.methods[m].viable)


def derive_features(panel: PanelDataset, schedule=None) -> DesignFeatures:
    if schedule is None:
        schedule = derive_adoption(panel)
    sizes = {panel.label_of(g): len(members)
             for g, members in sorted(schedule.cohorts.items())}
    gs = sorted(schedule.cohorts)
    pre_min = min(gs) if gs else 0
    post_min = min(panel.time_count - g for g in gs) if gs else 0
    return DesignFeatures(
        n_treated=len(schedule.treated_units),
        n_control=len(schedule.never_treated),
        timing_class=schedule.timing_class,
        cohort_sizes=sizes,
        pre_periods_min=pre_min,
        post_periods_min=post_min,
        has_missing=panel.has_missing,
        singleton_cohorts=sum(1 for v in sizes.values() if v == 1),
    )


def _viable_set(f: DesignFeatures):
    """The decision rules: treated count × adoption timing × comparison count."""
    if f.timing_class == NO_TREATED:
        raise PanelCauseError("NO_TREATED_UNITS",
                              "no unit ever adopts the policy; nothing to estimate")
    if f.timing_class == STAGGERED:
        if f.n_control == 0:
            return {ITS_MULTI_BASELINE}
        return {GROUP_TIME_DID, IMPUTATION_DID, DEBIASED_AR, STAGGERED_ASCM}
    # single cohort (one treated unit, or several adopting together)
    if f.n_control == 0:
        return {ITS}
    if f.timing_class == SINGLE_TREATED and f.n_control >= 2:
        return {SCM, ASCM, DID_TWFE, EVENT_STUDY, CITS}
    return {DID_TWFE, EVENT_STUDY, CITS}


def _disqualify(method: str, f: DesignFeatures):
    """Reason a method is off the table for these features."""
    staggered = f.timing_class == STAGGERED
    if method == ITS:
        if staggered:
            return ("STAGGERED_INPUT",
                    "adoption is staggered; use the multiple-baseline variant")
        return ("NOT_APPLICABLE",
                "comparison units exist; comparison-based designs identify "
                "the effect under weaker assumptions")
    if method == ITS_MULTI_BASELINE:
        if not staggered:
            return ("NOT_STAGGERED", "only one adoption cohort; use ITS")
        return ("NOT_APPLICABLE",
                "comparison units exist; comparison-based designs identify "
                "the effect under weaker assumptions")
    if method in (SCM, ASCM):
        if f.n_treated != 1:
            return ("TOO_MANY_TREATED",
                    "synthetic control matches exactly one treated unit")
        return ("TOO_FEW_DONORS", "needs at least two donor units")
    if method in (DID_TWFE, EVENT_STUDY, CITS):
        if f.n_control == 0:
            return ("NO_CONTROL", "needs at least one comparison unit")
        return ("STAGGERED_INPUT",
                "staggered adoption with possible effect heterogeneity biases "
                "single-coefficient comparisons; use a cohort-aware estimator")
    # staggered-adoption methods
    if f.n_control == 0:
        return ("NO_CONTROL", "needs never-treated comparison units")
    return ("NOT_STAGGERED",
            "adoption is simultaneous; standard single-cohort designs apply")


def _cautions(method: str, f: DesignFeatures):
    out = []
    if f.has_missing:
        out.append(("MISSING_DATA",
                    "missing outcome cells present; balance the panel or "
                    "expect row drops"))
    if f.pre_periods_min < CAUTION_CONFIG["min_pre_periods"]:
        out.append(("FEW_PRE_PERIODS",
                    f"some cohort has fewer than "
                    f"{CAUTION_CONFIG['min_pre_periods']} pre periods"))
    if (f.singleton_cohorts and
            method in (ITS_MULTI_BASELINE, GROUP_TIME_DID, IMPUTATION_DID,
                       STAGGERED_ASCM)):
        out.append(("SINGLETON_COHORT",
                    f"{f.singleton_cohorts} cohort(s) contain a single unit; "
                    "cohort-level estimates will be noisy"))
    if (f.n_treated <= CAUTION_CONFIG["single_cluster_at"] and
            method in (DID_TWFE, EVENT_STUDY, CITS)):
        out.append(("SINGLE_CLUSTER_INFERENCE",
                    "one treated cluster: cluster-robust standard errors are "
                    "unreliable; prefer permutation-style inference"))
    return tuple(out)


def recommend(features: DesignFeatures) -> MethodRecommendation:
    """Evaluate the rule table; every method id appears exactly once."""
    viable = _viable_set(features)
    methods = {}
    for m, spec in METHODS.items():
        if m in viable:
            methods[m] = MethodAssessment(
                m, True, (), spec.assumptions, spec.by_time, spec.by_cohort,
                _cautions(m, features))
        else:
            methods[m] = MethodAssessment(
                m, False, (_disqualify(m, features),), spec.assumptions,
                spec.by_time, spec.by_cohort, ())
    return MethodRecommendation(features, methods)


def recommend_for_panel(panel: PanelDataset) -> MethodRecommendation:
    return recommend(derive_features(panel))
