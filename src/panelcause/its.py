"""Interrupted time series estimators.

Segmented regression for a single adoption time (level and slope change),
the multiple-baseline extension that fits one ITS per adoption cohort and
pools, and the comparative variant that adds a never-treated control group
with treated-group interactions. Both regressions are within fits on
absorbed unit effects (``linreg.within_fit``); the intercept they report is
the first unit's effect, as in a unit-dummy regression with that unit as
the reference.

Coding convention: with adoption at period g, the policy indicator turns on
at t = g and time_since_policy counts 0, 1, 2, ... from that same period, so
the level-change coefficient is the jump at the first in-effect observation
and the slope-change coefficient is the per-period trend change afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PanelCauseError
from .linreg import FitResult, within_fit
from .panel import PanelDataset, complete_rows, derive_adoption


@dataclass
class ItsEstimate:
    level_change: float
    level_change_se: float
    slope_change: float
    slope_change_se: float
    baseline_intercept: float
    baseline_slope: float
    adoption_time: int            # normalized period
    fit: FitResult


@dataclass
class CitsEstimate:
    diff_level_change: float      # treated-vs-control difference in jump
    diff_level_change_se: float
    diff_slope_change: float      # difference in post-period trend change
    diff_slope_change_se: float
    coefficients: dict            # beta0..beta7; absorbed entries are None
    adoption_time: int
    fit: FitResult


@dataclass
class MultiBaselineItsEstimate:
    per_cohort: dict              # cohort g -> ItsEstimate
    weights: dict                 # cohort g -> pooling weight (sums to 1)
    pooled_level_change: float
    pooled_level_change_se: float
    pooled_slope_change: float
    pooled_slope_change_se: float


def _single_adoption(panel: PanelDataset, op: str):
    schedule = derive_adoption(panel)
    if len(schedule.cohorts) == 0:
        raise PanelCauseError("NO_VARIATION", f"{op}: no unit ever adopts the policy")
    if len(schedule.cohorts) > 1:
        raise PanelCauseError(
            "STAGGERED_INPUT",
            f"{op}: {len(schedule.cohorts)} adoption cohorts found; "
            "use the multiple-baseline variant")
    return schedule, next(iter(schedule.cohorts))


def _check_periods(panel: PanelDataset, g: int):
    pre, post = g, panel.time_count - g
    if pre < 2 or post < 2:
        raise PanelCauseError(
            "TOO_FEW_PERIODS",
            "need ≥2 pre and ≥2 post periods around adoption; "
            f"got {pre} pre, {post} post")


def _unit_effects_fit(panel: PanelDataset, keep, cols, op: str):
    """Within fit of the kept outcome on cols with unit effects absorbed, and
    the intercept: the first kept unit's effect, mean(y − Xβ) over its rows."""
    ui, y = panel.unit_idx[keep], panel.outcome[keep]
    fit = within_fit(ui, None, y, cols)
    if fit is None:
        raise PanelCauseError("RANK_ZERO", f"{op}: unit effects absorb every regressor")
    first, raw = ui == ui.min(), dict(cols)
    fitted = sum(fit.coef(name) * raw[name][first] for name in fit.vcov_names)
    return fit, float((y[first] - fitted).mean())


def fit_its(panel: PanelDataset, covariates=()) -> ItsEstimate:
    """Segmented regression around one shared adoption period.

    Regressors: elapsed time, policy indicator, time-since-policy counter
    and covariates, with unit effects absorbed (one unit: the intercept).
    SEs are unit-clustered; with a single unit each row is its own cluster.
    """
    schedule, g = _single_adoption(panel, "fit_its")
    _check_periods(panel, g)
    keep, Xc = complete_rows(panel, covariates)

    t = panel.time_idx[keep].astype(float)
    pol = panel.policy[keep].astype(float)
    cols = [("time", t), ("policy", pol), ("time_since_policy", pol * (t - g))]
    cols += [(name, Xc[keep][:, i]) for i, name in enumerate(covariates)]
    fit, intercept = _unit_effects_fit(panel, keep, cols, "fit_its")
    return ItsEstimate(
        level_change=fit.coef("policy"), level_change_se=fit.se("policy"),
        slope_change=fit.coef("time_since_policy"),
        slope_change_se=fit.se("time_since_policy"),
        baseline_intercept=intercept, baseline_slope=fit.coef("time"),
        adoption_time=g, fit=fit)


def fit_its_multiple_baseline(panel: PanelDataset,
                              covariates=()) -> MultiBaselineItsEstimate:
    """One ITS per adoption cohort (that cohort's units only), then pool.

    Pooled effects are cohort-size-weighted means; the pooled SE treats the
    cohort fits as independent: sqrt(sum of (weight × SE)^2). Weights are
    returned so callers can re-aggregate.
    """
    schedule = derive_adoption(panel)
    if len(schedule.cohorts) < 2:
        raise PanelCauseError(
            "NOT_STAGGERED",
            "multiple-baseline ITS expects ≥2 adoption cohorts; use fit_its")

    per_cohort = {}
    for g, members in schedule.cohorts.items():
        sub = panel.subset(units=members)
        try:
            per_cohort[g] = fit_its(sub, covariates)
        except PanelCauseError as e:
            raise PanelCauseError(
                e.code, f"cohort g={panel.time_labels[g]}: {e.args[0]}") from e

    weights = schedule.cohort_weights(per_cohort)
    lvl = sum(weights[g] * per_cohort[g].level_change for g in per_cohort)
    slp = sum(weights[g] * per_cohort[g].slope_change for g in per_cohort)
    lvl_se = float(np.sqrt(sum((weights[g] * per_cohort[g].level_change_se) ** 2
                               for g in per_cohort)))
    slp_se = float(np.sqrt(sum((weights[g] * per_cohort[g].slope_change_se) ** 2
                               for g in per_cohort)))
    return MultiBaselineItsEstimate(per_cohort, weights, lvl, lvl_se, slp, slp_se)


def fit_cits(panel: PanelDataset, covariates=()) -> CitsEstimate:
    """Comparative ITS: treated cohort vs never-treated controls.

    Control units inherit the treated cohort's adoption period as their
    interruption clock, so the plain policy/time-since-policy terms capture
    the control group's change at the interruption and the treated×clock
    interactions capture the treated-minus-control differences. Unit
    effects are absorbed, so the treated main effect (beta4) is reported as
    None and beta0 is the first unit's effect. SEs are unit-clustered.
    """
    schedule, g = _single_adoption(panel, "fit_cits")
    if not schedule.never_treated:
        raise PanelCauseError("NO_CONTROL", "fit_cits needs ≥1 never-treated unit")
    _check_periods(panel, g)
    keep, Xc = complete_rows(panel, covariates)

    t = panel.time_idx[keep].astype(float)
    treated_ids = [panel.units.index(u) for u in schedule.treated_units]
    trt = np.isin(panel.unit_idx[keep], treated_ids).astype(float)
    clock = (t >= g).astype(float)           # shared interruption clock
    tsp = clock * (t - g)

    cols = [("time", t), ("policy", clock), ("time_since_policy", tsp),
            ("trt_x_time", trt * t), ("trt_x_policy", trt * clock),
            ("trt_x_time_since_policy", trt * tsp)]
    cols += [(name, Xc[keep][:, i]) for i, name in enumerate(covariates)]
    fit, intercept = _unit_effects_fit(panel, keep, cols, "fit_cits")
    betas = {
        "beta0": intercept, "beta1": fit.coef("time"),
        "beta2": fit.coef("policy"), "beta3": fit.coef("time_since_policy"),
        "beta4": None,
        "beta5": fit.coef("trt_x_time"), "beta6": fit.coef("trt_x_policy"),
        "beta7": fit.coef("trt_x_time_since_policy"),
    }
    return CitsEstimate(
        diff_level_change=betas["beta6"], diff_level_change_se=fit.se("trt_x_policy"),
        diff_slope_change=betas["beta7"],
        diff_slope_change_se=fit.se("trt_x_time_since_policy"),
        coefficients=betas, adoption_time=g, fit=fit)
