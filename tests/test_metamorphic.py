"""Outcome shift and scale: what every regression estimator must do with them.

Adding c to every outcome leaves a method's point estimate and SE as they
are; multiplying every outcome by a multiplies the estimate by a and the SE
by |a|. Each method is called as the advisor, the CLI and the Monte Carlo
harness call it, through ``advisor.METHODS[m].fit`` and ``.point``.
"""

import warnings

import numpy as np
import pytest

import panelcause as pc
from panelcause import advisor as adv
from panelcause import ar
from panelcause.simharness import DgpConfig, simulate_panel

DYNAMIC = {"kind": "dynamic", "base": 1.0, "slope": 0.3}
SHIFT, SCALE = 1e3, -3.0

# (config, the methods fitted on its panel); ITS on panels with controls is
# what a forced fit runs
DESIGNS = {
    "single": (DgpConfig(n_units=9, n_periods=10, cohorts={6: 1},
                         effect=DYNAMIC, noise_sd=0.5, seed=5),
               (adv.DID_TWFE, adv.EVENT_STUDY, adv.CITS, adv.ITS,
                adv.GROUP_TIME_DID, adv.DEBIASED_AR)),
    "cohort": (DgpConfig(n_units=12, n_periods=10, cohorts={5: 4},
                         effect=DYNAMIC, ar_coef=0.3, seed=3),
               (adv.DID_TWFE, adv.EVENT_STUDY, adv.CITS, adv.ITS,
                adv.GROUP_TIME_DID, adv.DEBIASED_AR)),
    "staggered": (DgpConfig(n_units=16, n_periods=10, cohorts={3: 4, 6: 4},
                            effect=DYNAMIC, ar_coef=0.3, seed=6),
                  (adv.DID_TWFE, adv.EVENT_STUDY, adv.ITS_MULTI_BASELINE,
                   adv.GROUP_TIME_DID, adv.DEBIASED_AR)),
    "staggered_no_control": (DgpConfig(n_units=8, n_periods=10,
                                       cohorts={3: 4, 6: 4}, effect=DYNAMIC,
                                       seed=8),
                             (adv.DID_TWFE, adv.EVENT_STUDY,
                              adv.ITS_MULTI_BASELINE, adv.DEBIASED_AR)),
}
CASES = [(d, m) for d, (_, methods) in DESIGNS.items() for m in methods]


def with_outcome(p, a, c):
    return pc.PanelDataset(p.units, p.time_labels, p.unit_idx, p.time_idx,
                           a * p.outcome + c, p.policy, p.covariates)


@pytest.mark.parametrize("design,method", CASES)
def test_outcome_shift_and_scale(design, method, monkeypatch):
    if method == adv.DEBIASED_AR:
        # the fixed point stops when a pass moves γ by at most FP_TOL, an
        # absolute step in the outcome's units, so the stopped iterate is
        # equivariant only to about FP_TOL; iterate to rounding to check
        # the estimator rather than its stopping rule
        monkeypatch.setattr(ar, "FP_TOL", 1e-12)
    spec = adv.METHODS[method]
    p = simulate_panel(DESIGNS[design][0], 0)[0]

    def point(a, c):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return spec.point(spec.fit(with_outcome(p, a, c), (), 0.95, 0))

    est, se = point(1.0, 0.0)
    shifted, scaled = point(1.0, SHIFT), point(SCALE, 0.0)
    assert shifted[0] == pytest.approx(est, rel=1e-9)
    assert shifted[1] == pytest.approx(se, rel=1e-9)
    assert scaled[0] == pytest.approx(SCALE * est, rel=1e-9)
    assert scaled[1] == pytest.approx(abs(SCALE) * se, rel=1e-9)


# Synthetic control: the simplex fit matches outcomes, so its weights are
# unchanged by a rescaled outcome and its ATT scales with it. ASCM (ridge
# penalty on an absolute grid) and staggered ASCM's nu="auto" are left out:
# neither is scale-equivariant yet.
SINGLE_TREATED = DgpConfig(n_units=30, n_periods=16, cohorts={10: 1},
                           effect=DYNAMIC, seed=4)
STAGGERED = DgpConfig(n_units=40, n_periods=14, cohorts={5: 8, 9: 8},
                      ar_coef=0.5, seed=3)


@pytest.mark.parametrize("a", [1e-4, 1e4, SCALE])
def test_scm_outcome_scale(a):
    spec = adv.METHODS[adv.SCM]
    p = simulate_panel(SINGLE_TREATED, 0)[0]
    est, scaled = (spec.fit(with_outcome(p, x, 0.0), (), 0.95, 0)
                   for x in (1.0, a))
    assert spec.point(scaled)[0] == pytest.approx(a * spec.point(est)[0],
                                                  rel=1e-9)
    np.testing.assert_allclose(scaled.weights.as_array(est.donors),
                               est.weights.as_array(est.donors),
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("a", [1e-4, 1e4])
def test_staggered_ascm_fixed_nu_outcome_scale(a):
    p = simulate_panel(STAGGERED, 0)[0]
    est = pc.fit_staggered_ascm(p, nu=0.5)
    scaled = pc.fit_staggered_ascm(with_outcome(p, a, 0.0), nu=0.5)
    assert scaled.att == pytest.approx(a * est.att, rel=1e-9)
    assert scaled.se == pytest.approx(abs(a) * est.se, rel=1e-9)
