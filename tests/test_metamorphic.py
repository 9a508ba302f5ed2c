"""Transforms of the input that must not change what a method reports.

Adding c to every outcome leaves a method's point estimate and SE as they
are; multiplying every outcome by a multiplies the estimate by a and the SE
by |a|. Shuffling the rows, renaming the units and shifting the time labels
change nothing. Each method is called as the advisor, the CLI and the Monte
Carlo harness call it, through ``advisor.METHODS[m].fit`` and ``.point``.
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
            return spec.point(spec.fit(with_outcome(p, a, c), (), 0.95, 0), 0.95)[:2]

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
    assert spec.point(scaled, 0.95)[0] == pytest.approx(a * spec.point(est, 0.95)[0],
                                                        rel=1e-9)
    np.testing.assert_allclose(scaled.weights.as_array(est.donors),
                               est.weights.as_array(est.donors),
                               rtol=0, atol=1e-9)
    assert pc.placebo_inference(with_outcome(p, a, 0.0), est.treated).p_value \
        == pc.placebo_inference(p, est.treated).p_value


@pytest.mark.parametrize("a", [1e-4, 1e4])
def test_staggered_ascm_fixed_nu_outcome_scale(a):
    p = simulate_panel(STAGGERED, 0)[0]
    est = pc.fit_staggered_ascm(p, nu=0.5)
    scaled = pc.fit_staggered_ascm(with_outcome(p, a, 0.0), nu=0.5)
    assert scaled.att == pytest.approx(a * est.att, rel=1e-9)
    assert scaled.se == pytest.approx(abs(a) * est.se, rel=1e-9)


# Labels and order: every method, on a panel it fits.
LABEL_CASES = (
    [(SINGLE_TREATED, m) for m in (adv.SCM, adv.ASCM, adv.ITS, adv.CITS,
                                   adv.DID_TWFE, adv.EVENT_STUDY)]
    + [(STAGGERED, m) for m in (adv.ITS_MULTI_BASELINE, adv.GROUP_TIME_DID,
                                adv.IMPUTATION_DID, adv.DEBIASED_AR,
                                adv.STAGGERED_ASCM)])


def rebuilt(p, units=None, time_labels=None, rows=None, unit_idx=None):
    rows = np.arange(len(p.outcome)) if rows is None else rows
    unit_idx = p.unit_idx if unit_idx is None else unit_idx
    return pc.PanelDataset(
        p.units if units is None else units,
        p.time_labels if time_labels is None else time_labels,
        unit_idx[rows], p.time_idx[rows], p.outcome[rows], p.policy[rows],
        {k: v[rows] for k, v in p.covariates.items()})


def relabelled(p):
    """(transform, panel, old unit -> new unit) for each label transform;
    the renamed units sort in the reverse of their order."""
    n = p.unit_count
    names = [f"r{n - i:03d}" for i in range(n)]
    same = dict(zip(p.units, p.units))
    rows = np.random.default_rng(0).permutation(len(p.outcome))
    return [("shuffled rows", rebuilt(p, rows=rows), same),
            ("renamed units", rebuilt(p, units=names),
             dict(zip(p.units, names))),
            ("time labels + 1000",
             rebuilt(p, time_labels=[t + 1000 for t in p.time_labels]), same)]


def test_label_cases_cover_every_method():
    assert sorted(m for _, m in LABEL_CASES) == sorted(adv.METHODS)


@pytest.mark.parametrize("cfg,method", LABEL_CASES,
                         ids=[m for _, m in LABEL_CASES])
def test_labels_and_row_order(cfg, method):
    spec = adv.METHODS[method]
    p = simulate_panel(cfg, 0)[0]

    def fit(q):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return spec.fit(q, (), 0.95, 0)

    est = fit(p)
    for name, q, rename in relabelled(p):
        got = fit(q)
        assert spec.point(got, 0.95)[:2] == pytest.approx(spec.point(est, 0.95)[:2],
                                                          rel=1e-10, nan_ok=True), name


@pytest.mark.parametrize("method", [adv.SCM, adv.ASCM])
def test_weights_and_placebo_by_donor(method):
    # the weights, compared by donor label, and the placebo p, exactly. The
    # leave-one-out refits run as one batch in donor order: reversing the
    # units reverses it (the label transforms keep it)
    spec = adv.METHODS[method]
    p = simulate_panel(SINGLE_TREATED, 0)[0]
    n = p.unit_count
    panels = relabelled(p) + [
        ("reversed units", rebuilt(p, units=p.units[::-1],
                                   unit_idx=n - 1 - p.unit_idx),
         dict(zip(p.units, p.units)))]
    est = spec.fit(p, (), 0.95, 0)
    base = pc.placebo_inference(p, est.treated)
    for name, q, rename in panels:
        got = spec.fit(q, (), 0.95, 0)
        w = est.weights.weights
        np.testing.assert_allclose(
            [got.weights.weights[rename[d]] for d in w], list(w.values()),
            rtol=1e-10, atol=1e-12, err_msg=name)
        res = pc.placebo_inference(q, rename[est.treated])
        assert res.p_value == base.p_value, name
        assert sorted(res.excluded) == sorted(rename[d] for d in base.excluded)
