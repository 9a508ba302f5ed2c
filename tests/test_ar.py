import numpy as np
import pytest

import panelcause as pc
from panelcause.ar import FP_TOL, _grid_refine
from panelcause.panel import PanelDataset
from helpers import build_panel
from oracles import ols_beta


def ar_panel(units=6, T=12, gamma=2.0, beta=0.6, alpha=0.5, sig=0.1,
             adopt="default", noise=0.0, seed=0):
    """Outcomes generated exactly from the debiased-lag recursion."""
    rng = np.random.default_rng(seed)
    names = [f"u{i}" for i in range(units)]
    if adopt == "default":
        adopt = {u: 6 for u in names[: units // 2]}
    paths = {}
    for u in names:
        g = adopt.get(u)
        y = [float(rng.normal(0.0, 1.0))]
        for t in range(1, T):
            p_t = 1.0 if g is not None and t >= g else 0.0
            p_l = 1.0 if g is not None and t - 1 >= g else 0.0
            lag = y[-1] - gamma * p_l
            y.append(alpha + sig * t + beta * lag + gamma * p_t
                     + (float(rng.normal(0.0, noise)) if noise else 0.0))
        paths[u] = y
    return build_panel(names, T, adopt, paths)


def err(fn, *args, **kw):
    with pytest.raises(pc.PanelCauseError) as ei:
        fn(*args, **kw)
    return ei.value


class TestFixedPoint:
    def test_noiseless_recovery(self):
        est = pc.fit_debiased_ar(ar_panel())
        assert est.gamma == pytest.approx(2.0, abs=1e-6)
        assert est.beta_lag == pytest.approx(0.6, abs=1e-6)
        assert est.intercept == pytest.approx(0.5 + 0.1, abs=1e-6)
        assert est.converged and est.iterations > 1
        assert not est.used_fallback

    def test_time_effects_relative_to_first_used_period(self):
        est = pc.fit_debiased_ar(ar_panel())
        assert est.time_effects[1] == 0.0
        for t in (2, 5, 11):
            assert est.time_effects[t] == pytest.approx(0.1 * (t - 1),
                                                        abs=1e-6), t

    def test_path_starts_at_zero_and_settles(self):
        est = pc.fit_debiased_ar(ar_panel(noise=0.2, seed=1))
        assert est.gamma_path[0] == 0.0
        assert est.gamma == est.gamma_path[-1]
        assert abs(est.gamma_path[-1] - est.gamma_path[-2]) <= FP_TOL

    def test_self_consistency_at_solution(self):
        # rebuilding the debiased lag at gamma-hat and refitting must
        # return gamma-hat again
        p = ar_panel(noise=0.3, seed=2)
        est = pc.fit_debiased_ar(p)
        from panelcause.ar import _ols_pass, _used_rows
        cand, ui, ti, y, pol, lag_y, lag_p = _used_rows(p, 1)
        refit, _ = _ols_pass(p, cand, ui, ti, y, pol, lag_y, lag_p,
                             est.gamma, ())
        assert refit.coefficients["policy"] == pytest.approx(est.gamma,
                                                             abs=1e-7)

    def test_inference_fields(self):
        est = pc.fit_debiased_ar(ar_panel(noise=0.3, seed=3), ci_level=0.9)
        assert est.gamma_se > 0
        lo, hi = est.ci
        assert lo < est.gamma < hi
        assert 0 <= est.p_value <= 1
        assert est.gamma_se_jackknife is None


class TestOneShotAnchor:
    def make(self):
        # policy turns on only at the final period: no used row has a
        # treated lag, so a single OLS pass is exact
        return ar_panel(units=4, T=10, adopt={"u0": 9, "u1": 9}, noise=0.4,
                        seed=4)

    def test_single_iteration(self):
        est = pc.fit_debiased_ar(self.make())
        assert est.iterations == 1
        assert est.converged
        assert est.gamma_path == [0.0, est.gamma]

    def test_equals_plain_lag_regression(self):
        p = self.make()
        est = pc.fit_debiased_ar(p)
        Y = p.outcome_matrix()
        rows = [(i, t) for i in range(4) for t in range(1, 10)]
        lag = np.array([Y[i, t - 1] for i, t in rows])
        yy = np.array([Y[i, t] for i, t in rows])
        polv = np.array([1.0 if (i in (0, 1) and t >= 9) else 0.0
                         for i, t in rows])
        tdum = [(np.array([1.0 if t == s else 0.0 for _, t in rows]))
                for s in range(2, 10)]
        X = np.column_stack([np.ones(len(rows)), lag, polv] + tdum)
        beta = ols_beta(X, yy)
        assert est.gamma == pytest.approx(beta[2], abs=1e-10)
        assert est.beta_lag == pytest.approx(beta[1], abs=1e-10)
        assert est.intercept == pytest.approx(beta[0], abs=1e-10)

    def test_no_treatment_gives_exact_zero(self):
        p = ar_panel(units=4, T=8, adopt={}, noise=0.4, seed=5)
        est = pc.fit_debiased_ar(p)
        assert est.gamma == 0.0
        assert np.isnan(est.gamma_se)
        assert est.converged and est.iterations == 1


class TestRowSelection:
    def test_first_lag_periods_excluded(self):
        p = ar_panel(units=4, T=10, noise=0.2, seed=6)
        est = pc.fit_debiased_ar(p)
        assert est.fit.n == 4 * 9
        est2 = pc.fit_debiased_ar(p, lag_order=2)
        assert est2.fit.n == 4 * 8

    def test_late_starting_unit_allowed(self):
        # unit b enters at t=2; its first observed period seeds the lag
        ui, ti, y, pol = [], [], [], []
        rng = np.random.default_rng(7)
        for t in range(8):
            ui.append(0); ti.append(t)
            y.append(float(rng.normal())); pol.append(1 if t >= 5 else 0)
        for t in range(2, 8):
            ui.append(1); ti.append(t)
            y.append(float(rng.normal())); pol.append(0)
        p = PanelDataset(["a", "b"], list(range(8)), ui, ti, y, pol)
        est = pc.fit_debiased_ar(p)
        assert est.fit.n == 7 + 5

    def test_interior_missing_lag_is_an_error(self):
        p = ar_panel(units=3, T=8, adopt={"u0": 5}, noise=0.2, seed=8)
        y = p.outcome.copy()
        hole = np.flatnonzero((p.unit_idx == 1) & (p.time_idx == 3))[0]
        y[hole] = np.nan
        p2 = PanelDataset(p.units, p.time_labels, p.unit_idx, p.time_idx,
                          y, p.policy, p.covariates)
        e = err(pc.fit_debiased_ar, p2)
        assert e.code == "MISSING_LAG"
        assert ("u1", 4) in e.details["cells"]

    def test_single_unit_uses_row_clusters(self):
        p = ar_panel(units=1, T=20, adopt={"u0": 12}, noise=0.3, seed=9)
        est = pc.fit_debiased_ar(p)
        assert np.isfinite(est.gamma_se)
        assert est.fit.cluster_count == 19


class TestOptions:
    def test_covariates(self):
        base = ar_panel(noise=0.0)
        rng = np.random.default_rng(10)
        z = {u: rng.normal(size=12).tolist() for u in base.units}
        Y = base.outcome_matrix()
        y = {u: [float(Y[i, t]) + 1.3 * z[u][t] for t in range(12)]
             for i, u in enumerate(base.units)}
        sched = pc.derive_adoption(base)
        adopt = {u: g for u, g in sched.adoption_time.items() if g is not None}
        p = build_panel(list(base.units), 12, adopt, y, covariates={"z": z})
        est = pc.fit_debiased_ar(p, covariates=("z",))
        # the lag now carries the covariate shock forward: gamma is still
        # identified, the covariate coefficient picks up the direct effect
        assert est.covariate_betas["z"] == pytest.approx(1.3, abs=0.15)

    def test_second_order_lag(self):
        # exact AR(2) recursion with debiased lags
        rng = np.random.default_rng(12)
        gamma, b1, b2 = 2.0, 0.45, 0.3
        names = [f"u{i}" for i in range(6)]
        adopt = {u: 6 for u in names[:3]}
        paths = {}
        for u in names:
            g = adopt.get(u)
            y = [float(rng.normal()), float(rng.normal())]
            for t in range(2, 12):
                pv = [1.0 if g is not None and s >= g else 0.0
                      for s in (t, t - 1, t - 2)]
                y.append(0.5 + 0.1 * t + b1 * (y[-1] - gamma * pv[1])
                         + b2 * (y[-2] - gamma * pv[2]) + gamma * pv[0])
            paths[u] = y
        est = pc.fit_debiased_ar(build_panel(names, 12, adopt, paths),
                                 lag_order=2)
        assert est.gamma == pytest.approx(2.0, abs=1e-5)
        assert est.beta_lag == pytest.approx(b1, abs=1e-5)
        assert est.fit.coefficients["lag2"] == pytest.approx(b2, abs=1e-5)

    def test_jackknife_flag(self):
        p = ar_panel(units=5, T=10, noise=0.3, seed=11)
        est = pc.fit_debiased_ar(p, jackknife=True)
        assert est.gamma_se_jackknife is not None
        thetas = []
        for u in p.units:
            rest = [x for x in p.units if x != u]
            thetas.append(pc.fit_debiased_ar(p.subset(units=rest)).gamma)
        th = np.array(thetas)
        m = len(th)
        want = np.sqrt((m - 1) / m * ((th - th.mean()) ** 2).sum())
        assert est.gamma_se_jackknife == pytest.approx(want, rel=1e-10)

    def test_config_errors(self):
        p = ar_panel()
        assert err(pc.fit_debiased_ar, p, lag_order=0).code == "CONFIG_ERROR"
        assert err(pc.fit_debiased_ar, p,
                   covariates=("nope",)).code == "CONFIG_ERROR"


def test_grid_refine_locates_minimum():
    got = _grid_refine(lambda g: (g - 3.7) ** 2 + 1.0, -10.0, 10.0)
    assert got == pytest.approx(3.7, abs=1e-3)
