import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import panelcause as pc
import panelcause.ar as ar_module
from panelcause.ar import FP_MAX_ITER, FP_TOL
from panelcause.panel import PanelDataset
from helpers import build_panel, with_blank_unit
from oracles import debiased_ar_path, ols_beta


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


def late_start_panel(seed=7):
    """Two units, a treated from t=5 and b observed from t=2, pure noise.
    With seed 7 (the only one of seeds 0-39 that does) the iteration cycles;
    with seed 0 it settles in 10 passes."""
    ui, ti, y, pol = [], [], [], []
    rng = np.random.default_rng(seed)
    for t in range(8):
        ui.append(0); ti.append(t)
        y.append(float(rng.normal())); pol.append(1 if t >= 5 else 0)
    for t in range(2, 8):
        ui.append(1); ti.append(t)
        y.append(float(rng.normal())); pol.append(0)
    return PanelDataset(["a", "b"], list(range(8)), ui, ti, y, pol)


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
        p = late_start_panel(seed=0)
        with pytest.warns(pc.PanelCauseWarning, match="CLUSTER_SE_DEGENERATE"):
            est = pc.fit_debiased_ar(p)
        assert est.fit.n == 7 + 5 and est.iterations == 10

    def test_two_clusters_cannot_support_the_sandwich(self):
        # two units with period effects: the clusters' scores cancel and the
        # policy's cluster-robust SE is rounding, not a zero-width CI
        with pytest.warns(pc.PanelCauseWarning, match="CLUSTER_SE_DEGENERATE"):
            est = pc.fit_debiased_ar(late_start_panel(seed=0))
        assert est.fit.cluster_count == 2
        assert est.fit.model_se("policy") > 0.1
        assert np.isnan(est.gamma_se) and np.isnan(est.p_value)
        assert np.isnan(est.ci).all() and np.isfinite(est.gamma)

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

    def test_single_unit_is_saturated(self):
        # one unit: intercept and period dummies span every used row, so
        # the residual is rounding noise for every γ and nothing is identified
        p = ar_panel(units=1, T=20, adopt={"u0": 12}, noise=0.3, seed=9)
        assert err(pc.fit_debiased_ar, p).code == "SATURATED_DESIGN"


def simulated(U, T, cohorts, seed):
    config = pc.DgpConfig(U, T, cohorts=cohorts, ar_coef=0.5, seed=seed,
                          effect={"kind": "constant", "delta": 1.0})
    return pc.simulate_panel(config, 0)[0]


def with_covariate(p, seed):
    """p plus a covariate x that trends with the period."""
    x = np.random.default_rng(seed).normal(size=p.n_rows) + 0.2 * p.time_idx
    return PanelDataset(p.units, p.time_labels, p.unit_idx, p.time_idx,
                        p.outcome, p.policy, {"x": x})


# (panel, covariates, lag_order); common adoption runs on the dense design
# throughout, and two of the 3×3 panel's three folds are saturated
JACKKNIFE_CASES = {
    "ar_panel": lambda: (ar_panel(units=5, T=10, noise=0.3, seed=11), (), 1),
    "lag_order_2": lambda: (simulated(12, 10, {4: 3, 7: 3}, seed=2), (), 2),
    "covariate": lambda: (with_covariate(simulated(12, 10, {4: 3, 7: 3}, seed=3), 3),
                          ("x",), 1),
    "common_adoption": lambda: (simulated(10, 10, {5: 10}, seed=1), (), 1),
    "blank_unit": lambda: (with_blank_unit(simulated(12, 8, {3: 3, 5: 3}, seed=4)),
                           (), 1),
    "saturated_folds": lambda: (
        pc.simulate_panel(pc.DgpConfig(3, 3, cohorts={2: 1}, seed=1), 0)[0], (), 1),
}


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

    @pytest.mark.parametrize("case", list(JACKKNIFE_CASES))
    def test_jackknife_flag(self, case):
        # each fold's γ is the fit on the panel without that unit, bit for
        # bit, and a fold that raises there is dropped with the same warning
        p, covariates, lag_order = JACKKNIFE_CASES[case]()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est = pc.fit_debiased_ar(p, covariates, lag_order, jackknife=True)
        folds = [p.units[i] for i in np.unique(ar_module._used_rows(p, lag_order)[1])]
        thetas, failed = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for u in folds:
                rest = p.subset(units=[x for x in p.units if x != u])
                try:
                    thetas.append(pc.fit_debiased_ar(rest, covariates, lag_order).gamma)
                except pc.PanelCauseError as e:
                    failed.append(e.code)
        th = np.array(thetas)
        m = len(th)
        if m < 2:
            assert np.isnan(est.gamma_se_jackknife)
        else:
            want = np.sqrt((m - 1) / m * ((th - th.mean()) ** 2).sum())
            assert est.gamma_se_jackknife == want
        dropped = [str(w.message) for w in caught
                   if getattr(w.message, "code", None) == "JACKKNIFE_FOLDS_DROPPED"]
        assert dropped == ([
            f"JACKKNIFE_FOLDS_DROPPED: {len(failed)} of {len(folds)} jackknife "
            f"folds raised and were left out (first: {failed[0]})"] if failed else [])
        assert failed == (["SATURATED_DESIGN"] * 2 if case == "saturated_folds" else [])

    def test_jackknife_folds_do_not_warn_about_their_se(self):
        # two of the three folds keep two units, whose clusters cannot
        # support a sandwich; a fold gives only γ, so that SE is never reported
        config = pc.DgpConfig(3, 10, cohorts={4: 1}, ar_coef=0.3, seed=0,
                              effect={"kind": "constant", "delta": 1.0})
        p, _ = pc.simulate_panel(config, 0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est = pc.fit_debiased_ar(p, jackknife=True)
        assert np.isfinite(est.gamma_se) and np.isfinite(est.gamma_se_jackknife)
        assert not [w for w in caught if "CLUSTER_SE_DEGENERATE" in str(w.message)]

    def test_jackknife_skips_units_without_used_rows(self):
        # an all-blank unit moved the jackknife SE from 0.616609 to 0.618772
        config = pc.DgpConfig(12, 8, cohorts={3: 3, 5: 3}, ar_coef=0.5,
                              effect={"kind": "constant", "delta": 1.0}, seed=4)
        p, _ = pc.simulate_panel(config, 0)
        est = pc.fit_debiased_ar(p, jackknife=True)
        blank = pc.fit_debiased_ar(with_blank_unit(p), jackknife=True)
        assert blank.gamma == est.gamma
        assert blank.gamma_se_jackknife == pytest.approx(est.gamma_se_jackknife,
                                                         abs=1e-12)

    def test_jackknife_drops_a_fold_without_fixed_point(self):
        # the fold without u2 diverges: its path runs off to about 8e9 and a
        # grid search around it gave γ ≈ −7.4e9, which read as an SE of 5.6e9
        p, _ = oracle_draw(280, 4, 9, "random", True, False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est = pc.fit_debiased_ar(p, ("z",), 3, jackknife=True)
        assert est.converged
        assert [str(w.message) for w in caught] == [
            "JACKKNIFE_FOLDS_DROPPED: 1 of 4 jackknife folds raised and were "
            "left out (first: NO_FIXED_POINT)"]
        rest = p.subset(units=["u0", "u1", "u3"])
        assert err(pc.fit_debiased_ar, rest, ("z",), 3).code == "NO_FIXED_POINT"
        thetas = np.array([pc.fit_debiased_ar(p.subset(units=[u for u in p.units if u != v]),
                                              ("z",), 3).gamma
                           for v in ("u0", "u1", "u3")])
        assert est.gamma_se_jackknife == np.sqrt(2 / 3 * ((thetas - thetas.mean()) ** 2).sum())
        assert est.gamma_se_jackknife == pytest.approx(1.43, abs=0.01)

    def test_config_errors(self):
        p = ar_panel()
        assert err(pc.fit_debiased_ar, p, lag_order=0).code == "CONFIG_ERROR"
        assert err(pc.fit_debiased_ar, p,
                   covariates=("nope",)).code == "CONFIG_ERROR"


def oracle_draw(seed, U, T, covariate, late_entry, common_adoption):
    """A test_gamma_path_matches panel and its (Y, P, Z, entry) grids: units
    enter late at random, adopt together or at random, and follow the AR
    model with γ = 2; the covariate z is None, "random", "period" or "lagged_y"."""
    rng = np.random.default_rng(seed)
    entry = rng.integers(0, 3, U) if late_entry else np.zeros(U, int)
    if common_adoption:
        adopt = np.full(U, T // 2)
    else:
        adopt = np.array([rng.integers(e + 1, T + 3) for e in entry])
    P = (np.arange(T)[None, :] >= adopt[:, None]).astype(float)
    Y = np.zeros((U, T))
    for i in range(U):
        Y[i, entry[i]] = rng.normal(0.0, 1.0)
        for t in range(entry[i] + 1, T):
            Y[i, t] = (0.5 + 0.1 * t + 0.5 * (Y[i, t - 1] - 2.0 * P[i, t - 1])
                       + 2.0 * P[i, t] + rng.normal(0.0, 0.5))
    # "period" is collinear with a period dummy, which is dropped in its
    # place; "lagged_y" is the lag column at γ = 0, dropped there only
    Z = {None: np.zeros((U, T)), "random": rng.normal(size=(U, T)),
         "period": np.tile(3.0 * (np.arange(T) == T - 2), (U, 1)),
         "lagged_y": np.hstack([np.zeros((U, 1)), Y[:, :-1]])}[covariate]
    cells = [(i, t) for i in range(U) for t in range(entry[i], T)]
    ui, ti = (np.array(v) for v in zip(*cells))
    p = PanelDataset([f"u{i}" for i in range(U)], list(range(T)), ui, ti,
                     Y[ui, ti], P[ui, ti].astype(int),
                     {"z": Z[ui, ti]} if covariate else None)
    return p, (Y, P, Z, entry)


class TestAgainstDenseOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=4, max_value=6),
           st.integers(min_value=8, max_value=10),
           st.sampled_from([1, 2, 3]),
           st.sampled_from([None, "random", "period", "lagged_y"]),
           st.booleans(), st.booleans())
    def test_gamma_path_matches(self, seed, U, T, lag_order, covariate,
                                late_entry, common_adoption):
        p, (Y, P, Z, entry) = oracle_draw(seed, U, T, covariate, late_entry,
                                          common_adoption)
        ui, ti = p.unit_idx, p.time_idx
        used = ti >= entry[ui] + lag_order
        u, t = ui[used], ti[used]
        levels = np.unique(t)
        fixed = ([Z[u, t]] if covariate else []) + [
            (t == s).astype(float) for s in levels[1:]]
        want = debiased_ar_path(
            Y[u, t], P[u, t],
            [Y[u, t - ell] for ell in range(1, lag_order + 1)],
            [P[u, t - ell] for ell in range(1, lag_order + 1)],
            fixed, FP_TOL, FP_MAX_ITER)
        # a path that never settles amplifies rounding without bound, so no
        # two implementations agree on it; test_fallback_to_grid_warns pins one
        assume(abs(want[-1] - want[-2]) <= FP_TOL)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", pc.PanelCauseWarning)
            est = pc.fit_debiased_ar(p, covariates=("z",) if covariate else (),
                                     lag_order=lag_order)
        assert est.iterations == len(want) - 1
        assert est.gamma_path[:len(want)] == pytest.approx(want, rel=1e-10,
                                                           abs=1e-10)

    def test_common_adoption_keeps_policy_over_last_period(self):
        # every unit adopts at t=5: policy lies in the span of the period
        # dummies, and as the earlier column it is kept while t_9 is dropped
        p, _ = pc.simulate_panel(pc.DgpConfig(
            n_units=10, n_periods=10, cohorts={5: 10}, ar_coef=0.5, seed=1,
            effect={"kind": "constant", "delta": 1.0}), 0)
        est = pc.fit_debiased_ar(p)
        assert "policy" in est.fit.coefficients
        assert ("t_9", "collinear with earlier columns") in est.fit.dropped_columns
        # recorded with a full design rebuild on every pass
        assert est.gamma == pytest.approx(1.610096284445255, abs=1e-10)
        assert est.iterations == 32 and est.converged


class TestAbsorbedReport:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=3, max_value=7),
           st.integers(min_value=6, max_value=10),
           st.sampled_from([1, 2]), st.booleans(),
           st.floats(min_value=-3.0, max_value=3.0))
    def test_matches_the_dense_pass(self, seed, U, T, lag_order, covariate,
                                    gamma):
        # unbalanced: units enter late and leave early, adopt at random
        rng = np.random.default_rng(seed)
        entry = rng.integers(0, 3, U)
        leave = rng.integers(T - 2, T + 1, U)
        adopt = rng.integers(1, T + 2, U)
        cells = [(i, t) for i in range(U) for t in range(entry[i], leave[i])]
        ui, ti = (np.array(v) for v in zip(*cells))
        y = rng.normal(size=len(ui)) + 0.3 * ti
        cov = {"z": rng.normal(size=len(ui)) + 0.1 * ti} if covariate else None
        p = PanelDataset([f"u{i}" for i in range(U)], list(range(T)), ui, ti,
                         y, (ti >= adopt[ui]).astype(int), cov)
        covariates = ("z",) if covariate else ()
        rows = ar_module._used_rows(p, lag_order)
        gram = ar_module._LagPolicyGram(p, rows, covariates)
        assume(gram.absorbed and gram.policy_coef(gamma) is not None)
        try:
            want = ar_module._ols_pass(p, *rows, gamma, covariates)[0]
        except pc.PanelCauseError as e:
            assert err(gram.report, gamma).code == e.code
            return
        fit = gram.report(gamma)
        assert want.dropped_columns == fit.dropped_columns == []
        assert list(fit.coefficients) == list(want.coefficients)
        assert list(fit.coefficients.values()) == pytest.approx(
            list(want.coefficients.values()), rel=1e-10, abs=1e-12)
        assert fit.se("policy") == pytest.approx(want.se("policy"), rel=1e-10)
        assert fit.model_se("policy") == pytest.approx(want.model_se("policy"),
                                                       rel=1e-10)
        assert (fit.rank, fit.n, fit.cluster_count) == (
            want.rank, want.n, want.cluster_count)

    def test_period_covariate_sends_the_fit_dense(self, monkeypatch):
        # z is a function of the period alone: build_design keeps it and
        # drops the last period dummy, so no pass or report is absorbed
        p = ar_panel(noise=0.3, seed=13)
        z = (p.time_idx - 4.0) ** 2
        p = PanelDataset(p.units, p.time_labels, p.unit_idx, p.time_idx,
                         p.outcome, p.policy, {"z": z})
        assert not ar_module._LagPolicyGram(
            p, ar_module._used_rows(p, 1), ("z",)).absorbed
        calls = dense_refits(monkeypatch)
        est = pc.fit_debiased_ar(p, covariates=("z",))
        assert calls == [est.gamma_path[-2]]        # the report alone
        assert est.fit.dropped_columns == [("t_11", "collinear with earlier columns")]
        assert "z" in est.covariate_betas


def dense_refits(monkeypatch):
    """The input γ of every pass fit_debiased_ar refits with period dummies."""
    calls = []
    real = ar_module._ols_pass
    monkeypatch.setattr(ar_module, "_ols_pass", lambda *a: calls.append(a[8])
                        or real(*a))
    return calls


# the second pass's Gram pivot for the lag rounds to -7e-15 at slope 0.3
# and to +3.6e-15 at slope 0.2; both must send the pass to the dense refit
@pytest.mark.parametrize("slope", [0.3, 0.2])
def test_vanishing_lag_pass_is_refit_in_full(monkeypatch, slope):
    # y = slope·t + 2·policy: at γ = 2 the debiased lag is the period trend,
    # inside the span of the period dummies, so the second pass's lag/policy
    # block is rank-deficient and build_design decides what it keeps
    names = [f"u{i}" for i in range(6)]
    adopt = {u: 5 for u in names[:3]}
    y = {u: [slope * t + (2.0 if u in adopt and t >= 5 else 0.0)
             for t in range(10)] for u in names}
    calls = dense_refits(monkeypatch)
    est = pc.fit_debiased_ar(build_panel(names, 10, adopt, y))
    assert est.iterations == 2 and est.converged
    assert est.gamma == pytest.approx(2.0, abs=1e-12)
    # the rank-deficient pass, and the report at the same input γ
    assert calls == [est.gamma_path[1]] * 2


def test_lagged_outcome_covariate_is_refit_in_full_at_zero_only(monkeypatch):
    # z is each unit's previous outcome, so it equals the lag column at γ = 0
    # and build_design drops it there; at any other γ the debiased lag is not
    # in the span of z and the period dummies, and the Gram pass is exact
    adopt = {"u0": 6, "u1": 6, "u2": 8, "u3": 8}
    names = [f"u{i}" for i in range(6)]
    Y = ar_panel(units=6, T=12, adopt=adopt, noise=0.3, seed=0).outcome_matrix()
    Z = np.hstack([np.zeros((6, 1)), Y[:, :-1]])
    p = build_panel(names, 12, adopt, dict(zip(names, Y.tolist())),
                    covariates={"z": dict(zip(names, Z.tolist()))})
    calls = dense_refits(monkeypatch)
    est = pc.fit_debiased_ar(p, covariates=("z",))
    assert est.iterations == 3 and est.converged
    assert calls == [0.0]       # the γ = 0 pass alone

    P = p.policy_matrix().astype(float)
    u, t = np.repeat(np.arange(6), 11), np.tile(np.arange(1, 12), 6)
    want = debiased_ar_path(Y[u, t], P[u, t], [Y[u, t - 1]], [P[u, t - 1]],
                            [Z[u, t]] + [(t == s).astype(float)
                                         for s in range(2, 12)],
                            FP_TOL, FP_MAX_ITER)
    assert est.gamma_path == pytest.approx(want, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("jackknife", [False, True])
def test_cycling_path_raises_no_fixed_point(jackknife):
    # three units, five periods: the iteration cycles for FP_MAX_ITER passes
    # around its one real root (3.887), which repels
    p, _ = pc.simulate_panel(pc.DgpConfig(
        n_units=3, n_periods=5, cohorts={1: 1, 2: 1}, ar_coef=0.9,
        intercept_sd=3.0, effect={"kind": "dynamic", "base": 1.0, "slope": 0.5},
        seed=22), 0)
    e = err(pc.fit_debiased_ar, p, jackknife=jackknife)
    assert (e.code, str(e)) == ("NO_FIXED_POINT", "NO_FIXED_POINT: no fixed point "
                                f"within {FP_TOL:g} after {FP_MAX_ITER} passes")


@pytest.mark.parametrize("jackknife", [False, True])
def test_late_start_path_raises_no_fixed_point(jackknife):
    # the same two units as TestRowSelection's with seed 7: the path cycles
    e = err(pc.fit_debiased_ar, late_start_panel(), jackknife=jackknife)
    assert e.code == "NO_FIXED_POINT"
