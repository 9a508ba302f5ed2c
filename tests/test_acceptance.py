"""End-to-end acceptance gate.

One test per shipped guarantee; each prints a single PASS line with the
measured numbers (shown under -s, and implicitly by the test outcome line).
Monte Carlo experiments pin their seeds, so every run sees identical draws.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import panelcause as pc
from panelcause.ar import _coef, _ols_pass, _used_rows, fit_debiased_ar
from panelcause.cli import main as cli_main
from panelcause.did import goodman_bacon_decompose
from panelcause.scm import fit_ascm, fit_scm, placebo_inference, solve_simplex_lsq
from panelcause.simharness import DgpConfig, evaluate

from helpers import build_panel, linear_paths, strip_runtime_columns, COHORT_PLAN
from oracles import grid_simplex_min


def _ok(label):
    print(f"PASS: {label}")


def test_case_study_cohort_adoption_pattern(case_panel):
    t0 = time.perf_counter()
    schedule = pc.derive_adoption(case_panel)
    counts = pc.cumulative_adoption_counts(schedule,
                                           range(case_panel.time_count))
    by_year = dict(zip(case_panel.time_labels, counts))
    got = [by_year[y] for y in range(2010, 2018)]
    assert got == [1, 1, 1, 2, 10, 18, 34, 44]
    sizes = {case_panel.label_of(g): n
             for g, n in schedule.cohort_sizes().items()}
    assert sizes == COHORT_PLAN
    assert sorted(sizes.values()) == [1, 1, 8, 8, 10, 16]
    assert len(schedule.never_treated) == 6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(f"case-study adoption pattern: cumulative {got}, "
        f"sizes {sorted(sizes.values())}, 6 never ({elapsed:.2f}s < 1s)")


def test_case_study_advisor_shortlist(case_panel):
    t0 = time.perf_counter()
    rec = pc.recommend_for_panel(case_panel)
    assert list(rec.viable) == ["GROUP_TIME_DID", "IMPUTATION_DID",
                                "DEBIASED_AR", "STAGGERED_ASCM"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(f"advisor shortlist on case study = {list(rec.viable)} "
        f"({elapsed:.2f}s < 1s)")


def test_two_by_two_did_closed_form():
    panel = build_panel(["c", "t"], 2, {"t": 1}, {"c": [1.0, 2.0],
                                                  "t": [1.0, 4.0]})
    est = pc.fit_did_twfe(panel)
    assert est.att == pytest.approx(2.0, abs=1e-10)
    _ok(f"2x2 DID closed form: att = {est.att} = (4-1)-(2-1) within 1e-10")


def test_bacon_identity_on_random_staggered_panels():
    t0 = time.perf_counter()
    worst_gap = worst_wsum = 0.0
    for i in range(100):
        rng = np.random.default_rng(900 + i)
        U = int(rng.integers(6, 13))
        T = int(rng.integers(8, 13))
        gs = sorted(rng.choice(np.arange(2, T - 2), size=2, replace=False))
        units = [f"u{j}" for j in range(U)]
        adopt = {}
        for j, u in enumerate(units):
            if j < 2:
                adopt[u] = int(gs[j])       # both cohorts nonempty
            elif rng.random() < 0.3:
                continue                    # never treated
            else:
                adopt[u] = int(rng.choice(gs))
        eff = {int(g): float(rng.uniform(0.0, 3.0)) for g in gs}
        y = linear_paths(units, T, adopt, rng, slope=float(rng.normal(0, 0.4)),
                         effect=lambda g, t: eff[g], noise_sd=0.3)
        panel = build_panel(units, T, adopt, y)

        dec = goodman_bacon_decompose(panel)
        twfe = pc.fit_did_twfe(panel).att
        wsum = sum(c.weight for c in dec.comparisons)
        assert all(c.weight >= -1e-12 for c in dec.comparisons)
        worst_wsum = max(worst_wsum, abs(wsum - 1.0))
        worst_gap = max(worst_gap, abs(dec.weighted_sum - twfe))
        assert abs(wsum - 1.0) <= 1e-8
        assert abs(dec.weighted_sum - twfe) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(f"Goodman-Bacon identity on 100 random panels: max |sum w*est - "
        f"twfe| = {worst_gap:.2e} <= 1e-6, max |sum w - 1| = "
        f"{worst_wsum:.2e} <= 1e-8 ({elapsed:.1f}s < 30s)")


def test_noiseless_known_truth_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)

    # simultaneous DID, delta = 3
    adopt = {"a": 4, "b": 4, "c": 4}
    units = ["a", "b", "c", "n0", "n1", "n2"]
    y = linear_paths(units, 8, adopt, rng, effect=lambda g, t: 3.0)
    did = pc.fit_did_twfe(build_panel(units, 8, adopt, y))
    assert did.att == pytest.approx(3.0, abs=1e-6)

    # event study, delta_k = k + 1
    y = linear_paths(units, 8, adopt, rng, effect=lambda g, t: t - g + 1.0)
    es = pc.fit_event_study(build_panel(units, 8, adopt, y))
    for k in range(0, 4):
        assert es.coefficients[k][0] == pytest.approx(k + 1.0, abs=1e-6)
    for k in (-4, -3, -2):
        assert es.coefficients[k][0] == pytest.approx(0.0, abs=1e-6)

    # group-time ATT, delta_g in {1, 3}
    adopt = {"a": 3, "b": 3, "c": 5, "d": 5}
    units = ["a", "b", "c", "d", "n0", "n1"]
    y = linear_paths(units, 8, adopt, rng,
                     effect=lambda g, t: 1.0 if g == 3 else 3.0)
    gt = pc.fit_group_time_att(build_panel(units, 8, adopt, y))
    for (g, t), (att, _) in gt.cells.items():
        want = 1.0 if g == 3 else 3.0
        assert att == pytest.approx(want, abs=1e-6), (g, t)
    assert gt.by_cohort[3][0] == pytest.approx(1.0, abs=1e-6)
    assert gt.by_cohort[5][0] == pytest.approx(3.0, abs=1e-6)

    # imputation DID, delta = 2
    y = linear_paths(units, 8, adopt, rng, effect=lambda g, t: 2.0)
    imp = pc.fit_imputation_did(build_panel(units, 8, adopt, y))
    assert imp.att == pytest.approx(2.0, abs=1e-6)

    # debiased AR, gamma* = 2 (outcome follows the AR law exactly; random
    # initial conditions keep the units linearly independent)
    gamma, beta, T = 2.0, 0.6, 12
    units = [f"u{i}" for i in range(6)]
    adopt = {u: 6 for u in units[:3]}
    y = {}
    for u in units:
        g = adopt.get(u)
        path = [float(rng.normal(0.0, 1.0))]
        for t in range(1, T):
            p = 1.0 if g is not None and t >= g else 0.0
            p_l = 1.0 if g is not None and t - 1 >= g else 0.0
            path.append(0.5 + 0.1 * t + beta * (path[-1] - gamma * p_l)
                        + gamma * p)
        y[u] = path
    ar = fit_debiased_ar(build_panel(units, T, adopt, y))
    assert ar.gamma == pytest.approx(gamma, abs=1e-6)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(f"noiseless recovery: DID 3.0, event-study k+1, group-time {{1,3}}, "
        f"imputation 2.0, debiased AR 2.0, all within 1e-6 "
        f"({elapsed:.2f}s < 10s)")


def test_scm_simplex_exactness_and_grid_oracle():
    t0 = time.perf_counter()

    # noisy instance: returned weights live on the simplex
    rng = np.random.default_rng(51)
    T, g = 10, 6
    tgrid = np.arange(T)
    factors = np.vstack([1.0 + 0.3 * tgrid, np.sin(tgrid / 2.0),
                         rng.normal(0, 1, T)])
    load = rng.dirichlet(4.0 * np.ones(3), size=5)
    donors = {f"d{j}": (load[j] @ factors + rng.normal(0, 0.2, T)).tolist()
              for j in range(5)}
    y = dict(donors)
    y["tr"] = (0.4 * np.array(donors["d0"]) + 0.6 * np.array(donors["d1"])
               + 1.5 * (tgrid >= g) + rng.normal(0, 0.2, T)).tolist()
    noisy = build_panel(["tr"] + sorted(donors), T, {"tr": g}, y)
    est = fit_scm(noisy, "tr")
    w = np.array([est.weights.weights[d] for d in est.donors])
    assert (w >= -1e-8).all()
    assert abs(w.sum() - 1.0) <= 1e-8

    # exact convex representation: weights (0.5, 0.5, 0), zero pre-fit error
    d0 = [1.0 + 0.3 * t for t in range(8)]
    d1 = [4.0 - 0.1 * t for t in range(8)]
    d2 = [2.0 + 0.05 * t * t for t in range(8)]
    y = {"d0": d0, "d1": d1, "d2": d2,
         "tr": [0.5 * a + 0.5 * b + 2.0 * (t >= 5)
                for t, (a, b) in enumerate(zip(d0, d1))]}
    exact = fit_scm(build_panel(["tr", "d0", "d1", "d2"], 8, {"tr": 5}, y),
                    "tr")
    wx = [exact.weights.weights[d] for d in ("d0", "d1", "d2")]
    assert wx == pytest.approx([0.5, 0.5, 0.0], abs=1e-5)
    assert exact.weights.pre_period_rmspe <= 1e-6

    # solver vs independent grid search, 5 donors
    rng = np.random.default_rng(52)
    X0 = rng.normal(0, 1, (5, 6))
    x1 = np.array([0.3, 0.3, 0.2, 0.1, 0.1]) @ X0 + rng.normal(0, 0.05, 6)
    _, obj, _, _ = solve_simplex_lsq(X0.T, x1)
    _, obj_grid = grid_simplex_min(X0, x1)
    assert obj <= obj_grid + 1e-8

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(f"SCM: simplex weights (sum-1 err {abs(w.sum() - 1.0):.1e}), exact "
        f"instance -> (0.5, 0.5, 0) with pre-RMSPE {exact.weights.pre_period_rmspe:.1e}"
        f" <= 1e-6, solver obj {obj:.6f} <= grid {obj_grid:.6f} + 1e-8 "
        f"({elapsed:.1f}s < 60s)")


def test_ascm_degeneracy_and_ridge_limit():
    # zero pre-period imbalance: augmentation has nothing to correct
    d0 = [1.0 + 0.3 * t for t in range(8)]
    d1 = [4.0 - 0.1 * t for t in range(8)]
    d2 = [2.0 + 0.05 * t * t for t in range(8)]
    y = {"d0": d0, "d1": d1, "d2": d2,
         "tr": [0.5 * a + 0.5 * b + 2.0 * (t >= 5)
                for t, (a, b) in enumerate(zip(d0, d1))]}
    panel = build_panel(["tr", "d0", "d1", "d2"], 8, {"tr": 5}, y)
    scm, ascm = fit_scm(panel, "tr"), fit_ascm(panel, "tr", lam=1.0)
    assert ascm.att == pytest.approx(scm.att, abs=1e-8)

    # lambda -> infinity shrinks the correction away on a noisy instance
    rng = np.random.default_rng(53)
    y2 = {k: (np.array(v) + rng.normal(0, 0.3, 8)).tolist()
          for k, v in y.items()}
    panel2 = build_panel(["tr", "d0", "d1", "d2"], 8, {"tr": 5}, y2)
    scm2 = fit_scm(panel2, "tr")
    big = fit_ascm(panel2, "tr", lam=1e12)
    assert big.att == pytest.approx(scm2.att, abs=1e-6)
    _ok(f"ASCM: degenerate att {ascm.att:.6f} == SCM within 1e-8; "
        f"lam=1e12 att within {abs(big.att - scm2.att):.1e} <= 1e-6 of SCM")


def test_placebo_p_value_floor():
    rng = np.random.default_rng(112)
    T, g = 12, 6
    tgrid = np.arange(T)
    factors = np.vstack([1.0 + 0.3 * tgrid, np.sin(tgrid / 2.0),
                         rng.normal(0, 1.0, T)])
    load = rng.dirichlet(4.0 * np.ones(3), size=6)
    donors = {f"d{j}": load[j] @ factors + rng.normal(0, 0.1, T)
              for j in range(6)}
    tr = (0.4 * donors["d0"] + 0.3 * donors["d1"] + 0.3 * donors["d2"]
          + 8.0 * (tgrid >= g) + rng.normal(0, 0.15, T))
    y = {k: v.tolist() for k, v in donors.items()}
    y["tr"] = tr.tolist()
    panel = build_panel(["tr"] + sorted(donors), T, {"tr": g}, y)
    res = placebo_inference(panel, "tr")
    assert res.excluded == ()
    assert len(res.placebo_ratios) == 6
    assert res.treated_rank == 1
    assert abs(res.p_value - 1.0 / 7.0) < 1e-12
    _ok(f"placebo inference: 6 retained placebos, treated rank 1, "
        f"p = {res.p_value:.12f} = 1/7 within 1e-12")


def test_debiased_ar_one_shot_anchor():
    # adoption at the final period: no treated lag exists, so the debiasing
    # loop must collapse to a single plain AR pass
    rng = np.random.default_rng(54)
    units = [f"u{i}" for i in range(5)]
    T = 10
    adopt = {"u0": T - 1, "u1": T - 1}
    y = linear_paths(units, T, adopt, rng, effect=lambda g, t: 1.3,
                     noise_sd=0.2)
    panel = build_panel(units, T, adopt, y)

    est = fit_debiased_ar(panel)
    assert est.iterations == 1 and est.converged

    rows = _used_rows(panel, 1)
    fit, _ = _ols_pass(panel, *rows, 0.0, ())
    plain = _coef(fit, "policy")
    assert est.gamma == plain  # bit-for-bit: same code path both ways
    _ok(f"debiased AR anchor: one iteration, gamma {est.gamma:.10f} exactly "
        f"equals the plain AR OLS coefficient")


def test_staggered_bias_direction_monte_carlo():
    t0 = time.perf_counter()
    reps = 500
    stag = DgpConfig(n_units=24, n_periods=12, cohorts={3: 8, 8: 8},
                     effect={"kind": "dynamic", "base": 0.5, "slope": 0.5},
                     intercept_sd=1.0, trend=0.1, noise_sd=0.5, seed=2024,
                     name="stag")
    out = evaluate([stag], ["GROUP_TIME_DID", "DID_TWFE"], reps=reps,
                   force=True)
    bias = {r.method: r.bias for r in out.rows}
    assert abs(bias["GROUP_TIME_DID"]) < abs(bias["DID_TWFE"])

    simu = DgpConfig(n_units=20, n_periods=10, cohorts={4: 10},
                     effect={"kind": "constant", "delta": 2.0},
                     intercept_sd=1.0, trend=0.1, noise_sd=1.0, seed=7,
                     name="simu")
    out2 = evaluate([simu], ["GROUP_TIME_DID", "DID_TWFE"], reps=reps,
                    force=True)
    for r in out2.rows:
        mc_limit = 3.0 * r.sd / np.sqrt(r.reps)
        assert abs(r.bias) <= mc_limit, (r.method, r.bias, mc_limit)

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _ok(f"bias direction ({reps} reps): staggered+dynamic |bias| GT "
        f"{abs(bias['GROUP_TIME_DID']):.3f} < TWFE "
        f"{abs(bias['DID_TWFE']):.3f}; both unbiased when simultaneous+"
        f"homogeneous ({elapsed:.1f}s < 300s)")


def test_type_one_error_null_coverage():
    t0 = time.perf_counter()
    null = DgpConfig(n_units=40, n_periods=10, cohorts={4: 20},
                     effect={"kind": "constant", "delta": 0.0},
                     intercept_sd=1.0, trend=0.1, noise_sd=1.0, seed=2026,
                     name="null")
    out = evaluate([null], ["DID_TWFE"], reps=1000)
    row = out.rows[0]
    assert row.failures == 0
    assert 0.92 <= row.coverage <= 0.97
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _ok(f"null DGP, 1000 reps: DID_TWFE coverage {row.coverage:.3f} in "
        f"[0.92, 0.97] ({elapsed:.1f}s < 300s)")


def test_fit_and_simulate_rerun_determinism(case_csv_path, tmp_path):
    fit_out = tmp_path / "fit.json"
    fit_argv = ["fit", "--data", case_csv_path, "--unit-col", "state",
                "--time-col", "year", "--outcome-col", "rate",
                "--policy-col", "adopted", "--method", "GROUP_TIME_DID",
                "--seed", "5", "--out", str(fit_out)]
    assert cli_main(fit_argv) == 0
    first = fit_out.read_bytes()
    assert cli_main(fit_argv) == 0
    assert fit_out.read_bytes() == first

    cfg = tmp_path / "dgp.json"
    cfg.write_text(json.dumps({"name": "det", "n_units": 10, "n_periods": 8,
                               "cohorts": {"4": 4},
                               "effect": {"kind": "constant", "delta": 1.0},
                               "noise_sd": 0.5, "seed": 9}))
    prefix = str(tmp_path / "sim")
    sim_argv = ["simulate", "--data", str(cfg), "--method", "DID_TWFE",
                "--reps", "3", "--out", prefix]
    assert cli_main(sim_argv) == 0
    snap = {s: Path(f"{prefix}_{s}").read_bytes()
            for s in ("run.json", "metrics.csv", "reps.csv")}
    assert cli_main(sim_argv) == 0
    assert Path(f"{prefix}_run.json").read_bytes() == snap["run.json"]
    for s in ("metrics.csv", "reps.csv"):
        now = strip_runtime_columns(Path(f"{prefix}_{s}").read_bytes())
        assert now == strip_runtime_columns(snap[s]), s
    _ok("determinism: fit rerun byte-identical; simulate rerun "
        "byte-identical once wall-clock runtime columns are dropped")
