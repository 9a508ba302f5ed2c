"""Every method is declared once, in advisor.METHODS; its readers agree."""

import argparse
import json
import warnings

import numpy as np
import pytest

import panelcause as pc
from panelcause import advisor as adv
from panelcause.cli import build_parser, main
from panelcause.simharness import DgpConfig, evaluate, simulate_panel

DYNAMIC = {"kind": "dynamic", "base": 1.0, "slope": 0.3}

# (config, the methods the advisor rates viable on its panels)
DESIGNS = {
    "single": (DgpConfig(n_units=9, n_periods=10, cohorts={6: 1},
                         effect=DYNAMIC, noise_sd=0.5, seed=5),
               (adv.SCM, adv.ASCM, adv.DID_TWFE, adv.EVENT_STUDY, adv.CITS)),
    "staggered": (DgpConfig(n_units=16, n_periods=10, cohorts={3: 4, 6: 4},
                            effect=DYNAMIC, ar_coef=0.3, seed=6),
                  (adv.GROUP_TIME_DID, adv.IMPUTATION_DID, adv.DEBIASED_AR,
                   adv.STAGGERED_ASCM)),
    "no_control": (DgpConfig(n_units=5, n_periods=10, cohorts={5: 5},
                             effect=DYNAMIC, seed=7),
                   (adv.ITS,)),
    "staggered_no_control": (DgpConfig(n_units=8, n_periods=10,
                                       cohorts={3: 4, 6: 4}, effect=DYNAMIC,
                                       seed=8),
                             (adv.ITS_MULTI_BASELINE,)),
}


def test_methods_table_is_the_only_method_list(tmp_path):
    assert tuple(adv.METHODS) == adv.ALL_METHODS

    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    method_flag = next(a for a in commands["fit"]._actions
                       if a.dest == "method")
    assert tuple(method_flag.choices) == tuple(adv.METHODS)

    config = tmp_path / "dgp.json"
    config.write_text(DESIGNS["single"][0].to_json())
    prefix = str(tmp_path / "sim")
    assert main(["simulate", "--data", str(config), "--reps", "1",
                 "--out", prefix]) == 0
    with open(f"{prefix}_run.json") as fh:
        assert json.load(fh)["config"]["methods"] == list(adv.METHODS)

    for name in pc.__all__:
        assert hasattr(pc, name), name


@pytest.mark.parametrize("design", list(DESIGNS))
def test_evaluate_scores_what_fit_reports(design, tmp_path):
    config, expected = DESIGNS[design]
    panel, _ = simulate_panel(config, 0)
    viable = adv.recommend_for_panel(panel).viable
    assert viable == expected

    data = str(tmp_path / "panel.csv")
    panel.write_csv(data)
    reps = {r.method: r for r in evaluate([config], viable, reps=1).per_rep}
    for m in viable:
        out = str(tmp_path / f"{m}.json")
        assert main(["fit", "--data", data, "--method", m, "--out", out]) == 0
        with open(out) as fh:
            point = json.load(fh)["point"]
        rep = reps[m]
        assert rep.error == ""
        assert rep.estimate == point["estimate"], m
        if point["se"] is None:
            assert np.isnan(rep.se), m
        else:
            assert rep.se == point["se"], m
        # the interval too: fit writes none where the SE is not finite
        if "ci" in point:
            assert [rep.ci_lo, rep.ci_hi] == point["ci"], m
        else:
            assert point["se"] is None, m
            assert np.isnan(rep.ci_lo) and np.isnan(rep.ci_hi), m


def _fuzz_panel(seed):
    """A small panel drawn from seed, and the generator that drew it: 1-9
    units, 2-9 periods, 0-3 adoption periods, and in about two thirds of
    panels rows dropped or outcome and x cells blanked."""
    rng = np.random.default_rng(seed)
    n, T = int(rng.integers(1, 10)), int(rng.integers(2, 10))
    starts = rng.choice(T, size=min(int(rng.integers(0, 4)), T), replace=False)
    adopt = rng.choice(np.append(starts, T), size=n)      # T: never treated
    ui, ti = np.divmod(np.arange(n * T), T)
    pol = ti >= adopt[ui]
    y = rng.normal(size=n)[ui] + 0.3 * ti + pol + rng.normal(size=n * T)
    x = rng.normal(size=n * T)
    damage = rng.integers(3)
    if damage == 1:
        keep = rng.random(n * T) >= 0.25
        ui, ti, pol, y, x = ui[keep], ti[keep], pol[keep], y[keep], x[keep]
    elif damage == 2:
        y[rng.random(n * T) < 0.2] = np.nan
        x[rng.random(n * T) < 0.1] = np.nan
    units = [f"u{i}" for i in range(n)]
    return pc.PanelDataset(units, range(T), ui, ti, y, pol, {"x": x}), rng


def test_every_fit_ends_in_an_estimate_or_a_coded_error():
    # each method, viable or not, on 1000 drawn panels, half of its fits
    # with the covariate: a bare exception is a failure
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(1000):
            panel, rng = _fuzz_panel(seed)
            for m, spec in adv.METHODS.items():
                cov = ("x",) if rng.random() < 0.5 else ()
                try:
                    spec.point(spec.fit(panel, cov, 0.95, 0), 0.95)
                except pc.PanelCauseError:
                    pass
