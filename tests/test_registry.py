"""Every method is declared once, in advisor.METHODS; its readers agree."""

import argparse
import json

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
