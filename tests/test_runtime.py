"""The package and its CLI end to end, importing no test dependency but
pytest: the numpy-only CI job runs this module to show that scipy is not a
runtime dependency. Commands run in-process through ``cli.main``, except
where a check is about the process boundary (the exit code, the stderr
lines): those run ``python -m panelcause.cli`` on this checkout's src."""

import csv
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import panelcause
from panelcause import PanelDataset, fit_debiased_ar, load_panel, placebo_inference
from panelcause.cli import _jsonable, main
from panelcause.simharness import DgpConfig, simulate_panel
from helpers import one_x_panel

STAGGERED = DgpConfig(n_units=24, n_periods=10, cohorts={4: 6, 7: 6}, ar_coef=0.5, seed=0)
SIMULATED = {
    "staggered": STAGGERED,
    "single": DgpConfig(n_units=16, n_periods=10, cohorts={5: 4}, seed=1),
    "one": DgpConfig(n_units=12, n_periods=10, cohorts={5: 1}, seed=2),
    # every unit adopts at t=5: policy lies in the period span
    "common": DgpConfig(n_units=10, n_periods=10, cohorts={5: 10}, ar_coef=0.5,
                        effect={"kind": "constant", "delta": 1.0}, seed=1),
    # three units, five periods: the debiased AR iteration cycles
    "cycling": DgpConfig(n_units=3, n_periods=5, cohorts={1: 1, 2: 1}, ar_coef=0.9,
                         intercept_sd=3.0, seed=22,
                         effect={"kind": "dynamic", "base": 1.0, "slope": 0.5}),
}
HEADER = "unit,time,outcome,policy"
HANDMADE = {
    # a leading blank line, blank records, quoted ids with commas, padded
    # fields (spaces before an opening quote too) and a non-numeric extra
    # column that is not a covariate
    "handmade.csv": ["", "unit, time ,outcome,policy,region",
                     '"Smith, TX", 2000 , 1.5 ,0, south', '"Smith, TX",2001,2.5,1,south',
                     "", "  ,  ,  ,  ,  ", '" Jones, OK ",2000,1.0,0,west',
                     '"Jones, OK",2001 , 1.25 , 0 ,west', '  "Jones, OK",2002,1.5,0,west'],
    "bad.csv": [HEADER, "a,1,1.0,0", "", "", "a,2,oops,0"],
    # a UTF-8 byte-order mark (Excel's "CSV UTF-8") before the header, and a
    # whitespace-only outcome field, which is a missing cell
    "bom.csv": ["\ufeff" + HEADER, "a,1,1.0,0", "a,2, \t ,0", "b,1,2.0,0", "b,2,2.5,1"],
    "blank_unit.csv": [HEADER, "a,1,1.0,0", "", " ,2,1.5,0"],
    "big_cell.csv": [HEADER, "a,1," + "9" * 200000 + ",0"],
    # one unit adopting at 2, its outcome blank at 3 and 4: the advisor lists
    # only ITS; with a never-treated unit added, CITS among others
    "its.csv": [HEADER, "a,0,1.0,0", "a,1,1.5,0", "a,2,3.0,1", "a,3,,1", "a,4,,1"],
    "dgp_float.json": ['{"n_units": 10.5, "n_periods": 8}'],
}
HANDMADE["cits.csv"] = HANDMADE["its.csv"] + ["b,0,0.5,0", "b,1,0.7,0", "b,2,1.1,0",
                                              "b,3,1.2,0", "b,4,1.6,0"]


@pytest.fixture(scope="session")
def panels(tmp_path_factory):
    """The directory of every panel and DGP config the checks read."""
    d = tmp_path_factory.mktemp("runtime")
    for name, config in SIMULATED.items():
        simulate_panel(config, 0)[0].write_csv(str(d / f"{name}.csv"))
    for name, lines in HANDMADE.items():
        (d / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    (d / "dgp.json").write_text(STAGGERED.to_json())
    # adoption follows the unit intercepts, so every rep has its own design
    (d / "dgp_intercept.json").write_text(DgpConfig(
        n_units=24, n_periods=10, cohorts={4: 6, 7: 6}, ar_coef=0.5,
        confounding="intercept", seed=3).to_json())
    # every unit but u012 (never treated) enters one or two periods late, so
    # u012 alone is untreated in every period and imputation refits its
    # jackknife fold; the other folds come from the sums
    p = simulate_panel(STAGGERED, 1)[0]
    keep = p.time_idx >= np.where(p.unit_idx == 12, 0, 1 + p.unit_idx % 2)
    rng = np.random.default_rng(0)
    x = rng.normal(size=p.n_rows) + 0.2 * p.time_idx
    PanelDataset(p.units, p.time_labels, p.unit_idx[keep], p.time_idx[keep],
                 p.outcome[keep], p.policy[keep], {"x": x[keep]}
                 ).write_csv(str(d / "thinned.csv"))
    # one treated unit midway between two donors at ±3000: the simplex
    # solver's gradient rounds at about 1e-8 here, far above 1e-10
    T, g = 14, 12
    paths = {"d1": 3000.0 + rng.normal(size=T), "d2": -3000.0 + rng.normal(size=T)}
    paths["t"] = ((paths["d1"] + paths["d2"]) / 2 + rng.normal(0.0, 0.1, T)
                  + (np.arange(T) >= g))
    PanelDataset(["d1", "d2", "t"], range(T), np.repeat(np.arange(3), T),
                 np.tile(np.arange(T), 3), np.concatenate(list(paths.values())),
                 np.concatenate([np.zeros(2 * T), np.arange(T) >= g])
                 ).write_csv(str(d / "far_apart.csv"))
    one_x_panel().write_csv(str(d / "one_x.csv"))
    return d


def run(*argv):
    assert main([str(a) for a in argv]) == 0


def written(out, *argv):
    """The document a command writes to out, as bytes."""
    run(*argv, "--out", out)
    return out.read_bytes()


def simulate(prefix, *argv):
    run("simulate", *argv, "--out", prefix)
    return {s: prefix.with_name(f"{prefix.name}_{s}").read_bytes()
            for s in ("run.json", "metrics.csv")}


def cut9(blob):
    """cut -d, -f1-9: the metrics without their wall-clock mean_runtime_s."""
    return [b",".join(line.split(b",")[:9]) for line in blob.split(b"\n")]


def cli(cwd, *argv):
    """(exit status, stderr) of ``python -m panelcause.cli`` run in cwd."""
    path = [os.path.dirname(os.path.dirname(panelcause.__file__)),
            os.environ.get("PYTHONPATH")]
    proc = subprocess.run([sys.executable, "-m", "panelcause.cli", *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("command,data", [
    ("describe", "handmade"), ("recommend", "staggered"), ("recommend", "single")])
def test_command_runs(panels, command, data):
    run(command, "--data", panels / f"{data}.csv")


def test_bom_and_blank_outcome(panels, tmp_path):
    assert b'"missing_cells": 1,' in written(tmp_path / "bom.json", "describe", "--data",
                                             panels / "bom.csv", "--format", "json")


# (argv run in the panel directory, a regex one stderr line matches, whether
# it is the only line): each exits 1
ERRORS = {
    # a bad outcome cell after two blank records is named by its record
    "bad_cell": ("describe --data bad.csv", re.escape(
        "error UNPARSEABLE_CELL: bad.csv: cannot parse 'oops' as a number at row 5, "
        "column 'outcome'"), False),
    # a blank unit among filled fields is a bad cell, not a blank record
    "blank_unit": ("describe --data blank_unit.csv", re.escape(
        "error UNPARSEABLE_CELL: blank_unit.csv: empty unit field at row 4"), False),
    # past the csv module's field limit: a coded line, not a traceback
    "big_cell": ("describe --data big_cell.csv", re.escape(
        "error UNPARSEABLE_CELL: big_cell.csv: field larger than field limit (131072) "
        "at row 2"), True),
    "no_fixed_point": ("fit --data cycling.csv --method DEBIASED_AR --force --out "
                       "cycling.json", "error NO_FIXED_POINT: .*", True),
    "no_reps": ("simulate --data dgp.json --reps 0 --out sim_bad",
                "error CONFIG_ERROR: .*", True),
    "float_field": ("simulate --data dgp_float.json --reps 2 --out sim_bad",
                    "error CONFIG_ERROR: .*", True),
    "its_blank_post": ("fit --data its.csv --method ITS",
                    "error TOO_FEW_PERIODS: .*", True),
    "cits_blank_post": ("fit --data cits.csv --method CITS",
                    "error TOO_FEW_PERIODS: .*", True),
}


@pytest.mark.parametrize("case", list(ERRORS))
def test_error_is_a_coded_line(panels, case):
    argv, line, only = ERRORS[case]
    status, err = cli(panels, *argv.split())
    assert status == 1
    assert any(re.fullmatch(line, got) for got in err.split("\n")), err
    if only:
        assert err.count("\n") == 1, err


def test_warning_names_no_source_file(panels):
    # a warning is one "warning CODE: message" line naming no source file
    status, err = cli(panels, "fit", "--data", "one.csv", "--method", "GROUP_TIME_DID",
                      "--force", "--out", "GROUP_TIME_DID_one.json")
    assert status == 0
    assert any(re.match("warning [A-Z_]+: ", line) for line in err.split("\n")), err
    assert ".py:" not in err


def test_one_panel_spelt_three_ways(panels, tmp_path):
    # the file as written (CRLF) and with LF line ends are split at their
    # commas; with quoted unit ids it is read by the csv module: each gives
    # the same describe and fit documents
    crlf = (panels / "staggered.csv").read_bytes()
    head, *rows = crlf.split(b"\n")
    quoted = b"\n".join([head] + [re.sub(rb"^([^,]*),", rb'"\1",', r) for r in rows])
    assert re.search(rb'(?m)^"u000",', quoted)
    data, docs = tmp_path / "panel.csv", []
    for text in (crlf, crlf.replace(b"\r", b""), quoted):
        data.write_bytes(text)
        docs.append((written(tmp_path / "describe.json", "describe", "--data", data,
                             "--format", "json"),
                     written(tmp_path / "fit.json", "fit", "--data", data,
                             "--method", "IMPUTATION_DID")))
    assert docs[1] == docs[0] and docs[2] == docs[0]


@pytest.mark.parametrize("data,covariates,lag_order", [
    ("common", (), 1), ("thinned", ("x",), 1), ("staggered", (), 2)],
    ids=["common", "thinned-x", "staggered-lag2"])
def test_debiased_ar_jackknife_reruns(panels, data, covariates, lag_order):
    # no CLI command reaches the jackknife: a refit repeats γ and its
    # jackknife SE bit for bit, on the dense path (common adoption), on the
    # absorbed one with a covariate, and with two lags
    first, again = (fit_debiased_ar(load_panel(str(panels / f"{data}.csv")), covariates,
                                    lag_order, jackknife=True) for _ in range(2))
    assert first.gamma == again.gamma
    assert first.gamma_se_jackknife == again.gamma_se_jackknife


X = ("--covariates", "x")
# (panel, method, flags, runs): each fit succeeds, and a refit repeats its
# document byte for byte, the jackknife, bootstrap, nu scan, placebo and
# ridge-CV refits included. Under common adoption the debiased AR is fit with
# period dummies throughout, and policy is kept (t_9 is dropped). ITS is not
# viable with controls; --force fits it on every unit.
FITS = [
    ("staggered", "IMPUTATION_DID", (), 1), ("staggered", "DEBIASED_AR", (), 2),
    ("staggered", "GROUP_TIME_DID", (), 2), ("staggered", "STAGGERED_ASCM", (), 2),
    ("staggered", "ITS_MULTI_BASELINE", ("--force",), 1),
    ("one", "SCM", (), 2), ("one", "ASCM", (), 2), ("far_apart", "SCM", (), 1),
    ("one_x", "SCM", X, 2), ("one_x", "ASCM", X, 2),
    ("single", "DID_TWFE", (), 1), ("single", "EVENT_STUDY", (), 1),
    ("single", "CITS", (), 1), ("single", "ITS", ("--force",), 1),
    ("thinned", "IMPUTATION_DID", X, 2), ("thinned", "DEBIASED_AR", (), 1),
    ("thinned", "DEBIASED_AR", X, 2), ("common", "DEBIASED_AR", ("--force",), 2),
]


@pytest.mark.parametrize("data,method,flags,runs", FITS,
                         ids=["-".join([d, m, *f]) for d, m, f, _ in FITS])
def test_fit(panels, tmp_path, data, method, flags, runs):
    docs = {written(tmp_path / "fit.json", "fit", "--data", panels / f"{data}.csv",
                    "--method", method, *flags) for _ in range(runs)}
    assert len(docs) == 1
    if data == "common":
        assert re.search(rb'(?m)^ +"policy": -?[0-9]', docs.pop())


@pytest.mark.parametrize("method", ["SCM", "ASCM"])
@pytest.mark.parametrize("data,covariates", [("one", ()), ("one_x", ("x",))],
                         ids=["one", "one_x-x"])
def test_fit_placebo_is_a_direct_one(panels, tmp_path, method, data, covariates):
    # each synthetic-control fit hands its classic weights to its placebo:
    # the document's placebo equals one run on its own, on the same match
    doc = json.loads(written(tmp_path / "fit.json", "fit", "--data", panels / f"{data}.csv",
                             "--method", method, *(X if covariates else ())))["estimate"]
    want = placebo_inference(load_panel(str(panels / f"{data}.csv")), doc["treated"],
                             covariates=covariates)
    assert doc["placebo"] == _jsonable(want)


@pytest.mark.parametrize("config,methods", [
    ("dgp.json", "DID_TWFE,IMPUTATION_DID,EVENT_STUDY,DEBIASED_AR,GROUP_TIME_DID"),
    ("dgp_intercept.json", "DID_TWFE,EVENT_STUDY,GROUP_TIME_DID,DEBIASED_AR")])
def test_simulate_rerun(panels, tmp_path, config, methods):
    # a rerun repeats the run document byte for byte, and the metrics apart
    # from their last column, the wall-clock mean_runtime_s; for a design
    # that changes with every rep too
    first, again = (simulate(tmp_path / "sim", "--data", panels / config, "--reps", 5,
                             "--force", "--method", methods) for _ in range(2))
    assert first["run.json"] == again["run.json"]
    header = first["metrics.csv"].split(b"\n")[0].replace(b"\r", b"")
    assert b",".join(header.split(b",")[9:]) == b"mean_runtime_s"
    assert cut9(first["metrics.csv"]) == cut9(again["metrics.csv"])


def test_configs_of_one_shape_share_a_run(tmp_path):
    # two configs of one shape, cohorts and effect share a DGP skeleton in
    # one run: each one's metrics equal those of a run of it alone
    shape = '"n_units": 24, "n_periods": 10, "cohorts": {"4": 6, "7": 6}, "ar_coef": 0.5'
    configs = {"a": f'{{{shape}, "seed": 4, "name": "a"}}',
               "b": f'{{{shape}, "seed": 9, "noise_sd": 0.5, "name": "b"}}'}
    configs["pair"] = f"[{configs['a']}, {configs['b']}]"
    for name, text in configs.items():
        (tmp_path / f"dgp_{name}.json").write_text(text + "\n")
    flags = ("--reps", 5, "--force", "--method",
             "DID_TWFE,IMPUTATION_DID,EVENT_STUDY,DEBIASED_AR,GROUP_TIME_DID")
    pair = simulate(tmp_path / "sim_pair", "--data", tmp_path / "dgp_pair.json",
                    *flags)["metrics.csv"].split(b"\n")
    for c in ("a", "b"):
        alone = simulate(tmp_path / f"sim_{c}", "--data", tmp_path / f"dgp_{c}.json",
                         *flags)["metrics.csv"]
        assert sum(line.startswith(f"{c},".encode()) for line in pair) == 5
        grepped = b"".join(line + b"\n" for line in pair
                           if re.match(f"(config|{c}),".encode(), line))
        assert cut9(alone) == cut9(grepped)


def test_reps_served_by_kept_plans_match_fit(panels, tmp_path):
    # with fixed adoption, reps 1 and 2 of a simulate run read the event-study,
    # group-time and debiased AR plans and the TWFE absorbed design that rep 0
    # built: each must report, as text, the estimate, SE and interval that fit
    # reports for that rep's panel (no interval: blank bounds)
    methods = ["DID_TWFE", "EVENT_STUDY", "GROUP_TIME_DID", "DEBIASED_AR"]
    prefix = tmp_path / "sim_plans"
    run("simulate", "--data", panels / "dgp.json", "--reps", 3, "--force",
        "--method", ",".join(methods), "--out", prefix)
    with open(f"{prefix}_reps.csv", newline="") as fh:
        reps = {(row["method"], row["rep"]): row for row in csv.DictReader(fh)}
    config = DgpConfig.from_json((panels / "dgp.json").read_text())
    for r in (1, 2):
        data = tmp_path / f"rep{r}.csv"
        simulate_panel(config, r)[0].write_csv(str(data))
        for m in methods:
            point = json.loads(written(tmp_path / "fit.json", "fit", "--data", data,
                                       "--method", m, "--force", "--format", "json"),
                               parse_float=str)["point"]
            row = reps[m, str(r)]
            got = (point["estimate"], point["se"], *point.get("ci", ("", "")))
            assert got == (row["estimate"], row["se"], row["ci_lo"], row["ci_hi"]), (m, r)
