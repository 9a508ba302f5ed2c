import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import panelcause
from panelcause import cli
from panelcause.advisor import ALL_METHODS
from panelcause.cli import main
from panelcause.panel import load_panel
from panelcause.scm import fit_scm, placebo_inference
from panelcause.simharness import DgpConfig, simulate_panel
from helpers import build_panel, strip_runtime_columns


@pytest.fixture(scope="module")
def flat_2x1_csv(tmp_path_factory):
    # one treated, one control, effect exactly 2.0, zero noise
    y = {"ctl": [1.0 + 0.5 * t for t in range(6)],
         "trt": [2.0 + 0.5 * t + 2.0 * (t >= 3) for t in range(6)]}
    p = build_panel(["ctl", "trt"], 6, {"trt": 3}, y)
    dest = tmp_path_factory.mktemp("cli") / "flat.csv"
    p.write_csv(str(dest))
    return str(dest)


@pytest.fixture(scope="module")
def donor_csv(tmp_path_factory):
    d0 = [1.0 + 0.3 * t for t in range(8)]
    d1 = [4.0 - 0.1 * t for t in range(8)]
    d2 = [2.0 + 0.05 * t * t for t in range(8)]
    y = {"d0": d0, "d1": d1, "d2": d2,
         "tr": [0.5 * a + 0.5 * b + 2.0 * (t >= 5)
                for t, (a, b) in enumerate(zip(d0, d1))]}
    p = build_panel(["tr", "d0", "d1", "d2"], 8, {"tr": 5}, y)
    dest = tmp_path_factory.mktemp("cli") / "donors.csv"
    p.write_csv(str(dest))
    return str(dest)


@pytest.fixture(scope="module")
def noisy_donor_csv(tmp_path_factory):
    # mutually matchable donors (shared factors) so placebo fits survive
    rng = np.random.default_rng(77)
    T, g = 10, 6
    t = np.arange(T)
    factors = np.vstack([1.0 + 0.3 * t, np.sin(t / 2.0), rng.normal(0, 1, T)])
    load = rng.dirichlet(4.0 * np.ones(3), size=6)
    donors = {f"d{j}": load[j] @ factors + rng.normal(0, 0.1, T)
              for j in range(6)}
    tr = (0.5 * donors["d0"] + 0.5 * donors["d1"] + 2.0 * (t >= g)
          + rng.normal(0, 0.1, T))
    y = {k: list(v) for k, v in donors.items()}
    y["tr"] = list(tr)
    p = build_panel(["tr"] + sorted(donors), T, {"tr": g}, y)
    dest = tmp_path_factory.mktemp("cli") / "noisy_donors.csv"
    p.write_csv(str(dest))
    return str(dest)


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err




class TestDescribe:
    def test_text(self, capsys, case_csv_path):
        rc, out, err = run(capsys, "describe", "--data", case_csv_path,
                           "--unit-col", "state", "--time-col", "year",
                           "--outcome-col", "rate", "--policy-col", "adopted")
        assert rc == 0 and err == ""
        assert "units: 50" in out
        assert "timing: STAGGERED" in out
        assert "never treated: 6 unit(s)" in out
        assert "2017:44" in out

    def test_json(self, capsys, case_csv_path):
        rc, out, _ = run(capsys, "describe", "--data", case_csv_path,
                         "--unit-col", "state", "--time-col", "year",
                         "--outcome-col", "rate", "--policy-col", "adopted",
                         "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["tool"] == "panelcause" and doc["version"]
        assert doc["schedule"]["timing_class"] == "STAGGERED"
        assert doc["schedule"]["cohort_sizes"]["2014"] == 8
        assert doc["schedule"]["cumulative_with_policy"]["2017"] == 44
        assert doc["balance"]["is_balanced"] is True
        assert doc["features"]["n_control"] == 6

    def test_out_file(self, capsys, case_csv_path, tmp_path):
        dest = tmp_path / "desc.json"
        rc, out, _ = run(capsys, "describe", "--data", case_csv_path,
                         "--unit-col", "state", "--time-col", "year",
                         "--outcome-col", "rate", "--policy-col", "adopted",
                         "--format", "json", "--out", str(dest))
        assert rc == 0 and f"wrote {dest}" in out
        assert json.loads(dest.read_text())["command"] == "describe"


class TestRecommend:
    def test_text(self, capsys, case_csv_path):
        rc, out, _ = run(capsys, "recommend", "--data", case_csv_path,
                         "--unit-col", "state", "--time-col", "year",
                         "--outcome-col", "rate", "--policy-col", "adopted")
        assert rc == 0
        assert "[x] GROUP_TIME_DID" in out
        assert "[ ] DID_TWFE  (STAGGERED_INPUT" in out
        assert "caution SINGLETON_COHORT" in out

    def test_json(self, capsys, case_csv_path):
        rc, out, _ = run(capsys, "recommend", "--data", case_csv_path,
                         "--unit-col", "state", "--time-col", "year",
                         "--outcome-col", "rate", "--policy-col", "adopted",
                         "--format", "json")
        doc = json.loads(out)
        assert doc["viable"] == ["GROUP_TIME_DID", "IMPUTATION_DID",
                                 "DEBIASED_AR", "STAGGERED_ASCM"]
        assert len(doc["methods"]) == 11
        assert doc["methods"]["SCM"]["reasons"][0]["code"] == "TOO_MANY_TREATED"
        assert doc["methods"]["GROUP_TIME_DID"]["assumptions"]


class TestFit:
    def test_did_json_exact(self, capsys, flat_2x1_csv):
        rc, out, err = run(capsys, "fit", "--data", flat_2x1_csv,
                           "--method", "DID_TWFE")
        assert rc == 0 and err == ""
        doc = json.loads(out)
        assert doc["method"] == "DID_TWFE" and doc["forced"] is False
        assert doc["point"]["estimate"] == pytest.approx(2.0, abs=1e-10)
        assert doc["estimate"]["att"] == pytest.approx(2.0, abs=1e-10)
        assert doc["config"]["ci_level"] == 0.95
        assert doc["assumptions"] and doc["cautions"]  # single treated cluster

    def test_csv_format_flattens(self, capsys, flat_2x1_csv):
        rc, out, _ = run(capsys, "fit", "--data", flat_2x1_csv,
                         "--method", "DID_TWFE", "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "field,value"
        rows = dict(l.split(",", 1) for l in lines[1:])
        assert float(rows["point.estimate"]) == pytest.approx(2.0, abs=1e-10)
        assert rows["config.method"] == "DID_TWFE"

    def test_advisor_gate_blocks_staggered_twfe(self, capsys, case_csv_path):
        rc, out, err = run(capsys, "fit", "--data", case_csv_path,
                           "--unit-col", "state", "--time-col", "year",
                           "--outcome-col", "rate", "--policy-col", "adopted",
                           "--method", "DID_TWFE")
        assert rc == 1 and out == ""
        assert err.startswith("error STAGGERED_INPUT:")
        assert "--force overrides" in err

    def test_force_runs_with_watermark(self, capsys, case_csv_path):
        rc, out, _ = run(capsys, "fit", "--data", case_csv_path,
                         "--unit-col", "state", "--time-col", "year",
                         "--outcome-col", "rate", "--policy-col", "adopted",
                         "--method", "DID_TWFE", "--force")
        assert rc == 0
        doc = json.loads(out)
        assert doc["forced"] is True
        assert doc["point"]["estimate"] is not None

    def test_scm_fit_exact_att_placebo_collapses(self, capsys, donor_csv):
        # perfectly representable treated unit: exact att, but the pre-fit
        # exclusion rule throws out every placebo
        rc, out, _ = run(capsys, "fit", "--data", donor_csv,
                         "--method", "SCM")
        assert rc == 0
        doc = json.loads(out)
        assert doc["point"]["estimate"] == pytest.approx(2.0, abs=1e-6)
        assert doc["point"]["se"] is None
        assert doc["estimate"]["placebo"] is None
        assert doc["estimate"]["info"]["placebo_error"] == "ALL_EXCLUDED"

    def test_scm_fit_with_placebo_pool(self, capsys, noisy_donor_csv):
        rc, out, _ = run(capsys, "fit", "--data", noisy_donor_csv,
                         "--method", "SCM")
        assert rc == 0
        doc = json.loads(out)
        placebo = doc["estimate"]["placebo"]
        assert placebo is not None
        assert 0.0 < placebo["p_value"] <= 1.0
        assert placebo["treated_rank"] >= 1

    @pytest.mark.parametrize("method", ["SCM", "ASCM"])
    def test_fit_placebo_is_the_direct_placebo(self, capsys, noisy_donor_csv,
                                               method):
        # each fit hands itself to the placebo as base: SCM its own weights,
        # ASCM the classic weights it augmented
        rc, out, _ = run(capsys, "fit", "--data", noisy_donor_csv,
                         "--method", method)
        assert rc == 0
        got = json.loads(out)["estimate"]["placebo"]
        want = cli._jsonable(placebo_inference(load_panel(noisy_donor_csv), "tr"))
        assert got.keys() == want.keys()
        for field in want:
            assert got[field] == want[field], field

    def test_ascm_needs_three_donors(self, capsys, tmp_path):
        # two never-treated units: too few for ASCM's ridge CV, so the
        # advisor leaves it out and a forced fit fails with the same code
        path = str(tmp_path / "two_donors.csv")
        simulate_panel(DgpConfig(3, 10, cohorts={6: 1}, seed=1), 0)[0].write_csv(path)
        rc, out, _ = run(capsys, "recommend", "--data", path)
        assert rc == 0
        assert "viable methods: SCM, DID_TWFE, EVENT_STUDY, CITS\n" in out
        for force in ((), ("--force",)):
            rc, out, err = run(capsys, "fit", "--data", path, "--method", "ASCM",
                               *force)
            assert rc == 1 and out == ""
            assert err.startswith("error TOO_FEW_DONORS:")

    def test_staggered_ascm_needs_two_donors(self, capsys, tmp_path):
        # one never-treated unit: the advisor leaves STAGGERED_ASCM out, and a
        # forced fit fails with the same code
        path = str(tmp_path / "one_donor.csv")
        config = DgpConfig(7, 10, cohorts={4: 3, 6: 3}, seed=1)
        simulate_panel(config, 0)[0].write_csv(path)
        rc, out, _ = run(capsys, "recommend", "--data", path)
        assert rc == 0
        assert "viable methods: GROUP_TIME_DID, IMPUTATION_DID, DEBIASED_AR\n" in out
        for force in ((), ("--force",)):
            rc, out, err = run(capsys, "fit", "--data", path, "--method",
                               "STAGGERED_ASCM", *force)
            assert rc == 1 and out == ""
            assert err.startswith("error TOO_FEW_DONORS:")

    def test_placebo_base_changes_nothing(self, noisy_donor_csv):
        panel = load_panel(noisy_donor_csv)
        assert placebo_inference(panel, "tr", base=fit_scm(panel, "tr")) == \
            placebo_inference(panel, "tr")

    def test_warnings_name_no_source_file(self, capsys, flat_2x1_csv):
        # a single-unit cohort: GROUP_TIME_DID warns SINGLETON_COHORT
        rc, _, err = run(capsys, "fit", "--data", flat_2x1_csv,
                         "--method", "GROUP_TIME_DID", "--force")
        assert rc == 0
        lines = err.splitlines()
        assert "warning SINGLETON_COHORT: cohort g=3 has a single unit; " \
               "its SEs are unreliable" in lines
        assert all(line.startswith("warning ") for line in lines)
        assert ".py:" not in err

    def test_group_time_seed_changes_bootstrap_only(self, capsys,
                                                    case_csv_path):
        argv = ["fit", "--data", case_csv_path, "--unit-col", "state",
                "--time-col", "year", "--outcome-col", "rate",
                "--policy-col", "adopted", "--method", "GROUP_TIME_DID"]
        _, out1, _ = run(capsys, *argv, "--seed", "1")
        _, out2, _ = run(capsys, *argv, "--seed", "2")
        d1, d2 = json.loads(out1), json.loads(out2)
        assert d1["point"]["estimate"] == d2["point"]["estimate"]
        assert d1["point"]["se"] != d2["point"]["se"]

    def test_rerun_is_byte_identical(self, capsys, case_csv_path, tmp_path):
        dest = tmp_path / "fit.json"
        argv = ["fit", "--data", case_csv_path, "--unit-col", "state",
                "--time-col", "year", "--outcome-col", "rate",
                "--policy-col", "adopted", "--method", "GROUP_TIME_DID",
                "--seed", "3", "--out", str(dest)]
        assert main(argv) == 0
        first = dest.read_bytes()
        assert main(argv) == 0
        assert dest.read_bytes() == first
        capsys.readouterr()


class TestErrors:
    def test_missing_file(self, capsys, tmp_path):
        rc, out, err = run(capsys, "fit", "--data", str(tmp_path / "no.csv"),
                           "--method", "DID_TWFE")
        assert rc == 1 and err.startswith("error CONFIG_ERROR:")
        assert "no.csv" in err

    def test_empty_file(self, capsys, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        rc, _, err = run(capsys, "describe", "--data", str(p))
        assert rc == 1 and err.startswith("error NO_ROWS:")

    def test_unknown_covariate_column(self, capsys, flat_2x1_csv):
        rc, _, err = run(capsys, "fit", "--data", flat_2x1_csv,
                         "--method", "DID_TWFE", "--covariates", "ghost")
        assert rc == 1 and err.startswith("error CONFIG_ERROR:")
        assert "ghost" in err

    def test_unknown_method_rejected_by_parser(self, capsys, flat_2x1_csv):
        with pytest.raises(SystemExit) as ei:
            main(["fit", "--data", flat_2x1_csv, "--method", "KRIGING"])
        assert ei.value.code == 2
        capsys.readouterr()

    def test_not_utf8_is_one_error_line(self, capsys, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes("unit,time,outcome,policy\nM\xfcnchen,1,1.0,0\n".encode("latin-1"))
        for argv in (["describe"], ["fit", "--method", "DID_TWFE"]):
            rc, out, err = run(capsys, *argv, "--data", str(p))
            assert rc == 1 and out == ""
            assert err == (f"error CONFIG_ERROR: {p}: file is not UTF-8 text: "
                           "byte 0xfc at byte offset 26 cannot be decoded\n")

    def test_utf8_bom_accepted(self, capsys, flat_2x1_csv, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + Path(flat_2x1_csv).read_bytes())
        outs = [run(capsys, "describe", "--data", d, "--format", "json")
                for d in (flat_2x1_csv, str(p))]
        assert outs[0][0] == outs[1][0] == 0
        assert outs[1][1] == outs[0][1].replace(flat_2x1_csv, str(p))

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["--version"])
        assert ei.value.code == 0
        assert capsys.readouterr().out.startswith("panelcause ")


class TestSharedParser:
    def test_keeps_no_state_between_calls(self, capsys, flat_2x1_csv,
                                          case_csv_path):
        """One parser serves every main() call in a process: each call
        prints what it prints as the process's first call."""
        case = ["--data", case_csv_path, "--unit-col", "state", "--time-col",
                "year", "--outcome-col", "rate", "--policy-col", "adopted"]
        calls = [["fit", "--data", flat_2x1_csv, "--method", "DID_TWFE"],
                 ["fit", "--data", flat_2x1_csv, "--method", "KRIGING"],
                 ["fit", *case, "--method", "DID_TWFE", "--force", "--seed", "7"],
                 ["recommend", *case, "--format", "json"],
                 ["fit", "--data", flat_2x1_csv, "--method", "DID_TWFE"]]

        def call(argv):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = f"exit {exc.code}"
            return rc, capsys.readouterr().out.encode()

        first = []
        for argv in calls:
            cli._parser.cache_clear()
            first.append(call(argv))
        assert first[1] == ("exit 2", b"")
        cli._parser.cache_clear()
        assert [call(argv) for argv in calls] == first
        assert cli._parser.cache_info().misses == 1


class TestSimulate:
    @pytest.fixture()
    def config_path(self, tmp_path):
        cfg = {"name": "one", "n_units": 12, "n_periods": 8,
               "cohorts": {"4": 4},
               "effect": {"kind": "constant", "delta": 3.0},
               "noise_sd": 0.5, "seed": 3}
        p = tmp_path / "dgp.json"
        p.write_text(json.dumps(cfg))
        return str(p)

    def test_outputs_and_summary(self, capsys, config_path, tmp_path):
        prefix = str(tmp_path / "sim")
        rc, out, err = run(capsys, "simulate", "--data", config_path,
                           "--method", "DID_TWFE,ITS", "--reps", "4",
                           "--out", prefix)
        assert rc == 0 and err == ""
        assert "skipped ITS on one: NOT_APPLICABLE" in out
        assert any(l.startswith("one DID_TWFE: bias=") for l in out.splitlines())
        run_doc = json.loads(Path(f"{prefix}_run.json").read_text())
        assert run_doc["skipped"] == [{"config": "one", "method": "ITS",
                                       "reason": "NOT_APPLICABLE"}]
        assert run_doc["dgp_configs"][0]["cohorts"] == {"4": 4}
        metrics = Path(f"{prefix}_metrics.csv").read_text().splitlines()
        assert metrics[0].startswith("config,method,reps,failures,bias")
        assert len(metrics) == 2 and metrics[1].startswith("one,DID_TWFE,4,0,")
        reps = Path(f"{prefix}_reps.csv").read_text().splitlines()
        assert len(reps) == 5

    def test_rerun_is_byte_identical(self, capsys, config_path, tmp_path):
        # run.json carries no wall-clock data at all; the CSVs are identical
        # once the runtime measurement columns are dropped
        prefix = str(tmp_path / "sim")
        argv = ["simulate", "--data", config_path, "--method", "DID_TWFE",
                "--reps", "3", "--out", prefix]
        assert main(argv) == 0
        first = {s: Path(f"{prefix}_{s}").read_bytes()
                 for s in ("run.json", "metrics.csv", "reps.csv")}
        assert main(argv) == 0
        capsys.readouterr()
        assert Path(f"{prefix}_run.json").read_bytes() == first["run.json"]
        for s in ("metrics.csv", "reps.csv"):
            again = Path(f"{prefix}_{s}").read_bytes()
            assert strip_runtime_columns(again) == strip_runtime_columns(first[s]), s
            assert strip_runtime_columns(again) != b""

    def test_seed_override(self, capsys, config_path, tmp_path):
        base = ["simulate", "--data", config_path, "--method", "DID_TWFE",
                "--reps", "2"]
        p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(base + ["--out", p1, "--seed", "11"]) == 0
        assert main(base + ["--out", p2, "--seed", "12"]) == 0
        capsys.readouterr()
        r1 = Path(f"{p1}_reps.csv").read_text().splitlines()[1]
        r2 = Path(f"{p2}_reps.csv").read_text().splitlines()[1]
        assert r1.split(",")[3] != r2.split(",")[3]  # estimates differ

    def test_bad_config_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        rc, _, err = run(capsys, "simulate", "--data", str(p), "--reps", "1")
        assert rc == 1 and err.startswith("error CONFIG_ERROR:")
        p2 = tmp_path / "unknown.json"
        p2.write_text(json.dumps({"n_units": 4, "n_periods": 5, "zap": 1}))
        rc, _, err = run(capsys, "simulate", "--data", str(p2), "--reps", "1")
        assert rc == 1 and "zap" in err

    @pytest.mark.parametrize("change,args,fragment", [
        ({"n_units": 10.5}, (), "n_units must be an integer"),
        ({"ar_coef": "0.5"}, (), "ar_coef must be a number"),
        ({"effect": {"kind": "constant"}}, (), "needs 'delta'"),
        ({"cohorts": {"x": 3}}, (), "cohorts key must be an integer period, got 'x'"),
        ({"seed": -1}, (), "seed must be ≥ 0"),
        ({}, ("--seed", "-1"), "seed must be ≥ 0"),
        ({"n_units": None}, (), "missing config field 'n_units'"),
        ([1, 2], (), "a DGP config must be an object, got 1"),
        ({}, ("--reps", "0"), "need reps ≥ 1, got 0"),
        ({}, ("--reps", "-3"), "need reps ≥ 1, got -3"),
    ])
    def test_malformed_config_is_one_error_line(self, capsys, tmp_path, change,
                                                args, fragment):
        cfg = {"n_units": 12, "n_periods": 8, "cohorts": {"4": 4},
               "effect": {"kind": "constant", "delta": 1.0}}
        if isinstance(change, dict):       # a None value removes the field
            cfg.update(change)
            cfg = {k: v for k, v in cfg.items() if v is not None}
        else:
            cfg = change
        p = tmp_path / "dgp.json"
        p.write_text(json.dumps(cfg))
        rc, out, err = run(capsys, "simulate", "--data", str(p), "--method",
                           "DID_TWFE", "--out", str(tmp_path / "sim"),
                           "--reps", "2", *args)
        assert rc == 1 and out == ""
        assert err.startswith("error CONFIG_ERROR: ") and err.count("\n") == 1
        assert fragment in err


# Runs in a fresh interpreter: imports the package and the CLI, runs recommend
# and, on four small designs, every method the advisor finds viable there, then
# a short simulate; prints the methods fitted and any scipy module loaded.
_RUNTIME_SCRIPT = r"""
import json, sys
import panelcause.cli as cli
from panelcause import advisor
from panelcause.simharness import DgpConfig, simulate_panel

out = sys.argv[1]
designs = {"staggered": dict(n_units=12, cohorts={3: 3, 5: 3}),
           "no_controls": dict(n_units=6, cohorts={3: 3, 5: 3}),
           "single": dict(n_units=8, cohorts={4: 1}),
           "alone": dict(n_units=1, cohorts={4: 1})}
fitted, failed = [], []
for i, (name, kw) in enumerate(designs.items()):
    config = DgpConfig(n_periods=8, seed=i, **kw)
    data = f"{out}/{name}.csv"
    simulate_panel(config, 0)[0].write_csv(data)
    rec = f"{out}/{name}_rec.json"
    assert cli.main(["recommend", "--data", data, "--format", "json",
                     "--out", rec]) == 0
    with open(rec) as fh:
        viable = json.load(fh)["viable"]
    for m in viable:
        rc = cli.main(["fit", "--data", data, "--method", m,
                       "--out", f"{out}/{name}_{m}.json"])
        (fitted if rc == 0 else failed).append(m)
with open(f"{out}/dgp.json", "w") as fh:
    fh.write(DgpConfig(n_units=10, n_periods=6, cohorts={3: 4}).to_json())
assert cli.main(["simulate", "--data", f"{out}/dgp.json", "--reps", "2",
                 "--method", ",".join(advisor.ALL_METHODS), "--force",
                 "--out", f"{out}/sim"]) == 0
print(json.dumps({"fitted": sorted(set(fitted)), "failed": failed,
                  "scipy": sorted(m for m in sys.modules
                                  if m.split(".")[0] == "scipy")}))
"""


def test_runtime_loads_no_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(panelcause.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _RUNTIME_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["failed"] == []
    assert report["fitted"] == sorted(ALL_METHODS)
    assert report["scipy"] == []


def test_jsonable_plain_types():
    from dataclasses import dataclass

    @dataclass
    class Inner:
        x: float
        arr: np.ndarray

    @dataclass
    class Outer:
        inner: Inner
        cells: dict
        pair: tuple

    doc = Outer(Inner(float("nan"), np.array([1.5, np.inf, -np.inf, np.nan])),
                {(1, "a"): np.float64(-np.inf), 2: np.int64(7)},
                (np.float32(0.5), float("inf"), True, None, "s"))
    got = cli._jsonable(doc)
    assert got == {"inner": {"x": None, "arr": [1.5, "Infinity", "-Infinity", None]},
                   "cells": {"1,a": "-Infinity", "2": 7},
                   "pair": [0.5, "Infinity", True, None, "s"]}
    assert type(got["cells"]["2"]) is int and type(got["pair"][0]) is float
    assert type(cli._jsonable(np.float64(2.5))) is float
    assert json.dumps(got, sort_keys=True) == (
        '{"cells": {"1,a": "-Infinity", "2": 7}, "inner": {"arr": [1.5, '
        '"Infinity", "-Infinity", null], "x": null}, "pair": [0.5, "Infinity", '
        'true, null, "s"]}')
