import json

import numpy as np
import pytest

from panelcause.cli import main
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

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["--version"])
        assert ei.value.code == 0
        assert capsys.readouterr().out.startswith("panelcause ")


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
        run_doc = json.loads(open(f"{prefix}_run.json").read())
        assert run_doc["skipped"] == [{"config": "one", "method": "ITS",
                                       "reason": "NOT_APPLICABLE"}]
        assert run_doc["dgp_configs"][0]["cohorts"] == {"4": 4}
        metrics = open(f"{prefix}_metrics.csv").read().splitlines()
        assert metrics[0].startswith("config,method,reps,failures,bias")
        assert len(metrics) == 2 and metrics[1].startswith("one,DID_TWFE,4,0,")
        reps = open(f"{prefix}_reps.csv").read().splitlines()
        assert len(reps) == 5

    def test_rerun_is_byte_identical(self, capsys, config_path, tmp_path):
        # run.json carries no wall-clock data at all; the CSVs are identical
        # once the runtime measurement columns are dropped
        prefix = str(tmp_path / "sim")
        argv = ["simulate", "--data", config_path, "--method", "DID_TWFE",
                "--reps", "3", "--out", prefix]
        assert main(argv) == 0
        first = {s: open(f"{prefix}_{s}", "rb").read()
                 for s in ("run.json", "metrics.csv", "reps.csv")}
        assert main(argv) == 0
        capsys.readouterr()
        assert open(f"{prefix}_run.json", "rb").read() == first["run.json"]
        for s in ("metrics.csv", "reps.csv"):
            again = open(f"{prefix}_{s}", "rb").read()
            assert strip_runtime_columns(again) == strip_runtime_columns(first[s]), s
            assert strip_runtime_columns(again) != b""

    def test_seed_override(self, capsys, config_path, tmp_path):
        base = ["simulate", "--data", config_path, "--method", "DID_TWFE",
                "--reps", "2"]
        p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(base + ["--out", p1, "--seed", "11"]) == 0
        assert main(base + ["--out", p2, "--seed", "12"]) == 0
        capsys.readouterr()
        r1 = open(f"{p1}_reps.csv").read().splitlines()[1]
        r2 = open(f"{p2}_reps.csv").read().splitlines()[1]
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
