import json
import time

import pytest

from causalreg import parse_dag, parse_model, scm, study
from causalreg.cli import main, validate_report, ReportSchemaError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    doc = json.loads(out)
    validate_report(doc)
    return code, doc, err


class TestAnalyze:
    def test_fig1a_reports_the_confounder_set(self, capsys):
        code, doc, _ = run_json(
            capsys, "analyze", "--dag", "fig1a", "--exposure", "A", "--outcome", "Y"
        )
        assert code == 0
        assert doc["adjustment_sets"][0] == ["L"]
        assert doc["backdoor_paths"] == ["A <- L -> Y"]

    def test_fig2b_unmeasured_confounder_exits_2(self, capsys):
        code, doc, _ = run_json(
            capsys, "analyze", "--dag", "fig2b", "--exposure", "A", "--outcome", "Y"
        )
        assert code == 2
        assert doc["adjustment_sets"] == []
        assert doc["query"]["unmeasured"] == ["U"]

    def test_fig8c_minimal_sets_under_selection(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "analyze", "--dag", "fig8c", "--exposure", "A", "--outcome", "Y",
            "--conditioned", "S", "--minimal",
        )
        assert code == 0
        assert doc["adjustment_sets"] == [["L1"], ["L2"]]

    def test_selection_on_a_descendant_of_the_exposure_lists_no_set(self, capsys, tmp_path):
        # S is caused by A and by U, which also causes Y: selecting on S
        # opens A -> S <- U -> Y, which no measured set can block.  The
        # simulation agrees: the regression of Y on A among S = 1 is biased.
        model = ("U ~ normal(0, 1)\nA ~ bernoulli(0.5)\nY ~ normal(A + 2*U, 1)\n"
                 "S ~ bernoulli(plogis(-1 + 2*A + 2*U))\n")
        dag = "A -> Y\nA -> S\nU -> S\nU -> Y\n"
        assert parse_model(model).induced_dag() == parse_dag(dag)
        (tmp_path / "selection.dag").write_text(dag)
        code, doc, _ = run_json(
            capsys, "analyze", "--dag", str(tmp_path / "selection.dag"), "--exposure", "A",
            "--outcome", "Y", "--unmeasured", "U", "--conditioned", "S",
        )
        assert (code, doc["adjustment_sets"]) == (2, [])
        config = {"replications": 20, "sample_size": 500, "seed": 3, "scenarios": [
            {"id": "selected", "model": model, "target": "A", "true_value": 1,
             "require_ones": ["S"], "design": {"outcome": "Y", "covariates": ["A"]}},
        ]}
        (tmp_path / "selection.json").write_text(json.dumps(config))
        code, doc, _ = run_json(capsys, "study", "--config", str(tmp_path / "selection.json"))
        (entry,) = doc["scenarios"]
        assert code == 0 and entry["failures"] == 0
        assert abs(entry["bias"]) > 5 * entry["mc_se"]

    def test_dag_file_input(self, capsys, tmp_path):
        path = tmp_path / "graph.dag"
        path.write_text("A -> Y\nL -> A\nL -> Y\n")
        code, doc, _ = run_json(
            capsys, "analyze", "--dag", str(path), "--exposure", "A", "--outcome", "Y"
        )
        assert code == 0
        assert doc["adjustment_sets"] == [[], ["L"]] or doc["adjustment_sets"] == [["L"]]

    def test_parse_error_exits_1_with_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "analyze", "--dag", "nosuchfixture", "--exposure", "A",
            "--outcome", "Y",
        )
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_explicit_unmeasured_override(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "analyze", "--dag", "fig9c", "--exposure", "A", "--outcome", "Y",
            "--unmeasured", "L",
        )
        assert code == 2
        assert doc["adjustment_sets"] == []

    def test_long_chain_exits_0(self, capsys, tmp_path):
        names = ["A"] + [f"N{i}" for i in range(1, 1499)] + ["Y"]
        path = tmp_path / "chain.dag"
        path.write_text("\n".join(f"{a} -> {b}" for a, b in zip(names, names[1:])))
        code, doc, err = run_json(
            capsys, "analyze", "--dag", str(path), "--exposure", "A", "--outcome", "Y"
        )
        assert code == 0
        assert doc["adjustment_sets"] == [[]]
        assert doc["roles"]["N700"]["mediator"]
        assert err == ""

    @pytest.mark.parametrize("argv, message", [
        (("fig1a", "--unmeasured", "A,Y"), "exposure 'A' is unmeasured"),
        (("fig1a", "--unmeasured", "Y"), "outcome 'Y' is unmeasured"),
        (("fig2b", "--exposure", "U"), "exposure 'U' is unmeasured"),
    ], ids=["listed_exposure", "listed_outcome", "hidden_by_default"])
    def test_unmeasured_exposure_or_outcome_exits_1(self, capsys, argv, message):
        dag, *flags = argv
        if "--exposure" not in flags:
            flags += ["--exposure", "A"]
        code, out, err = run_cli(capsys, "analyze", "--dag", dag, "--outcome", "Y",
                                 *flags)
        assert (code, out) == (1, "")
        assert err == f"error: {message}; a regression needs it\n"

    def test_cycle_exits_1_naming_it(self, capsys, tmp_path):
        path = tmp_path / "cycle.dag"
        path.write_text("A -> Y\nL -> A\nY -> L\n")
        code, out, err = run_cli(
            capsys, "analyze", "--dag", str(path), "--exposure", "A", "--outcome", "Y"
        )
        assert code == 1
        assert out == ""
        assert err == "error: cycle detected: A -> Y -> L -> A\n"


class TestMissingness:
    def test_fig5_report(self, capsys):
        code, doc, _ = run_json(
            capsys, "missingness", "--mdag", "fig5", "--exposure", "A",
            "--outcome", "Y",
        )
        assert code == 0
        assert doc["mechanism"] == "G-MNAR"
        assert "L2 -> C_A" in doc["witnesses"]
        assert doc["complete_case_valid"] is True
        assert doc["requires_positivity"] is True
        assert doc["query"]["covariates"] == ["L1", "L2"]

    def test_outcome_missingness_exits_2(self, capsys, tmp_path):
        from causalreg.fixtures import MDAG_FIXTURES

        path = tmp_path / "bad.mdag"
        path.write_text(MDAG_FIXTURES["fig5"] + "Y -> C_Y\n")
        code, doc, _ = run_json(
            capsys, "missingness", "--mdag", str(path), "--exposure", "A",
            "--outcome", "Y",
        )
        assert code == 2
        assert doc["complete_case_valid"] is False


class TestCollapse:
    def test_table1_odds_ratio(self, capsys):
        code, doc, _ = run_json(
            capsys, "collapse", "--table", "table1", "--measure", "odds_ratio"
        )
        assert code == 2  # not collapsible
        assert doc["marginal"] == pytest.approx(2.25, abs=1e-9)
        assert [s["value"] for s in doc["strata"]] == pytest.approx(
            [8 / 3, 8 / 3], abs=1e-9
        )
        assert doc["collapsible"] is False

    def test_table1_risk_difference_exits_0(self, capsys):
        code, doc, _ = run_json(
            capsys, "collapse", "--table", "table1", "--measure", "risk_difference"
        )
        assert code == 0
        assert doc["strictly_collapsible"] is True

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "collapse", "--table", "table1", "--measure", "risk_ratio",
            "--format", "text",
        )
        assert code == 0
        assert "collapsible" in out
        assert "1.50" in out


class TestSimulate:
    def test_five_row_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--model", "setup1", "--n", "5", "--seed", "1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "L,A,Y"
        assert len(lines) == 6

    def test_output_file_holds_the_stdout_bytes(self, capsys, tmp_path):
        argv = ("simulate", "--model", "setup7", "--n", "25001", "--seed", "4")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        path = tmp_path / "data.csv"
        assert run_cli(capsys, *argv, "-o", str(path)) == (0, "", "")
        assert path.read_text() == out
        assert len(out.splitlines()) == 25002

    def test_intervention_fixes_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--model", "setup1", "--n", "4", "--seed", "1",
            "--intervene", "A=1",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert line.split(",")[1] == "1.0"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("model, message", [
        ("A ~ bernoulli(0.5)\nY ~ normal(A, 1e308)\n",
         "node 'Y': non-finite draw at row 2"),
        ("L ~ normal(0, 1)\nY ~ normal(1e200*L, 1)\nZ ~ normal(Y*Y, 1)\n",
         "node 'Z': non-finite mean at row 0"),
    ], ids=["overflowing_draw", "overflowing_mean"])
    def test_non_finite_value_exits_3_with_one_line(
        self, capsys, tmp_path, model, message
    ):
        path = tmp_path / "model.txt"
        path.write_text(model)
        code, out, err = run_cli(capsys, "simulate", "--model", str(path), "--n", "20",
                                 "--seed", "0")
        assert (code, out, err) == (3, "", f"numerical failure: {message}\n")

    def test_env_var_default_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("CAUSALREG_SEED", "11")
        import causalreg.cli as cli_module

        code1 = cli_module.main(["simulate", "--model", "setup1", "--n", "3"])
        out1 = capsys.readouterr().out
        code2 = cli_module.main(
            ["simulate", "--model", "setup1", "--n", "3", "--seed", "11"]
        )
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    def test_bad_env_var_seed_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("CAUSALREG_SEED", "abc")
        code, _, err = run_cli(capsys, "simulate", "--model", "setup1", "--n", "3")
        assert code == 1
        assert "CAUSALREG_SEED" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags, seed_variable, message", [
        (("--seed", "-1"), None, "--seed -1: seed must be non-negative"),
        ((), "-2", "CAUSALREG_SEED=-2: seed must be non-negative"),
    ], ids=["seed_flag", "seed_variable"])
    def test_negative_seed_names_its_source(
        self, capsys, monkeypatch, flags, seed_variable, message
    ):
        monkeypatch.delenv("CAUSALREG_SEED", raising=False)
        if seed_variable is not None:
            monkeypatch.setenv("CAUSALREG_SEED", seed_variable)
        code, out, err = run_cli(capsys, "simulate", "--model", "setup1", "--n", "3",
                                 *flags)
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestFit:
    @pytest.fixture
    def csv_path(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        main(["simulate", "--model", "setup1", "--n", "400", "--seed", "2",
              "-o", str(path)])
        capsys.readouterr()
        return path

    def test_linear_fit(self, capsys, csv_path):
        code, doc, _ = run_json(
            capsys, "fit", "--data", str(csv_path), "--outcome", "Y",
            "--covariates", "A,L",
        )
        assert code == 0
        assert doc["family"] == "linear"
        assert abs(doc["coefficients"]["A"]["estimate"] - 1.0) < 0.5

    def test_logistic_fit(self, capsys, tmp_path):
        path = tmp_path / "bin.csv"
        main(["simulate", "--model", "setup5", "--n", "500", "--seed", "2",
              "-o", str(path)])
        capsys.readouterr()
        code, doc, _ = run_json(
            capsys, "fit", "--data", str(path), "--outcome", "Y",
            "--covariates", "A,L", "--family", "logistic",
        )
        assert code == 0
        assert doc["converged"] is True

    def test_interaction_and_square_terms(self, capsys, csv_path):
        code, doc, _ = run_json(
            capsys, "fit", "--data", str(csv_path), "--outcome", "Y",
            "--covariates", "A,L", "--interactions", "A:L", "--squares", "L",
        )
        assert code == 0
        assert set(doc["coefficients"]) == {"intercept", "A", "L", "A:L", "L^2"}

    def test_positivity_screen(self, capsys, csv_path):
        code, doc, _ = run_json(
            capsys, "fit", "--data", str(csv_path), "--positivity",
            "--exposure", "A", "--covariates", "L",
        )
        assert code == 0
        assert 0 <= doc["min_propensity"] <= doc["max_propensity"] <= 1

    def test_numerical_failure_exits_3(self, capsys, tmp_path):
        path = tmp_path / "sep.csv"
        path.write_text("x,y\n-2.0,0\n-1.0,0\n1.0,1\n2.0,1\n")
        code, out, err = run_cli(
            capsys, "fit", "--data", str(path), "--outcome", "y",
            "--covariates", "x", "--family", "logistic",
        )
        assert code == 3
        assert "numerical failure" in err

    @pytest.mark.parametrize("body, message", [
        ("x,y\n1,2\n3,4,5\n", "error: line 3: expected 2 fields, got 3\n"),
        ("x,y\n1,2\n3,x\n", "error: line 3, column 'y': 'x' is not a finite number\n"),
        ("x,y\n1,2\n\n3,nan\n", "error: line 4, column 'y': 'nan' is not a finite number\n"),
    ], ids=["ragged_row", "non_number", "nan_cell"])
    def test_bad_csv_cell_names_line_and_column(self, capsys, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        code, out, err = run_cli(
            capsys, "fit", "--data", str(path), "--outcome", "y", "--covariates", "x",
        )
        assert code == 1
        assert out == ""
        assert err == message

    @pytest.mark.parametrize("flags, column", [
        (("--covariates", "A,Q"), "Q"),
        (("--positivity", "--covariates", "Q"), "Q"),
        (("--noncompliance",), "A_assigned"),
    ], ids=["fit", "positivity", "noncompliance"])
    def test_missing_column_names_the_file(self, capsys, csv_path, flags, column):
        code, out, err = run_cli(capsys, "fit", "--data", str(csv_path), *flags)
        assert (code, out, err) == (1, "", f"error: {csv_path}: no column {column!r}\n")

    @pytest.mark.parametrize("flags, column", [
        (("--positivity", "--exposure", "L", "--covariates", "A"), "L"),
        (("--family", "logistic", "--covariates", "A,L"), "Y"),
        (("--noncompliance",), "A_taken"),
    ], ids=["positivity", "logistic", "noncompliance"])
    def test_non_binary_column_names_the_file(self, capsys, tmp_path, flags, column):
        path = tmp_path / "d.csv"
        path.write_text("A_assigned,A_taken,A,L,Y\n1,1,1,0.5,1.5\n1,2,0,-1.2,0\n"
                        "0,0,1,0.3,1\n0,1,0,2.5,0\n1,0,1,-0.7,1\n0,0,0,0.1,0\n")
        code, out, err = run_cli(capsys, "fit", "--data", str(path), *flags)
        assert (code, out, err) == (
            1, "", f"error: {path}: column {column!r} must be binary 0/1\n")

    @pytest.mark.parametrize("flags, outcome", [
        (("--outcome", "Y", "--covariates", "A,Y"), "Y"),
        (("--outcome", "Y", "--covariates", "A", "--interactions", "A:Y"), "Y"),
    ], ids=["covariate", "interaction"])
    def test_outcome_as_design_term_exits_1(self, capsys, csv_path, flags, outcome):
        code, out, err = run_cli(capsys, "fit", "--data", str(csv_path), *flags)
        assert (code, out, err) == (
            1, "", f"error: outcome {outcome!r} cannot also be a design term\n")

    def test_positivity_exposure_as_covariate_exits_1(self, capsys, csv_path):
        for covariates in ("A", "L,A"):
            code, out, err = run_cli(capsys, "fit", "--data", str(csv_path), "--positivity",
                                     "--exposure", "A", "--covariates", covariates)
            assert (code, out, err) == (
                1, "", "error: exposure 'A' cannot also be a covariate\n")

    def test_noncompliance_report(self, capsys, tmp_path):
        path = tmp_path / "trial.csv"
        path.write_text("A_assigned,A_taken,Y\n1,1,1\n1,1,1\n1,1,0\n1,0,1\n"
                        "0,0,0\n0,0,1\n0,1,1\n0,0,0\n")
        code, doc, _ = run_json(capsys, "fit", "--data", str(path), "--noncompliance")
        assert code == 0
        assert doc["cace"] == pytest.approx(1 / 3)
        assert doc["control_uptake"] == 0.25

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_design_column_exits_3(self, capsys, tmp_path):
        # 1e200 squared overflows: a fit verdict, with no numpy warning.
        path = tmp_path / "big.csv"
        rows = [f"{x},{2 * x + (-1) ** x}" for x in range(20)] + ["1e200,1"]
        path.write_text("X,Y\n" + "\n".join(rows) + "\n")
        code, out, err = run_cli(
            capsys, "fit", "--data", str(path), "--covariates", "X", "--squares", "X",
        )
        assert (code, out, err) == (
            3, "", "numerical failure: design column 'X^2' is not finite\n")

    def test_header_only_csv_exits_1(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,y\n")
        code, out, err = run_cli(
            capsys, "fit", "--data", str(path), "--outcome", "y", "--covariates", "x",
        )
        assert code == 1
        assert out == ""
        assert err == "error: CSV input has a header but no data rows\n"


class TestStudy:
    def test_small_default_study_json(self, capsys, tmp_path):
        estimates = tmp_path / "est.csv"
        code, doc, _ = run_json(
            capsys, "study", "--runs", "4", "--n", "120", "--seed", "7",
            "--oracle-n", "100000", "--estimates-csv", str(estimates),
        )
        assert code == 0
        assert len(doc["scenarios"]) == 10
        assert estimates.read_text().startswith("scenario,replication,estimate")

    def test_custom_config_file(self, capsys, tmp_path):
        config = {
            "replications": 5,
            "sample_size": 100,
            "seed": 2,
            "oracle_n": 100000,
            "scenarios": [
                {
                    "id": "only",
                    "model": "setup1",
                    "design": {"outcome": "Y", "covariates": ["A", "L"]},
                    "target": "A",
                    "estimand": "ATE",
                    "true_value": 1.0,
                }
            ],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, doc, _ = run_json(capsys, "study", "--config", str(path))
        assert code == 0
        assert doc["scenarios"][0]["id"] == "only"

    def test_flags_override_config_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CAUSALREG_SEED", "abc")
        path = tmp_path / "config.json"
        path.write_text(_one_scenario_config())
        code, doc, _ = run_json(
            capsys, "study", "--config", str(path), "--runs", "3", "--n", "40",
            "--seed", "5", "--oracle-n", "200000",
        )
        assert code == 0
        config = doc["config"]
        assert (config["replications"], config["sample_size"], config["seed"],
                config["oracle_n"]) == (3, 40, 5, 200000)
        assert doc["scenarios"][0]["replications"] == 3

    def test_seed_flag_skips_the_seed_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("CAUSALREG_SEED", "abc")
        code, doc, _ = run_json(
            capsys, "study", "--runs", "2", "--n", "50", "--seed", "3",
            "--oracle-n", "100000",
        )
        assert code == 0
        assert doc["config"]["seed"] == 3

    def test_scenario_without_design_names_index_and_field(self, capsys, tmp_path):
        scenario = {"id": "x", "model": "setup1", "target": "A", "true_value": 1.0}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"replications": 2, "sample_size": 50,
                                    "scenarios": [scenario]}))
        code, _, err = run_cli(capsys, "study", "--config", str(path))
        assert code == 1
        assert "scenario 0" in err
        assert "'design'" in err

    @pytest.mark.parametrize("change, message", [
        ({"model": "nosuch"}, "unknown model fixture 'nosuch'"),
        ({"design": {"outcome": "Y", "covariates": ["A", "Q"]}},
         "column 'Q' is not a node of its model"),
        ({"require_ones": ["C"]}, "column 'C' is not a node of its model"),
        ({"model": "A ~ bernoulli(0.5)\nY ~ normal(A + , 1)\n"},
         "line 2, col 16: expected a node name"),
    ], ids=["unknown_fixture", "unknown_design_column", "unknown_required_column",
            "inline_model_syntax"])
    def test_scenario_input_error_names_scenario(
        self, capsys, tmp_path, monkeypatch, change, message
    ):
        def no_jobs(jobs, workers):
            raise AssertionError("a job ran before the config was checked")

        monkeypatch.setattr(study, "_dispatch", no_jobs)
        scenario = {"id": "s", "model": "setup1", "target": "A", "true_value": 1.0,
                    "design": {"outcome": "Y", "covariates": ["A", "L"]}, **change}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"replications": 2, "sample_size": 50,
                                    "scenarios": [scenario]}))
        code, out, err = run_cli(capsys, "study", "--config", str(path))
        assert code == 1
        assert out == ""
        assert err == f"error: scenario 's': {message}\n"

    @pytest.mark.parametrize("flags, seed_variable, message", [
        (("--seed", "-3"), None, "seed must be non-negative"),
        (("--oracle-n", "5"), None, "oracle_n must be at least 100000"),
        ((), "-3", "CAUSALREG_SEED=-3: seed must be non-negative"),
    ], ids=["seed_flag", "oracle_n_flag", "seed_variable"])
    def test_range_error_names_field_before_any_job(
        self, capsys, monkeypatch, flags, seed_variable, message
    ):
        def no_jobs(jobs, workers):
            raise AssertionError("a job ran before the config was checked")

        monkeypatch.setattr(study, "_dispatch", no_jobs)
        monkeypatch.delenv("CAUSALREG_SEED", raising=False)
        if seed_variable is not None:
            monkeypatch.setenv("CAUSALREG_SEED", seed_variable)
        code, out, err = run_cli(capsys, "study", "--runs", "2", "--n", "50", *flags)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("flag", ["-o", "--estimates-csv"])
    @pytest.mark.parametrize("target", ["", "missing/out.txt"], ids=["directory", "no_parent"])
    def test_bad_output_path_exits_1_before_any_job(
        self, capsys, tmp_path, monkeypatch, flag, target
    ):
        def no_jobs(jobs, workers):
            raise AssertionError("a job ran before the output paths were checked")

        monkeypatch.setattr(study, "_dispatch", no_jobs)
        path = str(tmp_path / target)
        code, out, err = run_cli(capsys, "study", "--runs", "2", "--n", "50", flag, path)
        assert (code, out) == (1, "")
        assert err == f"error: {flag} {path}: not a file in an existing directory\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_simulation_range_error_names_scenario_and_replication(
        self, capsys, tmp_path, workers
    ):
        # Replications 12 and 19 draw a probability below 0; at workers=2
        # both fall in the second chunk.  The lowest one is reported.
        path = tmp_path / "config.json"
        path.write_text(_one_scenario_config(
            {"model": "L ~ normal(0, 1)\nA ~ bernoulli(0.3 + 0.1*L)\nY ~ normal(A + L, 1)\n"},
            replications=20, sample_size=50, seed=6,
        ))
        code, out, err = run_cli(capsys, "study", "--config", str(path),
                                 "--workers", workers)
        assert (code, out) == (3, "")
        assert err == (
            "numerical failure: scenario 's', replication 12: "
            "node 'A': probability outside [0, 1] at row 43\n"
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_non_finite_draw_names_scenario_and_replication(
        self, capsys, tmp_path, workers
    ):
        path = tmp_path / "config.json"
        path.write_text(_one_scenario_config(
            {"model": "A ~ bernoulli(0.5)\nY ~ normal(A, 1e308)\n",
             "design": {"outcome": "Y", "covariates": ["A"]}},
            replications=20, sample_size=100, seed=1,
        ))
        code, out, err = run_cli(capsys, "study", "--config", str(path),
                                 "--workers", workers)
        assert (code, out) == (3, "")
        assert err == (
            "numerical failure: scenario 's', replication 0: "
            "node 'Y': non-finite draw at row 18\n"
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_non_finite_design_column_fails_each_replication(
        self, capsys, tmp_path, workers
    ):
        path = tmp_path / "config.json"
        path.write_text(_one_scenario_config(
            {"model": "L ~ normal(0, 1)\nA ~ bernoulli(0.5)\nB ~ normal(1e200*L, 1)\n"
                      "Y ~ normal(A, 1)\n",
             "design": {"outcome": "Y", "covariates": ["A"], "squares": ["B"]}},
            replications=20, sample_size=50,
        ))
        code, out, err = run_cli(capsys, "study", "--config", str(path),
                                 "--workers", workers)
        assert (code, out) == (3, "")
        failure = "design column 'B^2' is not finite"
        assert err == (
            "numerical failure: scenario 's': 20 of 20 replications failed ("
            + "; ".join(f"rep {rep}: {failure}" for rep in range(5)) + ")\n"
        )

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("change, message", [
        ({"target": "L"}, "exposure 'L' must be a bernoulli node"),
        ({"target": "A:L", "design": {"outcome": "Y", "covariates": ["A", "L"],
                                      "interactions": [["A", "L"]]}},
         "unknown node 'A:L'"),
        ({"estimand": "log_MOR"}, "log_MOR requires a binary (bernoulli) outcome"),
    ], ids=["normal_exposure", "interaction_target", "log_mor_normal_outcome"])
    def test_oracle_requirement_names_scenario_before_any_job(
        self, capsys, tmp_path, monkeypatch, change, message, workers
    ):
        def no_jobs(jobs, workers):
            raise AssertionError("a job ran before the oracle's model was checked")

        monkeypatch.setattr(study, "_dispatch", no_jobs)
        path = tmp_path / "config.json"
        path.write_text(_one_scenario_config({"true_value": None, **change}))
        code, out, err = run_cli(capsys, "study", "--config", str(path),
                                 "--workers", workers)
        assert (code, out, err) == (1, "", f"error: scenario 's': {message}\n")

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "study", "--runs", "3", "--n", "100", "--seed", "1",
            "--oracle-n", "100000", "--format", "text",
        )
        assert code == 0
        assert "scenario" in out


def _one_scenario_config(scenario=None, **top):
    scenario = {"id": "s", "model": "setup1", "target": "A", "true_value": 1.0,
                "design": {"outcome": "Y", "covariates": ["A", "L"]}, **(scenario or {})}
    return json.dumps({"replications": 2, "sample_size": 50,
                       "scenarios": [scenario], **top})


_TABLE_HEADER = "stratum,a,y,weight\ns,1,1,1\n"
_COLLAPSE = ("collapse", "--measure", "odds_ratio", "--table")
_STUDY = ("study", "--config")


class TestInputErrors:
    """Each bad input exits 1 with one line naming where it is wrong."""

    @pytest.mark.parametrize("command, body, message", [
        (_COLLAPSE, _TABLE_HEADER + "s,1,0\n", "line 3: expected 4 fields, got 3"),
        (_COLLAPSE, _TABLE_HEADER + "s,1,0,1,9\n", "line 3: expected 4 fields, got 5"),
        (_COLLAPSE, _TABLE_HEADER + "s,1,0,inf\n",
         "line 3, column 'weight': 'inf' is not a finite number"),
        (_COLLAPSE, _TABLE_HEADER + "s,1,0,-1\n", "row 3: negative weight"),
        (("simulate", "--n", "5", "--model"), "X ~ normal(1e999, 1)\n",
         "line 1, col 12: non-finite coefficient inf"),
        (("missingness", "--exposure", "A", "--outcome", "Y", "--mdag"),
         "A -> Y\nunmeasured: Q\n", "unknown node 'Q'"),
        (("study", "--runs", "2", "--config"), "[]",
         "study config: expected a JSON object"),
        (_STUDY, _one_scenario_config(replications="ten"),
         "study config: field 'replications' must be an integer"),
        (_STUDY, _one_scenario_config(scenarios="s"),
         "study config: field 'scenarios' must be a JSON array"),
        (_STUDY, _one_scenario_config(seed=-3), "seed must be non-negative"),
        (_STUDY, _one_scenario_config(oracle_n=5), "oracle_n must be at least 100000"),
        (_STUDY, _one_scenario_config({"design": {"outcome": "Y", "covariates": "AL"}}),
         "scenario 's': field 'covariates' must be a JSON array of names"),
        (_STUDY, _one_scenario_config({"model": 1}),
         "scenario 's': field 'model' must be a string"),
        (_STUDY, _one_scenario_config({"design": {
            "outcome": "Y", "covariates": ["A", "L"], "interactions": [["A"]]}}),
         "scenario 's': interactions look like A:B, got 'A'"),
        (_STUDY, _one_scenario_config({"design": {
            "outcome": "Y", "covariates": ["A", "L"], "interactions": ["AL"]}}),
         "scenario 's': field 'interactions' must be a JSON array of arrays of names"),
        (_STUDY, _one_scenario_config({"design": {
            "outcome": "Y", "covariates": ["A", "L"],
            "interactions": [["A", "L"], ["L", "A"]]}}),
         "scenario 's': duplicate design terms in "
         "('intercept', 'A', 'L', 'A:L', 'L:A')"),
        (_STUDY, _one_scenario_config({"design": {"outcome": "Y", "covariates": ["A", "Y"]}}),
         "scenario 's': outcome 'Y' cannot also be a design term"),
    ], ids=["table_short_row", "table_long_row", "table_inf_weight",
            "table_negative_weight", "model_non_finite_coefficient",
            "mdag_unknown_unmeasured",
            "config_top_level_array", "config_replications_not_int",
            "config_scenarios_not_array", "config_negative_seed",
            "config_small_oracle_n", "config_covariates_string",
            "config_model_not_string", "config_interaction_arity",
            "config_interaction_not_array", "config_interaction_both_orders",
            "config_outcome_as_covariate"])
    def test_input_file_error_exits_1(self, capsys, tmp_path, command, body, message):
        path = tmp_path / "input"
        path.write_text(body)
        code, out, err = run_cli(capsys, *command, str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (("simulate", "--model", "setup1", "--n", "3", "--intervene", "A=abc"),
         "--intervene A=abc: 'abc' is not a number"),
        (_COLLAPSE + ("table1", "--tolerance", "-1"),
         "tolerance must be a finite non-negative number, got -1.0"),
        (_COLLAPSE + ("table1", "--tolerance", "nan"),
         "tolerance must be a finite non-negative number, got nan"),
        (("analyze", "--dag", "fig1a", "--exposure", "A", "--outcome", "Y",
          "--unmeasured", "Q"), "unknown node 'Q'"),
    ], ids=["intervene_not_a_number", "negative_tolerance", "nan_tolerance",
            "unknown_unmeasured"])
    def test_flag_error_exits_1(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("collapse", "--table", "table1", "--measure", "foo"),
        ("study", "--runs", "abc"),
        (),
        ("fit", "--data", "d.csv", "--positivity", "--noncompliance"),
    ], ids=["unknown_measure", "runs_not_int", "no_subcommand",
            "positivity_and_noncompliance"])
    def test_usage_error_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage: causalreg")

    @pytest.mark.parametrize("argv", [
        ("analyze", "--dag", "{dir}", "--exposure", "A", "--outcome", "Y"),
        ("fit", "--data", "{dir}"),
        ("analyze", "--dag", "fig1a", "--exposure", "A", "--outcome", "Y", "-o", "{dir}"),
        ("study", "--config", "{config}", "--estimates-csv", "{dir}"),
    ], ids=["analyze_dag", "fit_data", "analyze_output", "study_estimates_csv"])
    def test_directory_path_exits_1(self, capsys, tmp_path, argv):
        config = tmp_path / "config.json"
        config.write_text(_one_scenario_config())
        code, out, err = run_cli(
            capsys, *(arg.format(dir=tmp_path, config=config) for arg in argv))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path) in err

    def test_help_exits_0(self, capsys):
        code, out, err = run_cli(capsys, "--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: causalreg")

    def test_fit_interaction_in_both_orders_exits_1(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("A,L,Y\n0,1,2\n1,0,3\n1,1,1\n0,0,5\n1,1,4\n0,1,2\n")
        code, out, err = run_cli(
            capsys, "fit", "--data", str(path), "--covariates", "A,L",
            "--interactions", "A:L,L:A",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: duplicate design terms in")


_HUGE = "1000000000000"
_BUDGET = f"above the simulation budget of {scm.MAX_BLOCK_BYTES} bytes"


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 7.28 TiB for an array")


class _Stopped(Exception):
    pass


def _distinct_scenarios(count, sample_size, replications=2):
    """A study config of ``count`` two-node inline scenarios, no two of
    which share a node name."""
    return {"replications": replications, "sample_size": sample_size, "scenarios": [
        {"id": f"s{i}", "model": f"A{i} ~ bernoulli(0.5)\nY{i} ~ normal(A{i}, 1)\n",
         "target": f"A{i}", "true_value": 1.0,
         "design": {"outcome": f"Y{i}", "covariates": [f"A{i}"]}}
        for i in range(count)
    ]}


class TestSizeArguments:
    """A size past its bound exits 1 at once, naming the flag or field,
    before anything is allocated and before any job runs."""

    @pytest.mark.parametrize("argv, message", [
        (("simulate", "--model", "setup1", "--n", _HUGE),
         f"--n {_HUGE}: {_HUGE} rows of 3 nodes need 24000000000000 bytes, {_BUDGET}"),
        (("study", "--runs", "10", "--n", _HUGE),
         f"scenario 'setup1': sample_size {_HUGE}: {_HUGE} rows of 3 nodes need "
         f"24000000000000 bytes, {_BUDGET}"),
        (("study", "--runs", "2", "--n", "50", "--oracle-n", _HUGE),
         f"scenario 'setup5_conditional': oracle_n {_HUGE} in each of two arms: "
         f"2000000000000 rows of 3 nodes need 48000000000000 bytes, {_BUDGET}"),
        (("study", "--runs", _HUGE, "--n", "1000"),
         f"replications {_HUGE} for 10 scenarios is above the bound of 1000000 "
         "replication results"),
    ], ids=["simulate_n", "study_n", "study_oracle_n", "study_runs"])
    def test_exits_1_in_under_a_second(self, capsys, monkeypatch, argv, message):
        def no_jobs(jobs, workers):
            raise AssertionError("a job ran before the sizes were checked")

        monkeypatch.setattr(study, "_dispatch", no_jobs)
        monkeypatch.setattr(scm, "simulate", no_jobs)
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_shared_draws_of_one_replication_over_the_budget_exit_1(
        self, capsys, monkeypatch, tmp_path
    ):
        # Each scenario alone is 3.2 MB a replication; a job holds the
        # draws of all 400 distinct substreams.
        def no_jobs(jobs, workers):
            raise AssertionError("a job ran before the sizes were checked")

        monkeypatch.setattr(study, "_dispatch", no_jobs)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_distinct_scenarios(200, sample_size=200_000)))
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "study", "--config", str(path))
        assert time.perf_counter() - t0 < 1.0
        assert (code, out, err) == (
            1, "", "error: sample_size 200000: one replication of 400 distinct "
            "substreams and the 2 nodes of the largest model needs 643200000 bytes, "
            f"{_BUDGET}\n")

    def test_shared_draws_shorten_the_range(self, monkeypatch):
        # 50 replications of n=1000 hold 1,402 arrays of 50,000 rows here,
        # above the budget: ranges of 47 replications fit.
        ranges = []

        def record(jobs, workers):
            ranges.extend(args[-1] for _, args in jobs)
            raise _Stopped

        monkeypatch.setattr(study, "_dispatch", record)
        config = study.StudyConfig.from_dict(
            _distinct_scenarios(700, sample_size=1000, replications=100))
        t0 = time.perf_counter()
        with pytest.raises(_Stopped):
            study.run_study(config)
        assert time.perf_counter() - t0 < 1.0
        assert scm.MAX_BLOCK_BYTES // (1402 * 1000 * 8) == 47
        assert ranges == [range(0, 47), range(47, 94), range(94, 100)]

    def test_memory_error_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(scm, "simulate", _out_of_memory)
        code, out, err = run_cli(capsys, "simulate", "--model", "setup1", "--n", "10")
        assert (code, out, err) == (
            3, "", "numerical failure: out of memory: Unable to allocate 7.28 TiB "
            "for an array\n")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_memory_error_in_a_job_exits_3(self, capsys, monkeypatch, tmp_path, workers):
        monkeypatch.setattr(study, "simulate_block", _out_of_memory)
        path = tmp_path / "config.json"
        path.write_text(_one_scenario_config(replications=4))
        code, out, err = run_cli(capsys, "study", "--config", str(path),
                                 "--workers", workers)
        assert (code, out, err) == (
            3, "", "numerical failure: out of memory: Unable to allocate 7.28 TiB "
            "for an array\n")


class TestSchemaValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ReportSchemaError, match="unknown report kind"):
            validate_report({"schema_version": 1, "report": "mystery"})

    def test_rejects_wrong_version(self):
        with pytest.raises(ReportSchemaError, match="schema_version"):
            validate_report({"schema_version": 99, "report": "analyze"})

    def test_rejects_missing_fields(self):
        with pytest.raises(ReportSchemaError, match="missing fields"):
            validate_report({"schema_version": 1, "report": "analyze"})
