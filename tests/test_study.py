import json
import os
from concurrent.futures import Future
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from causalreg import (
    Dataset,
    DesignSpec,
    FitError,
    Scenario,
    SimulationError,
    StudyConfig,
    StudyError,
    default_study_config,
    logistic_fit,
    ols_fit,
    run_study,
    simulate,
    true_effect,
)
from causalreg import fixtures, scm, study
from causalreg._blas import blas_threads
from causalreg.study import estimates_csv, render_bias_table


def small_config(scenario_ids=("setup1",), replications=25, n=300, seed=5):
    full = default_study_config(
        replications=replications, sample_size=n, seed=seed, oracle_n=100_000
    )
    chosen = tuple(s for s in full.scenarios if s.id in scenario_ids)
    return StudyConfig(
        scenarios=chosen,
        replications=replications,
        sample_size=n,
        seed=seed,
        oracle_n=100_000,
    )


def _os_threads():
    """OS threads of the calling process (a pool job)."""
    return len(os.listdir("/proc/self/task"))


def _raise_value_error():
    raise ValueError("job failed")


class TestConfig:
    def test_default_has_ten_scenarios(self):
        config = default_study_config()
        assert len(config.scenarios) == 10
        assert [s.id for s in config.scenarios] == [
            "setup1", "setup2", "setup3", "setup4", "setup4b",
            "setup5_conditional", "setup5_crude",
            "setup6_conditional", "setup6_crude", "setup7",
        ]

    def test_round_trip_through_json(self):
        config = default_study_config(replications=77, sample_size=200, seed=9)
        doc = json.loads(json.dumps(asdict(config)))
        assert StudyConfig.from_dict(doc) == config
        # Every optional field omitted: the dataclass defaults fill them in.
        bare = {"id": "bare", "model": "setup1", "target": "intercept",
                "design": {"outcome": "Y"}}
        config = StudyConfig.from_dict({"scenarios": [bare]})
        assert config == StudyConfig((Scenario("bare", "setup1", DesignSpec("Y"),
                                               "intercept"),))
        assert StudyConfig.from_dict(json.loads(json.dumps(asdict(config)))) == config
        assert asdict(config)["scenarios"][0]["label"] == "bare"
        # A null label is the id, in the config and in the results.
        scenario = {"id": "s", "label": None, "model": "setup1", "target": "A",
                    "true_value": 1, "design": {"outcome": "Y", "covariates": ["A", "L"]}}
        config = StudyConfig.from_dict(
            {"replications": 2, "sample_size": 50, "scenarios": [scenario]}
        )
        assert StudyConfig.from_dict(json.loads(json.dumps(asdict(config)))) == config
        doc = run_study(config).as_dict()
        assert doc["config"]["scenarios"][0]["label"] == "s"
        assert doc["scenarios"][0]["label"] == "s"

    def test_target_must_be_a_design_column(self):
        with pytest.raises(ValueError, match="not a design column"):
            Scenario("x", "setup1", DesignSpec("Y", ("L",)), target="A")

    def test_replications_bound(self):
        with pytest.raises(ValueError, match="replications"):
            StudyConfig(scenarios=(), replications=0)

    def test_replication_results_bound(self):
        scenarios = default_study_config().scenarios
        StudyConfig(scenarios=scenarios, replications=study.MAX_REPLICATION_RESULTS // 10)
        with pytest.raises(ValueError, match="^replications 100001 for 10 scenarios is "
                                             "above the bound of 1000000 "):
            StudyConfig(scenarios=scenarios, replications=100_001)

    def test_sample_size_bound(self):
        with pytest.raises(ValueError, match="sample_size"):
            StudyConfig(scenarios=(), sample_size=5)

    def test_duplicate_ids_rejected(self):
        s = default_study_config().scenarios[0]
        with pytest.raises(ValueError, match="unique"):
            StudyConfig(scenarios=(s, s))

    def test_unknown_estimand(self):
        with pytest.raises(ValueError, match="estimand"):
            Scenario("x", "setup1", DesignSpec("Y", ("A",)), target="A",
                     estimand="median")


class TestRun:
    def test_setup1_small_run_is_roughly_unbiased(self):
        report = run_study(small_config(("setup1",)))
        entry = report.result("setup1")
        assert entry.replications == 25
        assert entry.failures == 0
        assert entry.true_provenance == "exact"
        assert abs(entry.bias) < 6 * entry.mc_se

    def test_bias_equals_mean_minus_truth(self):
        report = run_study(small_config(("setup3",)))
        entry = report.result("setup3")
        assert entry.bias == pytest.approx(entry.mean_estimate - entry.true_value)

    def test_logistic_scenario_uses_oracle_truth(self):
        config = small_config(("setup5_crude",), replications=10, n=200)
        report = run_study(config)
        entry = report.result("setup5_crude")
        assert entry.true_provenance == "oracle"
        assert 0.5 < entry.true_value < 1.2

    def test_empty_scenario_list_gives_empty_report(self):
        report = run_study(StudyConfig(scenarios=(), replications=5, sample_size=50))
        assert report.results == ()

    def test_inline_model_text(self):
        scenario = Scenario(
            "inline",
            "X ~ normal(0, 1)\nA ~ bernoulli(0.5)\nY ~ normal(2*A + X, 1)\n",
            DesignSpec("Y", ("A", "X")),
            target="A",
            true_value=2.0,
        )
        config = StudyConfig(
            scenarios=(scenario,), replications=20, sample_size=400, seed=3
        )
        entry = run_study(config).result("inline")
        assert abs(entry.bias) < 6 * entry.mc_se

    def test_failure_fraction_aborts(self):
        # The filter keeps ~0.1% of rows, so every replication fails.
        scenario = Scenario(
            "starved",
            "A ~ bernoulli(0.5)\nY ~ normal(A, 1)\nC ~ bernoulli(0.001)\n",
            DesignSpec("Y", ("A",)),
            target="A",
            true_value=1.0,
            require_ones=("C",),
        )
        config = StudyConfig(
            scenarios=(scenario,), replications=10, sample_size=100, seed=1
        )
        with pytest.raises(StudyError, match="replications failed"):
            run_study(config)

    def test_complete_case_filter_keeps_observed_rows(self):
        config = small_config(("setup7",), replications=8, n=500)
        entry = run_study(config).result("setup7")
        assert entry.failures == 0
        assert abs(entry.bias) < 0.3

    def test_complete_case_scenario_corroborates_graph_verdict(self):
        # The graphical verdict promises a valid complete-case regression;
        # the matching simulation should come out unbiased.
        from causalreg import complete_case_valid, mdag_fixture, model_fixture

        mdag = mdag_fixture("fig5")
        assert model_fixture("setup7").induced_dag() == mdag.base
        assert complete_case_valid(mdag, "A", "Y", {"L1", "L2"})
        config = small_config(("setup7",), replications=60, n=800)
        entry = run_study(config, workers=2).result("setup7")
        assert abs(entry.bias) < 5 * entry.mc_se

    def test_each_distinct_oracle_runs_once_per_study(self, monkeypatch):
        calls = []

        def counting_true_effect(model, *args):
            calls.append(args[:3])
            return true_effect(model, *args)

        monkeypatch.setattr(study, "true_effect", counting_true_effect)
        inline = Scenario(
            "inline", "A ~ bernoulli(0.5)\nY ~ normal(A, 1)\n",
            DesignSpec("Y", ("A",)), target="A",
        )
        config = small_config(
            ("setup1", "setup5_conditional", "setup5_crude"), replications=5, n=200
        )
        # setup5 spelled as its inline text is the same model, so one oracle.
        spelled = Scenario(
            "setup5_spelled", fixtures.MODEL_FIXTURES["setup5"],
            DesignSpec("Y", ("A", "L")), target="A", estimand="log_MOR",
        )
        config = replace(config, scenarios=config.scenarios + (inline, spelled))
        for _ in range(2):
            calls.clear()
            report = run_study(config)
            assert calls == [("A", "Y", "log_MOR"), ("A", "Y", "ATE")]
        assert (report.result("setup5_spelled").true_value
                == report.result("setup5_conditional").true_value)


# Fails at replication 3 of seed 0 at n=60, at B, before it draws Z.
FAILS_AT_3 = Scenario("fails_at_3", "L ~ normal(0, 1)\nB ~ bernoulli(0.3 + 0.1*L)\n"
                      "Z ~ normal(0, 1)\n", DesignSpec("Z", ("B",)), "B", true_value=0.0)
# Fails at replication 6 of seed 0 at n=60, and at no other below 10.
FAILS_AT_6 = Scenario("fails_at_6", "S ~ normal(0, 1)\nD ~ bernoulli(0.3 + 0.1*S)\n",
                      DesignSpec("D", ("S",)), "S", true_value=0.0)


class TestRangeJobs:
    """A job is one range of replications of every scenario."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_scenario_alone_matches_its_row_of_the_panel(self, workers):
        # At workers=2, R=7 splits into ranges of 4 and 3.
        config = default_study_config(
            replications=7, sample_size=400, seed=11, oracle_n=100_000
        )
        panel = run_study(config, workers=workers)
        for scenario in config.scenarios:
            alone = run_study(replace(config, scenarios=(scenario,)), workers=workers)
            assert alone.estimates[scenario.id] == panel.estimates[scenario.id]

    def test_a_failed_model_leaves_whole_draws_to_the_next(self):
        # The second model reads Z's normal substream, which the first one
        # drew after it had dropped replications 3 and up.
        reads_z = Scenario("reads_z", "Z ~ normal(0, 1)\nA ~ bernoulli(0.5)\n"
                           "Y ~ normal(A + Z, 1)\n", DesignSpec("Y", ("A", "Z")), "A",
                           true_value=1.0)
        groups = {s.resolve_model(): [s] for s in (FAILS_AT_3, reads_z)}
        batches = study._replicate(groups, 60, 0, range(10))
        assert str(batches["fails_at_3"]).startswith(
            "scenario 'fails_at_3', replication 3: node 'B': probability outside")
        alone = study._replicate({reads_z.resolve_model(): [reads_z]}, 60, 0, range(10))
        assert len(batches["reads_z"]) == 10
        assert batches["reads_z"] == alone["reads_z"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_range_error_is_the_first_failing_scenario_in_config_order(self, workers):
        # At workers=2 the first range holds only fails_at_3's error.  Both
        # errors win over the starved scenario's failed fits.
        starved = Scenario("starved", "A ~ bernoulli(0.5)\nY ~ normal(A, 1)\n"
                           "C ~ bernoulli(0.001)\n", DesignSpec("Y", ("A",)), "A",
                           true_value=1.0, require_ones=("C",))
        config = StudyConfig((starved, FAILS_AT_6, FAILS_AT_3), replications=10,
                             sample_size=60, seed=0)
        with pytest.raises(SimulationError) as info:
            run_study(config, workers=workers)
        assert str(info.value) == (
            "scenario 'fails_at_6', replication 6: node 'D': probability outside "
            "[0, 1] at row 17")

    def test_each_substream_is_seeded_once_per_range(self, monkeypatch):
        # The panel's 35 drawn nodes read 10 distinct (node, law) substreams
        # (Y is normal in some models and bernoulli in others), and at
        # workers=1 its 50 replications are one range.
        seeded = []
        seed_sequence = np.random.SeedSequence

        def counting(entropy, *args, **kwargs):
            seeded.append(entropy)
            return seed_sequence(entropy, *args, **kwargs)

        monkeypatch.setattr(scm.np.random, "SeedSequence", counting)
        run_study(default_study_config(replications=50, oracle_n=100_000))
        replications = [entropy for entropy in seeded if entropy[2] >= 1]
        assert len(replications) == 500


class TestDeterminismAndOutput:
    def test_worker_counts_agree_byte_for_byte(self):
        config = small_config(
            ("setup1", "setup6_conditional", "setup7"), replications=12, n=200
        )
        doc1 = json.dumps(run_study(config, workers=1).as_dict(), sort_keys=True)
        doc2 = json.dumps(run_study(config, workers=2).as_dict(), sort_keys=True)
        assert doc1 == doc2

    def test_scenario_order_does_not_change_values(self):
        config = small_config(("setup1", "setup6_crude"), replications=10, n=200)
        reversed_config = StudyConfig(
            scenarios=tuple(reversed(config.scenarios)),
            replications=config.replications,
            sample_size=config.sample_size,
            seed=config.seed,
            oracle_n=config.oracle_n,
        )
        a = run_study(config).result("setup1")
        b = run_study(reversed_config).result("setup1")
        assert a == b

    def test_estimates_csv(self):
        config = small_config(("setup1",), replications=6, n=100)
        report = run_study(config)
        text = estimates_csv(report)
        lines = text.strip().splitlines()
        assert lines[0] == "scenario,replication,estimate"
        assert len(lines) == 7

    def test_every_report_keeps_its_estimates(self):
        config = small_config(("setup1", "setup3"), replications=5, n=100)
        report = run_study(config, workers=2)
        lines = estimates_csv(report).strip().splitlines()
        assert lines[1:] == [
            f"{sid},{rep},{value!r}"
            for sid in ("setup1", "setup3") for rep, value in report.estimates[sid]
        ]
        assert [len(report.estimates[sid]) for sid in ("setup1", "setup3")] == [5, 5]

    def test_render_bias_table(self):
        report = run_study(small_config(("setup1",), replications=5, n=100))
        text = render_bias_table(report)
        assert "ATE, setup 1: simple" in text
        assert "bias" in text


def public_fit(model, scenario, n, seed, rep):
    """The estimate, or the FitError, of the public fitter on one replication."""
    data = simulate(model, n, seed, rep=rep + 1)
    try:
        if scenario.require_ones:
            keep = np.ones(data.n, dtype=bool)
            for name in scenario.require_ones:
                keep &= data.column(name) == 1.0
            data = Dataset(data.names, np.ascontiguousarray(data.data[keep]))
        fitter = logistic_fit if scenario.estimand == "log_MOR" else ols_fit
        return fitter(data, scenario.design).coef(scenario.target)
    except FitError as exc:
        return exc


class TestKernel:
    def test_default_panel_matches_public_fitters(self):
        config = default_study_config(
            replications=7, sample_size=400, seed=11, oracle_n=100_000
        )
        report = run_study(config)
        for scenario in config.scenarios:
            model = scenario.resolve_model()
            expected = {
                rep: public_fit(model, scenario, 400, 11, rep)
                for rep in range(config.replications)
            }
            got = dict(report.estimates[scenario.id])
            assert set(got) == {r for r, v in expected.items() if isinstance(v, float)}
            for rep, value in got.items():
                assert value == pytest.approx(expected[rep], abs=1e-12)

    def test_stacked_logistic_fails_as_each_fit_alone(self):
        # At n=12 many replications fail to converge or separate; the
        # stacked fit must keep each one's outcome and message.
        scenario = default_study_config().scenarios[5]
        assert scenario.estimand == "log_MOR"
        model = scenario.resolve_model()
        batch = study._replicate({model: [scenario]}, 12, 3, range(40))[scenario.id]
        failures = 0
        for rep, value, message in sorted(batch):
            expected = public_fit(model, scenario, 12, 3, rep)
            if isinstance(expected, FitError):
                failures += 1
                assert (value, message) == (None, str(expected))
            else:
                assert message is None
                assert value == pytest.approx(expected, abs=1e-12)
        assert 0 < failures < 40

    @pytest.mark.parametrize("scenario, n, failures", [
        # Ragged complete cases: one stacked QR per row count.
        (default_study_config().scenarios[9], 300, range(0, 1)),
        # B is all zeros in about 40% of replications: a rank-deficient design.
        (Scenario("collinear", "A ~ bernoulli(0.5)\nB ~ bernoulli(0.03)\n"
                  "Y ~ normal(A + B, 1)\n", DesignSpec("Y", ("A", "B")), "A",
                  true_value=1.0), 30, range(1, 40)),
        (Scenario("non_binary", "A ~ bernoulli(0.5)\nY ~ normal(A, 1)\n",
                  DesignSpec("Y", ("A",)), "A", "log_MOR", true_value=1.0),
         50, range(40, 41)),
        # Logistic fits on ragged complete cases: one IRLS stack per row count.
        (Scenario("logistic_complete_cases",
                  "L ~ normal(0, 1)\nA ~ bernoulli(plogis(L))\n"
                  "Y ~ bernoulli(plogis(A + L))\nC ~ bernoulli(plogis(1 + L))\n",
                  DesignSpec("Y", ("A", "L")), "A", "log_MOR", true_value=1.0,
                  require_ones=("C",)), 80, range(0, 1)),
    ], ids=["setup7", "collinear", "non_binary", "logistic_complete_cases"])
    def test_stacked_kernel_matches_public_fitters(self, scenario, n, failures):
        model = scenario.resolve_model()
        batch = study._replicate({model: [scenario]}, n, 4, range(40))[scenario.id]
        assert [rep for rep, _, _ in batch] == list(range(40))
        failed = 0
        for rep, value, message in batch:
            expected = public_fit(model, scenario, n, 4, rep)
            if isinstance(expected, FitError):
                failed += 1
                assert (value, message) == (None, str(expected))
            else:
                assert message is None
                assert value == pytest.approx(expected, abs=1e-12)
        assert failed in failures

    def test_workers_see_one_blas_thread(self):
        if not blas_threads():
            pytest.skip("no OpenBLAS loaded")
        before = blas_threads()
        seen = study._dispatch([(blas_threads, ())] * 2, workers=2)
        seen += study._dispatch([(blas_threads, ())], workers=1)
        for counts in seen:
            assert counts and set(counts.values()) == {1}
        assert blas_threads() == before

    def test_pool_workers_start_no_blas_thread(self, monkeypatch):
        # A worker that set its own BLAS count after the fork would start a
        # spinning OpenBLAS server thread per loaded library.
        if not Path("/proc/self/task").is_dir() or not blas_threads():
            pytest.skip("no /proc or no OpenBLAS loaded")
        monkeypatch.setattr(study.os, "cpu_count", lambda: 2)
        seen = study._dispatch([(_os_threads, ())] * 2, workers=2)
        assert seen == [1, 1]

    def test_blas_counts_come_back_when_a_pool_job_raises(self, monkeypatch):
        monkeypatch.setattr(study.os, "cpu_count", lambda: 2)
        before = blas_threads()
        with pytest.raises(ValueError, match="job failed"):
            study._dispatch([(_raise_value_error, ()), (abs, (-1,))], workers=2)
        assert blas_threads() == before

    def test_pool_never_exceeds_cores_or_jobs(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(study, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(study.os, "cpu_count", lambda: 4)
        # Twenty replications in four ranges of five: four jobs for four cores.
        config = small_config(("setup1", "setup2", "setup3"), replications=20, n=100)
        expected = run_study(config).as_dict()
        assert run_study(config, workers=500).as_dict() == expected
        assert study._dispatch([(abs, (-1,)), (abs, (-2,))], workers=3) == [1, 2]
        assert sizes == [4, 2]
