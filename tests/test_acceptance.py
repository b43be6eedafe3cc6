"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on the terminal.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest
from scipy import integrate
from scipy.special import expit

from causalreg import (
    CausalQuery,
    Dataset,
    DesignSpec,
    classify_mechanism,
    classify_roles,
    complete_case_valid,
    d_separated,
    d_separated_by_enumeration,
    dag_fixture,
    default_study_config,
    enumerate_adjustment_sets,
    implied_independencies,
    logistic_fit,
    mdag_fixture,
    model_fixture,
    noncompliance_estimands,
    ols_fit,
    parse_mdag,
    run_study,
    table_fixture,
    true_effect,
)
from causalreg.estimators import design_matrix
from causalreg.fixtures import MDAG_FIXTURES
from causalreg.graph import all_paths, path_blocked
from causalreg.tables import effect_measure

from conftest import random_dag

STUDY_SEED = 7
STUDY_R = 1000
STUDY_N = 1000


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number} ({description}): PASS", flush=True)


@pytest.fixture(scope="module")
def desk_scale_report():
    config = default_study_config(
        replications=STUDY_R, sample_size=STUDY_N, seed=STUDY_SEED,
        oracle_n=1_000_000,
    )
    started = time.time()
    report = run_study(config, workers=2)
    elapsed = time.time() - started
    assert elapsed < 600, f"desk-scale study took {elapsed:.0f}s"
    return report


def test_criterion_1_table1_reproduction():
    with criterion(1, "stratified-table reproduction"):
        table = table_fixture("table1")
        from causalreg.tables import risk

        tol = 1e-9
        assert abs(risk(table, "L=1", 1) - 0.80) < tol
        assert abs(risk(table, "L=1", 0) - 0.60) < tol
        assert abs(risk(table, "L=0", 1) - 0.40) < tol
        assert abs(risk(table, "L=0", 0) - 0.20) < tol

        rd = effect_measure(table, "risk_difference")
        assert all(abs(v - 0.2) < tol for v in rd.stratum_values)
        assert abs(rd.marginal_value - 0.2) < tol
        assert rd.strictly_collapsible and rd.collapsible

        rr = effect_measure(table, "risk_ratio")
        assert abs(rr.stratum_values[0] - 4 / 3) < tol
        assert abs(rr.stratum_values[1] - 2.0) < tol
        assert [f"{v:.2f}" for v in rr.stratum_values] == ["1.33", "2.00"]
        assert abs(rr.marginal_value - 1.5) < tol
        assert rr.collapsible and not rr.strictly_collapsible

        orr = effect_measure(table, "odds_ratio")
        assert all(abs(v - 8 / 3) < tol for v in orr.stratum_values)
        assert [f"{v:.2f}" for v in orr.stratum_values] == ["2.67", "2.67"]
        assert abs(orr.marginal_value - 2.25) < tol
        assert not orr.collapsible and not orr.strictly_collapsible


def _query(name, exposure="A", outcome="Y", unmeasured=None, conditioned=()):
    dag = dag_fixture(name)
    if unmeasured is None:
        unmeasured = {n for n in dag.nodes if n.startswith("U")}
    measured = frozenset(dag.nodes) - frozenset(unmeasured) - frozenset(conditioned)
    return CausalQuery(dag, exposure, outcome, measured, frozenset(conditioned))


def test_criterion_2_graph_fixture_suite():
    with criterion(2, "bundled graph fixtures match expected verdicts"):
        def minimal(name, **kw):
            return [
                tuple(sorted(s))
                for s in enumerate_adjustment_sets(_query(name, **kw), minimal_only=True)
            ]

        # fig1 family: confounding triangle, common effect, double confounder.
        assert minimal("fig1a") == [("L",)]
        assert minimal("fig1b") == [()]
        assert classify_roles(_query("fig1b"))["L"].collider_on_ay_path
        assert minimal("fig1c") == [("L1", "L2")]

        # fig2 family: measured/unmeasured confounding and randomization.
        assert minimal("fig2a") == [("L",)]
        assert minimal("fig2b") == []
        assert minimal("fig2c") == [()]

        # fig3: the square term is itself a confounder.
        assert minimal("fig3") == [("L", "Lsq")]

        # fig4 family: colliders and selection.
        assert minimal("fig4a") == [()]
        fig4 = dag_fixture("fig4a")
        assert d_separated(fig4, {"A"}, {"Y"}, set())
        assert not d_separated(fig4, {"A"}, {"Y"}, {"L"})
        fig4c = dag_fixture("fig4c")
        assert not d_separated(fig4c, {"A"}, {"Y"}, {"C"})
        roles4c = classify_roles(_query("fig4c", conditioned={"C"}))
        assert roles4c["C"].collider_on_ay_path
        roles4d = classify_roles(_query("fig4d"))
        assert roles4d["L2"].collider_on_ay_path
        assert roles4d["L2"].mediator
        assert minimal("fig4d") == [("L1",)]

        # fig6 family: mediators and their relatives.
        roles6a = classify_roles(_query("fig6a"))
        assert roles6a["M"].mediator
        assert not roles6a["M"].in_some_valid_adjustment_set
        assert minimal("fig6b") == [("L",)]
        roles6c = classify_roles(_query("fig6c"))
        assert roles6c["L"].descendant_of_mediator
        assert minimal("fig6c") == [()]
        sets6d = enumerate_adjustment_sets(_query("fig6d"))
        assert frozenset() in sets6d and frozenset({"L"}) in sets6d

        # fig7 family: generator graphs equal the induced model graphs.
        for model_name, fig in (
            ("setup1", "fig7a"), ("setup2", "fig7a"), ("setup3", "fig7b"),
            ("setup4", "fig7a"), ("setup4b", "fig7c"), ("setup5", "fig7c"),
            ("setup6", "fig7d"),
        ):
            assert model_fixture(model_name).induced_dag() == dag_fixture(fig)

        # fig8 family: selection designs.
        assert minimal("fig8a", conditioned={"S"}) == [("L2",)]
        assert minimal("fig8b", conditioned={"S"}) == [("L2",)]
        assert minimal("fig8c", conditioned={"S"}) == [("L1",), ("L2",)]
        assert minimal("fig8d", conditioned={"S1", "S2"}) == [("L2",)]

        # fig9 family: measurement-error proxies as ordinary nodes.
        assert minimal("fig9a") == [()]
        roles9b = classify_roles(_query("fig9b"))
        assert roles9b["Astar"].collider_on_ay_path
        assert minimal("fig9b") == [()]
        assert minimal("fig9c", unmeasured={"L"}) == []
        assert minimal("fig9d", unmeasured={"L"}) == [("Lstar",)]


def test_criterion_3_dsep_oracle_equivalence():
    with criterion(3, "d-separation equals path-enumeration oracle"):
        started = time.time()
        rng = random.Random(20250808)
        graphs = 0
        queries = 0
        for n_nodes, count in ((3, 150), (4, 250), (5, 300), (6, 300)):
            for _ in range(count):
                dag = random_dag(rng, n_nodes, edge_prob=rng.choice((0.3, 0.5, 0.7)))
                graphs += 1
                nodes = list(dag.nodes)
                for x, y in combinations(nodes, 2):
                    paths = all_paths(dag, x, y)
                    rest = [v for v in nodes if v not in (x, y)]
                    for size in range(len(rest) + 1):
                        for z in combinations(rest, size):
                            zs = frozenset(z)
                            oracle = all(path_blocked(dag, p, zs) for p in paths)
                            assert d_separated(dag, {x}, {y}, zs) == oracle
                            queries += 1
                # A few set-valued queries per graph exercise the same
                # agreement beyond singleton endpoints.
                if n_nodes >= 4:
                    for _ in range(3):
                        pool = nodes[:]
                        rng.shuffle(pool)
                        xs = frozenset(pool[:2])
                        ys = frozenset(pool[2:3])
                        zs = frozenset(pool[3 : 3 + rng.randint(0, n_nodes - 3)])
                        assert d_separated(dag, xs, ys, zs) == (
                            d_separated_by_enumeration(dag, xs, ys, zs)
                        )
                        queries += 1
        elapsed = time.time() - started
        assert graphs >= 1000
        assert queries > 50_000
        assert elapsed < 60, f"oracle equivalence sweep took {elapsed:.0f}s"


def test_criterion_4_missingness_suite():
    with criterion(4, "missingness graph classification and recoverability"):
        m = mdag_fixture("fig5")
        verdict = classify_mechanism(m)
        assert verdict.label == "G-MNAR"
        assert "L2 -> C_A" in verdict.witnesses

        statements = {s.indicator: s for s in implied_independencies(m)}
        assert statements["C_L2"].independent_of == ("L2", "Y")
        assert statements["C_L2"].given == ("A", "L1")
        assert statements["C_A"].independent_of == ("A", "Y")
        assert statements["C_A"].given == ("L1", "L2")
        assert statements["C_Y"].independent_of == ("Y",)
        assert statements["C_Y"].given == ("A", "L1", "L2")

        assert complete_case_valid(m, "A", "Y", {"L1", "L2"}) is True

        augmented = parse_mdag(MDAG_FIXTURES["fig5"] + "Y -> C_Y\n")
        assert complete_case_valid(augmented, "A", "Y", {"L1", "L2"}) is False


def _omitted_interaction_limit() -> float:
    """Quadrature oracle for the limit of the treatment coefficient when
    the generating law is 2 + A + 3L + AL with A ~ bern(plogis(-0.5 + 2L)),
    L ~ normal(1, 1), but the fitted model omits the interaction.

    Solves the population normal equations of the projection onto
    (1, A, L); shared randomness plays no role in this limit.
    """
    density = lambda x: math.exp(-0.5 * (x - 1) ** 2) / math.sqrt(2 * math.pi)
    moment = lambda f: integrate.quad(
        lambda x: f(x) * density(x), -12, 14, limit=200
    )[0]
    p = lambda x: expit(-0.5 + 2 * x)
    m_p = moment(p)
    m_pl = moment(lambda x: x * p(x))
    m_pl2 = moment(lambda x: x * x * p(x))
    design_moments = np.array(
        [[1.0, m_p, 1.0], [m_p, m_p, m_pl], [1.0, m_pl, 2.0]]
    )
    # E[Y], E[YA], E[YL] for Y = 2 + A + 3L + AL.
    response = np.array(
        [
            2 + m_p + 3 + m_pl,
            2 * m_p + m_p + 3 * m_pl + m_pl,
            2 + m_pl + 6 + m_pl2,
        ]
    )
    return float(np.linalg.solve(design_moments, response)[1])


# Population limit of the setup-4 treatment coefficient under the
# omitted-interaction fit, frozen from the quadrature oracle above.
SETUP4_COEF_LIMIT = 1.4155083


def test_criterion_5_bias_panel_desk_scale(desk_scale_report):
    with criterion(5, "ten-scenario bias panel at desk scale"):
        report = desk_scale_report
        unbiased = ("setup1", "setup4b", "setup5_crude", "setup6_crude", "setup7")
        biased = ("setup2", "setup3", "setup4", "setup5_conditional",
                  "setup6_conditional")
        for sid in unbiased:
            entry = report.result(sid)
            assert abs(entry.bias) < 5 * entry.mc_se, (sid, entry.bias, entry.mc_se)
            assert abs(entry.bias) < 0.05, (sid, entry.bias)
        for sid in biased:
            entry = report.result(sid)
            assert abs(entry.bias) > 5 * entry.mc_se, (sid, entry.bias, entry.mc_se)

        # Directions follow the qualitative bias pattern.
        assert report.result("setup2").bias < 0
        assert report.result("setup3").bias < 0
        assert report.result("setup4").bias < 0
        assert report.result("setup5_conditional").bias > 0.1
        assert report.result("setup6_conditional").bias > 0

        # Derived magnitudes: the mediation scenario tracks the closed-form
        # gap, the omitted-interaction scenario tracks the projection limit.
        entry6 = report.result("setup6_conditional")
        gap6 = 1.0 - (1.0 + expit(-1.5) - expit(0.5))
        assert abs(entry6.bias - gap6) < 5 * entry6.mc_se

        oracle_limit = _omitted_interaction_limit()
        assert abs(oracle_limit - SETUP4_COEF_LIMIT) < 1e-6
        entry4 = report.result("setup4")
        assert abs(entry4.bias - (SETUP4_COEF_LIMIT - 2.0)) < 5 * entry4.mc_se

        # Every scenario ran all replications without failures.
        for entry in report.results:
            assert entry.replications == STUDY_R
            assert entry.failures == 0


def test_criterion_6_true_effect_oracles():
    with criterion(6, "true-effect oracles"):
        est1 = true_effect(model_fixture("setup1"), "A", "Y", "ATE", 1_000_000, seed=1)
        assert est1.value == pytest.approx(1.0, abs=1e-12)

        for name in ("setup4", "setup4b"):
            est = true_effect(model_fixture(name), "A", "Y", "ATE", 1_000_000, seed=1)
            assert abs(est.value - 2.0) <= 3 * est.mc_se, (name, est)

        closed6 = 1.0 + float(expit(-1.5)) - float(expit(0.5))
        assert f"{closed6:.4f}" == "0.5600"
        est6 = true_effect(model_fixture("setup6"), "A", "Y", "ATE", 1_000_000, seed=1)
        assert abs(est6.value - closed6) <= 3 * est6.mc_se

        a = true_effect(model_fixture("setup5"), "A", "Y", "log_MOR", 1_000_000, seed=1)
        b = true_effect(model_fixture("setup5"), "A", "Y", "log_MOR", 1_000_000, seed=2)
        combined = math.hypot(a.mc_se, b.mc_se)
        assert abs(a.value - b.value) <= 3 * combined, (a, b)


def test_criterion_7_estimator_correctness():
    with criterion(7, "estimator correctness"):
        line = Dataset(("x", "y"), np.array([[0.0, 1.0], [1.0, 3.0], [2.0, 5.0]]))
        fit = ols_fit(line, DesignSpec("y", ("x",)))
        assert abs(fit.coefficients[0] - 1.0) < 1e-10
        assert abs(fit.coefficients[1] - 2.0) < 1e-10

        rng = np.random.default_rng(1234)
        n = 100
        L = rng.normal(0, 1, n)
        A = rng.binomial(1, 0.5, n).astype(float)
        y = rng.binomial(1, expit(-0.3 + 0.8 * A + 0.5 * L)).astype(float)
        data = Dataset(("A", "L", "Y"), np.column_stack([A, L, y]))
        spec = DesignSpec("Y", ("A", "L"))
        irls = logistic_fit(data, spec)
        X, yy = design_matrix(data, spec)

        lipschitz = 0.25 * np.linalg.eigvalsh(X.T @ X / n).max()
        beta = np.zeros(X.shape[1])
        for _ in range(500_000):
            grad = X.T @ (yy - expit(X @ beta)) / n
            beta = beta + grad / lipschitz
            if np.max(np.abs(grad)) < 1e-10:
                break
        assert np.max(np.abs(np.asarray(irls.coefficients) - beta)) < 1e-6

        score = X.T @ (yy - expit(X @ np.asarray(irls.coefficients)))
        assert np.max(np.abs(score)) < 1e-6

        hand = Dataset(
            ("A_assigned", "A_taken", "Y"),
            np.array(
                [
                    [1, 1, 1], [1, 1, 1], [1, 1, 0], [1, 0, 1],
                    [0, 0, 0], [0, 0, 1], [0, 1, 1], [0, 0, 0],
                ],
                dtype=float,
            ),
        )
        est = noncompliance_estimands(hand)
        assert est.itt == 0.25
        assert est.as_treated == 0.25
        assert est.per_protocol == pytest.approx(1 / 3, abs=1e-15)
        assert est.cace == pytest.approx(1 / 3, abs=1e-15)


def test_criterion_8_study_determinism_across_workers():
    with criterion(8, "study determinism across worker counts"):
        config = default_study_config(
            replications=60, sample_size=300, seed=STUDY_SEED, oracle_n=100_000
        )
        doc1 = json.dumps(run_study(config, workers=1).as_dict(), sort_keys=True)
        doc2 = json.dumps(run_study(config, workers=2).as_dict(), sort_keys=True)
        doc3 = json.dumps(run_study(config, workers=3).as_dict(), sort_keys=True)
        assert doc1 == doc2 == doc3
