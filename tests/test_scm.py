import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import expit
from scipy.stats import ks_2samp

from causalreg import (
    ATE,
    LOG_MOR,
    Dataset,
    ModelParseError,
    SimulationError,
    dag_fixture,
    intervene,
    mdag_fixture,
    model_fixture,
    parse_expr,
    parse_model,
    simulate,
    simulate_block,
    true_effect,
)
from causalreg.fixtures import MODEL_FIXTURES
from causalreg.scm import Expr, NodeSpec, StructuralModel, Term


def gaussian_mean(f, mu, sd):
    """Quadrature oracle for E[f(X)], X ~ normal(mu, sd)."""
    density = lambda x: math.exp(-0.5 * ((x - mu) / sd) ** 2) / (
        sd * math.sqrt(2 * math.pi)
    )
    value, _ = integrate.quad(lambda x: f(x) * density(x), mu - 12 * sd, mu + 12 * sd,
                              limit=200)
    return value


class TestExprParsing:
    def test_linear_terms(self):
        e = parse_expr("2 + A + 3*L")
        assert e.variables() == {"A", "L"}
        assert not e.logistic
        assert e.render() == "2 + A + 3*L"

    def test_logistic_wrapper(self):
        e = parse_expr("plogis(-0.5 + 2*L)")
        assert e.logistic
        assert e.render() == "plogis(-0.5 + 2*L)"

    def test_square_term(self):
        e = parse_expr("2 + A + 0.5*L^2")
        cols = {"A": np.array([1.0]), "L": np.array([3.0])}
        assert e.evaluate(cols, 1)[0] == pytest.approx(2 + 1 + 0.5 * 9)

    def test_product_term(self):
        e = parse_expr("Y*A")
        cols = {"Y": np.array([2.0]), "A": np.array([3.0])}
        assert e.evaluate(cols, 1)[0] == pytest.approx(6.0)

    def test_unknown_function(self):
        with pytest.raises(ModelParseError, match="unknown function 'exp'"):
            parse_expr("exp(L)")

    def test_non_finite_coefficient(self):
        with pytest.raises(ModelParseError, match="non-finite"):
            parse_expr("1e999 + A")

    def test_syntax_error_with_location(self):
        with pytest.raises(ModelParseError, match="line 4"):
            parse_expr("2 + + A", line=4)

    def test_three_way_product_rejected(self):
        with pytest.raises(ModelParseError, match="at most two"):
            parse_expr("A*B*C")


_COEFS = st.one_of(
    st.sampled_from([1.0, -1.0, 1e300, -1e-300, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _exprs(names):
    """1-4 terms: constants, c*X, X*Y, c*X*Y, X^2 and c*X^2 over ``names``."""
    refs = st.lists(st.sampled_from(names), max_size=2) if names else st.just([])
    terms = st.builds(Term, _COEFS, refs.map(tuple))
    return st.builds(Expr, st.lists(terms, min_size=1, max_size=4).map(tuple),
                     st.booleans())


@st.composite
def _models(draw):
    specs = []
    for name in ("A", "L", "Y_1", "B2")[: draw(st.integers(1, 4))]:
        names = [spec.name for spec in specs]
        dist, arity = draw(st.sampled_from([("normal", 2), ("bernoulli", 1)]))
        params = tuple(draw(_exprs(names)) for _ in range(arity))
        specs.append(NodeSpec(name, dist, params))
    return StructuralModel(tuple(specs))


class TestGrammar:
    @given(_exprs(["A", "L", "Y_1"]))
    def test_expr_render_round_trip(self, expr):
        assert parse_expr(expr.render()) == expr

    @given(_models())
    def test_model_render_round_trip(self, model):
        assert parse_model(model.render()) == model

    @pytest.mark.parametrize("param, offset, message", [
        ("1e999", 0, "non-finite coefficient inf"),
        ("2 - 1e999*L", 4, "non-finite coefficient -inf"),
        ("$", 0, "unexpected character '$'"),
        ("L*3", 2, "write the coefficient before the node names"),
        ("(1)", 0, "expected a node name"),
        ("L * +", 4, "expected a node name"),
        ("A + ,", 4, "expected a node name"),
        ("A*L*L", 3, "terms multiply at most two node references"),
        ("L^3", 2, "only squares (^2) are supported"),
        ("exp(L)", 0, "unknown function 'exp'; only plogis is supported"),
        ("1 + plogis(L)", 4, "plogis may only wrap a whole parameter expression"),
        ("2*Q", 2, "'Y' references 'Q' before its declaration"),
        ("plogis(L", 9, "expected ')'"),
        ("1) L", 3, "trailing input after declaration"),
        ("1, 2", 4, "normal takes 2 argument(s), got 3"),
    ])
    def test_error_names_line_and_column(self, param, offset, message):
        head = "Y ~ normal(A, "
        text = f"A ~ bernoulli(0.5)\nL ~ normal(0, 1)\n{head}{param})\n"
        with pytest.raises(ModelParseError) as info:
            parse_model(text)
        assert str(info.value) == f"line 3, col {len(head) + offset + 1}: {message}"

    def test_operator_is_not_a_node_name(self):
        with pytest.raises(ModelParseError, match="expected a node name"):
            parse_expr("A * +")

    def test_plogis_may_name_a_node(self):
        assert parse_model("plogis ~ bernoulli(0.5)\n").node_names == ("plogis",)


class TestModelParsing:
    def test_setup1_three_nodes(self):
        m = model_fixture("setup1")
        assert m.node_names == ("L", "A", "Y")
        assert m.spec_for("A").dist == "bernoulli"
        assert m.spec_for("Y").params[0].render() == "2 + A + 3*L"

    def test_forward_reference(self):
        with pytest.raises(ModelParseError, match="references 'A' before"):
            parse_model("Y ~ normal(A, 1)\nA ~ bernoulli(0.5)\n")

    def test_setup2_squared_term(self):
        m = model_fixture("setup2")
        assert "L^2" in m.spec_for("Y").params[0].render()

    def test_unknown_distribution(self):
        with pytest.raises(ModelParseError, match="unknown distribution"):
            parse_model("X ~ poisson(1)\n")

    def test_wrong_arity(self):
        with pytest.raises(ModelParseError, match="normal takes 2"):
            parse_model("X ~ normal(0)\n")

    def test_duplicate_node(self):
        with pytest.raises(ModelParseError, match="duplicate node"):
            parse_model("X ~ normal(0, 1)\nX ~ normal(1, 1)\n")

    def test_render_round_trip(self):
        for name in ("setup1", "setup3", "setup5", "setup7"):
            m = model_fixture(name)
            assert parse_model(m.render()) == m

    @pytest.mark.parametrize(
        "model_name,dag_name",
        [
            ("setup1", "fig7a"),
            ("setup2", "fig7a"),
            ("setup3", "fig7b"),
            ("setup4", "fig7a"),
            ("setup4b", "fig7c"),
            ("setup5", "fig7c"),
            ("setup6", "fig7d"),
        ],
    )
    def test_induced_dags_match_figures(self, model_name, dag_name):
        assert model_fixture(model_name).induced_dag() == dag_fixture(dag_name)

    def test_setup7_induced_dag_matches_missingness_graph(self):
        assert model_fixture("setup7").induced_dag() == mdag_fixture("fig5").base


class TestSimulate:
    def test_degenerate_sd_gives_exact_zeros(self):
        m = parse_model("X ~ normal(0, 0)\n")
        data = simulate(m, 3, seed=5)
        assert np.array_equal(data.column("X"), np.zeros(3))

    def test_setup1_confounder_mean(self):
        data = simulate(model_fixture("setup1"), 1_000_000, seed=11)
        assert data.column("L").mean() == pytest.approx(1.0, abs=0.005)

    def test_symmetric_bernoulli_mean(self):
        m = parse_model("B ~ bernoulli(plogis(0))\n")
        data = simulate(m, 1_000_000, seed=3)
        assert data.column("B").mean() == pytest.approx(0.5, abs=0.002)

    def test_determinism(self):
        m = model_fixture("setup3")
        a = simulate(m, 500, seed=42, rep=7)
        b = simulate(m, 500, seed=42, rep=7)
        assert np.array_equal(a.data, b.data)

    def test_reps_differ(self):
        m = model_fixture("setup1")
        a = simulate(m, 500, seed=42, rep=1)
        b = simulate(m, 500, seed=42, rep=2)
        assert not np.array_equal(a.data, b.data)

    def test_declaration_order_permutation_invariance(self):
        m1 = parse_model("L ~ normal(1, 1)\nB ~ bernoulli(0.5)\nY ~ normal(L + B, 1)\n")
        m2 = parse_model("B ~ bernoulli(0.5)\nL ~ normal(1, 1)\nY ~ normal(L + B, 1)\n")
        d1 = simulate(m1, 1000, seed=9)
        d2 = simulate(m2, 1000, seed=9)
        for name in ("L", "B", "Y"):
            assert np.array_equal(d1.column(name), d2.column(name))

    def test_bernoulli_columns_are_binary(self):
        data = simulate(model_fixture("setup7"), 2000, seed=1)
        for name in ("A", "C_A", "C_L2", "C_Y"):
            assert set(np.unique(data.column(name))) <= {0.0, 1.0}

    def test_probability_out_of_range_names_node_and_row(self):
        m = parse_model("L ~ normal(1, 1)\nB ~ bernoulli(L)\n")
        with pytest.raises(SimulationError, match=r"'B'.*row \d+"):
            simulate(m, 1000, seed=2)

    def test_negative_sd_rejected(self):
        m = parse_model("L ~ normal(0, 1)\nX ~ normal(0, L)\n")
        with pytest.raises(SimulationError, match="invalid sd"):
            simulate(m, 100, seed=2)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            simulate(model_fixture("setup1"), 0, seed=1)

    def test_csv_round_trip(self):
        data = simulate(model_fixture("setup1"), 50, seed=8)
        back = Dataset.from_csv(data.to_csv())
        assert back.names == data.names
        assert np.array_equal(back.data, data.data)


class TestSimulateBlock:
    @pytest.mark.parametrize("name", sorted(MODEL_FIXTURES))
    @pytest.mark.parametrize("reps", [range(0, 1), range(1, 6), range(37, 41)],
                             ids=["rep0", "reps1-5", "reps37-40"])
    def test_rows_equal_simulate_bit_for_bit(self, name, reps):
        model = model_fixture(name)
        block = simulate_block(model, 120, 13, reps)
        assert tuple(block) == model.node_names
        for i, rep in enumerate(reps):
            data = simulate(model, 120, 13, rep=rep)
            for node, values in block.items():
                assert values.shape == (len(reps), 120)
                assert np.array_equal(values[i], data.column(node))

    def test_streams_keep_their_key(self):
        # Each node draws from SeedSequence((seed, 64-bit blake2b of its
        # name, rep)); a change of keying would change every study.
        import hashlib

        key = int.from_bytes(hashlib.blake2b(b"X", digest_size=8).digest(), "big")
        rng = np.random.default_rng(np.random.SeedSequence((5, key, 3)))
        block = simulate_block(parse_model("X ~ normal(0, 1)\n"), 50, 5, range(3, 4))
        assert np.array_equal(block["X"][0], rng.standard_normal(50))

    @pytest.mark.parametrize("seed", range(12))
    def test_range_error_is_the_lowest_failing_replication(self, seed):
        # B and D both fail in some replications.  With most of these seeds
        # D fails in a replication before B's first failure, and must win,
        # as it does when replications run one by one.
        model = parse_model(
            "L ~ normal(0, 1)\nB ~ bernoulli(0.3 + 0.1*L)\n"
            "M ~ normal(0, 1)\nD ~ normal(0, 0.25 + 0.1*M)\n"
        )
        expected = []
        for rep in range(3, 23):
            try:
                simulate(model, 60, seed, rep=rep)
            except SimulationError as exc:
                expected.append((rep, str(exc)))
        with pytest.raises(SimulationError) as info:
            simulate_block(model, 60, seed, range(3, 23))
        assert (info.value.rep, str(info.value)) == expected[0]

    def test_block_error_seen_alone_keeps_its_message(self):
        model = parse_model("L ~ normal(1, 1)\nB ~ bernoulli(L)\n")
        with pytest.raises(SimulationError) as info:
            simulate(model, 1000, seed=2)
        assert str(info.value).startswith("node 'B': probability outside [0, 1] at row ")
        assert info.value.rep == 0


class TestIntervene:
    def test_exposure_column_constant(self):
        m = intervene(model_fixture("setup1"), "A", 1.0)
        data = simulate(m, 200, seed=4)
        assert np.array_equal(data.column("A"), np.ones(200))
        assert m.spec_for("A").render() == "A ~ constant(1)"

    def test_setup6_mediator_law_unchanged(self):
        m = intervene(model_fixture("setup6"), "A", 0.0)
        assert m.spec_for("M").params[0].render() == "plogis(0.5 - 2*A)"
        data = simulate(m, 400_000, seed=21)
        assert data.column("M").mean() == pytest.approx(expit(0.5), abs=0.005)

    def test_second_intervention_on_a_node_rejected(self):
        once = intervene(model_fixture("setup1"), "A", 1.0)
        for second in (0.0, 0.5):  # 0.5 would also break A's 0/1 support
            with pytest.raises(ValueError, match="'A' already has an intervention"):
                intervene(once, "A", second)

    def test_unknown_node(self):
        with pytest.raises(ModelParseError, match="unknown node"):
            intervene(model_fixture("setup1"), "B", 1.0)

    def test_bernoulli_support_enforced(self):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            intervene(model_fixture("setup1"), "A", 0.5)

    def test_non_descendants_unchanged(self):
        m = model_fixture("setup1")
        base = simulate(m, 100_000, seed=33)
        arm = simulate(intervene(m, "A", 1.0), 100_000, seed=33)
        assert np.array_equal(base.column("L"), arm.column("L"))
        ks = ks_2samp(base.column("L"), arm.column("L"))
        assert ks.pvalue > 0.01
        # Descendant Y does shift.
        ks_y = ks_2samp(base.column("Y"), arm.column("Y"))
        assert ks_y.pvalue < 0.01


class TestTrueEffect:
    def test_setup1_ate_is_exactly_one(self):
        est = true_effect(model_fixture("setup1"), "A", "Y", ATE, 100_000, seed=1)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_setup4_ate_matches_analytic_two(self):
        est = true_effect(model_fixture("setup4"), "A", "Y", ATE, 400_000, seed=1)
        assert abs(est.value - 2.0) < 3 * est.mc_se

    def test_setup6_ate_matches_closed_form(self):
        closed_form = 1 + expit(-1.5) - expit(0.5)
        est = true_effect(model_fixture("setup6"), "A", "Y", ATE, 400_000, seed=1)
        assert abs(est.value - closed_form) < 3 * max(est.mc_se, 1e-12)

    def test_setup5_log_mor_matches_quadrature(self):
        p1 = gaussian_mean(lambda x: expit(1 + x), 1.0, 1.0)
        p0 = gaussian_mean(lambda x: expit(x), 1.0, 1.0)
        oracle = math.log(p1 / (1 - p1)) - math.log(p0 / (1 - p0))
        est = true_effect(model_fixture("setup5"), "A", "Y", LOG_MOR, 400_000, seed=1)
        assert abs(est.value - oracle) < 4 * est.mc_se

    def test_no_pathway_gives_zero(self):
        m = parse_model("A ~ bernoulli(0.5)\nY ~ normal(3, 1)\n")
        est = true_effect(m, "A", "Y", ATE, 100_000, seed=6)
        assert abs(est.value) <= 3 * max(est.mc_se, 1e-12)

    def test_non_bernoulli_exposure_rejected(self):
        with pytest.raises(ValueError, match="bernoulli"):
            true_effect(model_fixture("setup1"), "L", "Y", ATE, 100_000, seed=1)

    def test_degenerate_arm_rejected(self):
        m = parse_model("A ~ bernoulli(0.5)\nY ~ bernoulli(1)\n")
        with pytest.raises(ValueError, match="degenerate arm"):
            true_effect(m, "A", "Y", LOG_MOR, 100_000, seed=1)

    def test_log_mor_needs_binary_outcome(self):
        with pytest.raises(ValueError, match="binary"):
            true_effect(model_fixture("setup1"), "A", "Y", LOG_MOR, 100_000, seed=1)

    def test_small_oracle_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            true_effect(model_fixture("setup1"), "A", "Y", ATE, 10_000, seed=1)
