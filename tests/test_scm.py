import csv
import hashlib
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
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
    parse_model,
    simulate,
    simulate_block,
    true_effect,
)
from causalreg import scm
from causalreg.fixtures import MODEL_FIXTURES
from causalreg.scm import MAX_BLOCK_BYTES, Expr, NodeSpec, StructuralModel, Term


def gaussian_mean(f, mu, sd):
    """Quadrature oracle for E[f(X)], X ~ normal(mu, sd)."""
    density = lambda x: math.exp(-0.5 * ((x - mu) / sd) ** 2) / (
        sd * math.sqrt(2 * math.pi)
    )
    value, _ = integrate.quad(lambda x: f(x) * density(x), mu - 12 * sd, mu + 12 * sd,
                              limit=200)
    return value


def _param(text):
    """The parameter ``text`` as ``parse_model`` reads it: the mean of a node
    declared after A, B, C, L and Y, so it names line 6."""
    head = "".join(f"{name} ~ normal(0, 1)\n" for name in "ABCLY")
    return parse_model(f"{head}X ~ normal({text}, 1)\n").spec_for("X").params[0]


class TestExprParsing:
    def test_linear_terms(self):
        e = _param("2 + A + 3*L")
        assert e.variables() == {"A", "L"}
        assert e == Expr((Term(2.0), Term(1.0, ("A",)), Term(3.0, ("L",))))

    def test_logistic_wrapper(self):
        e = _param("plogis(-0.5 + 2*L)")
        assert e == Expr((Term(-0.5), Term(2.0, ("L",))), logistic=True)

    def test_square_term(self):
        e = _param("2 + A + 0.5*L^2")
        cols = {"A": np.array([1.0]), "L": np.array([3.0])}
        assert e.evaluate(cols)[0] == pytest.approx(2 + 1 + 0.5 * 9)

    def test_product_term(self):
        e = _param("Y*A")
        cols = {"Y": np.array([2.0]), "A": np.array([3.0])}
        assert e.evaluate(cols)[0] == pytest.approx(6.0)

    @pytest.mark.parametrize("text, coef", [
        ("5e-324*A", 5e-324), ("-1e-300*A", -1e-300), ("1e+300*A", 1e300), ("-7*A", -7.0),
    ])
    def test_coefficient_is_read_bit_for_bit(self, text, coef):
        (term,) = _param(text).terms
        assert term == Term(coef, ("A",))
        assert term.coef.hex() == coef.hex()

    def test_unknown_function(self):
        with pytest.raises(ModelParseError, match="unknown function 'exp'"):
            _param("exp(L)")

    def test_non_finite_coefficient(self):
        with pytest.raises(ModelParseError, match="non-finite"):
            _param("1e999 + A")

    def test_syntax_error_with_location(self):
        with pytest.raises(ModelParseError, match="line 6"):
            _param("2 + + A")

    def test_three_way_product_rejected(self):
        with pytest.raises(ModelParseError, match="at most two"):
            _param("A*B*C")


class TestExprValues:
    def test_constant_parameter_is_a_scalar(self):
        value = _param("plogis(-0.5 + 2)").evaluate({})
        assert np.ndim(value) == 0
        assert value == expit(np.zeros(1) - 0.5 + 2)[0]

    def test_constant_column_keeps_the_value_a_scalar(self):
        value = _param("2 + 3*A").evaluate({"A": np.float64(1.0)})
        assert np.ndim(value) == 0 and value == 5.0

    def test_value_takes_the_broadcast_shape_of_its_columns(self):
        cols = {"A": np.array([[1.0], [0.0]]), "L": np.arange(3.0)[None, :]}
        value = _param("1 + A + 2*L - A*L").evaluate(cols)
        assert np.array_equal(value, [[2.0, 3.0, 4.0], [1.0, 3.0, 5.0]])

    def test_sum_starts_from_positive_zero(self):
        # A sum over np.zeros(shape) turns a leading -0.0 into 0.0.
        value = _param("A*L").evaluate({"A": np.zeros(2), "L": -np.ones(2)})
        assert np.array_equal(np.copysign(1.0, value), [1.0, 1.0])


_NODES = ("A", "L", "Y_1", "B2")
_COEFS = st.one_of(
    st.sampled_from([1e300, -1e-300, 5e-324]),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _param_texts(draw, names):
    """1-4 terms over ``names``: constants, c*X, X*Y and X^2, each
    coefficient written as its ``repr``, optionally inside plogis."""
    kinds = ["c", "c*X", "X*Y", "X^2"] if names else ["c"]
    parts = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        if kind == "c":
            part = repr(draw(_COEFS))
        elif kind == "c*X":
            part = f"{draw(_COEFS)!r}*{draw(st.sampled_from(names))}"
        else:
            x, y = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2))
            part = ("-" if draw(st.booleans()) else "") + (f"{x}*{y}" if kind == "X*Y" else f"{x}^2")
        if parts:
            part = f"- {part[1:]}" if part.startswith("-") else f"+ {part}"
        parts.append(part)
    text = " ".join(parts)
    return f"plogis({text})" if draw(st.booleans()) else text


@st.composite
def _model_texts(draw):
    """Model text over the first 1-4 of ``_NODES``: (text, each law's
    name, distribution and parameter texts)."""
    lines, laws = [], []
    names = _NODES[: draw(st.integers(1, 4))]
    for i, name in enumerate(names):
        dist, arity = draw(st.sampled_from([("normal", 2), ("bernoulli", 1)]))
        texts = [draw(_param_texts(names[:i])) for _ in range(arity)]
        lines.append(f"{name} ~ {dist}({', '.join(texts)})\n")
        laws.append((name, dist, texts))
    return "".join(lines), laws


def _assert_reads_as_python(model, laws, seed):
    """``model`` declares ``laws`` in order, and every parameter evaluates on
    random columns as Python evaluates its text (``^2`` as ``**2``,
    ``plogis`` as ``expit``)."""
    assert [(spec.name, spec.dist) for spec in model.specs] == [law[:2] for law in laws]
    rng = np.random.default_rng(seed)
    columns = {name: rng.standard_normal(8) for name in model.node_names}
    with np.errstate(all="ignore"):
        for spec, (_, _, texts) in zip(model.specs, laws, strict=True):
            for param, param_text in zip(spec.params, texts, strict=True):
                python_text = param_text.replace("^2", "**2").replace("plogis", "expit")
                expected = eval(python_text, {"expit": expit}, dict(columns))
                np.testing.assert_allclose(
                    np.broadcast_to(param.evaluate(columns), (8,)),
                    np.broadcast_to(expected, (8,)), rtol=1e-12, equal_nan=True,
                )


class TestGrammar:
    @given(_param_texts(_NODES[:3]), st.integers(0, 2**32 - 1))
    def test_expr_render_round_trip(self, text, seed):
        """One parameter's text, read back through ``parse_model``, is the
        expression Python reads in it."""
        laws = [(name, "normal", ["0", "1"]) for name in _NODES[:3]]
        laws.append(("X", "normal", [text, "1"]))
        model_text = "".join(f"{n} ~ {d}({', '.join(p)})\n" for n, d, p in laws)
        _assert_reads_as_python(parse_model(model_text), laws, seed)

    @given(_model_texts(), st.integers(0, 2**32 - 1))
    def test_model_render_round_trip(self, model_text, seed):
        """Model text read back through ``parse_model`` declares the laws it
        was written from, each parameter as Python reads it."""
        text, laws = model_text
        _assert_reads_as_python(parse_model(text), laws, seed)

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
            _param("A * +")

    def test_plogis_may_name_a_node(self):
        assert parse_model("plogis ~ bernoulli(0.5)\n").node_names == ("plogis",)


class TestModelParsing:
    def test_setup1_three_nodes(self):
        m = model_fixture("setup1")
        assert m.node_names == ("L", "A", "Y")
        assert m.spec_for("A").dist == "bernoulli"
        assert m.spec_for("Y").params[0] == Expr(
            (Term(2.0), Term(1.0, ("A",)), Term(3.0, ("L",)))
        )

    def test_forward_reference(self):
        with pytest.raises(ModelParseError, match="references 'A' before"):
            parse_model("Y ~ normal(A, 1)\nA ~ bernoulli(0.5)\n")

    def test_setup2_squared_term(self):
        m = model_fixture("setup2")
        assert Term(0.5, ("L", "L")) in m.spec_for("Y").params[0].terms

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
        """The fixtures' text, read back through ``parse_model``, declares the
        laws written in it, each parameter as Python reads it."""
        for name in ("setup1", "setup3", "setup5", "setup7"):
            laws = []
            for line in MODEL_FIXTURES[name].splitlines():
                node, dist, args = re.fullmatch(r"(\w+) ~ (\w+)\((.*)\)", line).groups()
                laws.append((node, dist, args.split(", ")))
            _assert_reads_as_python(model_fixture(name), laws, seed=0)

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
        out = io.StringIO()
        data.write_csv(out)
        back = Dataset.from_csv(out.getvalue())
        assert back.names == data.names
        assert np.array_equal(back.data, data.data)

    @pytest.mark.parametrize("rows", [0, 1, 6, 7])
    def test_csv_blocks_write_what_csv_writer_writes(self, monkeypatch, rows):
        monkeypatch.setattr(scm, "_CSV_BLOCK_ROWS", 3)
        values = np.array([[-0.0, 1e-300, math.inf], [math.nan, 2.5, -1e17]] * 4)
        data = Dataset(("a", "b c", "d,e"), values[:rows])
        buf, out = io.StringIO(), io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(data.names)
        writer.writerows([repr(float(v)) for v in row] for row in data.data)
        data.write_csv(out)
        assert out.getvalue() == buf.getvalue()


class TestDatasetLayout:
    """A dataset's array is column-major, with the values, shape and CSV
    text of the row-major array it replaced."""

    @pytest.mark.parametrize("name", sorted(MODEL_FIXTURES))
    def test_from_columns_equals_column_stack(self, name):
        # simulate fills its dataset's array in place: it is the column
        # stack of simulate_block's columns, column-major.
        model = model_fixture(name)
        data = simulate(model, 300, 4, rep=2)
        block = simulate_block(model, 300, 4, range(2, 3))
        stacked = np.column_stack([col[0] for col in block.values()])
        assert data.names == tuple(block)
        assert data.data.dtype == stacked.dtype
        assert data.data.tobytes() == stacked.tobytes()
        assert data.data.flags.f_contiguous
        for node in data.names:
            assert data.column(node).flags.c_contiguous

    def test_csv_bytes_are_those_of_the_row_major_array(self):
        data = simulate(model_fixture("setup7"), 2500, seed=5)
        buf, out = io.StringIO(), io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(data.names)
        writer.writerows([repr(v) for v in row]
                         for row in np.ascontiguousarray(data.data).tolist())
        data.write_csv(out)
        assert out.getvalue() == buf.getvalue()
        assert Dataset.from_csv(out.getvalue()).data.flags.f_contiguous

    def test_row_major_array_is_accepted(self):
        values = np.arange(12.0).reshape(4, 3)
        data = Dataset(("a", "b", "c"), values)
        assert np.array_equal(data.data, values)
        assert not data.data.flags.writeable
        assert data.column("b").flags.c_contiguous
        assert data.column("b").tolist() == [1.0, 4.0, 7.0, 10.0]


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

    @pytest.mark.parametrize("text, message", [
        ("X ~ bernoulli(2)\n", "node 'X': probability outside [0, 1] at row 0"),
        ("X ~ normal(0, -1)\n", "node 'X': invalid sd at row 0"),
        ("L ~ normal(0, 1)\nX ~ normal(L, 1)\nZ ~ bernoulli(-1)\n",
         "node 'Z': probability outside [0, 1] at row 0"),
    ], ids=["bernoulli", "normal_sd", "after_drawn_nodes"])
    def test_bad_constant_fails_at_row_0_of_the_lowest_replication(self, text, message):
        with pytest.raises(SimulationError) as info:
            simulate_block(parse_model(text), 10, 0, range(2, 7))
        assert (str(info.value), info.value.rep) == (message, 2)

    def test_constant_columns_are_full_blocks(self):
        model = intervene(model_fixture("setup1"), "A", 1.0)
        block = simulate_block(model, 7, 3, range(4, 6))
        assert block["A"].shape == (2, 7) and np.all(block["A"] == 1.0)
        assert all(col.shape == (2, 7) for col in block.values())

    def test_block_over_the_budget_is_refused_before_drawing(self):
        n = MAX_BLOCK_BYTES // 8 // 3 + 1  # setup1 has 3 nodes
        with pytest.raises(ValueError, match=f"^n {n}: {n} rows of 3 nodes need"):
            simulate(model_fixture("setup1"), n, seed=1)
        with pytest.raises(ValueError, match="above the simulation budget"):
            simulate_block(model_fixture("setup1"), n // 2 + 1, 1, range(2))

    def test_block_error_seen_alone_keeps_its_message(self):
        model = parse_model("L ~ normal(1, 1)\nB ~ bernoulli(L)\n")
        with pytest.raises(SimulationError) as info:
            simulate(model, 1000, seed=2)
        assert str(info.value).startswith("node 'B': probability outside [0, 1] at row ")
        assert info.value.rep == 0


def _block_rows(monkeypatch, block, n):
    """Sweep in blocks of ``block`` rows, or of all ``n`` rows for None."""
    monkeypatch.setattr(scm, "ROW_BLOCK", n if block is None else block)


def _first_bad_rows(n, seed, reps, prob_coef, sd_offset):
    """Per replication, the first row where ``0.5 + prob_coef*L`` leaves
    [0, 1] and the first where ``sd_offset + L`` is negative (None when there
    is none), for L ~ normal(0, 1)."""
    L = simulate_block(parse_model("L ~ normal(0, 1)\n"), n, seed, reps)["L"]
    rows = []
    for prob, sd in zip(0.5 + prob_coef * L, sd_offset + L):
        bad = ~((prob >= 0) & (prob <= 1)), sd < 0
        rows.append(tuple(int(np.argmax(b)) if b.any() else None for b in bad))
    return rows


# md5 of simulate(model, 49_159, seed=7, rep=1).data.tobytes(): three blocks
# of the 2**14-row ROW_BLOCK and 7 rows, recorded when the sweep held every
# node whole.
_BLOCKS_MD5 = [
    ("setup1", "17556c60ddb2346a6bc28adb7bd8c80a"),
    ("setup2", "b5d9f83fca4faf1259c300485f251eb4"),
    ("setup3", "3a65ef35691e5c01cedded954ed43c1f"),
    ("setup4", "d2bdc6b55c0c6f8fed45d019d2b822e4"),
    ("setup4b", "359572555c6cc271bf370302deb167cf"),
    ("setup5", "16bc60401ae55d57be775a39655a2a0e"),
    ("setup6", "78999316174c2bf40bddace6866e288c"),
    ("setup7", "f8ddfb156e1a3fed8628c7c29c62100d"),
]

# Replication lanes: B fails where |L| > 2.5, D where L < -2.  At seed 16,
# replications 3-5 never fail in 40 rows; replication 6 fails first at D
# (row 1) but first in node order at B (row 18).  At n = 19, row 18 is in
# the last block at ROW_BLOCK 1 and 7.
_LANES_MODEL = "L ~ normal(0, 1)\nB ~ bernoulli(0.5 + 0.2*L)\nD ~ normal(0, 2 + L)\n"
# Arm lanes: only arm 1 (A = 1) or only arm 0 leaves the range, at B where
# |L| > 2.5 and at D where L < -0.5.  At seed 1, D fails first at row 0 and
# B at row 17, the last row at n = 18.
_ARM_MODELS = {
    "arm_1": "A ~ bernoulli(0.5)\nL ~ normal(0, 1)\nB ~ bernoulli(0.5 + 0.2*A*L)\n"
             "D ~ normal(0, 0.5 + A*L)\nY ~ normal(B + D, 1)\n",
    "arm_0": "A ~ bernoulli(0.5)\nL ~ normal(0, 1)\n"
             "B ~ bernoulli(0.5 + 0.2*L - 0.2*A*L)\nD ~ normal(0, 0.5 + L - A*L)\n"
             "Y ~ normal(B + D, 1)\n",
}


class TestRowBlocks:
    """The sweep walks rows in blocks of ``scm.ROW_BLOCK``; blocks of 1, 7
    or all n rows give the same bytes and the same errors."""

    @pytest.mark.parametrize("block", [1, 7, None], ids=["1", "7", "n"])
    def test_simulate_and_blocks_give_the_same_bytes(self, monkeypatch, block):
        n, reps = 60, range(2, 5)
        models = [model_fixture(name) for name in sorted(MODEL_FIXTURES)]

        def run():
            shared: dict = {}
            sims = [simulate(m, n, 3, rep=4).data.tobytes() for m in models]
            blocks = [{k: v.tobytes() for k, v in simulate_block(m, n, 3, reps).items()}
                      for m in models]
            # setup1 and setup2 share the substreams of L, A and Y.
            read = [{k: v.tobytes() for k, v in simulate_block(
                model_fixture(name), n, 3, reps, shared).items()}
                for name in ("setup1", "setup2")]
            return sims, blocks, read, {k: v.tobytes() for k, v in shared.items()}

        whole = run()
        _block_rows(monkeypatch, block, n)
        assert run() == whole

    @pytest.mark.parametrize("block", [1, 7, None], ids=["1", "7", "n"])
    def test_oracle_gives_the_same_bytes(self, monkeypatch, block):
        n = 300
        monkeypatch.setattr(scm, "ORACLE_MIN_N", n)
        cases = [("setup5", ATE), ("setup5", LOG_MOR), ("setup6", ATE), ("setup4", ATE)]

        def run():
            return [(e.value.hex(), e.mc_se.hex()) for e in (
                true_effect(model_fixture(name), "A", "Y", estimand, n, 5)
                for name, estimand in cases)]

        whole = run()
        _block_rows(monkeypatch, block, n)
        assert run() == whole

    @pytest.mark.parametrize("block", [1, 7, None], ids=["1", "7", "n"])
    @pytest.mark.parametrize("n", [19, 40])
    def test_first_node_wins_over_a_later_node_of_an_earlier_block(
            self, monkeypatch, n, block):
        seed, reps = 16, range(3, 13)
        rows = _first_bad_rows(n, seed, reps, 0.2, 2.0)
        assert rows[:4] == [(None, None)] * 3 + [(18, 1)]
        expected = ("node 'B': probability outside [0, 1] at row 18", 6)
        _block_rows(monkeypatch, block, n)
        for call in (lambda: simulate_block(parse_model(_LANES_MODEL), n, seed, reps),
                     lambda: simulate(parse_model(_LANES_MODEL), n, seed, rep=6)):
            with pytest.raises(SimulationError) as info:
                call()
            assert (str(info.value), info.value.rep) == expected

    @pytest.mark.parametrize("block", [1, 7, None], ids=["1", "7", "n"])
    @pytest.mark.parametrize("arm", sorted(_ARM_MODELS))
    @pytest.mark.parametrize("n", [18, 200])
    def test_oracle_arm_error_over_blocks(self, monkeypatch, n, arm, block):
        monkeypatch.setattr(scm, "ORACLE_MIN_N", n)
        assert _first_bad_rows(n, 1, range(1), 0.2, 0.5) == [(17, 0)]
        _block_rows(monkeypatch, block, n)
        with pytest.raises(SimulationError) as info:
            true_effect(parse_model(_ARM_MODELS[arm]), "A", "Y", ATE, n, seed=1)
        assert (str(info.value), info.value.rep) == (
            "node 'B': probability outside [0, 1] at row 17", 0)

    @pytest.mark.parametrize("name, digest", _BLOCKS_MD5)
    def test_bytes_across_three_blocks(self, name, digest):
        data = simulate(model_fixture(name), 49_159, seed=7, rep=1)
        assert hashlib.md5(data.data.tobytes()).hexdigest() == digest


class TestIntervene:
    def test_exposure_column_constant(self):
        m = intervene(model_fixture("setup1"), "A", 1.0)
        data = simulate(m, 200, seed=4)
        assert np.array_equal(data.column("A"), np.ones(200))
        assert m.spec_for("A") == NodeSpec("A", "constant", (Expr((Term(1.0),)),))

    def test_setup6_mediator_law_unchanged(self):
        m = intervene(model_fixture("setup6"), "A", 0.0)
        assert m.spec_for("M").params[0] == Expr((Term(0.5), Term(-2.0, ("A",))), logistic=True)
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


# true_effect at n=100,000, as float.hex() of (value, mc_se), recorded when
# the two arms were swept one after the other.
_ORACLE_PINS = [
    ("setup1", ATE, 3, "0x1.0000000000000p+0", "0x1.148e118dd6ccdp-60"),
    ("setup1", ATE, 11, "0x1.0000000000000p+0", "0x1.14490e1a646c8p-60"),
    ("setup2", ATE, 3, "0x1.0000000000000p+0", "0x1.7b4fe783fd2a0p-61"),
    ("setup2", ATE, 11, "0x1.0000000000000p+0", "0x1.7b7c88d5aa6eap-61"),
    ("setup3", ATE, 3, "0x1.0000000000000p+0", "0x1.148e118dd6ccdp-60"),
    ("setup3", ATE, 11, "0x1.0000000000000p+0", "0x1.14490e1a646c8p-60"),
    ("setup4", ATE, 3, "0x1.ffd748f7ea149p+0", "0x1.9d7caa3643169p-9"),
    ("setup4", ATE, 11, "0x1.0073b61eb4b2fp+1", "0x1.9e393570f3cd3p-9"),
    ("setup4b", ATE, 3, "0x1.ffd748f7ea149p+0", "0x1.9d7caa3643169p-9"),
    ("setup4b", ATE, 11, "0x1.0073b61eb4b2fp+1", "0x1.9e393570f3cd3p-9"),
    ("setup5", ATE, 3, "0x1.2ebc408d8ec96p-3", "0x1.2638b2438834bp-10"),
    ("setup5", LOG_MOR, 3, "0x1.b9998d5c7f004p-1", "0x1.ba9b05d7bbbc9p-8"),
    ("setup5", ATE, 11, "0x1.2d4d4024b33dbp-3", "0x1.25a4fffbeba7ep-10"),
    ("setup5", LOG_MOR, 11, "0x1.b895ad5ee6692p-1", "0x1.bac1c46691302p-8"),
    ("setup6", ATE, 3, "0x1.1e670e2c12ad8p-1", "0x1.9b8e06e8d4375p-10"),
    ("setup6", ATE, 11, "0x1.1ecaab8a5ce5bp-1", "0x1.9b7a9c67245f5p-10"),
    ("setup7", ATE, 3, "0x1.0000000000000p+0", "0x1.a1ca76e029974p-62"),
    ("setup7", ATE, 11, "0x1.0000000000000p+0", "0x1.9f39aadb74f8fp-62"),
]


def _two_sweeps(model, exposure, outcome, n, seed):
    """The outcome under do(exposure=1), then do(exposure=0), each arm simulated
    to the end on its own: the first failing arm's error is raised."""
    return [simulate_block(intervene(model, exposure, value), n, seed, range(1))[outcome][0]
            for value in (1.0, 0.0)]


_SMALL_COEFS = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


@st.composite
def _oracle_models(draw):
    """A bernoulli A among up to four nodes, with small coefficients; some
    laws leave their range in one arm or both."""
    specs = []
    for name in ("L", "A", "M", "Y"):
        names = [spec.name for spec in specs]
        refs = st.lists(st.sampled_from(names), max_size=2) if names else st.just([])
        expr = st.builds(Expr, st.lists(st.builds(Term, _SMALL_COEFS, refs.map(tuple)),
                                         min_size=1, max_size=3).map(tuple), st.booleans())
        dist = "bernoulli" if name == "A" else draw(st.sampled_from(["normal", "bernoulli"]))
        specs.append(NodeSpec(name, dist, tuple(draw(expr) for _ in range(
            2 if dist == "normal" else 1))))
    return StructuralModel(tuple(specs))


# B is bernoulli; Y and Z read it through c*B, B*X, B^2 and inside plogis.
# In the oracle B is not returned, so its block is never written to a float
# array.
_BOOL_MODEL = (
    "X ~ normal(0, 1)\nA ~ bernoulli(0.5)\nB ~ bernoulli(plogis(0.3*X + 0.5*A))\n"
    "Y ~ normal(0.5*A - 1.5*B + 0.8*B*X + 0.3*B^2, plogis(-1 + 2*B))\n"
    "Z ~ bernoulli(plogis(-0.5 + 1.5*B - 0.7*B*X + 0.25*B^2))\n"
)
# true_effect at n=100,000, as float.hex() of (value, mc_se), and the md5 of
# simulate_block(model, 20_000, 5, range(1, 4)) over its arrays in node
# order, recorded when every drawn bernoulli block was cast to float.
_BOOL_ORACLE_PINS = [
    ("Y", ATE, 3, "0x1.69a230afac75dp-2", "0x1.a3fedde51b66fp-10"),
    ("Y", ATE, 11, "0x1.67e7a68552a87p-2", "0x1.a5989937a17b7p-10"),
    ("Z", ATE, 3, "0x1.79e59f2ba9d1fp-5", "0x1.5bc875f1867aap-11"),
    ("Z", ATE, 11, "0x1.807357e670e2cp-5", "0x1.5ecb9e8674925p-11"),
    ("Z", LOG_MOR, 3, "0x1.84058e19a6f17p-3", "0x1.65a22f0cc2b14p-9"),
    ("Z", LOG_MOR, 11, "0x1.8b261e15fa0b3p-3", "0x1.691d6ac08d7d4p-9"),
]
_BOOL_BLOCK_MD5 = "40709a974c4bb6820ea3ddae468d8fd0"


class TestBoolBlock:
    @pytest.mark.parametrize("outcome, estimand, seed, value, mc_se", _BOOL_ORACLE_PINS)
    def test_oracle_bytes(self, outcome, estimand, seed, value, mc_se):
        est = true_effect(parse_model(_BOOL_MODEL), "A", outcome, estimand, 100_000, seed)
        assert (est.value.hex(), est.mc_se.hex()) == (value, mc_se)

    @pytest.mark.parametrize("shared", [False, True], ids=["drawn", "raw_draws"])
    def test_block_bytes(self, shared):
        block = simulate_block(parse_model(_BOOL_MODEL), 20_000, 5, range(1, 4),
                               {} if shared else None)
        assert list(block) == ["X", "A", "B", "Y", "Z"]
        digest = hashlib.md5(b"".join(v.tobytes() for v in block.values())).hexdigest()
        assert digest == _BOOL_BLOCK_MD5


class TestTrueEffect:
    @pytest.mark.parametrize("name, estimand, seed, value, mc_se", _ORACLE_PINS)
    def test_bytes_of_the_two_arm_oracle(self, name, estimand, seed, value, mc_se):
        est = true_effect(model_fixture(name), "A", "Y", estimand, 100_000, seed)
        assert (est.value.hex(), est.mc_se.hex()) == (value, mc_se)

    @pytest.mark.parametrize("text, message", [
        # Arm 0 fails first at M (sd -1), arm 1 only at Y (probability 1.5);
        # swept one after the other, arm 1 ran first and reported Y.
        ("A ~ bernoulli(0.5)\nM ~ normal(0, 2*A - 1)\nY ~ bernoulli(0.5 + A)\n",
         "node 'Y': probability outside [0, 1] at row 0"),
        ("L ~ normal(0, -1)\nA ~ bernoulli(0.5)\nY ~ normal(A, 1)\n",
         "node 'L': invalid sd at row 0"),
    ], ids=["arm_1_wins_over_an_earlier_node_of_arm_0", "before_the_exposure"])
    def test_range_error_of_the_oracle(self, text, message):
        with pytest.raises(SimulationError) as info:
            true_effect(parse_model(text), "A", "Y", ATE, 100_000, seed=0)
        assert (str(info.value), info.value.rep) == (message, 0)

    @settings(max_examples=40, deadline=None)
    @given(_oracle_models(), st.integers(0, 3))
    def test_one_sweep_equals_two(self, model, seed):
        n = 100_000
        try:
            y1, y0 = _two_sweeps(model, "A", "Y", n, seed)
        except SimulationError as exc:
            with pytest.raises(SimulationError) as info:
                true_effect(model, "A", "Y", ATE, n, seed)
            assert (str(info.value), info.value.rep) == (str(exc), exc.rep)
            return
        est = true_effect(model, "A", "Y", ATE, n, seed)
        diff = y1 - y0
        assert est.value == float(diff.mean())
        assert est.mc_se == float(diff.std(ddof=1) / math.sqrt(n))

    def test_oracle_over_the_budget_is_refused_before_drawing(self):
        n = MAX_BLOCK_BYTES // 8 // 3 // 2 + 1  # setup5 has 3 nodes, in two arms
        with pytest.raises(ValueError, match=f"^n_oracle {n} in each of two arms: "
                                             f"{2 * n} rows of 3 nodes need"):
            true_effect(model_fixture("setup5"), "A", "Y", LOG_MOR, n)

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
