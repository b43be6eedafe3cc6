import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from causalreg import (
    StratifiedTable,
    effect_measure,
    load_table_csv,
    marginalize,
    risk,
    table_fixture,
)
from causalreg.tables import TableError, ZeroMarginError, render_table

TOL = 1e-9


@pytest.fixture
def table1():
    return table_fixture("table1")


def uniform_table():
    return StratifiedTable(("s0", "s1"), np.full((2, 2, 2), 0.125))


@st.composite
def positive_tables(draw, max_strata=3):
    k = draw(st.integers(1, max_strata))
    cells = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=10.0, allow_nan=False),
            min_size=4 * k,
            max_size=4 * k,
        )
    )
    counts = np.asarray(cells).reshape(k, 2, 2)
    return StratifiedTable.from_counts([f"s{i}" for i in range(k)], counts)


class TestConstruction:
    def test_rejects_bad_total(self):
        with pytest.raises(TableError, match="^probabilities sum to 1.2, not 1$"):
            StratifiedTable(("a",), np.full((1, 2, 2), 0.3))

    def test_rejects_negative(self):
        probs = np.full((1, 2, 2), 0.3)
        probs[0, 0, 0] = -0.2
        probs[0, 1, 1] = 0.3
        with pytest.raises(TableError, match="non-negative"):
            StratifiedTable(("a",), probs)

    def test_counts_normalize(self):
        t = StratifiedTable.from_counts(("a",), np.array([[[10, 10], [10, 10]]]))
        assert t.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(TableError, match="unique"):
            StratifiedTable(("a", "a"), np.full((2, 2, 2), 0.125))


class TestRisk:
    def test_table1_high_stratum_treated(self, table1):
        assert risk(table1, "L=1", 1) == pytest.approx(0.80, abs=TOL)

    def test_table1_low_stratum_untreated(self, table1):
        assert risk(table1, "L=0", 0) == pytest.approx(0.20, abs=TOL)

    def test_uniform_table_risks_are_half(self):
        t = uniform_table()
        for stratum in ("s0", "s1"):
            for a in (0, 1):
                assert risk(t, stratum, a) == pytest.approx(0.5, abs=TOL)

    def test_zero_margin_rejected(self):
        probs = np.zeros((1, 2, 2))
        probs[0, 1, 0] = 0.5
        probs[0, 1, 1] = 0.5
        t = StratifiedTable(("only",), probs)
        with pytest.raises(ZeroMarginError):
            risk(t, "only", 0)

    def test_unknown_stratum(self, table1):
        with pytest.raises(TableError, match="unknown stratum"):
            risk(table1, "L=2", 1)


class TestMarginalize:
    def test_table1_marginal_cells(self, table1):
        m = marginalize(table1)
        assert m.probs[0, 1, 1] == pytest.approx(0.30, abs=TOL)  # Y=1, A=1
        assert m.probs[0, 0, 1] == pytest.approx(0.20, abs=TOL)  # Y=1, A=0
        assert m.probs[0, 1, 0] == pytest.approx(0.20, abs=TOL)  # Y=0, A=1
        assert m.probs[0, 0, 0] == pytest.approx(0.30, abs=TOL)  # Y=0, A=0

    def test_single_stratum_is_identity(self):
        t = StratifiedTable(("only",), np.full((1, 2, 2), 0.25))
        assert np.allclose(marginalize(t).probs, t.probs)

    def test_two_identical_strata_average(self):
        block = np.array([[0.1, 0.2], [0.05, 0.15]])
        t = StratifiedTable(("a", "b"), np.stack([block, block]))
        assert np.allclose(marginalize(t).probs[0], 2 * block)


class TestEffectMeasures:
    def test_table1_risk_difference_strictly_collapsible(self, table1):
        rep = effect_measure(table1, "risk_difference")
        assert rep.stratum_values == pytest.approx((0.2, 0.2), abs=TOL)
        assert rep.marginal_value == pytest.approx(0.2, abs=TOL)
        assert rep.strictly_collapsible
        assert rep.collapsible

    def test_table1_risk_ratio_collapsible_not_strict(self, table1):
        rep = effect_measure(table1, "risk_ratio")
        assert rep.stratum_values == pytest.approx((4 / 3, 2.0), abs=TOL)
        assert rep.marginal_value == pytest.approx(1.5, abs=TOL)
        assert not rep.strictly_collapsible
        assert rep.collapsible

    def test_table1_odds_ratio_not_collapsible(self, table1):
        rep = effect_measure(table1, "odds_ratio")
        assert rep.stratum_values == pytest.approx((8 / 3, 8 / 3), abs=TOL)
        assert rep.marginal_value == pytest.approx(2.25, abs=TOL)
        assert not rep.strictly_collapsible
        assert not rep.collapsible

    def test_table1_stratum_weights(self, table1):
        rep = effect_measure(table1, "risk_difference")
        assert rep.stratum_weights == pytest.approx((0.5, 0.5), abs=TOL)

    def test_unknown_measure(self, table1):
        with pytest.raises(TableError, match="unknown measure"):
            effect_measure(table1, "hazard_ratio")

    def test_single_stratum_always_strictly_collapsible(self):
        t = StratifiedTable(("only",), np.array([[[0.3, 0.1], [0.2, 0.4]]]))
        for measure in ("risk_difference", "risk_ratio", "odds_ratio"):
            assert effect_measure(t, measure).strictly_collapsible

    @given(positive_tables())
    def test_marginal_risk_is_weighted_average(self, t):
        # Law of total probability with weights P(stratum | A=a).
        for a in (0, 1):
            margins = t.probs[:, a, :].sum(axis=1)
            weights = margins / margins.sum()
            parts = sum(
                weights[k] * risk(t, k, a) for k in range(t.n_strata)
            )
            marg = marginalize(t)
            assert risk(marg, 0, a) == pytest.approx(parts, abs=1e-12)

    @given(positive_tables())
    def test_single_stratum_tables_collapse_trivially(self, t):
        collapsed = marginalize(t)
        for measure in ("risk_difference", "risk_ratio", "odds_ratio"):
            rep = effect_measure(collapsed, measure)
            assert rep.strictly_collapsible

    @given(positive_tables())
    def test_randomized_table_risk_difference_average(self, t):
        # Force A independent of the stratum, then the marginal RD is the
        # P(stratum)-weighted average of stratum RDs.
        k = t.n_strata
        pa = 0.4
        weights = t.stratum_weights()
        probs = np.empty((k, 2, 2))
        for i in range(k):
            y1 = t.probs[i, 1, 1] / t.probs[i, 1, :].sum()
            y0 = t.probs[i, 0, 1] / t.probs[i, 0, :].sum()
            probs[i, 1, 1] = weights[i] * pa * y1
            probs[i, 1, 0] = weights[i] * pa * (1 - y1)
            probs[i, 0, 1] = weights[i] * (1 - pa) * y0
            probs[i, 0, 0] = weights[i] * (1 - pa) * (1 - y0)
        rt = StratifiedTable(t.labels, probs / probs.sum())
        rep = effect_measure(rt, "risk_difference")
        expected = float(np.dot(rep.stratum_weights, rep.stratum_values))
        assert rep.marginal_value == pytest.approx(expected, abs=1e-9)

    def test_strict_implies_collapsible_on_table1(self, table1):
        for measure in ("risk_difference", "risk_ratio", "odds_ratio"):
            rep = effect_measure(table1, measure)
            assert not rep.strictly_collapsible or rep.collapsible


class TestCsvAndRendering:
    def test_missing_columns(self):
        with pytest.raises(TableError, match="CSV needs columns"):
            load_table_csv("stratum,a,weight\nx,1,2\n")

    def test_count_column_alias(self):
        t = load_table_csv(
            "stratum,a,y,count\ns,1,1,5\ns,1,0,5\ns,0,1,5\ns,0,0,5\n"
        )
        assert risk(t, "s", 1) == pytest.approx(0.5)

    def test_rows_accumulate(self):
        t = load_table_csv(
            "stratum,a,y,weight\ns,1,1,1\ns,1,1,1\ns,1,0,2\ns,0,1,2\ns,0,0,2\n"
        )
        assert risk(t, "s", 1) == pytest.approx(0.5)

    def test_bad_level_rejected(self):
        with pytest.raises(TableError, match="row 2"):
            load_table_csv("stratum,a,y,weight\ns,2,1,1\n")

    def test_render_contains_verdicts(self, table1):
        reports = [
            effect_measure(table1, m)
            for m in ("risk_difference", "risk_ratio", "odds_ratio")
        ]
        text = render_table(table1, reports)
        assert "strictly collapsible" in text
        assert "not collapsible" in text
        assert "0.80" in text and "2.67" in text and "2.25" in text
