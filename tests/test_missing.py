import random
from itertools import combinations

import pytest

from causalreg import (
    Dag,
    G_MAR,
    G_MCAR,
    G_MNAR,
    MDag,
    classify_mechanism,
    complete_case_valid,
    d_separated,
    implied_independencies,
    mdag_fixture,
    missingness_report,
    parse_mdag,
)
from causalreg.missing import MDagError


FIG5_TEXT = """
L1 -> A
L2 -> A
A -> Y
L1 -> C_A
L2 -> C_A
L1 -> C_L2
A -> C_L2
L1 -> C_Y
L2 -> C_Y
A -> C_Y
missing: A -> C_A
missing: L2 -> C_L2
missing: Y -> C_Y
"""


def drop_edges(m: MDag, *edges: tuple[str, str]) -> MDag:
    remaining = [e for e in m.base.edges if e not in set(edges)]
    return MDag(
        Dag(m.base.nodes, remaining), m.indicator_of, unmeasured=m.unmeasured
    )


class TestMDagStructure:
    def test_parse_fig5_partitions(self):
        m = parse_mdag(FIG5_TEXT)
        assert m.partially_observed == {"A", "L2", "Y"}
        assert m.indicators == {"C_A", "C_L2", "C_Y"}
        assert m.fully_observed == {"L1"}
        assert m.unmeasured == frozenset()

    def test_fixture_matches_inline_text(self):
        assert parse_mdag(FIG5_TEXT) == mdag_fixture("fig5")

    def test_indicator_out_edge_rejected(self):
        text = FIG5_TEXT + "C_A -> Y\n"
        with pytest.raises(MDagError, match="outgoing edge"):
            parse_mdag(text)

    def test_u_prefix_defaults_to_unmeasured(self):
        m = parse_mdag("U -> X\nX -> C_X\nmissing: X -> C_X\n")
        assert m.unmeasured == {"U"}
        assert m.fully_observed == frozenset()

    def test_unmeasured_directive_overrides_prefix(self):
        m = parse_mdag("H -> X\nX -> C_X\nmissing: X -> C_X\nunmeasured: H\n")
        assert m.unmeasured == {"H"}

    def test_duplicate_missing_directive(self):
        with pytest.raises(Exception, match="duplicate missing directive"):
            parse_mdag("X -> C_X\nmissing: X -> C_X\nmissing: X -> C2\n")


class TestMechanism:
    def test_isolated_indicators_are_mcar(self):
        m = parse_mdag("L -> A\nA -> Y\nC_Y\nmissing: Y -> C_Y\n")
        verdict = classify_mechanism(m)
        assert verdict.label == G_MCAR
        assert verdict.witnesses == ()

    def test_fig5_is_mnar_with_l2_to_ca_witness(self):
        verdict = classify_mechanism(mdag_fixture("fig5"))
        assert verdict.label == G_MNAR
        assert "L2 -> C_A" in verdict.witnesses

    def test_three_edge_removal_is_still_mnar(self):
        # A -> C_Y still links an indicator with a partially observed
        # variable, so removing only these three edges cannot reach G-MAR.
        m = drop_edges(
            mdag_fixture("fig5"), ("L2", "C_A"), ("A", "C_L2"), ("L2", "C_Y")
        )
        verdict = classify_mechanism(m)
        assert verdict.label == G_MNAR
        assert verdict.witnesses == ("A -> C_Y",)

    def test_four_edge_removal_is_mar(self):
        m = drop_edges(
            mdag_fixture("fig5"),
            ("L2", "C_A"),
            ("A", "C_L2"),
            ("L2", "C_Y"),
            ("A", "C_Y"),
        )
        verdict = classify_mechanism(m)
        assert verdict.label == G_MAR
        assert set(verdict.witnesses) == {
            "L1 -> C_A",
            "L1 -> C_L2",
            "L1 -> C_Y",
        }

    def test_latent_fork_onto_fully_observed_breaks_mar(self):
        m = parse_mdag(
            "W -> X\nU -> C_X\nU -> W\nmissing: X -> C_X\n"
        )
        verdict = classify_mechanism(m)
        assert verdict.label == G_MNAR
        assert "C_X <- U -> W" in verdict.witnesses

    def test_indicator_edge_from_unmeasured_alone_is_not_mcar(self):
        m = parse_mdag("U -> C_X\nX\nmissing: X -> C_X\n")
        assert classify_mechanism(m).label == G_MAR


class TestImpliedIndependencies:
    def test_fig5_statements(self):
        statements = {
            s.indicator: s for s in implied_independencies(mdag_fixture("fig5"))
        }
        assert statements["C_L2"].independent_of == ("L2", "Y")
        assert statements["C_L2"].given == ("A", "L1")
        assert statements["C_A"].independent_of == ("A", "Y")
        assert statements["C_A"].given == ("L1", "L2")
        assert statements["C_Y"].independent_of == ("Y",)
        assert statements["C_Y"].given == ("A", "L1", "L2")

    def test_disconnected_indicator_independent_of_everything(self):
        m = parse_mdag("L -> A\nA -> Y\nC_Y\nmissing: Y -> C_Y\n")
        (statement,) = implied_independencies(m)
        assert statement.indicator == "C_Y"
        assert statement.given == ()
        assert statement.independent_of == ("A", "L", "Y")

    def test_statements_hold_jointly_under_d_separation(self):
        m = mdag_fixture("fig5")
        for s in implied_independencies(m):
            if s.independent_of:
                assert d_separated(
                    m.base, {s.indicator}, set(s.independent_of), set(s.given)
                )


class TestCompleteCase:
    def test_fig5_regression_is_valid(self):
        assert complete_case_valid(mdag_fixture("fig5"), "A", "Y", {"L1", "L2"})

    def test_outcome_driven_missingness_invalidates(self):
        m = parse_mdag(FIG5_TEXT + "Y -> C_Y\n")
        assert not complete_case_valid(m, "A", "Y", {"L1", "L2"})

    def test_isolated_indicators_always_valid(self):
        m = parse_mdag("L -> A\nA -> Y\nC_Y\nmissing: Y -> C_Y\n")
        assert complete_case_valid(m, "A", "Y", {"L"})
        assert complete_case_valid(m, "A", "Y", set())

    def test_outcome_in_covariates_is_an_error(self):
        with pytest.raises(MDagError):
            complete_case_valid(mdag_fixture("fig5"), "A", "Y", {"Y"})

    def test_non_substantive_covariate_is_an_error(self):
        with pytest.raises(MDagError):
            complete_case_valid(mdag_fixture("fig5"), "A", "Y", {"C_A"})

    def test_report_carries_positivity_caveat(self):
        report = missingness_report(mdag_fixture("fig5"), "A", "Y", {"L1", "L2"})
        assert report["requires_positivity"] is True
        assert report["mechanism"] == G_MNAR
        assert report["complete_case_valid"] is True


def random_mdag(rng: random.Random) -> MDag:
    n_sub = rng.randint(2, 4)
    sub = [f"V{i}" for i in range(n_sub)]
    edges = [
        (sub[i], sub[j])
        for j in range(1, n_sub)
        for i in range(j)
        if rng.random() < 0.5
    ]
    n_partial = rng.randint(1, n_sub)
    partial = rng.sample(sub, n_partial)
    indicator_of = {v: f"C_{v}" for v in partial}
    nodes = sub + list(indicator_of.values())
    for ind in indicator_of.values():
        for v in sub:
            if rng.random() < 0.4:
                edges.append((v, ind))
    return MDag(Dag(nodes, edges), indicator_of)


class TestMechanismProperties:
    def test_mcar_implies_complete_case_valid_everywhere(self):
        rng = random.Random(99)
        found_mcar = 0
        for _ in range(300):
            m = random_mdag(rng)
            if classify_mechanism(m).label != G_MCAR:
                continue
            found_mcar += 1
            sub = sorted(m.substantive)
            for exposure, outcome in combinations(sub, 2):
                covs = set(sub) - {exposure, outcome}
                assert complete_case_valid(m, exposure, outcome, covs)
                assert complete_case_valid(m, exposure, outcome, set())
        assert found_mcar > 5

    def test_deleting_indicator_in_edges_never_flips_true_to_false(self):
        rng = random.Random(4242)
        for _ in range(150):
            m = random_mdag(rng)
            sub = sorted(m.substantive)
            if len(sub) < 2:
                continue
            exposure, outcome = rng.sample(sub, 2)
            covs = set(sub) - {exposure, outcome}
            before = complete_case_valid(m, exposure, outcome, covs)
            in_edges = [e for e in m.base.edges if e[1] in m.indicators]
            if not before or not in_edges:
                continue
            dropped = drop_edges(m, rng.choice(in_edges))
            assert complete_case_valid(dropped, exposure, outcome, covs)
