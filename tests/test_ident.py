import os
import random
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import causalreg
from causalreg import (
    CausalQuery,
    Dag,
    all_paths,
    backdoor_paths,
    classify_roles,
    d_separated,
    dag_fixture,
    descendants,
    enumerate_adjustment_sets,
    parse_dag,
    path_blocked,
    satisfies_backdoor,
)
from causalreg import ident
from causalreg.ident import EnumerationBoundError, IdentError

from conftest import random_dag

CHAIN_ROLES_SCRIPT = """
import resource, sys
from causalreg import CausalQuery, Dag, classify_roles
if sys.argv[1] == "roles":
    xs = [f"X{i}" for i in range(3000)]
    edges = list(zip(xs, xs[1:])) + [(xs[-1], "A"), ("A", "Y"), (xs[-1], "Y")]
    dag = Dag(xs + ["A", "Y"], edges)
    roles = classify_roles(CausalQuery(dag, "A", "Y", frozenset(xs)))
    assert roles["X0"].in_some_valid_adjustment_set
    assert roles[xs[-1]].on_backdoor_path
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def query(fixture, exposure="A", outcome="Y", unmeasured=(), conditioned=()):
    dag = dag_fixture(fixture) if isinstance(fixture, str) else fixture
    measured = frozenset(dag.nodes) - frozenset(unmeasured) - frozenset(conditioned)
    return CausalQuery(dag, exposure, outcome, measured, frozenset(conditioned))


class TestQueryValidation:
    def test_exposure_equals_outcome(self):
        dag = parse_dag("A -> Y")
        with pytest.raises(IdentError):
            CausalQuery(dag, "A", "A", frozenset())

    def test_conditioned_cannot_hold_exposure(self):
        dag = parse_dag("A -> Y\nS -> A")
        with pytest.raises(IdentError):
            CausalQuery(dag, "A", "Y", frozenset({"S"}), frozenset({"A"}))


class TestBackdoorPaths:
    def test_fig1a_single_backdoor(self):
        (path,) = backdoor_paths(query("fig1a"))
        assert path.render() == "A <- L -> Y"

    def test_fig2c_randomized_no_backdoor(self):
        assert backdoor_paths(query("fig2c")) == []

    def test_fig1c_four_backdoor_paths(self):
        paths = backdoor_paths(query("fig1c", unmeasured={"U"}))
        rendered = {p.render() for p in paths}
        assert rendered == {
            "A <- L2 -> Y",
            "A <- L2 <- U -> Y",
            "A <- L1 -> L2 -> Y",
            "A <- L1 -> L2 <- U -> Y",
        }


    def test_paths_walked_once_per_query(self, monkeypatch):
        import causalreg.ident as ident

        walks = []
        real = ident.all_paths
        monkeypatch.setattr(
            ident, "all_paths", lambda *args: walks.append(args) or real(*args)
        )
        q = query("fig1c", unmeasured={"U"})
        enumerate_adjustment_sets(q)
        classify_roles(q)
        backdoor_paths(q)
        satisfies_backdoor(q, {"L1", "L2"})
        assert len(walks) == 1


class TestSatisfiesBackdoor:
    def test_fig1a(self):
        q = query("fig1a")
        assert satisfies_backdoor(q, {"L"})
        assert not satisfies_backdoor(q, set())

    def test_fig8c_m_bias_under_selection(self):
        q = query("fig8c", conditioned={"S"})
        assert not satisfies_backdoor(q, set())
        assert satisfies_backdoor(q, {"L1"})
        assert satisfies_backdoor(q, {"L2"})

    def test_fig1c_collider_confounder(self):
        q = query("fig1c", unmeasured={"U"})
        assert not satisfies_backdoor(q, {"L2"})
        assert satisfies_backdoor(q, {"L1", "L2"})

    def test_descendant_of_exposure_fails(self):
        q = query("fig6a")
        assert not satisfies_backdoor(q, {"M"})

    def test_exposure_in_set_is_an_error(self):
        with pytest.raises(IdentError):
            satisfies_backdoor(query("fig1a"), {"A"})

    def test_unmeasured_member_is_an_error(self):
        q = query("fig2b", unmeasured={"U"})
        with pytest.raises(IdentError):
            satisfies_backdoor(q, {"U"})

    def test_unmeasured_members_are_named(self):
        dag = parse_dag("L -> A\nU1 -> A\nU2 -> Y\nA -> Y\nL -> Y")
        q = CausalQuery(dag, "A", "Y", frozenset({"L"}))
        with pytest.raises(IdentError) as info:
            satisfies_backdoor(q, {"L", "U2", "U1"})
        assert str(info.value) == "adjustment set contains unmeasured nodes: ['U1', 'U2']"


class TestEnumeration:
    def test_fig2b_unmeasured_confounder_empty(self):
        assert enumerate_adjustment_sets(query("fig2b", unmeasured={"U"})) == []

    def test_fig6b_post_treatment_blocker(self):
        sets = enumerate_adjustment_sets(query("fig6b", unmeasured={"U"}))
        assert sets == [frozenset({"L"})]

    def test_fig8a_minimal(self):
        sets = enumerate_adjustment_sets(
            query("fig8a", conditioned={"S"}), minimal_only=True
        )
        assert sets == [frozenset({"L2"})]

    def test_randomization_gives_empty_set(self):
        sets = enumerate_adjustment_sets(query("fig2c"))
        assert frozenset() in sets

    def test_ordering_by_size_then_lexicographic(self):
        sets = enumerate_adjustment_sets(query("fig8c", conditioned={"S"}))
        keys = [(len(s), tuple(sorted(s))) for s in sets]
        assert keys == sorted(keys)

    def test_enumeration_bound(self):
        names = ["A", "Y"] + [f"X{i:02d}" for i in range(21)]
        dag = Dag(names, [("A", "Y")])
        q = CausalQuery(dag, "A", "Y", frozenset(dag.nodes) - {"A", "Y"})
        with pytest.raises(EnumerationBoundError):
            enumerate_adjustment_sets(q)
        assert enumerate_adjustment_sets(
            q, minimal_only=True, allow_large=True
        ) == [frozenset()]

    @pytest.mark.parametrize("size", [ident.ENUMERATION_BOUND, ident.ENUMERATION_BOUND + 1],
                             ids=["at_the_bound", "one_above"])
    def test_bound_admits_exactly_its_size(self, size):
        names = ["A", "Y"] + [f"X{i:02d}" for i in range(size)]
        q = CausalQuery(Dag(names, [("A", "Y")]), "A", "Y", frozenset(names[2:]))
        assert len(q.candidates) == size
        if size == ident.ENUMERATION_BOUND:
            assert enumerate_adjustment_sets(q, minimal_only=True) == [frozenset()]
        else:
            with pytest.raises(EnumerationBoundError, match=f"^{size} measured candidates"):
                enumerate_adjustment_sets(q, minimal_only=True)

    def test_minimal_listing_stops_once_the_empty_set_is_valid(self, monkeypatch):
        names = ["A", "Y"] + [f"X{i:02d}" for i in range(21)]
        dag = Dag(names, [("A", "Y")])
        q = CausalQuery(dag, "A", "Y", frozenset(dag.nodes) - {"A", "Y"})
        yielded = 0

        def counted(pool, size):
            nonlocal yielded
            for combo in combinations(pool, size):
                yielded += 1
                yield combo

        monkeypatch.setattr(ident, "combinations", counted)
        assert enumerate_adjustment_sets(
            q, minimal_only=True, allow_large=True
        ) == [frozenset()]
        assert yielded <= len(q.adjustable) + 1

    def test_empty_answer_costs_one_test_per_candidate(self, monkeypatch):
        # 18 measured parents of A and an unmeasured confounder: no valid
        # set, so listing must not test the 2^18 subsets of the candidates.
        xs = [f"X{i:02d}" for i in range(18)]
        edges = [(x, "A") for x in xs] + [("U", "A"), ("U", "Y"), ("A", "Y")]
        q = CausalQuery(Dag(xs + ["U", "A", "Y"], edges), "A", "Y", frozenset(xs + ["A", "Y"]))
        calls = []

        def counted(*args):
            calls.append(args)
            return d_separated(*args)

        monkeypatch.setattr(ident, "d_separated", counted)
        assert enumerate_adjustment_sets(q) == []
        assert not any(r.in_some_valid_adjustment_set for r in classify_roles(q).values())
        assert len(calls) <= len(q.candidates) + 1

    def test_isolated_node_changes_no_verdict(self):
        base = dag_fixture("fig1a")
        augmented = Dag(base.nodes + ("W",), base.edges)
        plain = enumerate_adjustment_sets(query(base))
        with_iso = enumerate_adjustment_sets(query(augmented))
        assert [s for s in with_iso if "W" not in s] == plain

    @settings(max_examples=60)
    @given(st.integers(0, 10_000))
    def test_exhaustive_cross_check_on_random_graphs(self, seed):
        rng = random.Random(seed)
        dag = random_dag(rng, rng.randint(3, 6))
        nodes = [n for n in dag.nodes]
        exposure, outcome = rng.sample(nodes, 2)
        q = CausalQuery(
            dag, exposure, outcome, frozenset(nodes) - {exposure}
        )
        listed = set(map(frozenset, enumerate_adjustment_sets(q)))
        pool = sorted(
            frozenset(nodes)
            - {exposure, outcome}
            - descendants(dag, exposure)
        )
        for size in range(len(pool) + 1):
            for combo in combinations(pool, size):
                s = frozenset(combo)
                assert (s in listed) == satisfies_backdoor(q, s)

    @settings(max_examples=60)
    @given(st.integers(0, 10_000))
    def test_cut_graph_equivalence_oracle(self, seed):
        # A set that satisfies the criterion must d-separate exposure and
        # outcome once the exposure's outgoing edges are removed.
        rng = random.Random(seed)
        dag = random_dag(rng, rng.randint(3, 6))
        nodes = list(dag.nodes)
        exposure, outcome = rng.sample(nodes, 2)
        q = CausalQuery(dag, exposure, outcome, frozenset(nodes) - {exposure})
        cut = Dag(
            dag.nodes, [e for e in dag.edges if e[0] != exposure]
        )
        for s in enumerate_adjustment_sets(q):
            assert d_separated(cut, {exposure}, {outcome}, s)


class TestRoles:
    def test_fig6a_mediator(self):
        roles = classify_roles(query("fig6a"))
        assert roles["M"].mediator
        assert roles["M"].descendant_of_exposure
        assert not roles["M"].in_some_valid_adjustment_set

    def test_fig6c_descendant_of_mediator(self):
        roles = classify_roles(query("fig6c"))
        assert roles["L"].descendant_of_mediator
        assert not roles["L"].mediator

    def test_fig4d_gestation_collider(self):
        roles = classify_roles(query("fig4d", unmeasured={"U"}))
        assert roles["L2"].collider_on_ay_path
        assert roles["L2"].mediator  # also lies on A -> L2 -> Y

    def test_fig1a_confounder_is_on_backdoor_path(self):
        roles = classify_roles(query("fig1a"))
        assert roles["L"].on_backdoor_path
        assert roles["L"].in_some_valid_adjustment_set

    def test_valid_set_membership_closes_over_conditioned_ancestors(self):
        # W joins a valid set only together with L, an ancestor of the
        # selection node S that opens A <- U -> L -> S <- Y.
        dag = parse_dag("U -> A\nU -> L\nL -> S\nY -> S\nW -> A")
        roles = classify_roles(query(dag, unmeasured={"U"}, conditioned={"S"}))
        assert roles["W"].in_some_valid_adjustment_set
        assert roles["L"].in_some_valid_adjustment_set

    def test_valid_set_membership_closes_over_the_nodes_ancestors(self):
        # M is a collider on A <- U -> L -> M <- Y; {M, L} is valid.
        dag = parse_dag("U -> A\nU -> L\nL -> M\nY -> M")
        roles = classify_roles(query(dag, unmeasured={"U"}))
        assert roles["M"].in_some_valid_adjustment_set
        assert satisfies_backdoor(query(dag, unmeasured={"U"}), {"L", "M"})

    def test_mediator_implies_descendant_of_exposure(self):
        rng = random.Random(7)
        for _ in range(50):
            dag = random_dag(rng, rng.randint(3, 6))
            nodes = list(dag.nodes)
            exposure, outcome = rng.sample(nodes, 2)
            roles = classify_roles(
                CausalQuery(dag, exposure, outcome, frozenset(nodes) - {exposure})
            )
            for node, role in roles.items():
                if role.mediator:
                    assert role.descendant_of_exposure
                if role.in_some_valid_adjustment_set:
                    assert not role.descendant_of_exposure

    def test_long_confounder_chain_stores_no_closure_per_node(self):
        # X0 -> ... -> X2999 -> A -> Y with X2999 -> Y: a per-node
        # ancestor map alone would hold about 4.5 million entries.
        src = os.path.dirname(os.path.dirname(causalreg.__file__))
        env = {**os.environ, "PYTHONPATH": src}

        def peak_kb(mode):
            out = subprocess.run(
                [sys.executable, "-c", CHAIN_ROLES_SCRIPT, mode],
                env=env, capture_output=True, text=True, check=True,
            )
            return int(out.stdout)

        assert peak_kb("roles") - peak_kb("import") < 50 * 1024


def random_design_query(seed):
    """A random query with unmeasured and design-conditioned nodes; about
    one in five conditions on a descendant of the exposure."""
    rng = random.Random(seed)
    dag = random_dag(rng, rng.randint(3, 7), rng.choice([0.3, 0.5, 0.7]))
    nodes = list(dag.nodes)
    exposure, outcome = rng.sample(nodes, 2)
    rest = [v for v in nodes if v not in (exposure, outcome)]
    conditioned = frozenset(v for v in rest if rng.random() < 0.2)
    unmeasured = frozenset(
        v for v in rest if v not in conditioned and rng.random() < 0.25
    )
    measured = frozenset(nodes) - conditioned - unmeasured - {exposure}
    return CausalQuery(dag, exposure, outcome, measured, conditioned)


def path_oracle_valid(q, s):
    """Adjustment by walking every path (Perković, Textor, Kalisch &
    Maathuis, JMLR 2018): s holds no descendant of the exposure; no
    conditioned node lies on a directed exposure-outcome path (after the
    exposure) or descends from one; and s plus the conditioned nodes
    block every non-causal path, that is every exposure-outcome path
    that is not directed exposure -> ... -> outcome."""
    if s & descendants(q.dag, q.exposure):
        return False
    paths = all_paths(q.dag, q.exposure, q.outcome)
    causal = {v for p in paths if all(p.forward) for v in p.nodes[1:]}
    if q.conditioned & (causal | descendants(q.dag, *causal)):
        return False
    z = s | q.conditioned
    return all(path_blocked(q.dag, p, z) for p in paths if not all(p.forward))


def subsets(nodes):
    pool = sorted(nodes)
    for size in range(len(pool) + 1):
        for combo in combinations(pool, size):
            yield frozenset(combo)


class TestPathOracle:
    """Independent checks: the oracle never calls d-separation."""

    @settings(max_examples=150)
    @given(st.integers(0, 10_000))
    @example(11)  # conditions on a descendant of the exposure
    def test_satisfies_backdoor_matches_path_blocking(self, seed):
        q = random_design_query(seed)
        for s in subsets(q.measured - {q.outcome}):
            assert satisfies_backdoor(q, s) == path_oracle_valid(q, s), sorted(s)

    @settings(max_examples=150)
    @given(st.integers(0, 10_000))
    @example(41)  # conditions on a descendant of the exposure
    def test_role_membership_matches_union_of_listed_sets(self, seed):
        q = random_design_query(seed)
        valid = [s for s in subsets(q.measured - {q.outcome}) if path_oracle_valid(q, s)]
        listed = enumerate_adjustment_sets(q)
        assert sorted(map(sorted, listed)) == sorted(map(sorted, valid))
        union = frozenset().union(*valid)
        for v, role in classify_roles(q).items():
            assert role.in_some_valid_adjustment_set == (v in union), v
        minimal = [s for s in valid if not any(t < s for t in valid)]
        listed = enumerate_adjustment_sets(q, minimal_only=True)
        assert sorted(map(sorted, listed)) == sorted(map(sorted, minimal))

    @settings(max_examples=150)
    @given(st.integers(0, 10_000))
    def test_mediators_are_interiors_of_directed_paths(self, seed):
        q = random_design_query(seed)
        interiors = set()
        for p in all_paths(q.dag, q.exposure, q.outcome):
            if all(p.forward):
                interiors.update(p.nodes[1:-1])
        for v, role in classify_roles(q).items():
            assert role.mediator == (v in interiors), v
