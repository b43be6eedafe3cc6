import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalreg import (
    CycleError,
    Dag,
    DagParseError,
    GraphError,
    UnknownNodeError,
    all_paths,
    ancestors,
    d_separated,
    d_separated_by_enumeration,
    dag_fixture,
    descendants,
    parse_dag,
    path_blocked,
)

from conftest import random_dag


@st.composite
def small_dags(draw, max_nodes=6):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    names = [f"N{i}" for i in range(n)]
    edges = [
        (names[i], names[j])
        for j in range(1, n)
        for i in range(j)
        if draw(st.booleans())
    ]
    return Dag(names, edges)


class TestParse:
    def test_three_node_transcription(self):
        dag = parse_dag("A -> Y\nL -> A\nL -> Y")
        assert set(dag.nodes) == {"A", "L", "Y"}
        assert dag.edges == {("A", "Y"), ("L", "A"), ("L", "Y")}

    def test_first_mention_order(self):
        dag = parse_dag("A -> Y\nL -> A\nL -> Y")
        assert dag.nodes == ("A", "Y", "L")

    def test_smallest_cycle_is_rejected(self):
        with pytest.raises(CycleError) as exc:
            parse_dag("A -> Y\nY -> A")
        assert "A -> Y -> A" in str(exc.value)

    def test_long_chain_parses(self):
        names = [f"N{i}" for i in range(1500)]
        dag = parse_dag("\n".join(f"{a} -> {b}" for a, b in zip(names, names[1:])))
        assert dag.topological_order == tuple(names)

    def test_long_ring_is_rejected(self):
        names = [f"N{i}" for i in range(1500)]
        ring = zip(names, names[1:] + names[:1])
        with pytest.raises(CycleError) as exc:
            parse_dag("\n".join(f"{a} -> {b}" for a, b in ring))
        assert exc.value.cycle == (*names, "N0")

    def test_cycle_named_without_nodes_off_it(self):
        # D comes first and is cut off by the cycle, but is not on it.
        with pytest.raises(CycleError) as exc:
            parse_dag("D\nA -> B\nB -> A\nA -> D")
        assert exc.value.cycle == ("A", "B", "A")

    def test_fig1c_node_and_edge_count(self):
        dag = dag_fixture("fig1c")
        assert len(dag.nodes) == 5
        assert len(dag.edges) == 7

    def test_duplicate_edge(self):
        with pytest.raises(DagParseError, match="line 3.*duplicate edge"):
            parse_dag("A -> Y\nL -> Y\nA -> Y")

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(DagParseError, match="line 2"):
            parse_dag("A -> Y\nA => Y")

    def test_comments_blanks_and_bare_nodes(self):
        dag = parse_dag("# confounding\nL\n\nA -> Y  # direct\nL -> A\n")
        assert set(dag.nodes) == {"L", "A", "Y"}
        assert len(dag.edges) == 2

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            Dag(("A",), (("A", "A"),))

    def test_identity_is_the_node_set_and_the_edges(self):
        edges = (("L", "A"), ("A", "Y"))
        dag = Dag(("L", "A", "Y"), edges)
        reordered = Dag(("Y", "L", "A"), reversed(edges))
        wider = Dag(("L", "A", "Y"), (*edges, ("L", "Y")))
        assert reordered == dag and hash(reordered) == hash(dag)
        assert {dag, reordered} == {dag}
        assert wider != dag
        assert len({dag, reordered, wider}) == 2


class TestReachability:
    def test_chain_descendants(self):
        chain = parse_dag("A -> M\nM -> Y")
        assert descendants(chain, "A") == {"M", "Y"}

    def test_chain_ancestors_empty(self):
        chain = parse_dag("A -> M\nM -> Y")
        assert ancestors(chain, "A") == frozenset()

    def test_fig6c_descendants_of_mediator(self):
        assert descendants(dag_fixture("fig6c"), "M") == {"L", "Y"}

    def test_unknown_node(self):
        with pytest.raises(UnknownNodeError):
            descendants(parse_dag("A -> Y"), "B")


class TestAllPaths:
    def test_fork_single_path(self):
        fork = parse_dag("L -> A\nL -> Y")
        paths = all_paths(fork, "A", "Y")
        assert [p.nodes for p in paths] == [("A", "L", "Y")]
        assert paths[0].forward == (False, True)

    def test_fig1a_two_paths(self):
        paths = all_paths(dag_fixture("fig1a"), "A", "Y")
        assert [p.nodes for p in paths] == [("A", "L", "Y"), ("A", "Y")]

    def test_complete_dag_on_four_nodes_has_five_paths(self):
        # Independent oracle: between two fixed vertices of K4 there are
        # 1 direct path, 2 one-hop paths, and 2 two-hop paths.
        names = ["N0", "N1", "N2", "N3"]
        edges = [(names[i], names[j]) for j in range(4) for i in range(j)]
        dag = Dag(names, edges)
        assert len(all_paths(dag, "N0", "N3")) == 5
        assert len(all_paths(dag, "N1", "N2")) == 5

    def test_lexicographic_order(self):
        dag = Dag(("A", "B", "C", "Y"), (("A", "Y"), ("A", "C"), ("C", "Y"), ("A", "B"), ("B", "Y")))
        sequences = [p.nodes for p in all_paths(dag, "A", "Y")]
        assert sequences == sorted(sequences)

    def test_long_chain_single_path(self):
        names = [f"N{i}" for i in range(1500)]
        dag = Dag(names, zip(names, names[1:]))
        (path,) = all_paths(dag, "N0", "N1499")
        assert path.nodes == tuple(names)
        assert all(path.forward)

    def test_identical_endpoints_rejected(self):
        with pytest.raises(GraphError):
            all_paths(parse_dag("A -> Y"), "A", "A")

    def test_render(self):
        paths = all_paths(dag_fixture("fig1a"), "A", "Y")
        assert paths[0].render() == "A <- L -> Y"


class TestDSeparation:
    def test_chain_blocked_by_middle(self):
        chain = parse_dag("A -> M\nM -> Y")
        assert d_separated(chain, {"A"}, {"Y"}, {"M"})
        assert not d_separated(chain, {"A"}, {"Y"}, set())

    def test_collider_pair(self):
        collider = parse_dag("A -> L\nY -> L")
        assert d_separated(collider, {"A"}, {"Y"}, set())
        assert not d_separated(collider, {"A"}, {"Y"}, {"L"})

    def test_fig4c_selection_opens_path(self):
        dag = dag_fixture("fig4c")
        assert not d_separated(dag, {"A"}, {"Y"}, {"C"})
        assert d_separated(dag, {"A"}, {"Y"}, set())
        assert d_separated(dag, {"A"}, {"Y"}, {"C", "L"})

    def test_collider_descendant_opens(self):
        dag = parse_dag("A -> C\nB -> C\nC -> D")
        assert d_separated(dag, {"A"}, {"B"}, set())
        assert not d_separated(dag, {"A"}, {"B"}, {"D"})

    def test_overlapping_sets_rejected(self):
        with pytest.raises(GraphError, match="disjoint"):
            d_separated(parse_dag("A -> Y\nA -> L"), {"A"}, {"Y"}, {"A"})

    def test_unknown_node_rejected(self):
        with pytest.raises(UnknownNodeError):
            d_separated(parse_dag("A -> Y"), {"A"}, {"Z"}, set())

    def test_monotone_collider_rule_on_fig4_pair(self):
        # Conditioning on the collider is the only opener; dropping it
        # restores separation.
        dag = dag_fixture("fig4a")
        assert not d_separated(dag, {"A"}, {"Y"}, {"L"})
        assert d_separated(dag, {"A"}, {"Y"}, set())

    @given(small_dags(), st.data())
    def test_symmetry(self, dag, data):
        nodes = list(dag.nodes)
        x = data.draw(st.sampled_from(nodes))
        y = data.draw(st.sampled_from([n for n in nodes if n != x]))
        z = frozenset(
            data.draw(
                st.sets(st.sampled_from([n for n in nodes if n not in (x, y)]))
            )
            if len(nodes) > 2
            else []
        )
        assert d_separated(dag, {x}, {y}, z) == d_separated(dag, {y}, {x}, z)

    @settings(max_examples=200)
    @given(small_dags(), st.data())
    def test_agrees_with_enumeration_oracle(self, dag, data):
        nodes = list(dag.nodes)
        x = data.draw(st.sampled_from(nodes))
        y = data.draw(st.sampled_from([n for n in nodes if n != x]))
        rest = [n for n in nodes if n not in (x, y)]
        z = frozenset(data.draw(st.sets(st.sampled_from(rest))) if rest else [])
        assert d_separated(dag, {x}, {y}, z) == d_separated_by_enumeration(
            dag, {x}, {y}, z
        )

    def test_exhaustive_agreement_on_random_graphs(self):
        rng = random.Random(20240817)
        for _ in range(60):
            dag = random_dag(rng, rng.randint(3, 6))
            nodes = list(dag.nodes)
            for size in range(len(nodes) + 1):
                for s in combinations(nodes, size):
                    for reach in (ancestors, descendants):
                        one_by_one = [reach(dag, v) for v in s]
                        assert reach(dag, *s) == frozenset().union(*one_by_one)
            for x, y in combinations(nodes, 2):
                rest = [n for n in nodes if n not in (x, y)]
                for size in range(len(rest) + 1):
                    for z in combinations(rest, size):
                        zs = frozenset(z)
                        assert d_separated(dag, {x}, {y}, zs) == (
                            d_separated_by_enumeration(dag, {x}, {y}, zs)
                        )

    def test_set_valued_queries(self):
        dag = parse_dag("A -> M\nB -> M\nM -> Y\nM -> Z")
        assert d_separated(dag, {"A", "B"}, {"Y", "Z"}, {"M"})
        assert not d_separated(dag, {"A", "B"}, {"Y", "Z"}, set())


class TestPathBlocked:
    def test_fork_blocked_by_middle(self):
        dag = parse_dag("L -> A\nL -> Y")
        (path,) = all_paths(dag, "A", "Y")
        assert path_blocked(dag, path, {"L"})
        assert not path_blocked(dag, path, set())

    def test_collider_blocking(self):
        dag = parse_dag("A -> L\nY -> L")
        (path,) = all_paths(dag, "A", "Y")
        assert path_blocked(dag, path, set())
        assert not path_blocked(dag, path, {"L"})
