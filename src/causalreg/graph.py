"""Directed acyclic graphs: parsing, reachability, path enumeration, d-separation.

All values are immutable; every function here is pure and safe for
concurrent use.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

__all__ = [
    "Dag",
    "Path",
    "GraphError",
    "DagParseError",
    "CycleError",
    "UnknownNodeError",
    "hidden_nodes",
    "parse_dag",
    "ancestors",
    "descendants",
    "all_paths",
    "path_blocked",
    "d_separated",
    "d_separated_by_enumeration",
]

NODE_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")

_EDGE_LINE_RE = re.compile(r"\s*([A-Za-z0-9_]+)\s*->\s*([A-Za-z0-9_]+)\s*\Z")
_NODE_LINE_RE = re.compile(r"\s*([A-Za-z0-9_]+)\s*\Z")


class GraphError(ValueError):
    """Invalid graph structure or graph query."""


class DagParseError(GraphError):
    """Malformed DAG text."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CycleError(GraphError):
    """The edge set admits no topological order."""

    def __init__(self, cycle: Iterable[str]):
        self.cycle = tuple(cycle)
        super().__init__("cycle detected: " + " -> ".join(self.cycle))


class UnknownNodeError(GraphError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown node {name!r}")


@dataclass(frozen=True, eq=False)
class Dag:
    """A directed acyclic graph over named nodes.

    ``nodes`` keeps the order of first mention (used for display only);
    equality and hashing treat the node list as a set, so two graphs
    with the same nodes and edges compare equal regardless of order.
    """

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]]):
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in edges))
        self._validate()

    def _validate(self) -> None:
        seen: set[str] = set()
        for name in self.nodes:
            if not NODE_NAME_RE.match(name):
                raise GraphError(f"invalid node name {name!r}")
            if name in seen:
                raise GraphError(f"duplicate node {name!r}")
            seen.add(name)
        for parent, child in self.edges:
            if parent == child:
                raise GraphError(f"self-loop on {parent!r}")
            for endpoint in (parent, child):
                if endpoint not in seen:
                    raise UnknownNodeError(endpoint)
        if len(self.topological_order) < len(self.nodes):
            raise CycleError(_a_cycle(self))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return (self.node_set, self.edges) == (other.node_set, other.edges)

    def __hash__(self) -> int:
        return hash((self.node_set, self.edges))

    @cached_property
    def node_set(self) -> frozenset[str]:
        return frozenset(self.nodes)

    @cached_property
    def parents(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {v: [] for v in self.nodes}
        for parent, child in self.edges:
            out[child].append(parent)
        return {v: tuple(sorted(ps)) for v, ps in out.items()}

    @cached_property
    def children(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {v: [] for v in self.nodes}
        for parent, child in self.edges:
            out[parent].append(child)
        return {v: tuple(sorted(cs)) for v, cs in out.items()}

    @cached_property
    def topological_order(self) -> tuple[str, ...]:
        in_degree = {v: len(self.parents[v]) for v in self.nodes}
        ready = deque(v for v in self.nodes if in_degree[v] == 0)
        order: list[str] = []
        while ready:
            v = ready.popleft()
            order.append(v)
            for child in self.children[v]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    ready.append(child)
        return tuple(order)

    def require(self, name: str) -> None:
        if name not in self.node_set:
            raise UnknownNodeError(name)


def hidden_nodes(dag: Dag, names: Iterable[str] | None = None) -> frozenset[str]:
    """The unmeasured nodes: ``names``, each a node of ``dag``, or by
    default every node whose name starts with ``U``."""
    if names is None:
        return frozenset(v for v in dag.nodes if v.startswith("U"))
    hidden = tuple(names)
    for name in hidden:
        dag.require(name)
    return frozenset(hidden)


def _a_cycle(dag: Dag) -> list[str]:
    """One directed cycle (first == last) among the nodes Kahn's order leaves out.

    Each such node keeps a parent that is also left out, so walking
    those parents must come back to a node; the stretch between the two
    visits, read backwards, is a cycle.
    """
    ordered = set(dag.topological_order)
    v = next(v for v in dag.nodes if v not in ordered)
    first_visit: dict[str, int] = {}
    walk: list[str] = []
    while v not in first_visit:
        first_visit[v] = len(walk)
        walk.append(v)
        v = next(p for p in dag.parents[v] if p not in ordered)
    return [v] + walk[first_visit[v]:][::-1]


@dataclass(frozen=True)
class Path:
    """A simple path, orientation-aware.

    ``forward[i]`` is True when the i-th step follows the edge
    ``nodes[i] -> nodes[i+1]`` and False when it runs against the edge
    ``nodes[i+1] -> nodes[i]``.
    """

    nodes: tuple[str, ...]
    forward: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise GraphError("a path needs at least two nodes")
        if len(self.forward) != len(self.nodes) - 1:
            raise GraphError("orientation sequence does not match node sequence")
        if len(set(self.nodes)) != len(self.nodes):
            raise GraphError("path repeats a node")

    def render(self) -> str:
        parts = [self.nodes[0]]
        for node, fwd in zip(self.nodes[1:], self.forward):
            parts.append("->" if fwd else "<-")
            parts.append(node)
        return " ".join(parts)

    def starts_into_origin(self) -> bool:
        """True when the first edge points into ``nodes[0]``."""
        return not self.forward[0]

    def collider_indices(self) -> tuple[int, ...]:
        """Interior positions where both adjacent path edges point in."""
        return tuple(
            i
            for i in range(1, len(self.nodes) - 1)
            if self.forward[i - 1] and not self.forward[i]
        )


def parse_dag(text: str) -> Dag:
    """Parse the one-edge-per-line DAG format.

    Lines hold ``X -> Y`` edges or bare node names; ``#`` starts a
    comment; blank lines are ignored.  Node order is first mention.
    """
    nodes: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []
    edge_seen: set[tuple[str, str]] = set()

    def mention(name: str) -> None:
        if name not in seen:
            seen.add(name)
            nodes.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = _EDGE_LINE_RE.match(line)
        if m:
            parent, child = m.group(1), m.group(2)
            if (parent, child) in edge_seen:
                raise DagParseError(f"duplicate edge {parent} -> {child}", lineno)
            edge_seen.add((parent, child))
            mention(parent)
            mention(child)
            edges.append((parent, child))
            continue
        m = _NODE_LINE_RE.match(line)
        if m:
            mention(m.group(1))
            continue
        raise DagParseError(f"unrecognized syntax: {line.strip()!r}", lineno)

    return Dag(nodes, edges)


def _reach(step: dict[str, tuple[str, ...]], sources: Iterable[str]) -> frozenset[str]:
    """Nodes one or more ``step`` moves away from some source.

    A source is included only when it is reachable from a source.
    """
    seen: set[str] = set()
    pending = list(sources)
    while pending:
        for w in step[pending.pop()]:
            if w not in seen:
                seen.add(w)
                pending.append(w)
    return frozenset(seen)


def descendants(dag: Dag, *nodes: str) -> frozenset[str]:
    """All nodes reachable by directed edges from some of ``nodes``.

    A given node is included only when it descends from another.
    """
    for v in nodes:
        dag.require(v)
    return _reach(dag.children, nodes)


def ancestors(dag: Dag, *nodes: str) -> frozenset[str]:
    """All nodes from which some of ``nodes`` is reachable.

    A given node is included only when it is an ancestor of another.
    """
    for v in nodes:
        dag.require(v)
    return _reach(dag.parents, nodes)


def all_paths(dag: Dag, x: str, y: str) -> list[Path]:
    """Every simple path between ``x`` and ``y``, ignoring edge direction.

    Paths come out in lexicographic order of their node sequences.
    """
    dag.require(x)
    dag.require(y)
    if x == y:
        raise GraphError("path endpoints must differ")

    steps = {
        v: sorted([(p, False) for p in dag.parents[v]] + [(c, True) for c in dag.children[v]])
        for v in dag.nodes
    }
    found: list[Path] = []
    visited = {x}
    trail: list[str] = [x]
    orient: list[bool] = []
    frames = [iter(steps[x])]
    while frames:
        for w, forward in frames[-1]:
            if w in visited:
                continue
            if w == y:
                found.append(Path((*trail, w), (*orient, forward)))
                continue
            visited.add(w)
            trail.append(w)
            orient.append(forward)
            frames.append(iter(steps[w]))
            break
        else:
            frames.pop()
            visited.discard(trail.pop())
            if orient:
                orient.pop()
    return found


def path_blocked(dag: Dag, path: Path, z: Iterable[str]) -> bool:
    """Whether a conditioning set blocks a path.

    A chain or fork node blocks when it is conditioned on; a collider
    blocks unless it, or one of its descendants, is conditioned on.
    """
    zset = frozenset(z)
    colliders = set(path.collider_indices())
    opened: frozenset[str] | None = None  # Z ∪ An(Z), walked on first need
    for i in range(1, len(path.nodes) - 1):
        v = path.nodes[i]
        if i in colliders:
            if opened is None:
                opened = zset | _reach(dag.parents, zset)
            if v not in opened:
                return True
        elif v in zset:
            return True
    return False


def _check_query_sets(
    dag: Dag, x: Iterable[str], y: Iterable[str], z: Iterable[str]
) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    xs, ys, zs = frozenset(x), frozenset(y), frozenset(z)
    nodes = dag.node_set
    if not (xs <= nodes and ys <= nodes and zs <= nodes):
        raise UnknownNodeError(min((xs | ys | zs) - nodes))
    if not (xs.isdisjoint(ys) and xs.isdisjoint(zs) and ys.isdisjoint(zs)):
        raise GraphError("query sets must be pairwise disjoint")
    return xs, ys, zs


def d_separated(dag: Dag, x: Iterable[str], y: Iterable[str], z: Iterable[str]) -> bool:
    """Linear-time d-separation via reachability over oriented visits.

    The traversal walks (node, direction) states; a state entered
    against an edge may continue through parents and children unless
    conditioned on, while a state entered along an edge continues to
    children, or back to parents only at (ancestors of) conditioned
    colliders.
    """
    xs, ys, zs = _check_query_sets(dag, x, y, z)
    parents, children = dag.parents, dag.children
    z_ancestors = zs | _reach(parents, zs)
    ups, downs = list(xs), []  # entered against an edge / along an edge
    up_seen: set[str] = set()
    down_seen: set[str] = set()
    while ups or downs:
        if ups:
            v = ups.pop()
            if v in up_seen:
                continue
            up_seen.add(v)
            if v in ys:
                return False
            if v not in zs:
                ups.extend(parents[v])
                downs.extend(children[v])
            continue
        v = downs.pop()
        if v in down_seen:
            continue
        down_seen.add(v)
        if v in ys:
            return False
        if v not in zs:
            downs.extend(children[v])
        if v in z_ancestors:
            ups.extend(parents[v])
    return True


def d_separated_by_enumeration(
    dag: Dag, x: Iterable[str], y: Iterable[str], z: Iterable[str]
) -> bool:
    """Brute-force oracle: enumerate every path and test blocking.

    Exponential in graph size; kept as an independent check on
    :func:`d_separated`.
    """
    xs, ys, zs = _check_query_sets(dag, x, y, z)
    for a in sorted(xs):
        for b in sorted(ys):
            for path in all_paths(dag, a, b):
                if not path_blocked(dag, path, zs):
                    return False
    return True
