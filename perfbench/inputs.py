"""Workload inputs, made only from the seed.

Nothing here imports ``causalreg``: the program under test receives
the generated text files and arguments, never the generator's objects.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

# --- queries ------------------------------------------------------------------

# (nodes, edge density, lowest and highest A-Y path count accepted).  Each
# band lies around the median of that cell's path-count distribution (200
# random DAGs per cell).  Path enumeration costs grow with the path count, so
# without the bands one 20k-path graph in a round can double the round's
# time and seeds would not agree on throughput or tail.  11 nodes at 0.6 is
# the largest cell that path enumeration finishes in well under a second;
# denser or larger graphs belong to a later benchmark.
ANALYZE_CELLS = (
    (6, 0.45, 2, 5),
    (8, 0.45, 10, 25),
    (8, 0.6, 45, 100),
    (10, 0.3, 6, 16),
    (10, 0.45, 90, 200),
    (10, 0.6, 900, 1600),
    (11, 0.45, 400, 800),
    (11, 0.6, 6000, 10000),
)
# (measured share of the non-A, non-Y nodes, candidate adjustment nodes).
# Candidates are the measured non-descendants of A; subset enumeration costs
# 2^candidates back-door tests, so each share fixes the count, as the path
# band fixes the paths.
MEASURED_SHARES = ((0.5, 2), (1.0, 3))

# (substantive nodes, edge density, partially observed variables)
MISSING_CELLS = (
    (8, 0.4, 1),
    (8, 0.4, 3),
    (16, 0.25, 2),
    (16, 0.25, 4),
    (32, 0.12, 3),
    (32, 0.12, 6),
)
MISSING_PER_CELL = 8
# Graphs up to this many nodes (indicators included) are re-checked with the
# path-enumeration oracle, which is exponential.
ENUMERATION_CHECK_MAX_NODES = 12

STRATA = (2, 4, 8, 16, 32)
MEASURES = ("risk_difference", "risk_ratio", "odds_ratio")


@dataclass
class Query:
    kind: str  # analyze | analyze_minimal | missingness | collapse
    argv: list[str]
    props: dict
    # What the generator knows about the input, for the correctness check.
    known: dict = field(default_factory=dict)


def _random_order_dag(rng: random.Random, names: list[str], p: float):
    """Edges drawn with probability p, oriented along a shuffled order."""
    order = names[:]
    rng.shuffle(order)
    edges = [
        (order[i], order[j])
        for j in range(1, len(order))
        for i in range(j)
        if rng.random() < p
    ]
    return order, edges


def count_paths(edges, a: str, y: str, limit: int) -> int:
    """Simple A-Y paths ignoring direction, counted up to ``limit + 1``."""
    adj: dict[str, list[str]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if a not in adj or y not in adj:
        return 0
    seen = {a}
    total = 0
    stack = [(a, iter(adj[a]))]
    while stack and total <= limit:
        v, it = stack[-1]
        w = next(it, None)
        if w is None:
            stack.pop()
            seen.discard(v)
            continue
        if w in seen:
            continue
        if w == y:
            total += 1
            continue
        seen.add(w)
        stack.append((w, iter(adj[w])))
    return total


def descendants_of(edges, v: str) -> set[str]:
    children: dict[str, list[str]] = {}
    for u, w in edges:
        children.setdefault(u, []).append(w)
    out: set[str] = set()
    stack = [v]
    while stack:
        for c in children.get(stack.pop(), ()):
            if c not in out:
                out.add(c)
                stack.append(c)
    return out


def _dag_text(nodes, edges) -> str:
    return "\n".join(list(nodes) + [f"{u} -> {v}" for u, v in edges]) + "\n"


def _analyze_queries(rng, out_dir: Path, tag: str, n: int, p: float, lo: int, hi: int,
                     share: float, n_candidates: int) -> list[Query]:
    names = [f"N{i}" for i in range(n)]
    while True:
        order, edges = _random_order_dag(rng, names, p)
        a = order[rng.randrange(0, n // 2)]
        y = order[rng.randrange(n // 2, n)]
        others = [v for v in names if v not in (a, y)]
        rng.shuffle(others)
        measured = set(others[: round(share * len(others))]) | {a, y}
        candidates = measured - {a, y} - descendants_of(edges, a)
        if len(candidates) != n_candidates:
            continue
        paths = count_paths(edges, a, y, hi)
        if lo <= paths <= hi:
            break
    unmeasured = sorted(set(names) - measured)
    path = out_dir / f"{tag}.dag"
    path.write_text(_dag_text(names, edges))
    argv = ["analyze", "--dag", str(path), "--exposure", a, "--outcome", y,
            "--unmeasured", ",".join(unmeasured)]
    props = {
        "nodes": n, "density": p, "measured_share": share, "edges": len(edges),
        "paths": paths, "candidates": len(candidates),
    }
    known = {"edges": edges, "exposure": a, "outcome": y, "measured": sorted(measured)}
    # The same (DAG, exposure, outcome) triple is asked twice, as an analyst
    # would after seeing the full list: the second query may reuse work.
    return [
        Query("analyze", argv, dict(props, repeat=False), known),
        Query("analyze_minimal", argv + ["--minimal"], dict(props, repeat=True), known),
    ]


def _missing_query(rng, out_dir: Path, tag: str, n: int, p: float, partial: int) -> Query:
    substantive = ["A", "Y"] + [f"L{i}" for i in range(1, n - 1)]
    _, edges = _random_order_dag(rng, substantive, p)
    # One latent common cause of two substantive nodes, hidden by its U prefix.
    u_children = rng.sample(substantive, 2)
    edges += [("U1", c) for c in u_children]
    chosen = rng.sample(substantive, partial)
    lines, indicators = [], []
    for var in chosen:
        ind = f"C_{var}"
        parents = [v for v in substantive if rng.random() < 2.0 / n]
        if rng.random() < 0.3:
            parents.append("U1")
        edges += [(par, ind) for par in parents]
        lines.append(f"missing: {var} -> {ind}")
        indicators.append(ind)
    nodes = substantive + ["U1"]
    text = _dag_text(nodes, edges) + "\n".join(lines) + "\n"
    path = out_dir / f"{tag}.mdag"
    path.write_text(text)
    total_nodes = len(nodes) + partial
    props = {"nodes": total_nodes, "substantive": n, "density": p, "partial": partial,
             "edges": len(edges), "repeat": False}
    known = {"edges": edges, "indicators": indicators, "substantive": substantive,
             "small": total_nodes <= ENUMERATION_CHECK_MAX_NODES}
    argv = ["missingness", "--mdag", str(path), "--exposure", "A", "--outcome", "Y"]
    return Query("missingness", argv, props, known)


def _collapse_queries(rng, out_dir: Path, tag: str, k: int) -> list[Query]:
    rows = ["stratum,a,y,count"]
    margin = {(a, y): 0 for a in (0, 1) for y in (0, 1)}
    for s in range(k):
        for a in (1, 0):
            for y in (1, 0):
                c = rng.randint(1, 200)
                margin[(a, y)] += c
                rows.append(f"S{s},{a},{y},{c}")
    path = out_dir / f"{tag}.csv"
    path.write_text("\n".join(rows) + "\n")
    known = {"margin": margin}
    return [
        Query("collapse", ["collapse", "--table", str(path), "--measure", m],
              {"strata": k, "measure": m, "repeat": i > 0}, known)
        for i, m in enumerate(MEASURES)
    ]


def query_stream(seed: int, out_dir: Path) -> Iterator[tuple[int, list[Query]]]:
    """(round index, query group) pairs, made one group at a time.

    A round visits every grid cell once, in an order shuffled per round so
    that kinds interleave.  A group is the queries on one generated input:
    analyze and analyze --minimal share a DAG, the three measures share a
    table.  Groups are made just before they are issued, so that set-up
    pays only for the first one: rejection sampling of the analyze cells
    costs 0.05 to 0.7 s per round depending on the seed.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    for index in itertools.count():
        rng = random.Random(f"queries/{seed}/{index}")
        cells = [("a", c, s) for c in range(len(ANALYZE_CELLS))
                 for s in range(len(MEASURED_SHARES))]
        cells += [("m", c, j) for c in range(len(MISSING_CELLS))
                  for j in range(MISSING_PER_CELL)]
        cells += [("t", k, 0) for k in STRATA]
        rng.shuffle(cells)
        for kind, c, j in cells:
            tag = f"r{index}_{kind}{c}_{j}"
            if kind == "a":
                yield index, _analyze_queries(rng, out_dir, tag, *ANALYZE_CELLS[c],
                                              *MEASURED_SHARES[j])
            elif kind == "m":
                yield index, [_missing_query(rng, out_dir, tag, *MISSING_CELLS[c])]
            else:
                yield index, _collapse_queries(rng, out_dir, tag, c)


# --- panel --------------------------------------------------------------------

PANEL_REPLICATIONS = 100
PANEL_SAMPLE_SIZE = 1000


def panel_seed(seed: int, job: int) -> int:
    """Study seed of the job-th study of a run."""
    return random.Random(f"panel/{seed}/{job}").randrange(2**31)


# --- large_n ------------------------------------------------------------------

LARGE_N = 1_000_000
LARGE_MODELS = ("setup1", "setup2", "setup3", "setup4", "setup4b", "setup5", "setup6", "setup7")


def large_seed(seed: int, round_index: int) -> int:
    return random.Random(f"large_n/{seed}/{round_index}").randrange(2**31)
