"""Back-door criterion, adjustment-set enumeration, and variable roles.

A :class:`CausalQuery` fixes an exposure and an outcome on a DAG,
declares which nodes are measured (available for conditioning), and
which are conditioned on by design (e.g. selection indicators).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable

from .graph import Dag, GraphError, Path, all_paths, ancestors, d_separated, descendants

__all__ = [
    "CausalQuery",
    "NodeRole",
    "IdentError",
    "EnumerationBoundError",
    "backdoor_paths",
    "satisfies_backdoor",
    "enumerate_adjustment_sets",
    "classify_roles",
]

# Refuse subset enumeration beyond this many candidate nodes unless the
# caller explicitly overrides; the subset count is exponential.
ENUMERATION_BOUND = 20


class IdentError(GraphError):
    """Invalid identification query or argument."""


class EnumerationBoundError(IdentError):
    def __init__(self, size: int):
        super().__init__(
            f"{size} measured candidates exceed the enumeration bound of "
            f"{ENUMERATION_BOUND}; enable the large-enumeration override "
            "(allow_large / --allow-large) to proceed"
        )


@dataclass(frozen=True)
class CausalQuery:
    dag: Dag
    exposure: str
    outcome: str
    measured: frozenset[str]
    conditioned: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "measured", frozenset(self.measured))
        object.__setattr__(self, "conditioned", frozenset(self.conditioned))
        self.dag.require(self.exposure)
        self.dag.require(self.outcome)
        if self.exposure == self.outcome:
            raise IdentError("exposure and outcome must differ")
        for name in self.measured | self.conditioned:
            self.dag.require(name)
        if self.exposure in self.conditioned or self.outcome in self.conditioned:
            raise IdentError("exposure and outcome cannot be design-conditioned")

    @cached_property
    def paths(self) -> tuple[Path, ...]:
        """Every simple exposure-outcome path; walked at most once per query."""
        return tuple(all_paths(self.dag, self.exposure, self.outcome))

    @cached_property
    def exposure_descendants(self) -> frozenset[str]:
        """De(A); the back-door test reads it once per candidate set."""
        return descendants(self.dag, self.exposure)

    @cached_property
    def causal_nodes(self) -> frozenset[str]:
        """cn = De(A) ∩ (An(Y) ∪ {Y}): the nodes after A on directed A→Y paths."""
        return self.exposure_descendants & (ancestors(self.dag, self.outcome) | {self.outcome})

    @cached_property
    def backdoor_dag(self) -> Dag:
        """The proper back-door graph: without A's edges into the causal nodes."""
        return Dag(self.dag.nodes, (e for e in self.dag.edges
                                    if e[0] != self.exposure or e[1] not in self.causal_nodes))

    @cached_property
    def conditioned_forbidden(self) -> bool:
        """Whether a design-conditioned node lies in cn ∪ De(cn): then no set is valid."""
        cn = self.causal_nodes
        return not self.conditioned.isdisjoint(cn | descendants(self.dag, *cn))

    @cached_property
    def candidates(self) -> frozenset[str]:
        """Measured nodes other than A, Y, De(A) and the design-conditioned."""
        banned = {self.exposure, self.outcome} | self.exposure_descendants | self.conditioned
        return self.measured - banned

    @cached_property
    def adjustable(self) -> frozenset[str]:
        """The candidates that lie in some valid adjustment set.

        A candidate v does iff ({v} ∪ An({A, Y, v} ∪ conditioned)) ∩ R
        satisfies the back-door criterion, R being the candidates (the
        ancestral-closure lemma of Tian, Paz & Pearl 1998).
        """
        pool = self.candidates
        closure = pool & ancestors(self.dag, self.exposure, self.outcome, *self.conditioned)
        # A closure node's ancestors are in the closure already: one test for all.
        in_valid = closure if satisfies_backdoor(self, closure) else frozenset()
        return in_valid | frozenset(
            v for v in pool - closure
            if satisfies_backdoor(self, {v} | closure | ancestors(self.dag, v) & pool)
        )


@dataclass(frozen=True)
class NodeRole:
    on_backdoor_path: bool = False
    collider_on_ay_path: bool = False
    mediator: bool = False
    descendant_of_mediator: bool = False
    descendant_of_exposure: bool = False
    in_some_valid_adjustment_set: bool = False


def backdoor_paths(query: CausalQuery) -> list[Path]:
    """All simple exposure-outcome paths whose first edge points into the exposure."""
    return [p for p in query.paths if p.starts_into_origin()]


def satisfies_backdoor(query: CausalQuery, adjustment: Iterable[str]) -> bool:
    """Back-door criterion for a candidate adjustment set.

    True when the set contains no descendant of the exposure, no
    design-conditioned node lies on a directed exposure-outcome path or
    descends from one, and the set together with the design-conditioned
    nodes d-separates exposure and outcome in the proper back-door graph
    (Perković et al. 2018: the same sets that block every non-causal
    exposure-outcome path).
    """
    s = frozenset(adjustment)
    if query.exposure in s or query.outcome in s:
        raise IdentError("adjustment set cannot contain the exposure or outcome")
    if not s <= query.measured:
        unknown = sorted(s - query.measured)
        raise IdentError(f"adjustment set contains unmeasured nodes: {unknown}")
    if not s.isdisjoint(query.exposure_descendants) or query.conditioned_forbidden:
        return False
    return d_separated(query.backdoor_dag, {query.exposure}, {query.outcome},
                       s | query.conditioned)


def enumerate_adjustment_sets(
    query: CausalQuery, minimal_only: bool = False, allow_large: bool = False
) -> list[frozenset[str]]:
    """All measured node subsets that satisfy the back-door criterion.

    Candidates exclude the exposure, the outcome, descendants of the
    exposure, and nodes already conditioned by design.  Results come
    out ordered by size, then lexicographically.  With ``minimal_only``
    only inclusion-minimal sets are kept.  An empty result means no
    measured adjustment set exists.
    """
    if len(query.candidates) > ENUMERATION_BOUND and not allow_large:
        raise EnumerationBoundError(len(query.candidates))
    # Every member of a valid set is adjustable, so no other subset can pass.
    pool = sorted(query.adjustable)
    valid: list[frozenset[str]] = []
    for size in range(len(pool) + 1):
        for combo in combinations(pool, size):
            s = frozenset(combo)
            if minimal_only and any(kept <= s for kept in valid):
                continue
            if satisfies_backdoor(query, s):
                valid.append(s)
        if minimal_only:  # no larger minimal set holds a kept ∅ or a kept {v}
            pool = [v for v in pool if not any(kept <= {v} for kept in valid)]
    return valid


def classify_roles(query: CausalQuery) -> dict[str, NodeRole]:
    """Per-node structural flags relative to the exposure-outcome pair, in
    the DAG's node order.

    Back-door and collider flags refer to interior positions on simple
    exposure-outcome paths.  Mediators are De(A) ∩ An(Y), the interiors
    of directed exposure-outcome paths.  Valid-set membership is
    :attr:`CausalQuery.adjustable`; no subset is enumerated.
    """
    dag = query.dag
    on_backdoor: set[str] = set()
    colliders: set[str] = set()
    for p in query.paths:
        if p.starts_into_origin():
            on_backdoor.update(p.nodes[1:-1])
        colliders.update(p.nodes[i] for i in p.collider_indices())

    mediators = query.causal_nodes - {query.outcome}
    desc_of_mediator = descendants(dag, *mediators)

    return {
        v: NodeRole(
            on_backdoor_path=v in on_backdoor,
            collider_on_ay_path=v in colliders,
            mediator=v in mediators,
            descendant_of_mediator=v in desc_of_mediator,
            descendant_of_exposure=v in query.exposure_descendants,
            in_some_valid_adjustment_set=v in query.adjustable,
        )
        for v in dag.nodes
    }
