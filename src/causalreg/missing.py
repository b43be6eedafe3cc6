"""Missingness graphs: mechanism classification and complete-case validity.

An :class:`MDag` is a DAG whose node set mixes substantive variables
with one missingness-indicator node per partially observed variable.
Indicators are sinks with respect to substantive causation: they may
receive edges but never point back into substantive nodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .graph import (
    Dag,
    DagParseError,
    GraphError,
    _reach,
    d_separated,
    hidden_nodes,
    parse_dag,
)

__all__ = [
    "MDag",
    "MDagError",
    "MechanismVerdict",
    "IndependenceStatement",
    "parse_mdag",
    "classify_mechanism",
    "implied_independencies",
    "complete_case_valid",
    "missingness_report",
    "G_MCAR",
    "G_MAR",
    "G_MNAR",
]

G_MCAR = "G-MCAR"
G_MAR = "G-MAR"
G_MNAR = "G-MNAR"

_MISSING_DIRECTIVE_RE = re.compile(
    r"\s*missing\s*:\s*([A-Za-z0-9_]+)\s*->\s*([A-Za-z0-9_]+)\s*\Z"
)
_UNMEASURED_DIRECTIVE_RE = re.compile(r"\s*unmeasured\s*:\s*(.*\S)\s*\Z")


class MDagError(GraphError):
    """Invalid missingness-graph structure or query."""


@dataclass(frozen=True)
class MDag:
    """A DAG plus the map from partially observed variables to indicators.

    ``base`` holds the complete graph, indicator nodes included.
    Nodes that are neither indicators, partially observed nor
    ``unmeasured`` (default: names starting with ``U``) count as fully
    observed.
    """

    base: Dag
    indicator_of: dict[str, str]
    fully_observed: frozenset[str]

    def __init__(
        self,
        base: Dag,
        indicator_of: dict[str, str],
        unmeasured: Iterable[str] | None = None,
    ):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "indicator_of", dict(indicator_of))
        hidden = hidden_nodes(base, unmeasured)
        fully = frozenset(base.nodes) - self.indicators - self.partially_observed - hidden
        object.__setattr__(self, "fully_observed", fully)
        self._validate()

    def _validate(self) -> None:
        for var, ind in self.indicator_of.items():
            self.base.require(var)
            self.base.require(ind)
        indicators = list(self.indicator_of.values())
        if len(set(indicators)) != len(indicators):
            raise MDagError("two variables share a missingness indicator")
        if set(self.indicator_of) & set(indicators):
            raise MDagError("a node cannot be both partially observed and an indicator")
        ind_set = self.indicators
        for parent, child in self.base.edges:
            if parent in ind_set and child in self.substantive:
                raise MDagError(
                    f"indicator {parent!r} has an outgoing edge into substantive node {child!r}"
                )

    @cached_property
    def indicators(self) -> frozenset[str]:
        return frozenset(self.indicator_of.values())

    @cached_property
    def partially_observed(self) -> frozenset[str]:
        return frozenset(self.indicator_of)

    @cached_property
    def substantive(self) -> frozenset[str]:
        return self.partially_observed | self.fully_observed

    @cached_property
    def unmeasured(self) -> frozenset[str]:
        return frozenset(self.base.nodes) - self.indicators - self.substantive


@dataclass(frozen=True)
class MechanismVerdict:
    label: str
    witnesses: tuple[str, ...] = ()


@dataclass(frozen=True)
class IndependenceStatement:
    """``indicator`` is d-separated from ``independent_of`` given ``given``."""

    indicator: str
    independent_of: tuple[str, ...]
    given: tuple[str, ...]


def parse_mdag(text: str) -> MDag:
    """Parse the DAG text format extended with missingness directives.

    ``missing: X -> C_X`` declares the indicator of a partially
    observed variable; an optional ``unmeasured: U1, U2`` line lists
    hidden nodes (default: names starting with ``U``).  Remaining
    substantive nodes count as fully observed.
    """
    indicator_of: dict[str, str] = {}
    unmeasured: list[str] | None = None
    dag_lines: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        m = _MISSING_DIRECTIVE_RE.match(line)
        if m:
            var, ind = m.group(1), m.group(2)
            if var in indicator_of:
                raise DagParseError(f"duplicate missing directive for {var!r}", lineno)
            indicator_of[var] = ind
            dag_lines.append("")
            continue
        m = _UNMEASURED_DIRECTIVE_RE.match(line)
        if m:
            if unmeasured is None:
                unmeasured = []
            unmeasured += [s.strip() for s in m.group(1).split(",") if s.strip()]
            dag_lines.append("")
            continue
        dag_lines.append(line)
    # Nodes named only in directives still belong to the graph: node lines
    # after the text add them, in directive order, after every other node.
    dag_lines += [n for pair in indicator_of.items() for n in pair]
    return MDag(parse_dag("\n".join(dag_lines)), indicator_of, unmeasured=unmeasured)


def classify_mechanism(m: MDag) -> MechanismVerdict:
    """Graphical missingness mechanism with justifying witnesses.

    G-MCAR: indicators are disconnected from every non-indicator node.
    G-MAR: no edge links an indicator with a partially observed
    variable, and no unmeasured node is a common latent cause of an
    indicator and a fully observed variable.  Everything else is
    G-MNAR, and the violating edges or forks are reported.
    """
    indicators = m.indicators
    touching = sorted(
        (p, c)
        for p, c in m.base.edges
        if (p in indicators) != (c in indicators)
    )
    if not touching:
        return MechanismVerdict(G_MCAR)

    partial = m.partially_observed
    violations: list[str] = []
    for p, c in touching:
        if p in partial or c in partial:
            violations.append(f"{p} -> {c}")
    # From an unmeasured node, the first other nodes along unmeasured chains.
    hidden = m.unmeasured
    step = {v: m.base.children[v] if v in hidden else () for v in m.base.nodes}
    for u in sorted(hidden):
        reach = _reach(step, (u,)) - hidden
        hit_indicators = sorted(reach & indicators)
        hit_fully = sorted(reach & m.fully_observed)
        for ind in hit_indicators:
            for w in hit_fully:
                violations.append(f"{ind} <- {u} -> {w}")
    if violations:
        return MechanismVerdict(G_MNAR, tuple(violations))
    return MechanismVerdict(G_MAR, tuple(f"{p} -> {c}" for p, c in touching))


def implied_independencies(m: MDag) -> list[IndependenceStatement]:
    """One maximal conditional-independence statement per indicator.

    Each indicator is separated from every substantive non-parent that
    d-separation grants given the indicator's parent set.
    """
    out: list[IndependenceStatement] = []
    for ind in sorted(m.indicators):
        given = frozenset(m.base.parents[ind])
        candidates = sorted(m.substantive - given)
        independent = tuple(
            s for s in candidates if d_separated(m.base, {ind}, {s}, given)
        )
        out.append(IndependenceStatement(ind, independent, tuple(sorted(given))))
    return out


def complete_case_valid(
    m: MDag, exposure: str, outcome: str, covariates: Iterable[str]
) -> bool:
    """Whether complete-case regression of the outcome is distribution-valid.

    True when all missingness indicators are jointly d-separated from
    the outcome given the exposure and covariates, so conditioning on
    fully observed rows leaves the regression function untouched.
    Positivity of observing complete rows is a separate, non-graphical
    requirement and is flagged alongside this verdict in reports.
    """
    covs = frozenset(covariates)
    for name in covs | {exposure, outcome}:
        m.base.require(name)
        if name not in m.substantive:
            raise MDagError(f"{name!r} is not a substantive node")
    if outcome in covs:
        raise MDagError("outcome cannot appear among the covariates")
    if not m.indicators:
        return True
    return d_separated(m.base, m.indicators, {outcome}, covs | {exposure})


def missingness_report(
    m: MDag, exposure: str, outcome: str, covariates: Iterable[str]
) -> dict:
    """Bundle mechanism, independencies and the complete-case verdict."""
    verdict = classify_mechanism(m)
    return {
        "mechanism": verdict.label,
        "witnesses": list(verdict.witnesses),
        # vars, not dataclasses.asdict, which deep-copies every name: with
        # six indicators that cost 0.3 ms, a tenth of a typical query.
        "independencies": [vars(s) for s in implied_independencies(m)],
        "complete_case_valid": complete_case_valid(m, exposure, outcome, covariates),
        "requires_positivity": True,
    }
