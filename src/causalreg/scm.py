"""Structural data-generating models with a small expression language.

Node declarations form a temporal order: each node draws from a normal
or bernoulli distribution whose parameters are polynomial expressions
(optionally wrapped in a logistic link) over earlier nodes.  Sampling
is deterministic given a master seed; every node owns a substream
keyed by (seed, node name, replication index), so declaration order
and worker partitioning never change the draws.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, TextIO

import numpy as np
from scipy.special import expit

from ._readcsv import finite_cell, read_csv
from ._shared import NumericalError
from .graph import Dag

__all__ = [
    "Term",
    "Expr",
    "NodeSpec",
    "StructuralModel",
    "Dataset",
    "EffectEstimate",
    "ModelParseError",
    "SimulationError",
    "parse_model",
    "simulate",
    "simulate_block",
    "intervene",
    "true_effect",
    "ATE",
    "LOG_MOR",
    "ESTIMANDS",
]

ATE = "ATE"
LOG_MOR = "log_MOR"
ESTIMANDS = (ATE, LOG_MOR)

ORACLE_MIN_N = 100_000
# Bytes of node values that one simulation may hold: rows × nodes × 8, where
# the oracle's rows are n_oracle for each of its two arms.  Fixed, not read
# from the machine, so that a request gets the same verdict everywhere; it
# admits a 10^6-row oracle of a 33-node model.
MAX_BLOCK_BYTES = 512 * 2**20
# Rows per lane that the node sweep evaluates, draws and range-checks at a
# time, so that a block's temporaries stay in cache at any n.
ROW_BLOCK = 1 << 14
# Rows that Dataset.write_csv formats per write.
_CSV_BLOCK_ROWS = 10_000


class ModelParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        where = ""
        if line is not None:
            where = f"line {line}"
            if col is not None:
                where += f", col {col}"
            where += ": "
        super().__init__(where + message)
        self.line = line
        self.col = col


class SimulationError(NumericalError):
    """A draw produced an invalid parameter; names the node and row.

    ``rep`` is the replication index of the failed draw, when known.
    """

    def __init__(self, message: str, rep: int | None = None):
        super().__init__(message)
        self.rep = rep


@dataclass(frozen=True)
class Term:
    """coef * product of up to two node references (a repeat means a square)."""

    coef: float
    names: tuple[str, ...] = ()


@dataclass(frozen=True)
class Expr:
    """A sum of terms, optionally passed through the logistic function."""

    terms: tuple[Term, ...]
    logistic: bool = False

    def variables(self) -> frozenset[str]:
        return frozenset(n for t in self.terms for n in t.names)

    def evaluate(self, columns: dict[str, np.ndarray]) -> np.ndarray | np.float64:
        """The value over the columns, kept only over the axes it varies on:
        a numpy scalar until the first term that references a column whose
        value is an array, then the broadcast shape of the terms.  Each
        step is a plain ufunc result; no operand is written in place."""
        # Term by term, in the order the model states them, from +0.0, so
        # that a product of -0.0 sums to +0.0; a product starts from its
        # coefficient.
        total = np.float64(0.0)
        for t in self.terms:
            value = t.coef
            for name in t.names:
                value = value * columns[name]
            total = total + value
        return expit(total) if self.logistic else total

    @classmethod
    def constant(cls, value: float) -> "Expr":
        return cls((Term(float(value)),))


@dataclass(frozen=True)
class NodeSpec:
    name: str
    dist: str  # "normal" | "bernoulli" | "constant"
    params: tuple[Expr, ...]

    def referenced(self) -> frozenset[str]:
        return frozenset(n for p in self.params for n in p.variables())


@dataclass(frozen=True)
class StructuralModel:
    """Node laws in temporal order.

    Built only by :func:`parse_model`, which rejects duplicate nodes and
    forward references with their line, and by :func:`intervene`, whose
    ``constant`` laws record the interventions.
    """

    specs: tuple[NodeSpec, ...]

    @cached_property
    def node_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.specs)

    def spec_for(self, name: str) -> NodeSpec:
        for spec in self.specs:
            if spec.name == name:
                return spec
        raise ModelParseError(f"unknown node {name!r}")

    def induced_dag(self) -> Dag:
        """One edge per referenced parent; acyclic by construction."""
        edges = [
            (parent, spec.name) for spec in self.specs for parent in spec.referenced()
        ]
        return Dag(self.node_names, edges)


# --- model text parsing ------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^(),~])"
    r"|(?P<bad>\S)"
)

_DISTRIBUTIONS = {"normal": 2, "bernoulli": 1}


class _Token(NamedTuple):
    kind: str  # "num", "ident", "op" or "end"
    text: str
    col: int  # 1-based column in the line


class _Parser:
    """Recursive descent over the tokens of one model line.

    Each error names the column of the token where reading stopped.
    """

    def __init__(self, text: str, line: int):
        self.line = line
        self.tokens: list[_Token] = []
        for m in _TOKEN_RE.finditer(text):
            if m.lastgroup == "bad":
                raise ModelParseError(
                    f"unexpected character {m.group()!r}", line, m.start() + 1
                )
            self.tokens.append(_Token(m.lastgroup or "", m.group(), m.start() + 1))
        self.tokens.append(_Token("end", "", len(text) + 1))
        self.i = 0

    def error(self, message: str, token: _Token | None = None) -> ModelParseError:
        return ModelParseError(message, self.line, (token or self.peek()).col)

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        self.i += 1
        return self.tokens[self.i - 1]

    def expect(self, text: str) -> None:
        if self.peek().text != text:
            raise self.error(f"expected {text!r}")
        self.i += 1

    def ident(self, what: str) -> _Token:
        if self.peek().kind != "ident":
            raise self.error(f"expected {what}")
        return self.take()

    def declaration(self, declared: set[str]) -> NodeSpec:
        """``node ~ dist(param, ...)``; parameters may reference only ``declared``."""
        node = self.ident("a node name")
        if node.text in declared:
            raise self.error(f"duplicate node {node.text!r}", node)
        self.expect("~")
        dist = self.ident("a distribution name")
        if dist.text not in _DISTRIBUTIONS:
            raise self.error(
                f"unknown distribution {dist.text!r}; expected normal or bernoulli", dist
            )
        self.expect("(")
        self.node, self.declared = node.text, declared
        params = [self.parameter()]
        while self.peek().text == ",":
            self.take()
            params.append(self.parameter())
        close = self.peek()
        self.expect(")")
        arity = _DISTRIBUTIONS[dist.text]
        if len(params) != arity:
            raise self.error(
                f"{dist.text} takes {arity} argument(s), got {len(params)}", close
            )
        if self.peek().kind != "end":
            raise self.error("trailing input after declaration")
        return NodeSpec(node.text, dist.text, tuple(params))

    def parameter(self) -> Expr:
        if self.peek().text != "plogis":
            return Expr(self.sum())
        self.take()
        self.expect("(")
        terms = self.sum()
        self.expect(")")
        return Expr(terms, logistic=True)

    def sum(self) -> tuple[Term, ...]:
        terms = [self.term(self.sign())]
        while self.peek().text in ("+", "-"):
            terms.append(self.term(self.sign()))
        return tuple(terms)

    def sign(self) -> float:
        if self.peek().text in ("+", "-"):
            return -1.0 if self.take().text == "-" else 1.0
        return 1.0

    def term(self, sign: float) -> Term:
        coef = sign
        if self.peek().kind == "num":
            number = self.take()
            coef *= float(number.text)
            if not math.isfinite(coef):
                raise self.error(f"non-finite coefficient {coef!r}", number)
            if self.peek().text != "*":
                return Term(coef)
            self.take()
        names = [self.name()]
        while self.peek().text in ("*", "^"):
            if len(names) == 2:
                raise self.error("terms multiply at most two node references")
            if self.take().text == "*":
                if self.peek().kind == "num":
                    raise self.error("write the coefficient before the node names")
                names.append(self.name())
            elif self.peek().kind == "num" and float(self.peek().text) == 2.0:
                self.take()
                names.append(names[-1])
            else:
                raise self.error("only squares (^2) are supported")
        return Term(coef, tuple(names))

    def name(self) -> str:
        """A node reference: an identifier other than plogis, not called."""
        token = self.ident("a node name")
        if token.text == "plogis":
            raise self.error("plogis may only wrap a whole parameter expression", token)
        if self.peek().text == "(":
            raise self.error(
                f"unknown function {token.text!r}; only plogis is supported", token
            )
        if token.text not in self.declared:
            raise self.error(
                f"{self.node!r} references {token.text!r} before its declaration", token
            )
        return token.text


def parse_model(text: str) -> StructuralModel:
    """Parse node declarations, one ``name ~ dist(args)`` per line.

    Declaration order is the temporal order: expressions may reference
    only earlier nodes.
    """
    specs: list[NodeSpec] = []
    declared: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if line.strip():
            specs.append(_Parser(line, lineno).declaration(declared))
            declared.add(specs[-1].name)
    if not specs:
        raise ModelParseError("model declares no nodes")
    return StructuralModel(tuple(specs))


# --- sampling ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Dataset:
    names: tuple[str, ...]
    # (n, len(names)) float64, column-major, so that a column is contiguous.
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.data.ndim != 2 or self.data.shape[1] != len(self.names):
            raise ValueError("data shape does not match column names")
        object.__setattr__(self, "data", np.asfortranarray(self.data))
        self.data.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.data.shape[0])

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.names.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r}") from None
        return self.data[:, j]

    def write_csv(self, out: TextIO) -> None:
        """The header, then the rows as ``repr`` of each value, to ``out``.

        Rows go out in blocks of ``_CSV_BLOCK_ROWS``, so the text of a large
        dataset is never held whole.  A ``repr`` holds no comma, quote or
        newline, so joining is what ``csv.writer`` would write.
        """
        csv.writer(out, lineterminator="\n").writerow(self.names)
        for start in range(0, self.n, _CSV_BLOCK_ROWS):
            block = self.data[start:start + _CSV_BLOCK_ROWS].tolist()
            out.write("".join(",".join(map(repr, row)) + "\n" for row in block))

    @classmethod
    def from_csv(cls, source: str) -> "Dataset":
        """Parse a header line and rows of finite numbers (see :func:`read_csv`)."""
        header, rows = read_csv(source)
        values = [
            [finite_cell(cell, line, name) for name, cell in zip(header, row)]
            for line, row in rows
        ]
        return cls(header, np.array(values, dtype=float, order="F"))


def _node_key(node: str) -> int:
    digest = hashlib.blake2b(node.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _checks(
    spec: NodeSpec, params: list[np.ndarray], draws: np.ndarray
) -> list[tuple[np.ndarray, str]]:
    """(mask of invalid values, what is invalid) for each range check of a
    drawn node, in the order they apply.  (A comparison with NaN is false,
    so a range test also flags NaN, and its bounds flag the infinities.)"""
    if spec.dist == "normal":
        mean, sd = params
        return [
            (~np.isfinite(mean), "non-finite mean"),
            (~((sd >= 0) & (sd < np.inf)), "invalid sd"),
            (~np.isfinite(draws), "non-finite draw"),
        ]
    if spec.dist == "bernoulli":
        (prob,) = params
        return [(~((prob >= 0) & (prob <= 1)), "probability outside [0, 1]")]
    return []


def _valid(spec: NodeSpec, params: list[np.ndarray], value: np.ndarray) -> bool:
    """Whether every check of :func:`_checks` passes, in fewer passes over
    the values.  The draws are finite, so a finite normal value has a
    finite mean and sd, and NaN fails every comparison."""
    if spec.dist == "normal":
        return bool(np.isfinite(value).all() and np.all(params[1] >= 0))
    (prob,) = params
    return bool(prob.min() >= 0 and prob.max() <= 1)


def check_block_size(model: StructuralModel, rows: int, what: str) -> None:
    """Refuse, naming ``what``, a simulation of ``rows`` rows of ``model``
    whose node values would exceed :data:`MAX_BLOCK_BYTES`."""
    size = rows * len(model.specs) * 8
    if size > MAX_BLOCK_BYTES:
        raise ValueError(
            f"{what}: {rows} rows of {len(model.specs)} nodes need {size} bytes, "
            f"above the simulation budget of {MAX_BLOCK_BYTES} bytes"
        )


# Raw draws by (node name, law): standard normals for a normal law, uniforms
# for a bernoulli one.  They depend on neither the model nor the parameters.
RawDraws = dict[tuple[str, str], np.ndarray]


def _streams(spec: NodeSpec, seed: int, reps) -> list[np.random.Generator]:
    """The generators of ``spec``'s node, one per replication in ``reps``:
    the substream keyed by (seed, node, rep)."""
    key = _node_key(spec.name)
    return [np.random.default_rng(np.random.SeedSequence((seed, key, rep))) for rep in reps]


def _fill(spec: NodeSpec, streams: list[np.random.Generator], out: np.ndarray) -> np.ndarray:
    """Row ``i`` of ``out`` gets the next raw draws of ``streams[i]``:
    standard normals for a normal law, uniforms for a bernoulli one.  A
    substream read in consecutive pieces gives the bytes of one read."""
    for rng, row in zip(streams, out):
        if spec.dist == "normal":
            rng.standard_normal(row.size, out=row)
        else:
            rng.random(row.size, out=row)
    return out


def _sweep(
    model: StructuralModel,
    n: int,
    seed: int,
    reps: range,
    out: dict[str, np.ndarray],
    arms: tuple[str, np.ndarray] | None = None,
    raw_draws: RawDraws | None = None,
) -> None:
    """The node loop of :func:`simulate`, :func:`simulate_block` and
    :func:`true_effect`: fills each array of ``out``, (lanes, n) by node
    name, with that node's values.

    The block has lanes along its first axis: one per replication in
    ``reps``, or with ``arms=(node, column)`` one per row of ``column``,
    whose value ``node`` takes there instead of drawing from its law; the
    arms share one replication.  The sweep walks the rows in blocks of
    :data:`ROW_BLOCK` per lane, and evaluates, draws and range-checks every
    node over a block while it is in cache, so it holds no node's values
    over all rows but the arrays of ``out``.  Each value is a plain ufunc
    result; a drawn node with a row of ``out`` per lane writes its block
    there through its last ufunc's ``out=``, and any other value is
    copied in.  Each drawn node keeps one generator per replication from
    block to block.  With ``raw_draws`` (replication lanes only) a node's
    raw draws are instead read from that mapping, or drawn into it whole,
    read-only and over all of ``reps``, when it lacks them.  Within a block, every value is kept only over the
    axes it varies on: a constant law stays a scalar, and only a
    descendant of the arm node gets the lane axis, through broadcasting.

    A failed check raises the error of the lowest failing lane (its first
    failing node, that node's first failing check, then row, over all
    blocks), as sweeping the lanes one by one and whole would.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if seed < 0 or min(reps, default=0) < 0:
        raise ValueError("seed and rep must be non-negative")
    lanes = len(reps) if arms is None else len(arms[1])
    streams: dict[str, list[np.random.Generator]] = {}

    def raw(spec: NodeSpec, rows: slice) -> np.ndarray:
        """The raw draws of ``spec``'s node over ``rows``, one row per
        replication: a read-only slice of ``raw_draws`` when it is given,
        else a fresh block."""
        if raw_draws is not None:
            key = (spec.name, spec.dist)
            if key not in raw_draws:
                raw_draws[key] = _fill(spec, _streams(spec, seed, reps),
                                       np.empty((len(reps), n)))
                raw_draws[key].setflags(write=False)
            return raw_draws[key][:, rows]
        if spec.name not in streams:
            streams[spec.name] = _streams(spec, seed, reps)
        return _fill(spec, streams[spec.name], np.empty((len(reps), rows.stop - rows.start)))

    # (lane, node index, check index) of the failure that wins so far, and
    # its error.
    first: tuple[tuple[int, int, int], SimulationError] | None = None
    # A value that overflows or is undefined is a range check's verdict,
    # not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, ROW_BLOCK):
            rows = slice(start, min(start + ROW_BLOCK, n))
            width = rows.stop - start
            columns: dict[str, np.ndarray | np.float64] = {}
            for i, spec in enumerate(model.specs):
                # With a row of ``out`` per lane, a drawn node's ufunc writes
                # its values there.
                target = out.get(spec.name)
                into = (target[:, rows] if target is not None and len(target) == len(reps)
                        else None)
                if arms is not None and spec.name == arms[0]:
                    value = arms[1]
                elif spec.dist == "constant":
                    value = spec.params[0].evaluate(columns)
                else:
                    params = [p.evaluate(columns) for p in spec.params]
                    draws = raw(spec, rows)
                    if spec.dist == "normal":
                        mean, sd = params
                        value = np.add(np.multiply(draws, sd, out=into), mean, out=into)
                    else:
                        value = np.less(draws, params[0], out=into)
                    checks = [] if _valid(spec, params, value) else _checks(spec, params, value)
                    for c, (bad, what) in enumerate(checks):
                        if not bad.any():
                            continue
                        bad = np.broadcast_to(bad, (lanes, width))
                        k = int(np.argmax(bad.any(axis=1)))
                        if first is None or (k, i, c) < first[0]:
                            row = start + int(np.argmax(bad[k]))
                            first = ((k, i, c), SimulationError(
                                f"node {spec.name!r}: {what} at row {row}",
                                rep=reps[k] if arms is None else reps[0]))
                columns[spec.name] = value
                if target is not None and value is not into:
                    target[:, rows] = value
    if first is not None:
        raise first[1]


def simulate_block(
    model: StructuralModel, n: int, seed: int, reps: range,
    raw_draws: RawDraws | None = None,
) -> dict[str, np.ndarray]:
    """Draw ``n`` rows for each replication in ``reps``: one (len(reps), n)
    array per node, in declaration order.

    Row ``i`` of every array is replication ``reps[i]``, drawn from the
    substreams keyed by (seed, node, reps[i]), so it does not depend on
    which other replications share the block.  The sweep streams the rows
    in blocks of :data:`ROW_BLOCK` per replication; a drawn node's block
    is written into the returned arrays through its ufunc's ``out=``, and
    they are the only values the sweep holds whole.  A constant (an
    intervention, or a parameter with no node term) is one number until
    it is copied in.  A failed check raises the error of the
    lowest failing replication (its first failing node, then row), as
    drawing the replications one by one would; a bad constant fails at
    row 0 of the lowest replication.  A block whose node values exceed
    :data:`MAX_BLOCK_BYTES` is refused before anything is drawn.

    Models that share nodes can share their draws.  Calls given one
    ``raw_draws`` mapping, with the same ``n``, ``seed`` and ``reps``,
    take a node's raw draws from it and draw the ones it lacks into it,
    always whole and over the whole of ``reps``; so each (node name, law)
    substream is drawn once for all of them.  No returned column shares
    memory with the mapping.
    """
    check_block_size(model, len(reps) * n, f"n {n}")
    out = {name: np.empty((len(reps), n)) for name in model.node_names}
    _sweep(model, n, seed, reps, out, raw_draws=raw_draws)
    return out


def simulate(model: StructuralModel, n: int, seed: int, rep: int = 0) -> Dataset:
    """Draw ``n`` independent rows in declaration order: replication
    ``rep`` of :func:`simulate_block`.

    Deterministic given (model, n, seed, rep); node values never
    depend on the declaration order of unrelated nodes.  The sweep writes
    each block of rows straight into the dataset's column-major array.
    """
    check_block_size(model, n, f"n {n}")
    data = np.empty((n, len(model.specs)), order="F")
    out = {name: data.T[j:j + 1] for j, name in enumerate(model.node_names)}
    _sweep(model, n, seed, range(rep, rep + 1), out)
    return Dataset(model.node_names, data)


def intervene(model: StructuralModel, node: str, value: float) -> StructuralModel:
    """Set ``node`` to ``value``: replace its law with a constant; all else
    untouched.

    A node takes at most one intervention: a second one would skip the
    checks that the node's original law implies.
    """
    spec = model.spec_for(node)
    if spec.dist == "constant":
        raise ValueError(f"{node!r} already has an intervention")
    if not math.isfinite(value):
        raise ValueError("intervention value must be finite")
    if spec.dist == "bernoulli" and value not in (0.0, 1.0):
        raise ValueError(f"{node!r} is bernoulli; intervention value must be 0 or 1")
    new_spec = NodeSpec(spec.name, "constant", (Expr.constant(value),))
    specs = tuple(new_spec if s.name == spec.name else s for s in model.specs)
    return StructuralModel(specs)


@dataclass(frozen=True)
class EffectEstimate:
    value: float
    mc_se: float


def check_oracle_model(
    model: StructuralModel, exposure: str, outcome: str, estimand: str
) -> None:
    """What :func:`true_effect` needs of the model: an exposure node it can
    set to 0 and 1, an outcome node, and a bernoulli outcome for log_MOR."""
    if model.spec_for(exposure).dist != "bernoulli":
        raise ValueError(f"exposure {exposure!r} must be a bernoulli node")
    outcome_spec = model.spec_for(outcome)
    if estimand == LOG_MOR and outcome_spec.dist != "bernoulli":
        raise ValueError("log_MOR requires a binary (bernoulli) outcome")


def true_effect(
    model: StructuralModel,
    exposure: str,
    outcome: str,
    estimand: str = ATE,
    n_oracle: int = 1_000_000,
    seed: int = 0,
) -> EffectEstimate:
    """Post-intervention contrast of the outcome under exposure 1 vs 0.

    Both arms share one sweep of the node loop: the exposure's value is
    the arm column [1, 0], and every node draws its substreams once, so
    shared upstream draws cancel out of the contrast and the reported
    Monte-Carlo standard error reflects the paired differences.  Only
    the exposure's descendants hold a value per arm.  The sweep streams
    the rows in blocks of :data:`ROW_BLOCK` and holds only the outcome's
    two arms whole, (2, n_oracle), which the mean and SD reduce.  A range
    error in arm 1 wins over one in arm 0, as when the arms ran one after
    the other.
    """
    if estimand not in ESTIMANDS:
        raise ValueError(f"unknown estimand {estimand!r}; expected one of {ESTIMANDS}")
    if n_oracle < ORACLE_MIN_N:
        raise ValueError(f"n_oracle must be at least {ORACLE_MIN_N}")
    check_oracle_model(model, exposure, outcome, estimand)
    check_block_size(model, 2 * n_oracle, f"n_oracle {n_oracle} in each of two arms")

    y = np.empty((2, n_oracle))
    _sweep(model, n_oracle, seed, range(1), {outcome: y},
           arms=(exposure, np.array([[1.0], [0.0]])))
    y1, y0 = y

    if estimand == ATE:
        diff = y1 - y0
        value = float(diff.mean())
        mc_se = float(diff.std(ddof=1) / math.sqrt(n_oracle))
        return EffectEstimate(value, mc_se)

    p1 = float(y1.mean())
    p0 = float(y0.mean())
    if p1 in (0.0, 1.0) or p0 in (0.0, 1.0):
        raise ValueError(
            f"degenerate arm: P(Y=1|do({exposure}=1))={p1}, P(Y=1|do({exposure}=0))={p0}"
        )
    value = math.log(p1 / (1 - p1)) - math.log(p0 / (1 - p0))
    g1 = 1.0 / (p1 * (1 - p1))
    g0 = 1.0 / (p0 * (1 - p0))
    cov = float(np.mean((y1 - p1) * (y0 - p0)))
    var = (g1 * g1 * p1 * (1 - p1) + g0 * g0 * p0 * (1 - p0) - 2 * g1 * g0 * cov) / n_oracle
    mc_se = math.sqrt(max(var, 0.0))
    return EffectEstimate(float(value), mc_se)
