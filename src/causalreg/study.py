"""Replicated simulation harness: bias of regression estimators.

A study runs (model fixture, regression design) scenarios over many
replications, compares the mean target coefficient against the true
effect, and reports bias with its Monte-Carlo standard error.
Replication r draws from substreams keyed by (seed, node, r + 1);
truth oracles use replication 0, so worker partitioning and scenario
order can never change a single draw.

A replication job is one range of consecutive replications of every
scenario.  It holds the raw draws of each distinct (node name, law)
substream over its range, drawn once for all the scenarios that read
it; it simulates each distinct model once on them, one model's node
values at a time, and fits each scenario's design on its model's
columns.
"""

from __future__ import annotations

import csv
import io
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np
from scipy.special import expit

from ._blas import single_blas_thread
from ._shared import NumericalError
from .estimators import DesignSpec, FitError, irls, ols, stacked_design
from .fixtures import MODEL_FIXTURES, model_fixture
from .scm import (
    ATE,
    ESTIMANDS,
    LOG_MOR,
    MAX_BLOCK_BYTES,
    ORACLE_MIN_N,
    RawDraws,
    SimulationError,
    StructuralModel,
    check_block_size,
    check_oracle_model,
    parse_model,
    simulate_block,
    true_effect,
)

__all__ = [
    "Scenario",
    "StudyConfig",
    "ScenarioResult",
    "BiasReport",
    "StudyError",
    "default_study_config",
    "run_study",
    "render_bias_table",
    "estimates_csv",
]

MAX_FAILURE_FRACTION = 0.01
# Rows of one replication range, the replications of a job times
# sample_size: each of the job's substreams and node values is an array of
# that many rows, small enough to stay in cache (at n=1000, ranges of 50
# replications ran a workers=1 panel about 20% faster than ranges of 100).
# A job holds one such array per distinct substream of the study, and
# those of one model's nodes; when they would pass MAX_BLOCK_BYTES the
# range is shorter.
MAX_CHUNK_ROWS = 50_000
# Replications × scenarios of one study.  A report keeps one (replication,
# estimate) pair per replication of each scenario (about 100 bytes each),
# and the job list is built before any job runs, so a study asks for its
# memory up front: the bound keeps that near 100 MB.
MAX_REPLICATION_RESULTS = 1_000_000


class StudyError(NumericalError):
    pass


def _is_names(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


# Kinds of JSON config fields: how an error describes them, and the test.
_TEXT = ("a string", lambda v: isinstance(v, str))
_LABEL = ("a string or null", lambda v: v is None or isinstance(v, str))
_ARRAY = ("a JSON array", lambda v: isinstance(v, list))
_NAMES = ("a JSON array of names", _is_names)
_PAIRS = ("a JSON array of arrays of names",
          lambda v: isinstance(v, list) and all(_is_names(p) for p in v))
_INT = ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_TRUTH = ("a finite number or null", lambda v: v is None or (
    isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)))


def _fields(doc: object, kinds: dict[str, tuple], where: str, required: tuple = ()) -> dict:
    """The fields of ``doc`` that ``kinds`` names, each of its kind; an
    absent field is left out, so that the dataclass default fills it in.
    ``doc`` must be a JSON object that holds every field of ``required``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object")
    for field in required:
        if field not in doc:
            raise ValueError(f"{where}: missing field {field!r}")
    for field, (what, test) in kinds.items():
        if field in doc and not test(doc[field]):
            raise ValueError(f"{where}: field {field!r} must be {what}")
    return {field: doc[field] for field in kinds if field in doc}


@dataclass(frozen=True)
class Scenario:
    id: str
    model: str  # fixture name, or inline model text containing "~"
    design: DesignSpec
    target: str
    estimand: str = ATE
    label: str | None = None  # None means the id
    true_value: float | None = None  # exact truth; None means oracle-derived
    require_ones: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "require_ones", tuple(self.require_ones))
        if self.label is None:
            object.__setattr__(self, "label", self.id)
        if self.estimand not in ESTIMANDS:
            raise ValueError(f"unknown estimand {self.estimand!r}")
        if self.target not in self.design.column_names():
            raise ValueError(
                f"target coefficient {self.target!r} is not a design column"
            )

    def resolve_model(self) -> StructuralModel:
        """The scenario's model; every column the scenario reads must be a node,
        and a scenario without ``true_value`` must give its oracle what it needs.
        Errors name the scenario."""
        try:
            if "~" in self.model:
                model = parse_model(self.model)
            elif self.model in MODEL_FIXTURES:
                model = model_fixture(self.model)
            else:
                raise ValueError(f"unknown model fixture {self.model!r}")
            read = {*self.design.variables(), *self.require_ones}
            missing = sorted(read - set(model.node_names))
            if missing:
                raise ValueError(f"column {missing[0]!r} is not a node of its model")
            if self.true_value is None:
                check_oracle_model(model, self.target, self.design.outcome, self.estimand)
        except ValueError as exc:  # a ModelParseError is one too
            raise ValueError(f"scenario {self.id!r}: {exc}") from None
        return model

    @classmethod
    def from_dict(cls, doc: dict, index: int = 0) -> "Scenario":
        """A scenario from its JSON object, at position ``index`` of a config."""
        _fields(doc, {}, f"scenario {index}", required=("id", "model", "design", "target"))
        design = doc["design"]
        _fields(design, {}, f"scenario {index} design", required=("outcome",))
        _fields(doc, {"id": _TEXT}, f"scenario {index}")
        where = f"scenario {doc['id']!r}"
        spec = _fields(design, {
            "outcome": _TEXT,
            "covariates": _NAMES,
            "interactions": _PAIRS,
            "squares": _NAMES,
        }, where)
        fields = _fields(doc, {
            "id": _TEXT,
            "model": _TEXT,
            "target": _TEXT,
            "estimand": _TEXT,
            "label": _LABEL,
            "true_value": _TRUTH,
            "require_ones": _NAMES,
        }, where)
        try:
            return cls(design=DesignSpec(**spec), **fields)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class StudyConfig:
    scenarios: tuple[Scenario, ...]
    replications: int = 1000
    sample_size: int = 1000
    seed: int = 0
    oracle_n: int = 1_000_000

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.sample_size < 10:
            raise ValueError("sample_size must be at least 10")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.oracle_n < ORACLE_MIN_N:
            raise ValueError(f"oracle_n must be at least {ORACLE_MIN_N}")
        if self.replications * len(self.scenarios) > MAX_REPLICATION_RESULTS:
            raise ValueError(
                f"replications {self.replications} for {len(self.scenarios)} scenarios "
                f"is above the bound of {MAX_REPLICATION_RESULTS} replication results"
            )
        ids = [s.id for s in self.scenarios]
        if len(set(ids)) != len(ids):
            raise ValueError("scenario ids must be unique")

    @classmethod
    def from_dict(cls, doc: dict) -> "StudyConfig":
        where = "study config"
        scenarios = _fields(doc, {"scenarios": _ARRAY}, where).get("scenarios", [])
        scenarios = tuple(Scenario.from_dict(s, index=i) for i, s in enumerate(scenarios))
        return cls(scenarios, **_fields(doc, {
            "replications": _INT,
            "sample_size": _INT,
            "seed": _INT,
            "oracle_n": _INT,
        }, where))


@dataclass(frozen=True)
class ScenarioResult:
    id: str
    label: str
    estimand: str
    sample_size: int
    replications: int
    failures: int
    mean_estimate: float
    true_value: float
    true_provenance: str  # "exact" | "oracle"
    bias: float
    mc_se: float


@dataclass(frozen=True)
class BiasReport:
    config: StudyConfig
    results: tuple[ScenarioResult, ...]
    # per scenario id: (replication index, estimate) for successful replications
    estimates: dict[str, tuple[tuple[int, float], ...]]

    def as_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "scenarios": [asdict(r) for r in self.results],
        }

    def result(self, scenario_id: str) -> ScenarioResult:
        for r in self.results:
            if r.id == scenario_id:
                return r
        raise KeyError(f"no scenario {scenario_id!r} in report")


def default_study_config(**settings: int) -> StudyConfig:
    """The ten-scenario bias panel at desk scale; ``settings`` are the other
    :class:`StudyConfig` fields (replications, sample_size, seed, oracle_n)."""
    mediation_ate = 1.0 + float(expit(-1.5)) - float(expit(0.5))
    ya_l = DesignSpec(outcome="Y", covariates=("A", "L"))
    ya = DesignSpec(outcome="Y", covariates=("A",))
    scenarios = (
        Scenario("setup1", "setup1", ya_l, "A", ATE,
                 label="ATE, setup 1: simple", true_value=1.0),
        Scenario("setup2", "setup2", ya_l, "A", ATE,
                 label="ATE, setup 2: incorrect model specification",
                 true_value=1.0),
        Scenario("setup3", "setup3",
                 DesignSpec(outcome="Y", covariates=("A", "L", "L2")), "A", ATE,
                 label="ATE, setup 3: collider structure", true_value=1.0),
        Scenario("setup4", "setup4", ya_l, "A", ATE,
                 label="ATE, setup 4: effect modification (not randomized)",
                 true_value=2.0),
        Scenario("setup4b", "setup4b", ya_l, "A", ATE,
                 label="ATE, setup 4b: effect modification (randomized)",
                 true_value=2.0),
        Scenario("setup5_conditional", "setup5", ya_l, "A", LOG_MOR,
                 label="log MOR, setup 5: collapsibility, conditional"),
        Scenario("setup5_crude", "setup5", ya, "A", LOG_MOR,
                 label="log MOR, setup 5: collapsibility, crude"),
        Scenario("setup6_conditional", "setup6",
                 DesignSpec(outcome="Y", covariates=("A", "M")), "A", ATE,
                 label="ATE, setup 6: mediation, conditional",
                 true_value=mediation_ate),
        Scenario("setup6_crude", "setup6", ya, "A", ATE,
                 label="ATE, setup 6: mediation, crude", true_value=mediation_ate),
        Scenario("setup7", "setup7",
                 DesignSpec(outcome="Y", covariates=("A", "L1", "L2")), "A", ATE,
                 label="ATE, setup 7: MNAR + complete cases", true_value=1.0,
                 require_ones=("C_A", "C_L2", "C_Y")),
    )
    return StudyConfig(scenarios, **settings)


Batch = list[tuple[int, float | None, str | None]]


def _replicate(
    groups: dict[StructuralModel, list[Scenario]],
    sample_size: int,
    seed: int,
    reps: range,
) -> dict[str, Batch | SimulationError]:
    """The replication kernel: replications ``reps`` of every scenario of
    ``groups``, which lists the scenarios of each distinct model.

    Each model is simulated once, as one block, from raw draws that the
    job's models share, and its scenarios are fitted on its columns.  For
    each scenario id: ``(rep, estimate, None)`` or ``(rep, None, failure
    message)`` for each replication, or the range error that stopped its
    model at its lowest failing replication.  An error stops no other
    model.
    """
    raw_draws: RawDraws = {}
    batches: dict[str, Batch | SimulationError] = {}
    for model, scenarios in groups.items():
        try:
            columns = simulate_block(model, sample_size, seed,
                                     range(reps.start + 1, reps.stop + 1), raw_draws)
        except SimulationError as exc:
            for scenario in scenarios:
                batches[scenario.id] = SimulationError(
                    f"scenario {scenario.id!r}, replication {exc.rep - 1}: {exc}")
            continue
        for scenario in scenarios:
            batches[scenario.id] = _fit(columns, scenario, sample_size, reps)
        del columns  # one model's node values at a time
    return batches


def _fit(
    columns: dict[str, np.ndarray], scenario: Scenario, sample_size: int, reps: range
) -> Batch:
    """The scenario's estimate or failure for each replication of the block.

    The replications are fitted as stacks, one per complete-case row
    count, by ``ols`` or ``irls``, which give each replication its own
    verdict and message, as on its complete rows alone.
    """
    design = scenario.design
    names = design.column_names()
    target = names.index(scenario.target)
    fitter = irls if scenario.estimand == LOG_MOR else ols
    X, y = stacked_design(columns, design)
    keep = np.ones(y.shape, dtype=bool)
    for name in scenario.require_ones:
        keep &= columns[name] == 1.0
    rows = keep.sum(axis=1)
    results: list[tuple[float | None, str | None] | None] = [None] * len(reps)
    for count in np.unique(rows):
        idx = np.flatnonzero(rows == count)
        Xg, yg = (X, y) if idx.size == len(reps) else (X[idx], y[idx])
        if count < sample_size:
            Xg = Xg[keep[idx]].reshape(idx.size, count, len(names))
            yg = yg[keep[idx]].reshape(idx.size, count)
        for i, fit in zip(idx, fitter(Xg, yg, design)):
            results[i] = ((None, str(fit)) if isinstance(fit, FitError)
                          else (fit.coefficients[target], None))
    return [(rep, *result) for rep, result in zip(reps, results)]


def _aggregate(
    scenario: Scenario,
    config: StudyConfig,
    results: Batch,
    truth: tuple[float, str],
) -> tuple[ScenarioResult, tuple[tuple[int, float], ...]]:
    """The scenario's row and estimates from its ``results``, which come in
    replication order: ranges in job order, each in replication order."""
    estimates = [(rep, v) for rep, v, _ in results if v is not None]
    failures = [(rep, msg) for rep, v, msg in results if v is None]
    if len(failures) > MAX_FAILURE_FRACTION * config.replications:
        examples = "; ".join(f"rep {rep}: {msg}" for rep, msg in failures[:5])
        raise StudyError(
            f"scenario {scenario.id!r}: {len(failures)} of "
            f"{config.replications} replications failed ({examples})"
        )
    values = np.asarray([v for _, v in estimates])
    mean = float(values.mean())
    mc_se = (
        float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    )
    value, provenance = truth
    result = ScenarioResult(
        id=scenario.id,
        label=scenario.label,
        estimand=scenario.estimand,
        sample_size=config.sample_size,
        replications=int(values.size),
        failures=len(failures),
        mean_estimate=mean,
        true_value=value,
        true_provenance=provenance,
        bias=mean - value,
        mc_se=mc_se,
    )
    return result, tuple((rep, float(v)) for rep, v in estimates)


def _dispatch(jobs: list[tuple[Callable, tuple]], workers: int) -> list:
    """``fn(*args)`` for every job, in job order.

    The jobs run in this process when one worker suffices, otherwise on a
    process pool of at most ``workers`` processes, one per core and one
    per job at most (the fork start method launches the whole pool on the
    first submit).  Either way they run with one BLAS thread, set here
    before the pool forks so that workers inherit it: OpenBLAS's fork
    handler stops its thread server in the child, and any setter call
    there would start a server thread that spins beside the jobs.  This
    process gets its previous thread counts back afterwards.
    """
    size = min(workers, os.cpu_count() or 1, len(jobs))
    with single_blas_thread():
        if size <= 1:
            return [fn(*args) for fn, args in jobs]
        with ProcessPoolExecutor(max_workers=size) as pool:
            futures = [pool.submit(fn, *args) for fn, args in jobs]
            try:
                return [future.result() for future in futures]
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise


def _range_size(config: StudyConfig, models: list[StructuralModel], lanes: int) -> int:
    """Replications per job: enough to give each of ``lanes`` workers a
    range, at most ``MAX_CHUNK_ROWS`` rows (at least one replication), and
    no more than the simulation budget admits of what a job holds: a block
    of each distinct (node name, law) substream of the study and of the
    largest model's nodes.  A study of which one replication does not fit
    is refused, naming ``sample_size``."""
    streams = {(s.name, s.dist) for m in models for s in m.specs if s.dist != "constant"}
    nodes = max(len(m.specs) for m in models)
    need = (len(streams) + nodes) * config.sample_size * 8
    if need > MAX_BLOCK_BYTES:
        raise ValueError(
            f"sample_size {config.sample_size}: one replication of {len(streams)} "
            f"distinct substreams and the {nodes} nodes of the largest model needs "
            f"{need} bytes, above the simulation budget of {MAX_BLOCK_BYTES} bytes"
        )
    return max(1, min(
        math.ceil(config.replications / lanes),
        MAX_CHUNK_ROWS // config.sample_size,
        MAX_BLOCK_BYTES // need,
    ))


def run_study(config: StudyConfig, workers: int = 1) -> BiasReport:
    """Run every scenario; results do not depend on the worker count.

    Each scenario's model is resolved and checked once, and its oracle's
    two arms are checked against the simulation budget
    (:func:`check_block_size`), all before any job runs; so is one
    replication of the whole study, by :func:`_range_size`.
    One job list holds a ``true_effect`` job per distinct oracle (resolved
    model, exposure, outcome, estimand), first so that the n=10^6 oracle
    overlaps the replications, then one job per range of consecutive
    replications (:func:`_range_size`), each of which runs every scenario
    over its range, simulating each distinct model once.  A range error
    stops the study, naming the first scenario in config order that
    failed, at its lowest failing replication; it wins over any
    scenario's too many failed fits.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if not config.scenarios:
        return BiasReport(config=config, results=(), estimates={})
    models = [s.resolve_model() for s in config.scenarios]
    oracle_of: dict[str, tuple[StructuralModel, str, str, str]] = {}
    groups: dict[StructuralModel, list[Scenario]] = {}
    for scenario, model in zip(config.scenarios, models):
        if scenario.true_value is None:
            check_block_size(model, 2 * config.oracle_n, f"scenario {scenario.id!r}: "
                             f"oracle_n {config.oracle_n} in each of two arms")
            oracle_of[scenario.id] = (model, scenario.target, scenario.design.outcome,
                                      scenario.estimand)
        groups.setdefault(model, []).append(scenario)
    oracles = list(dict.fromkeys(oracle_of.values()))
    chunk = _range_size(config, models, min(workers, os.cpu_count() or 1))
    jobs: list[tuple[Callable, tuple]] = [
        (true_effect, (*key, config.oracle_n, config.seed)) for key in oracles
    ]
    for start in range(0, config.replications, chunk):
        reps = range(start, min(start + chunk, config.replications))
        jobs.append((_replicate, (groups, config.sample_size, config.seed, reps)))
    outputs = _dispatch(jobs, workers)
    truths = {key: estimate.value for key, estimate in zip(oracles, outputs)}
    ranges: list[dict[str, Batch | SimulationError]] = outputs[len(oracles):]
    for scenario in config.scenarios:
        for batches in ranges:
            if isinstance(batches[scenario.id], SimulationError):
                raise batches[scenario.id]

    results: list[ScenarioResult] = []
    estimates: dict[str, tuple[tuple[int, float], ...]] = {}
    for scenario in config.scenarios:
        if scenario.true_value is not None:
            truth = (float(scenario.true_value), "exact")
        else:
            truth = (truths[oracle_of[scenario.id]], "oracle")
        batch = [item for batches in ranges for item in batches[scenario.id]]
        result, values = _aggregate(scenario, config, batch, truth)
        results.append(result)
        estimates[scenario.id] = values
    return BiasReport(config=config, results=tuple(results), estimates=estimates)


def render_bias_table(report: BiasReport) -> str:
    """Aligned text table, one row per scenario."""
    headers = ("scenario", "estimand", "mean", "truth", "bias", "mc_se", "R", "fail")
    rows = [
        (
            r.label,
            r.estimand,
            f"{r.mean_estimate:.4f}",
            f"{r.true_value:.4f} ({r.true_provenance})",
            f"{r.bias:+.4f}",
            f"{r.mc_se:.4f}",
            str(r.replications),
            str(r.failures),
        )
        for r in report.results
    ]
    widths = [
        max(len(headers[j]), *(len(row[j]) for row in rows)) if rows else len(headers[j])
        for j in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def estimates_csv(report: BiasReport) -> str:
    """Per-replication estimates, one row per successful replication."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["scenario", "replication", "estimate"])
    for scenario in report.config.scenarios:
        for rep, value in report.estimates[scenario.id]:
            writer.writerow([scenario.id, rep, repr(value)])
    return buf.getvalue()
