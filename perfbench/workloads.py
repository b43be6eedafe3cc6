"""The three workloads: each is one closed-loop client in one process.

A timed run goes on until the time spent inside the program's calls (the
work time) reaches the run length; it returns the per-request latencies
and the items done, so throughput is items over work time.  A fixed run
does a set amount of work, for the traced run and for the untraced
replica that prices the tracing.
Correctness checks run between operations, outside every timed span; in
the traced run they wait until the tracer is removed, so that the
program's functions they call are not counted as the program's work.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import time
from contextlib import redirect_stderr, redirect_stdout

import checks
import inputs

# Criterion 5 is checked on the replications pooled over a run's studies;
# four studies of 100 put the weakest biased scenario near 14 MC-SE.
PANEL_MIN_JOBS = 4
QUERY_TRACE_ROUNDS = 2


class Ledger:
    """Operations attempted and failed, and the correctness checks run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.checks: dict[str, dict] = {}
        self._deferred: list | None = None

    def op(self, ok: bool, reason: str = "", count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.failures[reason] = self.failures.get(reason, 0) + count

    def check(self, name: str, fn, *args) -> None:
        """Run the check ``fn(*args)``, which returns failure messages, or
        queue it while checks are deferred."""
        if self._deferred is not None:
            self._deferred.append((name, fn, args))
        else:
            self._record(name, fn(*args))

    def defer(self) -> None:
        self._deferred = []

    def run_deferred(self) -> None:
        deferred, self._deferred = self._deferred or [], None
        for name, fn, args in deferred:
            self._record(name, fn(*args))

    def as_doc(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures, "checks": self.checks}

    def merge(self, doc: dict) -> None:
        """Add the counts of a ledger kept in another process."""
        self.attempted += doc["attempted"]
        self.failed += doc["failed"]
        for reason, count in doc["failures"].items():
            self.failures[reason] = self.failures.get(reason, 0) + count
        for name, theirs in doc["checks"].items():
            entry = self.checks.setdefault(name, {"ran": 0, "failed": 0, "examples": []})
            entry["ran"] += theirs["ran"]
            entry["failed"] += theirs["failed"]
            entry["examples"] = (entry["examples"] + theirs["examples"])[:5]

    def _record(self, name: str, errors: list[str]) -> None:
        entry = self.checks.setdefault(name, {"ran": 0, "failed": 0, "examples": []})
        entry["ran"] += 1
        self.op(not errors, f"check:{name}")
        if errors:
            entry["failed"] += 1
            entry["examples"] = (entry["examples"] + errors)[:5]


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


# --- panel --------------------------------------------------------------------


def _study_pass(cr, config, workers: int, ledger: Ledger):
    """One run_study call; returns (wall s, cpu s, report or None)."""
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        report = cr.run_study(config, workers=workers)
    except cr.StudyError as exc:
        wall = time.perf_counter() - t0
        ledger.op(False, f"StudyError: {exc}"[:200],
                  count=config.replications * len(config.scenarios))
        return wall, cpu_seconds() - c0, None
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - c0
    reps = sum(r.replications for r in report.results)
    dropped = sum(r.failures for r in report.results)
    ledger.op(True, count=reps)
    if dropped:
        ledger.op(False, "FitError", count=dropped)
    return wall, cpu, report


def clear_oracle_cache(cr) -> None:
    """Empty the study's n=10^6 oracle cache, so that each pass pays the
    oracle as a fresh CLI process would.  Called outside timed spans."""
    cached = getattr(getattr(cr, "study", None), "_oracle_truth", None)
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()


def _two_passes(cr, config, ledger: Ledger):
    """The study at workers=1, then at workers=2 on the same config, each
    starting with a cold oracle cache; returns both (wall, cpu, report)."""
    clear_oracle_cache(cr)
    first = _study_pass(cr, config, 1, ledger)
    clear_oracle_cache(cr)
    second = _study_pass(cr, config, 2, ledger)
    return first, second


def oracle_seconds(cr, config, ledger: Ledger) -> float:
    """Time of the config's n=10^6 true_effect oracles, called directly,
    to give the oracle's share of a pass."""
    t0 = time.perf_counter()
    for scenario in config.scenarios:
        if scenario.true_value is None:
            cr.true_effect(scenario.resolve_model(), exposure=scenario.target,
                           outcome=scenario.design.outcome, estimand=scenario.estimand,
                           n_oracle=config.oracle_n, seed=config.seed)
            ledger.op(True)
    return time.perf_counter() - t0


def panel_job(cr, seed: int, job: int) -> dict:
    """One batch job, run in a process of its own: the ten-scenario study
    at workers=1, then workers=2 on the same config.  Both passes pay the
    n=10^6 oracle.  Returns the pass times, the workers=1 report body and
    the job's ledger."""
    ledger = Ledger()
    replications = inputs.PANEL_REPLICATIONS
    config = cr.default_study_config(
        replications=replications, sample_size=inputs.PANEL_SAMPLE_SIZE,
        seed=inputs.panel_seed(seed, job),
    )
    (wall1, cpu1, rep1), (wall2, cpu2, rep2) = _two_passes(cr, config, ledger)
    body = None
    if rep1 is not None and rep2 is not None:
        body = rep1.as_dict()
        ledger.check("criterion8_w1_w2_identical", checks.same_body,
                     f"job {job}", body, rep2.as_dict())
    items = replications * len(config.scenarios)
    return {"job": {"wall_w1": wall1, "wall_w2": wall2, "cpu_w1": cpu1, "cpu_w2": cpu2,
                    "items": items, "seed": config.seed},
            "body": body, "ledger": ledger.as_doc()}


def panel_timed(cr, seed: int, seconds: float, ledger: Ledger, run_job) -> dict:
    """Jobs one after another, each in a fresh process started by
    ``run_job(index)``, until their pass times sum to ``seconds``.  A fresh
    process per job is what a CLI user gets for each study; it also spreads
    the speed a process happens to get over the run's jobs instead of
    fixing it for the whole run: on a 2-core VM, workers=1 passes agreed
    within a process, but their median ranged from 0.9 to 1.4 s between
    processes started one after another."""
    replications = inputs.PANEL_REPLICATIONS
    jobs, bodies = [], []
    measured = 0.0
    while len(jobs) < PANEL_MIN_JOBS or measured < seconds:
        out = run_job(len(jobs))
        ledger.merge(out["ledger"])
        if out["body"] is not None:
            bodies.append(out["body"])
        job = out["job"]
        jobs.append(job)
        measured += job["wall_w1"] + job["wall_w2"]
    if bodies:
        ledger.check("criterion5_verdicts", checks.check_panel_verdicts, bodies)
    config = cr.default_study_config(
        replications=replications, sample_size=inputs.PANEL_SAMPLE_SIZE,
        seed=inputs.panel_seed(seed, 0),
    )
    oracle_s = oracle_seconds(cr, config, ledger)
    mean_w1 = sum(j["wall_w1"] for j in jobs) / len(jobs)
    mean_w2 = sum(j["wall_w2"] for j in jobs) / len(jobs)
    return {
        "latencies_s": [j["wall_w1"] + j["wall_w2"] for j in jobs],
        "items": sum(2 * j["items"] for j in jobs),
        "work_s": measured,
        "detail": {
            "jobs": jobs,
            "reps_per_s_w1": sum(j["items"] for j in jobs) / sum(j["wall_w1"] for j in jobs),
            "reps_per_s_w2": sum(j["items"] for j in jobs) / sum(j["wall_w2"] for j in jobs),
            "cpu_util_w2": sum(j["cpu_w2"] for j in jobs) / (2 * sum(j["wall_w2"] for j in jobs)),
            "oracle_s": oracle_s,
            "oracle_share_w1": oracle_s / mean_w1,
            "oracle_share_w2": oracle_s / mean_w2,
            "replications_per_study": replications,
            "sample_size": inputs.PANEL_SAMPLE_SIZE,
        },
    }


def _body_digest(report) -> str | None:
    if report is None:
        return None
    return hashlib.sha256(json.dumps(report.as_dict(), sort_keys=True).encode()).hexdigest()


def panel_fixed(cr, seed: int, replications: int, ledger: Ledger, traced: bool) -> dict:
    """One study at workers=1.  Untraced (the replica), it is followed by
    the same study at workers=2.  Traced, the workers=2 study is left out:
    wrappers would run inside the forked workers and their spans could not
    come back, so the study-level numbers come from the replica."""
    config = cr.default_study_config(
        replications=replications, sample_size=inputs.PANEL_SAMPLE_SIZE,
        seed=inputs.panel_seed(seed, 0),
    )
    if not traced:
        (wall1, cpu1, rep1), (wall2, cpu2, rep2) = _two_passes(cr, config, ledger)
        return {"work_s": wall1, "wall_w1": wall1, "wall_w2": wall2, "cpu_w1": cpu1,
                "cpu_w2": cpu2, "digest_w1": _body_digest(rep1),
                "digest_w2": _body_digest(rep2)}
    wall1, _, rep1 = _study_pass(cr, config, 1, ledger)
    failed = sum(r.failures for r in rep1.results) if rep1 is not None else 0
    return {"work_s": wall1, "failed_reps": failed, "digest_w1": _body_digest(rep1)}


def check_panel_replica(fixed: dict, replica_out: dict, ledger: Ledger) -> None:
    """Criterion 8 on the replica's two studies, and the traced study's
    report body equal to the untraced one."""
    ledger.check("criterion8_w1_w2_identical", checks.same_body, "replica",
                 replica_out["digest_w1"], replica_out["digest_w2"])
    ledger.check("traced_body_identical", checks.same_body, "traced vs untraced",
                 fixed["digest_w1"], replica_out["digest_w1"])


# --- queries ------------------------------------------------------------------


def run_query(cli, query, ledger: Ledger, cr, exits: dict) -> float:
    """One cli.main request with stdout captured; returns its latency in s."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(query.argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception as exc:  # any traceback is a failed request
            code = f"{type(exc).__name__}"
        latency = time.perf_counter() - t0
    exits[str(code)] = exits.get(str(code), 0) + 1
    if code not in (0, 2):
        ledger.op(False, f"{query.kind} exit {code}: {err.getvalue().strip()[:160]}")
        return latency
    ledger.op(True)
    try:
        doc = json.loads(out.getvalue())
    except ValueError:
        doc = None
    if query.kind in ("analyze", "analyze_minimal"):
        ledger.check("analyze_backdoor_independent", checks.check_analyze, query, code, doc)
    elif query.kind == "missingness":
        ledger.check("missingness_verdict", checks.check_missingness, query, code, doc, cr)
    else:
        ledger.check("collapse_marginal", checks.check_collapse, query, code, doc)
    return latency


def _spread(values: list[float]) -> dict:
    ordered = sorted(values)
    if not ordered:
        return {}
    pick = lambda q: ordered[min(len(ordered) - 1, int(q * len(ordered)))]
    return {"min": ordered[0], "q1": pick(0.25), "median": pick(0.5), "q3": pick(0.75),
            "max": ordered[-1]}


def _query_props(queries: list, latencies: list[float]) -> dict:
    """Input properties of the queries issued, summarised and per query."""
    analyze = [q for q in queries if q.kind.startswith("analyze")]
    by_kind = {}
    for kind in sorted({q.kind for q in queries}):
        lat = [l for q, l in zip(queries, latencies) if q.kind == kind]
        by_kind[kind] = {"count": len(lat), "latency_ms": _spread([1e3 * l for l in lat])}
    return {
        "queries": len(queries),
        # analyze --minimal re-asks the (DAG, exposure, outcome) of the query before it
        "repeat_triple_share": sum(q.props["repeat"] for q in analyze) / max(1, len(queries)),
        "analyze_paths": _spread([q.props["paths"] for q in analyze]),
        "analyze_candidates": _spread([q.props["candidates"] for q in analyze]),
        "analyze_nodes": _spread([q.props["nodes"] for q in analyze]),
        "missingness_nodes": _spread([q.props["nodes"] for q in queries
                                      if q.kind == "missingness"]),
        "by_kind": by_kind,
        "per_query": [dict(q.props, kind=q.kind, latency_ms=1e3 * l)
                      for q, l in zip(queries, latencies)],
    }


def queries_loop(cr, stream, ledger: Ledger, seconds: float | None = None,
                 rounds: int | None = None) -> dict:
    """Issue the stream's queries in order until the measured time reaches
    ``seconds`` (timed run) or ``rounds`` rounds are done (fixed work)."""
    import causalreg.cli as cli

    issued, latencies, exits = [], [], {}
    measured = 0.0
    index = 0
    out_of_time = lambda: seconds is not None and measured >= seconds
    for index, group in stream:
        if (rounds is not None and index >= rounds) or out_of_time():
            break
        for query in group:
            latency = run_query(cli, query, ledger, cr, exits)
            issued.append(query)
            latencies.append(latency)
            measured += latency
            if out_of_time():
                break
    return {
        "latencies_s": latencies,
        "items": len(latencies),
        "work_s": measured,
        "exits": exits,
        "detail": {"rounds": index + 1, "exits": exits,
                   "inputs": _query_props(issued, latencies)},
    }


# --- large_n ------------------------------------------------------------------


def large_round(cr, seed: int, index: int, ledger: Ledger, truths: dict) -> dict:
    """simulate for every model fixture, the three n=10^6 oracles, and the
    three fits on simulated data; returns per-call (name, rows, seconds)."""
    n = inputs.LARGE_N
    s = inputs.large_seed(seed, index)
    models = {name: cr.model_fixture(name) for name in inputs.LARGE_MODELS}
    calls = []

    def timed(label, rows, fn, *args):
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed call is counted, not fatal
            calls.append((label, rows, time.perf_counter() - t0))
            ledger.op(False, f"{label}: {type(exc).__name__}: {exc}"[:200])
            return None
        calls.append((label, rows, time.perf_counter() - t0))
        ledger.op(True)
        return result

    kept = {}
    for name, model in models.items():
        data = timed(f"simulate:{name}", n, cr.simulate, model, n, s)
        if name in ("setup1", "setup5"):
            kept[name] = data
    oracles = (
        ("setup1", cr.ATE, truths["setup1"], True),
        ("setup6", cr.ATE, truths["setup6"], False),
        ("setup5", cr.LOG_MOR, truths["setup5"], False),
    )
    for name, estimand, truth, exact in oracles:
        est = timed(f"true_effect:{name}", 2 * n, cr.true_effect, models[name], "A", "Y",
                    estimand, n, s)
        if est is not None:
            ledger.check(f"true_effect_{name}", checks.check_effect,
                         name, est.value, est.mc_se, truth, exact)
    spec = cr.DesignSpec("Y", ("A", "L"))
    if kept.get("setup1") is not None:
        fit = timed("ols_fit:setup1", n, cr.ols_fit, kept["setup1"], spec)
        if fit is not None:
            ledger.check("ols_coef_setup1", checks.check_coef, "ols setup1", fit, 1.0)
        timed("positivity_check:setup1", n, cr.positivity_check, kept["setup1"], "A", ("L",))
    if kept.get("setup5") is not None:
        fit = timed("logistic_fit:setup5", n, cr.logistic_fit, kept["setup5"], spec)
        if fit is not None:
            ledger.check("logistic_coef_setup5", checks.check_coef, "logistic setup5", fit, 1.0)
    return {"calls": calls, "seed": s}


def large_truths() -> dict:
    return {"setup1": 1.0, "setup6": checks.setup6_ate(), "setup5": checks.setup5_log_mor()}


def large_loop(cr, seed: int, ledger: Ledger, seconds: float | None = None,
               rounds: int | None = None) -> dict:
    truths = large_truths()
    latencies, per_round = [], []
    measured = 0.0
    total_rows = 0
    index = 0
    while True:
        out = large_round(cr, seed, index, ledger, truths)
        index += 1
        rows = sum(r for _, r, _ in out["calls"])
        busy = sum(t for _, _, t in out["calls"])
        latencies += [t for _, _, t in out["calls"]]
        total_rows += rows
        per_round.append({"seed": out["seed"], "rows": rows, "busy_s": busy,
                          "calls": {label: t for label, _, t in out["calls"]}})
        measured += busy
        if seconds is not None and measured >= seconds:
            break
        if rounds is not None and index >= rounds:
            break
    return {
        "latencies_s": latencies,
        "items": total_rows,
        "work_s": measured,
        "detail": {
            "n": inputs.LARGE_N,
            "mrows_per_s": total_rows / measured / 1e6,
            "rounds": per_round,
            "truths": truths,
        },
    }
