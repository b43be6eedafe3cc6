"""causalreg benchmark: one workload per run, one closed-loop client.

    python3 perfbench/run.py --workload panel --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it carry the full report (machine facts, input
properties, per-workload metrics under their own names, checks), which
is also written to ``.perfbench/``.

Workloads:
  panel    the default ten-scenario bias study at n=1000, at workers=1
           then workers=2 on the same config; each job (one config, both
           passes) runs in a fresh process of its own
  queries  analyze, analyze --minimal, missingness and collapse requests
           through causalreg.cli.main on DAGs, m-DAGs and tables made
           from the seed
  large_n  simulate, true_effect, ols_fit, logistic_fit and
           positivity_check at n=10^6
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("panel", "queries", "large_n")
SETUP_PROBES = 5
# Tail percentile per workload, fixed so that it means the same on every
# commit.  A 30 s queries run completes ~2800 requests (~28 beyond p99).  A
# large_n run makes 14 calls a round and 8 to 11 rounds: 11 calls of ~0.2 s,
# one of ~0.37 s and two fits of ~0.6 s.  Percentiles from 75 to 88 fall on
# the steps between those groups and jump with the round count, so large_n
# reports p65, inside the 0.2 s group with ~45 samples beyond.  A panel run
# does 5 to 8 jobs, too few for a percentile with ten samples beyond; its
# tail is p80, the second slowest of 5 to 8 jobs, so that one job slowed by a
# passing load spike does not set it.
# The report states the sample count and the samples beyond the tail.
TAIL_PERCENTILE = {"panel": 80.0, "queries": 99.0, "large_n": 65.0}
# Work done by the traced run and by its untraced replica.
TRACE_PANEL_REPLICATIONS = 100


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_program():
    """Import causalreg from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "causalreg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src / 'causalreg'}")
    sys.path.insert(0, str(src))
    import causalreg
    import causalreg.cli  # the queries workload's entry point

    if Path(causalreg.__file__).resolve().parent != (src / "causalreg").resolve():
        sys.exit(f"perfbench: imported causalreg from {causalreg.__file__}, not {src}")
    return causalreg


def prepare(workload: str, seed: int):
    """Import the program and make the workload's first inputs."""
    cr = import_program()
    import inputs

    state = {"cr": cr}
    if workload == "queries":
        out_dir = OUT / "inputs" / f"queries-{seed}-{os.getpid()}"
        state["out_dir"] = out_dir
        stream = inputs.query_stream(seed, out_dir)
        state["stream"] = itertools.chain([next(stream)], stream)
    return state


def cleanup(state) -> None:
    if "out_dir" in state:
        shutil.rmtree(state["out_dir"], ignore_errors=True)


def probe(args, kind: str, *extra: str) -> str:
    """Run this script as a fresh process in probe mode; returns the last
    line of its output."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--probe", kind, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if out.returncode != 0:
        sys.exit(f"perfbench: {kind} probe failed: {out.stderr.strip()[-500:]}")
    return out.stdout.strip().splitlines()[-1]


def setup_probes(args) -> list[float]:
    """Fresh processes that start, import the program and make the inputs;
    each reports how long that took from the moment it was spawned."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = monotonic()
        times.append(float(probe(args, "setup")) - t0)
    return times


def replica(args) -> dict:
    """The traced run's fixed work, untraced, in a fresh process.  The
    traced run brackets its own work with two replicas and uses their
    mean, so that a drift in machine speed cancels out of the overhead."""
    return json.loads(probe(args, "replica"))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(len(ordered) * pct / 100)))
    return ordered[rank - 1]


def fixed_work(workload, state, seed, ledger, tracer=None) -> dict:
    import workloads as wl

    cr = state["cr"]
    if tracer is not None:
        # Checks call program functions too; they run once the wrappers are gone.
        ledger.defer()
        tracer.install()
    try:
        if workload == "panel":
            return wl.panel_fixed(cr, seed, TRACE_PANEL_REPLICATIONS, ledger,
                                  traced=tracer is not None)
        if workload == "queries":
            return wl.queries_loop(cr, state["stream"], ledger, rounds=wl.QUERY_TRACE_ROUNDS)
        return wl.large_loop(cr, seed, ledger, rounds=1)
    finally:
        if tracer is not None:
            tracer.uninstall()
            ledger.run_deferred()


def timed_work(args, state, ledger) -> dict:
    import workloads as wl

    cr = state["cr"]
    workload, seed, seconds = args.workload, args.seed, args.seconds
    if workload == "panel":
        return wl.panel_timed(cr, seed, seconds, ledger,
                              lambda job: json.loads(probe(args, "panel-job", "--job", str(job))))
    if workload == "queries":
        return wl.queries_loop(cr, state["stream"], ledger, seconds=seconds)
    return wl.large_loop(cr, seed, ledger, seconds=seconds)


def end_to_end(workload, run, setups) -> tuple[dict, dict]:
    lat = run["latencies_s"]
    pct = TAIL_PERCENTILE[workload]
    tail = percentile(lat, pct)
    metrics = {
        "setup_s": (median(setups), "s"),
        "throughput_per_s": (run["items"] / run["work_s"], "1/s"),
        "latency_p50_ms": (1e3 * median(lat), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {"samples": len(lat), "tail_percentile": pct,
            "samples_beyond_tail": sum(v > tail for v in lat)}
    return metrics, info


def named_metrics(workload, metrics, info, run, ledger) -> dict:
    """The same run under the names the workload's users would look for."""
    out = {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"],
           "failed_frac": (ledger.failed / max(1, ledger.attempted), "ratio")}
    if workload == "panel":
        out["reps_per_s_w1"] = (run["detail"]["reps_per_s_w1"], "1/s")
        out["reps_per_s_w2"] = (run["detail"]["reps_per_s_w2"], "1/s")
    elif workload == "queries":
        out["queries_per_s"] = metrics["throughput_per_s"]
        out["query_p50_ms"] = metrics["latency_p50_ms"]
        out[f"query_p{info['tail_percentile']:g}_ms"] = metrics["latency_tail_ms"]
    else:
        out["mrows_per_s"] = (run["detail"]["mrows_per_s"], "M/s")
    return as_json(out)


def per_layer(workload, tracer, fixed, replica_out, exits) -> dict:
    """Per-layer metrics from the traced run (zero where a layer is idle)."""
    counts = tracer.counts
    times = tracer.self_times()
    selfs: dict[str, float] = {}
    for name, _, own in times:
        selfs[name] = selfs.get(name, 0.0) + own

    def calls(name):
        return (counts.get(name + ".calls", 0), "count")

    def self_s(name):
        return (selfs.get(name, 0.0), "s")

    def raised(name):
        return sum(tracer.extras.get(name + ".raised", {}).values())

    cli_self = [own for name, _, own in times if name == "cli.main"]
    sim = [dur for name, dur, _ in times if name == "scm.simulate"]
    sat_calls = counts.get("ident.satisfies_backdoor.calls", 0)
    exit0 = exits.get("0", 0)
    exit2 = exits.get("2", 0)
    m = {
        "cli.main.self_ms_p50": (1e3 * median(cli_self) if cli_self else 0.0, "ms"),
        "cli.main.exit0": (exit0, "count"),
        "cli.main.exit2": (exit2, "count"),
        "cli.main.exit_failed": (sum(exits.values()) - exit0 - exit2, "count"),
        "graph.parse_dag.self_s": self_s("graph.parse_dag"),
        "graph.all_paths.calls": calls("graph.all_paths"),
        "graph.all_paths.paths": (counts.get("graph.all_paths.paths", 0), "count"),
        "graph.all_paths.self_s": self_s("graph.all_paths"),
        "graph.path_blocked.calls": calls("graph.path_blocked"),
        "graph.d_separated.calls": calls("graph.d_separated"),
        "graph.d_separated.self_s": self_s("graph.d_separated"),
        "ident.enumerate_adjustment_sets.self_s": self_s("ident.enumerate_adjustment_sets"),
        "ident.classify_roles.self_s": self_s("ident.classify_roles"),
        "ident.backdoor_paths.self_s": self_s("ident.backdoor_paths"),
        "ident.satisfies_backdoor.calls": (sat_calls, "count"),
        "ident.valid_set_ratio": (
            counts.get("ident.valid_sets", 0) / sat_calls if sat_calls else 0.0, "ratio"),
        "missing.missingness_report.self_s": self_s("missing.missingness_report"),
        "tables.load_table_csv.self_s": self_s("tables.load_table_csv"),
        "tables.effect_measure.self_s": self_s("tables.effect_measure"),
        "scm.simulate.calls": calls("scm.simulate"),
        "scm.simulate.rows": (counts.get("scm.simulate.rows", 0), "count"),
        "scm.simulate.self_s": self_s("scm.simulate"),
        "scm.simulate.us_per_call_p50": (1e6 * median(sim) if sim else 0.0, "us"),
        "scm.true_effect.calls": calls("scm.true_effect"),
        "scm.true_effect.self_s": self_s("scm.true_effect"),
        "scm.parse_model.self_s": self_s("scm.parse_model"),
        "estimators.ols_fit.calls": calls("estimators.ols_fit"),
        "estimators.ols_fit.self_s": self_s("estimators.ols_fit"),
        "estimators.logistic_fit.calls": calls("estimators.logistic_fit"),
        "estimators.logistic_fit.self_s": self_s("estimators.logistic_fit"),
        "estimators.irls_iterations.total": (
            counts.get("estimators.irls_iterations.total", 0), "count"),
        "estimators.fit_errors": (
            raised("estimators.ols_fit") + raised("estimators.logistic_fit"), "count"),
        "estimators.positivity_check.self_s": self_s("estimators.positivity_check"),
        "study.self_s": self_s("study.run_study"),
    }
    study = {"wall_w1": 0.0, "wall_w2": 0.0, "cpu_w1": 0.0, "cpu_w2": 0.0, "failed_reps": 0}
    if workload == "panel":
        study = dict(replica_out, failed_reps=fixed["failed_reps"])
    m.update({
        "study.wall_s_w1": (study["wall_w1"], "s"),
        "study.wall_s_w2": (study["wall_w2"], "s"),
        "study.cpu_s_w1": (study["cpu_w1"], "s"),
        "study.cpu_s_w2": (study["cpu_w2"], "s"),
        "study.cpu_util_w2": (
            study["cpu_w2"] / (2 * study["wall_w2"]) if study["wall_w2"] else 0.0, "ratio"),
        "study.parallel_speedup": (
            study["wall_w1"] / study["wall_w2"] if study["wall_w2"] else 0.0, "ratio"),
        "study.failed_reps": (study["failed_reps"], "count"),
        "trace.traced_s": (fixed["work_s"], "s"),
        "trace.untraced_s": (replica_out["work_s"], "s"),
        "trace.overhead_s": (fixed["work_s"] - replica_out["work_s"], "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return m


def as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def result_line(ledger, metrics) -> str:
    return json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": as_json(metrics),
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="work time to measure, summed over the program's calls")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "replica", "panel-job"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--job", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    state = prepare(args.workload, args.seed)
    import facts
    import workloads as wl

    try:
        if args.probe == "setup":
            print(monotonic())
            return 0
        if args.probe == "panel-job":
            print(json.dumps(wl.panel_job(state["cr"], args.seed, args.job)))
            return 0
        if args.probe == "replica":
            fixed = fixed_work(args.workload, state, args.seed, wl.Ledger())
            print(json.dumps({k: v for k, v in fixed.items()
                              if k in ("work_s", "wall_w1", "wall_w2", "cpu_w1", "cpu_w2",
                                       "digest_w1", "digest_w2")}))
            return 0

        OUT.mkdir(exist_ok=True)
        ledger = wl.Ledger()
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "facts": facts.machine_facts(ROOT)}
        if args.trace:
            from tracing import Tracer

            before = replica(args)
            tracer = Tracer()
            fixed = fixed_work(args.workload, state, args.seed, ledger, tracer)
            after = replica(args)
            replica_out = {k: (v + after[k]) / 2 if isinstance(v, float) else v
                           for k, v in before.items()}
            report["replicas"] = [before, after]
            if args.workload == "panel":
                for rep in (before, after):
                    wl.check_panel_replica(fixed, rep, ledger)
            spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write(spans_path)
            metrics = per_layer(args.workload, tracer, fixed, replica_out,
                                fixed.get("exits", {}))
            report["spans_file"] = str(spans_path.relative_to(ROOT))
            report["raised"] = {k: dict(v) for k, v in tracer.extras.items()}
        else:
            setups = setup_probes(args)
            run = timed_work(args, state, ledger)
            metrics, info = end_to_end(args.workload, run, setups)
            report["setup_probes_s"] = setups
            report["latency"] = info
            report["named"] = named_metrics(args.workload, metrics, info, run, ledger)
            report["detail"] = run["detail"]
        report["metrics"] = as_json(metrics)
        report["attempted"] = ledger.attempted
        report["failed"] = ledger.failed
        report["failures"] = ledger.failures
        report["checks"] = ledger.checks
        path = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(report, indent=1, default=str))
        summary = {k: v for k, v in report.items() if k not in ("detail",)}
        if "detail" in report:
            summary["detail"] = {k: v for k, v in report["detail"].items()
                                 if k not in ("inputs", "jobs", "rounds")}
            if "inputs" in report["detail"]:
                summary["inputs"] = {k: v for k, v in report["detail"]["inputs"].items()
                                     if k != "per_query"}
        print(json.dumps(summary, indent=1, default=str))
        print(f"full report: {path.relative_to(ROOT)}")
        print(result_line(ledger, metrics))
        return 0
    finally:
        cleanup(state)


if __name__ == "__main__":
    sys.exit(main())
