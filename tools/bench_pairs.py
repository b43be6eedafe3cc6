"""Alternating perfbench runs of two checkouts, one workload.

Runs ``python3 perfbench/run.py --workload W --seed S --seconds SECONDS``
from each checkout's root, as a fresh process, for ``--pairs`` pairs.
Pair i uses seed ``--seed`` + i on both sides, and which side runs first
alternates from pair to pair, so that a drift in machine speed falls on
both.  The tool only reads what perfbench prints: the last line of its
stdout, with the end-to-end metrics and the attempted and failed
operation counts.

Writes, per end-to-end metric of ``BENCHMARK.json``, each side's runs,
median and quartiles, the pairs the change won (ties count for neither
side) and the metric's verdict (see :func:`verdict`); per side, the
failed and attempted operations of every run; and the machine facts, as
``tools/cli_walltimes.py`` does.  The
output file holds one entry per workload: a run for another workload on
the same two checkouts adds its entry to an existing file, and a run for
the same workload replaces it.

Run from a checkout root::

    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload large_n \\
        --pairs 10 --seconds 30 -o BENCH.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.facts import machine_facts  # noqa: E402

SIDES = ("parent", "change")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``root``: its result line, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                         timeout=20 * seconds + 600)
    if out.returncode != 0:
        sys.exit(f"{root}: {' '.join(argv[1:])} exited {out.returncode}: "
                 f"{out.stderr.strip()[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    """Median and quartiles (linear interpolation, as numpy's default)."""
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return {"median": median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": values}


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads strictly better than the parent."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """What the benchmark's gate reads from one metric's pairs of runs.

    - ``gain``: the change wins at least nine tenths of the pairs, and its
      median is better than the parent's by more than the parent's IQR;
    - ``worse``: the change's median is worse than the parent's by more
      than ``bound``, a fraction of the parent's median;
    - ``unresolved``: the parent's IQR is wider than ``bound`` of its
      median, and not every change run reads better than every parent run;
    - ``held``: any other case.
    """
    sign = 1 if better == "higher" else -1
    base, new = summary(parent), summary(change)
    gain = sign * (new["median"] - base["median"])
    if 10 * wins(parent, change, better) >= 9 * len(parent) and gain > base["iqr"]:
        return "gain"
    if -gain > bound * abs(base["median"]):
        return "worse"
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if base["iqr"] > bound * abs(base["median"]) and not every_run_better:
        return "unresolved"
    return "held"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout root of the parent commit")
    parser.add_argument("change", type=Path, help="checkout root of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("-o", "--output", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    roots = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    for side, root in roots.items():
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{side} root {root} holds no perfbench/run.py")
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())

    results = {side: [] for side in SIDES}
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            results[side].append(run_once(roots[side], args.workload, seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs} (seed {seed}, {order[0]} first): " + "  ".join(
            f"{side} {results[side][-1]['metrics']['throughput_per_s']['value']:.6g}"
            for side in SIDES), flush=True)

    metrics = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        metrics[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            **{side: summary(runs[side]) for side in SIDES},
            "change_wins": wins(runs["parent"], runs["change"], metric["better"]),
            "verdict": verdict(runs["parent"], runs["change"], metric["better"],
                               metric["bound"]),
        }
    # A checkout is named by its source digest: the change's commit cannot
    # hold its own id, and a working tree may differ from its HEAD.
    checkouts = {}
    for side, root in roots.items():
        facts = machine_facts(root)
        del facts["commit"]
        checkouts[side] = {"source_sha256": facts.pop("source_sha256")}
    doc = {
        "method": (
            "python3 perfbench/run.py --workload W --seed SEED --seconds S, run from "
            "each checkout root as a fresh process; pair i uses SEED = first seed + i "
            "on both sides, and the side that runs first alternates by pair"
        ),
        "checkouts": checkouts,
        "facts": facts,
        "workloads": {},
    }
    if args.output.exists():
        old = json.loads(args.output.read_text())
        if old.get("checkouts") != checkouts:
            sys.exit(f"{args.output} holds runs of other checkouts; write a new file")
        doc["workloads"] = old["workloads"]
    doc["workloads"][args.workload] = {
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "metrics": metrics,
        "operations": {side: {"attempted": [r["attempted"] for r in results[side]],
                              "failed": [r["failed"] for r in results[side]]}
                       for side in SIDES},
    }
    args.output.write_text(json.dumps(doc, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{name:17s} parent {m['parent']['median']:.6g} "
              f"(IQR {m['parent']['iqr']:.3g})  change {m['change']['median']:.6g}  "
              f"change wins {m['change_wins']}/{args.pairs}  {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
