"""Wall time of CLI commands as fresh processes, in two checkouts.

perfbench's workloads run the program inside one long-lived process,
which has numpy and scipy loaded before its first timed call, so they
cannot see what a command pays to start.  This script times whole
processes: ``python3 -m causalreg <command>`` with ``PYTHONPATH`` set to
a checkout's ``src/``, from spawn to exit, plus a bare ``python3 -c
pass`` as the floor.  The two checkouts alternate on every command, and
which one goes first alternates by round, so that a drift in machine
speed falls on both.  One untimed round first fills the bytecode and
file caches.

Writes the per-command medians and ranges, every run, and the machine
facts (``nproc``, BLAS thread count, numpy and scipy versions) as JSON.

Run from a checkout root::

    python3 tools/cli_walltimes.py PARENT_ROOT CHANGE_ROOT -o BENCH.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.facts import machine_facts  # noqa: E402

COMMANDS = {
    "analyze": ["-m", "causalreg", "analyze", "--dag", "fig1a",
                "--exposure", "A", "--outcome", "Y"],
    "missingness": ["-m", "causalreg", "missingness", "--mdag", "fig5",
                    "--exposure", "A", "--outcome", "Y"],
    "collapse": ["-m", "causalreg", "collapse", "--table", "table1",
                 "--measure", "odds_ratio"],
    "simulate": ["-m", "causalreg", "simulate", "--model", "setup1",
                 "--n", "1000", "--seed", "1"],
    "simulate_large": ["-m", "causalreg", "simulate", "--model", "setup7",
                       "--n", "1000000"],
    "study": ["-m", "causalreg", "study", "--seed", "7", "--runs", "100",
              "--n", "1000"],
    # The fresh-process twin of perfbench panel's workers=2 pass.
    "study_w2": ["-m", "causalreg", "study", "--seed", "7", "--runs", "100",
                 "--n", "1000", "--workers", "2"],
    # The desk panel: 10 scenarios × 1000 replications of n=1000.
    "study_desk_w1": ["-m", "causalreg", "study", "--seed", "7", "--runs", "1000",
                      "--n", "1000", "--workers", "1"],
    "study_desk_w2": ["-m", "causalreg", "study", "--seed", "7", "--runs", "1000",
                      "--n", "1000", "--workers", "2"],
    "python_pass": ["-c", "pass"],
}
# Timed runs per command and checkout.
RUNS = 7


def wall_time(root: Path, argv: list[str]) -> float:
    """Seconds from spawn to exit of one command; exits 0 and 2 are answers."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, *argv], env=env, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if out.returncode not in (0, 2):
        sys.exit(f"{root}: {' '.join(argv)} exited {out.returncode}: {out.stderr.strip()}")
    return elapsed


def measure(roots: dict[str, Path], runs: int) -> dict[str, dict[str, list[float]]]:
    times = {name: {side: [] for side in roots} for name in COMMANDS}
    sides = list(roots)
    for round_ in range(runs + 1):
        order = sides if round_ % 2 == 0 else sides[::-1]
        for name, argv in COMMANDS.items():
            for side in order:
                elapsed = wall_time(roots[side], argv)
                if round_:  # round 0 warms the caches
                    times[name][side].append(elapsed)
    return times


def summary(values: list[float]) -> dict:
    return {"median": median(values), "min": min(values), "max": max(values),
            "runs": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout root of the parent commit")
    parser.add_argument("change", type=Path, help="checkout root of the change")
    parser.add_argument("-o", "--output", type=Path, required=True)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in roots.items():
        if not (root / "src" / "causalreg" / "__init__.py").is_file():
            parser.error(f"{side} root {root} holds no src/causalreg")

    times = measure(roots, RUNS)
    # A checkout is named by its source digest: the change's commit cannot
    # hold its own id, and a working tree may differ from its HEAD.
    checkouts = {}
    for side, root in roots.items():
        facts = machine_facts(root)
        del facts["commit"]
        checkouts[side] = {"source_sha256": facts.pop("source_sha256")}
    doc = {
        "method": (
            "fresh-process wall time of python3 -m causalreg <command> with "
            "PYTHONPATH=<root>/src, spawn to exit; parent and change alternate on "
            "every command and swap which goes first each round; one untimed "
            "warm-up round"
        ),
        "runs_per_side": RUNS,
        "commands": {name: " ".join(argv) for name, argv in COMMANDS.items()},
        "checkouts": checkouts,
        "facts": facts,
        "wall_s": {
            name: {side: summary(values) for side, values in by_side.items()}
            for name, by_side in times.items()
        },
    }
    args.output.write_text(json.dumps(doc, indent=1) + "\n")
    for name, by_side in doc["wall_s"].items():
        print(f"{name:14s} parent {by_side['parent']['median']:.3f} s  "
              f"change {by_side['change']['median']:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
