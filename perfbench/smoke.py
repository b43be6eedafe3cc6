"""Smoke test of the benchmark itself: one short pass of every workload.

    python3 perfbench/smoke.py

For each workload it runs ``run.py --seconds 1`` untraced and traced, and
checks that the last line carries every metric BENCHMARK.json names,
with its unit, and that every correctness check of the workload ran.
It exits non-zero if anything is missing or any operation failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"

QUERY_CHECKS = {"analyze_backdoor_independent", "missingness_verdict", "collapse_marginal"}
LARGE_CHECKS = {"true_effect_setup1", "true_effect_setup6", "true_effect_setup5",
                "ols_coef_setup1", "logistic_coef_setup5"}
# (workload, trace) -> checks that must have run
EXPECTED_CHECKS = {
    ("panel", 0): {"criterion5_verdicts", "criterion8_w1_w2_identical"},
    ("panel", 1): {"criterion8_w1_w2_identical", "traced_body_identical"},
    ("queries", 0): QUERY_CHECKS,
    ("queries", 1): QUERY_CHECKS,
    ("large_n", 0): LARGE_CHECKS,
    ("large_n", 1): LARGE_CHECKS,
}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr[-2000:]}")
    last = json.loads(out.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".perfbench" / f"result-{workload}-1-trace{trace}.json").read_text())
    return last, report


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for (workload, trace), expected_checks in EXPECTED_CHECKS.items():
        key = "per_layer" if trace else "end_to_end"
        last, report = run(workload, trace)
        if set(last) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{workload}/{trace}: result keys {sorted(last)}")
        expected = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in last["metrics"].items()}
        if got != expected:
            problems.append(f"{workload}/{trace}: metrics differ from BENCHMARK.json: "
                            f"missing {sorted(set(expected) - set(got))}, extra "
                            f"{sorted(set(got) - set(expected))}, units "
                            f"{sorted(k for k in got if k in expected and got[k] != expected[k])}")
        ran = {name for name, c in report["checks"].items() if c["ran"] > 0}
        if not expected_checks <= ran:
            problems.append(f"{workload}/{trace}: checks not run: "
                            f"{sorted(expected_checks - ran)}")
        print(f"{workload} trace={trace}: correct={last['correct']} "
              f"attempted={last['attempted']} failed={last['failed']} "
              f"metrics={len(last['metrics'])}", flush=True)
        if last["failed"]:
            problems.append(f"{workload}/{trace}: failures {report['failures']}")
    for p in problems:
        print("PROBLEM:", p)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
