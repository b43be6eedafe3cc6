"""The verdicts that ``tools/bench_pairs.py`` reads from synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# Ten parent runs with median 100 and quartiles 99 and 101 (IQR 2).
NARROW = [96.0, 98.0, 99.0, 99.0, 100.0, 100.0, 101.0, 101.0, 102.0, 104.0]
# Median 100 and quartiles 79 and 121: an IQR of 42% of the median, wider
# than the 25% bound.
WIDE = [70.0, 71.0, 72.0, 100.0, 100.0, 100.0, 100.0, 128.0, 129.0, 130.0]


def shifted(runs, by):
    return [r + by for r in runs]


@pytest.mark.parametrize("parent, change, better, expected", [
    (NARROW, shifted(NARROW, -5), "lower", "gain"),
    (NARROW, shifted(NARROW, 5), "higher", "gain"),
    # Nine of ten pairs won is enough; eight is not.
    (NARROW, shifted(NARROW, -5)[:9] + [200.0], "lower", "gain"),
    (NARROW, shifted(NARROW, -5)[:8] + [200.0, 200.0], "lower", "held"),
    # Every pair won, but the medians differ by no more than the IQR.
    (NARROW, shifted(NARROW, -2), "lower", "held"),
    # Medians 30% apart against a 25% bound, in the worse direction.
    (NARROW, shifted(NARROW, 30), "lower", "worse"),
    (NARROW, shifted(NARROW, -30), "higher", "worse"),
    (NARROW, shifted(NARROW, 20), "lower", "held"),
    # A spread wider than the bound leaves a small move unresolved ...
    (WIDE, shifted(WIDE, 10), "lower", "unresolved"),
    (WIDE, shifted(WIDE, -10), "lower", "unresolved"),
    # ... unless every change run reads better than every parent run.
    (WIDE, [69.0] * 10, "lower", "held"),
    (WIDE, [131.0] * 10, "higher", "held"),
    # The worse verdict wins over an unresolved one.
    (WIDE, shifted(WIDE, 30), "lower", "worse"),
], ids=["gain_lower", "gain_higher", "nine_of_ten", "eight_of_ten", "within_iqr",
        "worse_lower", "worse_higher", "within_bound", "unresolved_worse",
        "unresolved_better", "every_run_better_lower", "every_run_better_higher",
        "worse_over_unresolved"])
def test_verdict(parent, change, better, expected):
    assert bench_pairs.verdict(parent, change, better, 0.25) == expected
