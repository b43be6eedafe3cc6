"""Digest the CLI's answers to a fixed request set.

Runs each request through ``causalreg.cli.main`` in this process and
prints one ``md5  request`` row per request, the md5 taken over its
stdout, stderr and exit code, then a total over every row.  Two
checkouts that print the same total answered every request with the
same bytes.  The request set:

- ``analyze`` on every DAG fixture, for every ordered pair of nodes
  whose names do not start with U, plain and with ``--minimal``;
- ``missingness`` on the m-DAG fixture for four queries;
- ``collapse`` with each measure, as JSON and as text;
- ``simulate`` of every model fixture, and three interventions;
- ``fit``: linear, logistic, with an interaction and a square, and
  ``--positivity``;
- ``study --runs 40 --n 300 --seed 7`` at workers 1 and 2, as JSON
  and as text, and a config file with a label-less ``log_MOR``
  scenario and a ``"label": null`` one;
- two rounds of the benchmark's ``query_stream(11, ...)``.

Files the requests read are written to a temporary directory, whose
name is replaced by ``<tmp>`` before digesting.

Run from a checkout root::

    python3 tools/cli_digests.py
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from causalreg import cli, fixtures  # noqa: E402
from perfbench.inputs import query_stream  # noqa: E402

STUDY = ["study", "--runs", "40", "--n", "300", "--seed", "7"]

CONFIG = {
    "replications": 20,
    "sample_size": 200,
    "seed": 3,
    "oracle_n": 100_000,
    "scenarios": [
        {"id": "mor", "model": "setup5", "estimand": "log_MOR", "target": "A",
         "design": {"outcome": "Y", "covariates": ["A", "L"]}},
        {"id": "null_label", "label": None, "model": "setup1", "target": "A",
         "true_value": 1, "design": {"outcome": "Y", "covariates": ["A", "L"]}},
    ],
}


def run(argv: list[str]) -> tuple[str, str, int]:
    """stdout, stderr and exit code of one request."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")
        code = cli.main(argv)
    return out.getvalue(), err.getvalue(), code


def requests(tmp: Path):
    """Every request's argv, in order; files it reads are written first."""
    for name in fixtures.DAG_FIXTURES:
        nodes = [n for n in fixtures.dag_fixture(name).nodes if not n.startswith("U")]
        for a, y in itertools.permutations(nodes, 2):
            argv = ["analyze", "--dag", name, "--exposure", a, "--outcome", y]
            yield argv
            yield argv + ["--minimal"]
    for a, y, covariates in (("A", "Y", None), ("A", "Y", "L1"),
                             ("A", "Y", "L1,L2"), ("L1", "Y", None)):
        argv = ["missingness", "--mdag", "fig5", "--exposure", a, "--outcome", y]
        yield argv + ([] if covariates is None else ["--covariates", covariates])
    for measure in ("risk_difference", "risk_ratio", "odds_ratio"):
        for fmt in ("json", "text"):
            yield ["collapse", "--table", "table1", "--measure", measure, "--format", fmt]
    for name in fixtures.MODEL_FIXTURES:
        yield ["simulate", "--model", name, "--n", "20", "--seed", "3"]
    for spec in ("A=1", "A=1,A=0", "A=0.5"):
        yield ["simulate", "--model", "setup1", "--n", "20", "--intervene", spec]
    for model in ("setup1", "setup5"):
        stdout, _, _ = run(["simulate", "--model", model, "--n", "400", "--seed", "5"])
        (tmp / f"{model}.csv").write_text(stdout)
    linear = ["fit", "--data", str(tmp / "setup1.csv"), "--covariates", "A,L"]
    yield linear
    yield linear + ["--interactions", "A:L", "--squares", "L"]
    yield ["fit", "--data", str(tmp / "setup5.csv"), "--covariates", "A,L",
           "--family", "logistic"]
    yield ["fit", "--data", str(tmp / "setup1.csv"), "--positivity", "--covariates", "L"]
    for workers in ("1", "2"):
        for fmt in ("json", "text"):
            yield STUDY + ["--workers", workers, "--format", fmt]
    (tmp / "config.json").write_text(json.dumps(CONFIG))
    for fmt in ("json", "text"):
        yield ["study", "--config", str(tmp / "config.json"), "--format", fmt]
    for index, group in query_stream(11, tmp / "queries"):
        if index == 2:
            break
        for query in group:
            yield query.argv


def main() -> int:
    os.environ.pop(cli.SEED_ENV_VAR, None)
    total = hashlib.md5()
    count = 0
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for argv in requests(tmp):
            stdout, stderr, code = run(argv)
            blob = "\0".join((stdout, stderr, str(code))).replace(str(tmp), "<tmp>")
            digest = hashlib.md5(blob.encode()).hexdigest()
            total.update(digest.encode())
            count += 1
            print(f"{digest}  {' '.join(argv).replace(str(tmp), '<tmp>')}")
    print(f"{total.hexdigest()}  total of {count} requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
