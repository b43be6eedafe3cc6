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
- two rounds of the benchmark's ``query_stream(11, ...)``;
- ``fit --noncompliance`` on a simulated trial, and a study config whose
  two ``log_MOR`` scenarios name setup5 by fixture and by its text;
- ``analyze`` with ``--conditioned``, plain and with ``--minimal``:
  fig4c on C, fig8a-fig8c on S, fig8d on S1,S2, and a selection DAG
  (``A -> Y``, ``A -> S``, ``U -> S``, ``U -> Y``) on S with U unmeasured.

Files the requests read are written to a temporary directory, whose
name is replaced by ``<tmp>`` before digesting.

Exits 1, naming the request on stderr, when a ``study`` request at
``--workers 2`` digests differently from the same request at
``--workers 1``: a study's output must not depend on its worker count.

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
MOR = CONFIG["scenarios"][0]
SPELLED = {**CONFIG, "scenarios": [
    MOR, {**MOR, "id": "mor_text", "model": fixtures.MODEL_FIXTURES["setup5"]},
]}
CONDITIONED = [("fig4c", ["--conditioned", "C"]), ("fig8a", ["--conditioned", "S"]),
               ("fig8b", ["--conditioned", "S"]), ("fig8c", ["--conditioned", "S"]),
               ("fig8d", ["--conditioned", "S1,S2"])]
SELECTION_DAG = "A -> Y\nA -> S\nU -> S\nU -> Y\n"
TRIAL = ("A_assigned ~ bernoulli(0.5)\nA_taken ~ bernoulli(0.1 + 0.8*A_assigned)\n"
         "Y ~ bernoulli(0.2 + 0.3*A_taken)\n")


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
    (tmp / "trial.model").write_text(TRIAL)
    stdout, _, _ = run(["simulate", "--model", str(tmp / "trial.model"),
                        "--n", "400", "--seed", "5"])
    (tmp / "trial.csv").write_text(stdout)
    yield ["fit", "--data", str(tmp / "trial.csv"), "--noncompliance"]
    (tmp / "spelled.json").write_text(json.dumps(SPELLED))
    yield ["study", "--config", str(tmp / "spelled.json")]
    (tmp / "selection.dag").write_text(SELECTION_DAG)
    selection = (str(tmp / "selection.dag"), ["--unmeasured", "U", "--conditioned", "S"])
    for dag, flags in CONDITIONED + [selection]:
        argv = ["analyze", "--dag", dag, "--exposure", "A", "--outcome", "Y", *flags]
        yield argv
        yield argv + ["--minimal"]


def at_one_worker(argv: tuple[str, ...]) -> tuple[str, ...]:
    """The same request with ``--workers 1``."""
    i = argv.index("--workers")
    return argv[:i + 1] + ("1",) + argv[i + 2:]


def main() -> int:
    os.environ.pop(cli.SEED_ENV_VAR, None)
    total = hashlib.md5()
    digests: dict[tuple[str, ...], str] = {}
    count = 0
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for argv in requests(tmp):
            stdout, stderr, code = run(argv)
            blob = "\0".join((stdout, stderr, str(code))).replace(str(tmp), "<tmp>")
            digest = hashlib.md5(blob.encode()).hexdigest()
            total.update(digest.encode())
            digests[tuple(argv)] = digest
            count += 1
            print(f"{digest}  {' '.join(argv).replace(str(tmp), '<tmp>')}")
    print(f"{total.hexdigest()}  total of {count} requests")
    differ = [argv for argv, digest in digests.items() if argv[0] == "study"
              and "--workers" in argv and digests[at_one_worker(argv)] != digest]
    for argv in differ:
        print(f"error: {' '.join(argv)} differs from the same request at --workers 1",
              file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
