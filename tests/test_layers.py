"""The package's two layers and its lazy namespace.

The graph layer (``graph``, ``ident``, ``missing``, ``fixtures``) and the
command line's graph commands run without numpy or scipy; the numeric
layer loads on first use.  Each import check runs in a fresh process,
since this one has long since loaded both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import causalreg
from causalreg import cli

SRC = Path(__file__).resolve().parent.parent / "src"

# Every name the package bound when its __init__ imported each submodule.
PACKAGE_NAMES = (
    "DesignSpec", "FitError", "FitResult", "NoncomplianceEstimands",
    "PositivityReport", "logistic_fit", "noncompliance_estimands", "ols_fit",
    "positivity_check",
    "dag_fixture", "mdag_fixture", "model_fixture", "table_fixture",
    "CycleError", "Dag", "DagParseError", "GraphError", "Path", "UnknownNodeError",
    "all_paths", "ancestors", "d_separated", "d_separated_by_enumeration",
    "descendants", "parse_dag", "path_blocked",
    "CausalQuery", "backdoor_paths", "classify_roles", "enumerate_adjustment_sets",
    "satisfies_backdoor",
    "G_MAR", "G_MCAR", "G_MNAR", "MDag", "MechanismVerdict", "classify_mechanism",
    "complete_case_valid", "implied_independencies", "missingness_report",
    "parse_mdag",
    "ATE", "LOG_MOR", "Dataset", "EffectEstimate", "Expr", "ModelParseError",
    "SimulationError", "StructuralModel", "intervene", "parse_model",
    "simulate", "simulate_block", "true_effect",
    "BiasReport", "Scenario", "StudyConfig", "StudyError", "default_study_config",
    "render_bias_table", "run_study",
    "MeasureReport", "StratifiedTable", "effect_measure", "load_table_csv",
    "marginalize", "risk",
    "estimators", "fixtures", "graph", "ident", "missing", "scm", "study", "tables",
)

# Runs the statement in argv[1], then the command line on the rest, if any.
_PROBE = """
import contextlib, io, json, sys
import causalreg
exec(sys.argv[1])
code = None
if sys.argv[2:]:
    from causalreg import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[2:])
loaded = sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})
print(json.dumps({"code": code, "loaded": loaded}))
"""


def _fresh_process(statement: str, *argv: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _PROBE, statement, *argv], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize("statement, argv, code, loaded", [
    ("pass", (), None, []),
    ("pass", ("analyze", "--dag", "fig1a", "--exposure", "A", "--outcome", "Y"), 0, []),
    ("pass", ("missingness", "--mdag", "fig5", "--exposure", "A", "--outcome", "Y"), 0, []),
    ("pass", ("collapse", "--table", "table1", "--measure", "odds_ratio"), 2, ["numpy"]),
    # A lookup imports the searched modules up to the one that exports the name.
    ("from causalreg import cli", (), None, []),
    ("causalreg.Dag", (), None, []),
    ("causalreg.hidden_nodes", (), None, []),
    ("causalreg.effect_measure", (), None, ["numpy"]),
    ("assert not hasattr(causalreg, '_no_such_name')", (), None, []),
], ids=["import", "analyze", "missingness", "collapse", "from_import_cli", "Dag",
        "hidden_nodes", "effect_measure", "private_name"])
def test_graph_commands_load_no_numeric_library(statement, argv, code, loaded):
    assert _fresh_process(statement, *argv) == {"code": code, "loaded": loaded}


def test_every_package_name_resolves():
    listed = dir(causalreg)
    assert [name for name in PACKAGE_NAMES if getattr(causalreg, name, None) is None] == []
    assert [name for name in PACKAGE_NAMES if name not in listed] == []


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from causalreg import *", namespace)
    assert set(PACKAGE_NAMES) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        causalreg.no_such_name


def test_lookup_reads_the_submodule_each_time(monkeypatch):
    # A replaced function is what the package returns, and so is the
    # original once it is put back: nothing is cached in the package.
    original = causalreg.scm.simulate

    def replacement(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(causalreg.scm, "simulate", replacement)
    assert causalreg.simulate is replacement
    monkeypatch.undo()
    assert causalreg.simulate is original
    assert "simulate" not in vars(causalreg)


def test_main_lets_other_runtime_errors_through(monkeypatch):
    # Only NumericalError means exit 3; a RecursionError is a bug.
    def overflow(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "_cmd_analyze", overflow)
    with pytest.raises(RecursionError):
        cli.main(["analyze", "--dag", "fig1a", "--exposure", "A", "--outcome", "Y"])
