"""causalreg: decide when regression coefficients carry a causal meaning.

The package pairs graphical identification tools (d-separation, the
back-door criterion, missingness graphs, collapsibility arithmetic)
with a structural simulation engine and a replicated bias study that
demonstrates each failure mode empirically.

``import causalreg`` loads no submodule.  Each name below loads its
module on first lookup (PEP 562), so the graph layer (``graph``,
``ident``, ``missing``, ``fixtures``) runs without numpy or scipy, and
``scm``, ``estimators``, ``study`` and ``tables`` load only when used.
"""

import importlib

_EXPORTS: dict[str, tuple[str, ...]] = {
    "estimators": (
        "DesignSpec",
        "FitError",
        "FitResult",
        "NoncomplianceEstimands",
        "PositivityReport",
        "logistic_fit",
        "noncompliance_estimands",
        "ols_fit",
        "positivity_check",
    ),
    "fixtures": ("dag_fixture", "mdag_fixture", "model_fixture", "table_fixture"),
    "graph": (
        "CycleError",
        "Dag",
        "DagParseError",
        "GraphError",
        "Path",
        "UnknownNodeError",
        "all_paths",
        "ancestors",
        "d_separated",
        "d_separated_by_enumeration",
        "descendants",
        "parse_dag",
        "path_blocked",
        "serialize_dag",
    ),
    "ident": (
        "CausalQuery",
        "backdoor_paths",
        "classify_roles",
        "enumerate_adjustment_sets",
        "satisfies_backdoor",
    ),
    "missing": (
        "G_MAR",
        "G_MCAR",
        "G_MNAR",
        "MDag",
        "MechanismVerdict",
        "classify_mechanism",
        "complete_case_valid",
        "implied_independencies",
        "missingness_report",
        "parse_mdag",
    ),
    "scm": (
        "ATE",
        "LOG_MOR",
        "Dataset",
        "EffectEstimate",
        "Expr",
        "ModelParseError",
        "SimulationError",
        "StructuralModel",
        "intervene",
        "parse_expr",
        "parse_model",
        "simulate",
        "simulate_block",
        "true_effect",
    ),
    "study": (
        "BiasReport",
        "Scenario",
        "StudyConfig",
        "StudyError",
        "default_study_config",
        "render_bias_table",
        "run_scenario",
        "run_study",
    ),
    "tables": (
        "MeasureReport",
        "StratifiedTable",
        "effect_measure",
        "load_table_csv",
        "marginalize",
        "risk",
    ),
}

# Public name -> the submodule that defines it.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# The submodules are names too, as the package bound them when it imported each.
__all__ = [*_EXPORTS, *_HOME]

__version__ = "0.1.0"


def __getattr__(name: str):
    # Nothing is cached in this module's globals: each lookup reads the
    # submodule's current attribute, so a function replaced there (by a
    # test's monkeypatch, or a tracer that restores it later) is what
    # ``causalreg.<name>`` returns, now and after it is put back.
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
