"""causalreg: decide when regression coefficients carry a causal meaning.

The package pairs graphical identification tools (d-separation, the
back-door criterion, missingness graphs, collapsibility arithmetic)
with a structural simulation engine and a replicated bias study that
demonstrates each failure mode empirically.
"""

from .estimators import (
    DesignSpec,
    FitError,
    FitResult,
    NoncomplianceEstimands,
    PositivityReport,
    logistic_fit,
    noncompliance_estimands,
    ols_fit,
    positivity_check,
)
from .fixtures import (
    dag_fixture,
    fixture_names,
    mdag_fixture,
    model_fixture,
    table_fixture,
)
from .graph import (
    CycleError,
    Dag,
    DagParseError,
    GraphError,
    Path,
    UnknownNodeError,
    all_paths,
    ancestors,
    d_separated,
    d_separated_by_enumeration,
    descendants,
    parse_dag,
    path_blocked,
    serialize_dag,
)
from .ident import (
    CausalQuery,
    RoleReport,
    backdoor_paths,
    classify_roles,
    enumerate_adjustment_sets,
    satisfies_backdoor,
)
from .missing import (
    G_MAR,
    G_MCAR,
    G_MNAR,
    MDag,
    MechanismVerdict,
    classify_mechanism,
    complete_case_valid,
    implied_independencies,
    missingness_report,
    parse_mdag,
)
from .scm import (
    ATE,
    LOG_MOR,
    Dataset,
    EffectEstimate,
    Expr,
    Intervention,
    ModelParseError,
    SimulationError,
    StructuralModel,
    intervene,
    parse_expr,
    parse_model,
    simulate,
    simulate_block,
    true_effect,
)
from .study import (
    BiasReport,
    Scenario,
    StudyConfig,
    StudyError,
    default_study_config,
    render_bias_table,
    run_scenario,
    run_study,
)
from .tables import (
    MeasureReport,
    StratifiedTable,
    effect_measure,
    load_table_csv,
    marginalize,
    risk,
)

__version__ = "0.1.0"
