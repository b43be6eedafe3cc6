"""Built-in example graphs, missingness graphs, models and tables.

Everything here is addressable by name from the CLI (``--dag fig4c``,
``--model setup5``, ``--table table1``) and from the test suite.  All
normal nodes use unit standard deviation unless written otherwise.
"""

from __future__ import annotations

from .graph import Dag, parse_dag
from .missing import MDag, parse_mdag
from .scm import StructuralModel, parse_model
from .tables import StratifiedTable, load_table_csv

__all__ = [
    "DAG_FIXTURES",
    "MDAG_FIXTURES",
    "MODEL_FIXTURES",
    "TABLE_FIXTURES",
    "dag_fixture",
    "mdag_fixture",
    "model_fixture",
    "table_fixture",
]

DAG_FIXTURES: dict[str, str] = {
    # Confounding triangle: L affects both treatment and outcome.
    "fig1a": "L -> A\nA -> Y\nL -> Y\n",
    # Common effect: conditioning on L links A and Y.
    "fig1b": "A -> L\nY -> L\n",
    # Two confounders, one of them driven by an unmeasured cause.
    "fig1c": "L1 -> A\nL1 -> L2\nU -> L2\nU -> Y\nL2 -> A\nL2 -> Y\nA -> Y\n",
    # Measured confounder (region / storks / births).
    "fig2a": "L -> A\nA -> Y\nL -> Y\n",
    # Unmeasured confounder (socio-economic status).
    "fig2b": "U -> A\nA -> Y\nU -> Y\n",
    # Randomized treatment: no arrow into A.
    "fig2c": "A -> Y\nL -> Y\n",
    # A covariate and its square both act as confounders.
    "fig3": "L -> A\nLsq -> A\nL -> Y\nLsq -> Y\nA -> Y\nL -> Lsq\n",
    # Collider: no open path between A and Y.
    "fig4a": "A -> L\nY -> L\n",
    # Same graph; the analysis conditions on the collider L.
    "fig4b": "A -> L\nY -> L\n",
    # Survey-selection collider C opens A -> C <- L <- U -> Y.
    "fig4c": "A -> C\nL -> C\nU -> L\nU -> Y\n",
    # Smoking/pre-eclampsia style paradox: L2 is both mediator and collider.
    "fig4d": "L1 -> A\nA -> L2\nL1 -> L2\nU -> L2\nU -> Y\nL2 -> Y\nA -> Y\n",
    # Mediator M on the treatment-outcome pathway.
    "fig6a": "A -> M\nM -> Y\nA -> Y\n",
    # Post-treatment L that blocks a back-door path instead of a pathway.
    "fig6b": "U -> A\nU -> L\nL -> Y\nA -> Y\n",
    # L descends from the mediator.
    "fig6c": "A -> M\nM -> L\nM -> Y\nA -> Y\n",
    # L is a cause of the mediator; conditioning on it is harmless.
    "fig6d": "A -> M\nL -> M\nM -> Y\nA -> Y\n",
    # Data-generating graphs of the simulation setups.
    "fig7a": "L -> A\nA -> Y\nL -> Y\n",
    "fig7b": "L -> A\nA -> Y\nL -> Y\nY -> L2\nA -> L2\n",
    "fig7c": "A -> Y\nL -> Y\n",
    "fig7d": "A -> M\nM -> Y\nA -> Y\n",
    # Sample selection S driven by a pre-treatment covariate.
    "fig8a": "A -> Y\nL2 -> Y\nL2 -> A\nL1 -> A\nL1 -> S\n",
    "fig8b": "A -> Y\nL2 -> Y\nL2 -> A\nL1 -> Y\nL1 -> S\n",
    # Selection collider: conditioning on S opens L1 -> S <- L2.
    "fig8c": "A -> Y\nL2 -> Y\nL1 -> L2\nL1 -> A\nL1 -> S\nL2 -> S\n",
    # Two-phase selection with a direct L2 -> Y effect.
    "fig8d": "A -> Y\nL2 -> Y\nL2 -> A\nL1 -> A\nL1 -> S1\nL2 -> S2\nL2 -> S1\nS1 -> S2\n",
    # Outcome measured with error (proxy Ystar).
    "fig9a": "A -> Y\nY -> Ystar\nUY -> Ystar\n",
    # Differential measurement error: the outcome feeds the exposure proxy.
    "fig9b": "A -> Y\nA -> Astar\nUA -> Astar\nY -> Ystar\nUY -> Ystar\nY -> UA\n",
    # Mis-measured confounder proxy that fails to block the back door.
    "fig9c": "L -> Lstar\nL -> A\nA -> Y\nL -> Y\n",
    # Proxy drives treatment, so conditioning on it closes the back door.
    "fig9d": "L -> Lstar\nL -> Y\nLstar -> A\nLstar -> Y\nA -> Y\n",
}

MDAG_FIXTURES: dict[str, str] = {
    "fig5": (
        "L1 -> A\n"
        "L2 -> A\n"
        "A -> Y\n"
        "L1 -> C_A\n"
        "L2 -> C_A\n"
        "L1 -> C_L2\n"
        "A -> C_L2\n"
        "L1 -> C_Y\n"
        "L2 -> C_Y\n"
        "A -> C_Y\n"
        "missing: A -> C_A\n"
        "missing: L2 -> C_L2\n"
        "missing: Y -> C_Y\n"
    ),
}

MODEL_FIXTURES: dict[str, str] = {
    # Binary treatment, one continuous confounder, linear outcome.
    "setup1": (
        "L ~ normal(1, 1)\n"
        "A ~ bernoulli(plogis(-0.5 + 2*L))\n"
        "Y ~ normal(2 + A + 3*L, 1)\n"
    ),
    # Same graph, but the confounder enters the outcome quadratically.
    "setup2": (
        "L ~ normal(1, 1)\n"
        "A ~ bernoulli(plogis(-0.5 + 2*L))\n"
        "Y ~ normal(2 + A + 0.5*L^2, 1)\n"
    ),
    # Adds a collider L2 caused by both treatment and outcome.
    "setup3": (
        "L ~ normal(1, 1)\n"
        "A ~ bernoulli(plogis(-0.5 + 2*L))\n"
        "Y ~ normal(2 + A + 3*L, 1)\n"
        "L2 ~ normal(Y*A, 1)\n"
    ),
    # Treatment effect varies with the confounder.
    "setup4": (
        "L ~ normal(1, 1)\n"
        "A ~ bernoulli(plogis(-0.5 + 2*L))\n"
        "Y ~ normal(2 + A + 3*L + A*L, 1)\n"
    ),
    # Same outcome law under randomized treatment assignment.
    "setup4b": (
        "L ~ normal(1, 1)\n"
        "A ~ bernoulli(plogis(-0.5))\n"
        "Y ~ normal(2 + A + 3*L + A*L, 1)\n"
    ),
    # Randomized treatment with a binary outcome.
    "setup5": (
        "L ~ normal(1, 1)\n"
        "A ~ bernoulli(0.5)\n"
        "Y ~ bernoulli(plogis(A + L))\n"
    ),
    # Binary mediator between treatment and outcome.
    "setup6": (
        "A ~ bernoulli(plogis(-0.5))\n"
        "M ~ bernoulli(plogis(0.5 - 2*A))\n"
        "Y ~ normal(2 + M + A, 1)\n"
    ),
    # Missingness indicators drawn alongside the substantive nodes;
    # C_* = 1 means the value is observed.
    "setup7": (
        "L1 ~ normal(1, 1)\n"
        "L2 ~ normal(-1, 1)\n"
        "A ~ bernoulli(plogis(-0.5 + 2*L1 + L2))\n"
        "C_A ~ bernoulli(plogis(1.5 + 0.5*L1 + 0.5*L2))\n"
        "C_L2 ~ bernoulli(plogis(1.5 - 0.75*L1 + 0.75*A))\n"
        "Y ~ normal(2 + A, 1)\n"
        "C_Y ~ bernoulli(plogis(1.5 + 0.25*L1 + 0.25*L2 + 0.5*A))\n"
    ),
}

TABLE_FIXTURES: dict[str, str] = {
    "table1": (
        "stratum,a,y,weight\n"
        "L=1,1,1,0.20\n"
        "L=1,0,1,0.15\n"
        "L=1,1,0,0.05\n"
        "L=1,0,0,0.10\n"
        "L=0,1,1,0.10\n"
        "L=0,0,1,0.05\n"
        "L=0,1,0,0.15\n"
        "L=0,0,0,0.20\n"
    ),
}


def _text(registry: dict[str, str], kind: str, name: str) -> str:
    try:
        return registry[name]
    except KeyError:
        raise KeyError(f"no {kind} fixture named {name!r}") from None


def dag_fixture(name: str) -> Dag:
    return parse_dag(_text(DAG_FIXTURES, "DAG", name))


def mdag_fixture(name: str) -> MDag:
    return parse_mdag(_text(MDAG_FIXTURES, "m-DAG", name))


def model_fixture(name: str) -> StructuralModel:
    return parse_model(_text(MODEL_FIXTURES, "model", name))


def table_fixture(name: str) -> StratifiedTable:
    return load_table_csv(_text(TABLE_FIXTURES, "table", name))
