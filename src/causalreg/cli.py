"""Command-line front end.

Exit codes follow one convention across subcommands: 0 success,
1 input, validation or usage error, 2 negative verdict (no valid
adjustment set, complete-case analysis invalid, measure not
collapsible), 3 numerical failure.  stdout carries only the report; diagnostics go
to stderr.

``analyze`` and ``missingness`` run on the pure-Python graph layer and
never load numpy or scipy.  ``collapse``, ``simulate``, ``fit`` and
``study`` import their numeric modules inside the command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Sequence

from . import fixtures
from ._shared import MEASURES, NumericalError
from .graph import hidden_nodes, parse_dag
from .ident import CausalQuery, backdoor_paths, classify_roles, enumerate_adjustment_sets
from .missing import missingness_report, parse_mdag

__all__ = ["main", "validate_report", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

SEED_ENV_VAR = "CAUSALREG_SEED"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NEGATIVE = 2
EXIT_NUMERICAL = 3

_REPORT_FIELDS: dict[str, tuple[str, ...]] = {
    "analyze": ("query", "backdoor_paths", "adjustment_sets", "roles"),
    "missingness": (
        "mechanism",
        "witnesses",
        "independencies",
        "complete_case_valid",
        "requires_positivity",
    ),
    "collapse": ("measure", "strata", "marginal", "stratum_weights",
                 "strictly_collapsible", "collapsible"),
    "fit": ("family", "coefficients",),
    "positivity": ("threshold", "min_propensity", "max_propensity", "flagged_rows"),
    "noncompliance": ("itt", "as_treated", "per_protocol", "cace", "control_uptake"),
    "study": ("config", "scenarios"),
}


class ReportSchemaError(ValueError):
    pass


def validate_report(doc: dict) -> None:
    """Check that a JSON report parses back into a known schema."""
    if not isinstance(doc, dict):
        raise ReportSchemaError("report must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ReportSchemaError(
            f"unsupported schema_version {doc.get('schema_version')!r}"
        )
    kind = doc.get("report")
    if kind not in _REPORT_FIELDS:
        raise ReportSchemaError(f"unknown report kind {kind!r}")
    missing = [f for f in _REPORT_FIELDS[kind] if f not in doc]
    if missing:
        raise ReportSchemaError(f"{kind} report is missing fields {missing}")


def _write(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(kind: str, body: dict, output: str | None) -> None:
    """Write a ``kind`` report: the schema header, then ``body``, as JSON."""
    doc = {"schema_version": SCHEMA_VERSION, "report": kind, **body}
    validate_report(doc)
    _write(json.dumps(doc, sort_keys=True, indent=2) + "\n", output)


def _read_source(arg: str, kind: str) -> str:
    """Fixture name or path; fixture names win only when no such file exists."""
    registry = {
        "dag": fixtures.DAG_FIXTURES,
        "mdag": fixtures.MDAG_FIXTURES,
        "model": fixtures.MODEL_FIXTURES,
        "table": fixtures.TABLE_FIXTURES,
    }[kind]
    path = Path(arg)
    if path.exists():
        return path.read_text()
    if arg in registry:
        return registry[arg]
    raise FileNotFoundError(f"no file or built-in {kind} fixture named {arg!r}")


def _split_csv_list(arg: str | None) -> tuple[str, ...]:
    if not arg:
        return ()
    return tuple(s.strip() for s in arg.split(",") if s.strip())


def _default_seed() -> int:
    """The seed when ``--seed`` is not given: ``$CAUSALREG_SEED``, else 0."""
    raw = os.environ.get(SEED_ENV_VAR)
    if not raw:
        return 0
    try:
        seed = int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR}={raw!r} is not an integer seed") from None
    if seed < 0:
        raise ValueError(f"{SEED_ENV_VAR}={seed}: seed must be non-negative")
    return seed


def _check_outputs(args: argparse.Namespace) -> None:
    """Refuse an output path that no file can take.  Every command writes
    its outputs after its work, so this runs before the work starts."""
    for flag, path in (("-o", args.output),
                       ("--estimates-csv", getattr(args, "estimates_csv", None))):
        if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
            raise ValueError(f"{flag} {path}: not a file in an existing directory")


# --- subcommands -------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> int:
    dag = parse_dag(_read_source(args.dag, "dag"))
    names = None if args.unmeasured is None else _split_csv_list(args.unmeasured)
    unmeasured = hidden_nodes(dag, names)
    # The verdict is about a regression of the outcome on the exposure,
    # which cannot be run unless both are measured.
    for role, node in (("exposure", args.exposure), ("outcome", args.outcome)):
        if node in unmeasured:
            raise ValueError(f"{role} {node!r} is unmeasured; a regression needs it")
    conditioned = frozenset(_split_csv_list(args.conditioned))
    measured = frozenset(dag.nodes) - unmeasured - conditioned
    query = CausalQuery(
        dag=dag,
        exposure=args.exposure,
        outcome=args.outcome,
        measured=measured,
        conditioned=conditioned,
    )
    sets = enumerate_adjustment_sets(
        query, minimal_only=args.minimal, allow_large=args.allow_large
    )
    roles = classify_roles(query)
    body = {
        "query": {
            "exposure": query.exposure,
            "outcome": query.outcome,
            "measured": sorted(query.measured),
            "unmeasured": sorted(unmeasured),
            "conditioned": sorted(conditioned),
            "nodes": sorted(dag.nodes),
            "edges": [f"{a} -> {b}" for a, b in sorted(dag.edges)],
        },
        "backdoor_paths": [p.render() for p in backdoor_paths(query)],
        "adjustment_sets": [sorted(s) for s in sets],
        "minimal_only": bool(args.minimal),
        # vars, not dataclasses.asdict: this runs once per node per query,
        # and asdict's recursive deep copy costs about 25 times as much.
        "roles": {v: vars(role) for v, role in sorted(roles.items())},
    }
    _emit("analyze", body, args.output)
    return EXIT_OK if sets else EXIT_NEGATIVE


def _cmd_missingness(args: argparse.Namespace) -> int:
    mdag = parse_mdag(_read_source(args.mdag, "mdag"))
    if args.covariates is not None:
        covariates = frozenset(_split_csv_list(args.covariates))
    else:
        covariates = mdag.substantive - {args.exposure, args.outcome}
    report = missingness_report(mdag, args.exposure, args.outcome, covariates)
    query = {
        "exposure": args.exposure,
        "outcome": args.outcome,
        "covariates": sorted(covariates),
    }
    _emit("missingness", {"query": query, **report}, args.output)
    return EXIT_OK if report["complete_case_valid"] else EXIT_NEGATIVE


def _cmd_collapse(args: argparse.Namespace) -> int:
    from .tables import effect_measure, load_table_csv, render_table

    table = load_table_csv(_read_source(args.table, "table"))
    report = effect_measure(table, args.measure, tolerance=args.tolerance)
    if args.format == "text":
        _write(render_table(table, [report]) + "\n", args.output)
    else:
        _emit("collapse", report.as_dict(), args.output)
    return EXIT_OK if report.collapsible else EXIT_NEGATIVE


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .scm import check_block_size, intervene, parse_model, simulate

    model = parse_model(_read_source(args.model, "model"))
    for spec in _split_csv_list(args.intervene):
        if "=" not in spec:
            raise ValueError(f"interventions look like NODE=VALUE, got {spec!r}")
        node, _, raw = spec.partition("=")
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"--intervene {spec}: {raw!r} is not a number") from None
        model = intervene(model, node.strip(), value)
    seed = _default_seed() if args.seed is None else args.seed
    if seed < 0:
        raise ValueError(f"--seed {seed}: seed must be non-negative")
    check_block_size(model, args.n, f"--n {args.n}")
    data = simulate(model, args.n, seed)
    if args.output:
        with open(args.output, "w") as out:
            data.write_csv(out)
    else:
        data.write_csv(sys.stdout)
    return EXIT_OK


def _cmd_fit(args: argparse.Namespace) -> int:
    from .estimators import (
        DesignSpec,
        NotBinaryError,
        logistic_fit,
        noncompliance_estimands,
        ols_fit,
        positivity_check,
    )
    from .scm import Dataset

    data = Dataset.from_csv(Path(args.data).read_text())
    try:
        if args.positivity:
            kind, body = "positivity", asdict(positivity_check(
                data, args.exposure, _split_csv_list(args.covariates), args.threshold
            ))
        elif args.noncompliance:
            kind, body = "noncompliance", asdict(noncompliance_estimands(data))
        else:
            design = DesignSpec(
                outcome=args.outcome,
                covariates=_split_csv_list(args.covariates),
                interactions=tuple(
                    tuple(pair.split(":")) for pair in _split_csv_list(args.interactions)
                ),
                squares=_split_csv_list(args.squares),
            )
            fitter = logistic_fit if args.family == "logistic" else ols_fit
            kind, body = "fit", {
                "family": args.family,
                "design": asdict(design),
                **fitter(data, design).as_dict(),
            }
    except (KeyError, NotBinaryError) as exc:  # a column the file lacks, or a bad one
        raise ValueError(f"{args.data}: {exc.args[0]}") from None
    _emit(kind, body, args.output)
    return EXIT_OK


def _cmd_study(args: argparse.Namespace) -> int:
    from .study import (
        StudyConfig,
        default_study_config,
        estimates_csv,
        render_bias_table,
        run_study,
    )

    # Explicit flags override whatever the config carries.
    flags = {"replications": args.runs, "sample_size": args.n, "seed": args.seed,
             "oracle_n": args.oracle_n}
    flags = {key: value for key, value in flags.items() if value is not None}
    if args.config == "default":
        if args.seed is None:
            flags["seed"] = _default_seed()
        config = default_study_config(**flags)
    else:
        try:
            doc = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.config}: not valid JSON: {exc}") from None
        config = StudyConfig.from_dict(doc)
        config = replace(config, **flags)
    report = run_study(config, workers=args.workers)
    if args.estimates_csv:
        Path(args.estimates_csv).write_text(estimates_csv(report))
    if args.format == "text":
        _write(render_bias_table(report) + "\n", args.output)
    else:
        _emit("study", report.as_dict(), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalreg",
        description="Causal-graph analysis and regression-bias simulation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="back-door analysis of a DAG")
    p.add_argument("--dag", required=True, help="DAG file or fixture name")
    p.add_argument("--exposure", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--unmeasured", default=None,
                   help="comma list; default: nodes starting with U")
    p.add_argument("--conditioned", default=None,
                   help="comma list of design-conditioned nodes (e.g. selection)")
    p.add_argument("--minimal", action="store_true",
                   help="report only inclusion-minimal adjustment sets")
    p.add_argument("--allow-large", action="store_true",
                   help="lift the 20-candidate bound on listing adjustment sets")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("missingness", help="m-DAG mechanism and recoverability")
    p.add_argument("--mdag", required=True, help="m-DAG file or fixture name")
    p.add_argument("--exposure", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--covariates", default=None,
                   help="comma list; default: all other substantive nodes")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_missingness)

    p = sub.add_parser("collapse", help="stratified-table collapsibility")
    p.add_argument("--table", required=True, help="CSV file or fixture name")
    p.add_argument("--measure", required=True, choices=MEASURES)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_collapse)

    p = sub.add_parser("simulate", help="draw data from a structural model")
    p.add_argument("--model", required=True, help="model file or fixture name")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help=f"default: ${SEED_ENV_VAR}, else 0")
    p.add_argument("--intervene", default=None,
                   help="comma list of NODE=VALUE settings")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit a regression on a CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--outcome", default="Y")
    p.add_argument("--covariates", default=None, help="comma list")
    p.add_argument("--interactions", default=None, help="comma list of A:B pairs")
    p.add_argument("--squares", default=None, help="comma list")
    p.add_argument("--family", choices=("linear", "logistic"), default="linear")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--positivity", action="store_true",
                      help="run the propensity-score positivity screen instead")
    mode.add_argument("--noncompliance", action="store_true",
                      help="compute non-compliance estimands instead")
    p.add_argument("--exposure", default="A")
    p.add_argument("--threshold", type=float, default=0.01)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("study", help="run a replicated bias study")
    p.add_argument("--config", default="default",
                   help="JSON config path, or 'default' for the ten-scenario panel")
    p.add_argument("--runs", type=int, default=None,
                   help="replications per scenario (default: config value)")
    p.add_argument("--n", type=int, default=None,
                   help="sample size per replication (default: config value)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--oracle-n", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--estimates-csv", default=None,
                   help="also write per-replication estimates to this CSV")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_study)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; 2 is a verdict here
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        _check_outputs(args)
        return args.func(args)
    # GraphError, ModelParseError and TableError are ValueErrors.
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # An allocation that the size checks did not foresee, here or in a
    # study's pool worker (the pool re-raises it here).
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"numerical failure: out of memory{detail}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
