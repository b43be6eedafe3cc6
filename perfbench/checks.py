"""Correctness checks, run outside the timed region.

Each check returns a list of failure messages; an empty list passes.
The graph checks use the benchmark's own d-separation (moralized
ancestral graph), a different algorithm from both the program's
path-blocking back-door test and its reachability ``d_separated``.
"""

from __future__ import annotations

import itertools
import json
import math

from inputs import descendants_of

UNBIASED = ("setup1", "setup4b", "setup5_crude", "setup6_crude", "setup7")
BIASED = ("setup2", "setup3", "setup4", "setup5_conditional", "setup6_conditional")
MC_SE_BOUND = 5.0


def moral_d_separated(edges, xs, ys, z) -> bool:
    """The sets XS and YS are d-separated by Z iff no node of XS reaches
    one of YS in the moral graph of the ancestral set of XS, YS and Z,
    once Z is removed."""
    z = set(z)
    parents: dict[str, set[str]] = {}
    for u, v in edges:
        parents.setdefault(v, set()).add(u)
    keep = set(xs) | set(ys) | z
    stack = list(keep)
    while stack:
        for p in parents.get(stack.pop(), ()):
            if p not in keep:
                keep.add(p)
                stack.append(p)
    adj: dict[str, set[str]] = {v: set() for v in keep}
    for v in keep:
        ps = sorted(parents.get(v, ()))
        for p in ps:
            adj[v].add(p)
            adj[p].add(v)
        for i, p in enumerate(ps):
            for q in ps[i + 1:]:
                adj[p].add(q)
                adj[q].add(p)
    targets = set(ys)
    seen = set(xs) - z
    if seen & targets:
        return False
    stack = list(seen)
    while stack:
        for w in adj[stack.pop()]:
            if w in z or w in seen:
                continue
            if w in targets:
                return False
            seen.add(w)
            stack.append(w)
    return True


def check_analyze(query, code: int, doc: dict | None) -> list[str]:
    """The listed sets are exactly the candidate subsets that satisfy
    Pearl's back-door criterion (the inclusion-minimal ones under
    ``--minimal``), found by trying every subset of the 2 or 3
    candidates independently; the exit code agrees with the verdict."""
    if doc is None:
        return [f"exit {code} without a report"]
    g = query.known
    a, y = g["exposure"], g["outcome"]
    # Back-door: Z holds no descendant of A and d-separates A from Y once
    # A's out-edges are cut.  Candidates are the measured non-descendants.
    cut = [(u, v) for u, v in g["edges"] if u != a]
    candidates = sorted(set(g["measured"]) - {a, y} - descendants_of(g["edges"], a))
    valid = [frozenset(c) for k in range(len(candidates) + 1)
             for c in itertools.combinations(candidates, k)
             if moral_d_separated(cut, {a}, {y}, c)]
    if query.kind == "analyze_minimal":
        valid = [s for s in valid if not any(t < s for t in valid)]
    listed = [frozenset(s) for s in doc["adjustment_sets"]]
    errors = []
    if len(set(listed)) != len(listed):
        errors.append("a set is listed twice")
    for s in sorted(set(listed) - set(valid), key=sorted):
        errors.append(f"set {sorted(s)} is listed but is not a valid"
                      f"{' minimal' if query.kind == 'analyze_minimal' else ''} set")
    for s in sorted(set(valid) - set(listed), key=sorted):
        errors.append(f"valid set {sorted(s)} is missing")
    expected_code = 0 if listed else 2
    if code != expected_code:
        errors.append(f"exit {code} but {len(listed)} adjustment sets")
    return errors


def check_missingness(query, code: int, doc: dict | None, cr) -> list[str]:
    """The covariates are the default ones, the verdict agrees with the
    benchmark's own d-separation of all indicators from Y given A and the
    covariates, and the exit code agrees with it; small graphs are also
    re-checked with the program's path-enumeration oracle."""
    if doc is None:
        return [f"exit {code} without a report"]
    g = query.known
    verdict = doc["complete_case_valid"]
    covs = set(doc["query"]["covariates"])
    errors = []
    expected_covs = set(g["substantive"]) - {"A", "Y"}
    if covs != expected_covs:
        errors.append(f"covariates {sorted(covs)} are not the default {sorted(expected_covs)}")
    expected = moral_d_separated(g["edges"], set(g["indicators"]), {"Y"}, covs | {"A"})
    if verdict != expected:
        errors.append(f"complete_case_valid={verdict} but d-separation says {expected}")
    if code != (0 if verdict else 2):
        errors.append(f"exit {code} but complete_case_valid={verdict}")
    if g["small"]:
        with open(query.argv[2]) as fh:
            mdag = cr.parse_mdag(fh.read())
        oracle = cr.d_separated_by_enumeration(mdag.base, mdag.indicators, {"Y"}, covs | {"A"})
        if oracle != verdict:
            errors.append(f"complete_case_valid={verdict} but enumeration says {oracle}")
    return errors


def _measure(measure: str, r1: float, r0: float) -> float:
    if measure == "risk_difference":
        return r1 - r0
    if measure == "risk_ratio":
        return r1 / r0
    return (r1 / (1 - r1)) / (r0 / (1 - r0))


def check_collapse(query, code: int, doc: dict | None) -> list[str]:
    """Marginal measure recomputed from the counts; exit code agrees."""
    if doc is None:
        return [f"exit {code} without a report"]
    m = query.known["margin"]
    r1 = m[1, 1] / (m[1, 1] + m[1, 0])
    r0 = m[0, 1] / (m[0, 1] + m[0, 0])
    expected = _measure(doc["measure"], r1, r0)
    errors = []
    if abs(doc["marginal"] - expected) > 1e-9 * max(1.0, abs(expected)):
        errors.append(f"marginal {doc['marginal']} != {expected}")
    if code != (0 if doc["collapsible"] else 2):
        errors.append(f"exit {code} but collapsible={doc['collapsible']}")
    return errors


def same_body(label: str, first, second) -> list[str]:
    """Criterion 8: two report bodies (or their digests) are identical."""
    if json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True):
        return []
    return [f"{label}: report bodies differ"]


def check_panel_verdicts(jobs: list[dict]) -> list[str]:
    """Criterion 5 on the replications pooled over the run's studies:
    unbiased scenarios within 5 MC-SE of the truth, biased ones beyond."""
    errors = []
    for sid in UNBIASED + BIASED:
        entries = [next(s for s in job["scenarios"] if s["id"] == sid) for job in jobs]
        reps = sum(e["replications"] for e in entries)
        bias = sum(e["replications"] * e["bias"] for e in entries) / reps
        se = math.sqrt(sum((e["replications"] * e["mc_se"]) ** 2 for e in entries)) / reps
        if sid in UNBIASED and not abs(bias) < MC_SE_BOUND * se:
            errors.append(f"{sid}: |bias| {abs(bias):.4g} >= 5 MC-SE {MC_SE_BOUND * se:.4g}")
        if sid in BIASED and not abs(bias) > MC_SE_BOUND * se:
            errors.append(f"{sid}: |bias| {abs(bias):.4g} <= 5 MC-SE {MC_SE_BOUND * se:.4g}")
    return errors


def setup5_log_mor() -> float:
    """Quadrature value of the setup-5 marginal log odds ratio."""
    from scipy import integrate
    from scipy.special import expit

    density = lambda x: math.exp(-0.5 * (x - 1) ** 2) / math.sqrt(2 * math.pi)
    p1 = integrate.quad(lambda x: expit(1 + x) * density(x), -12, 14, limit=200)[0]
    p0 = integrate.quad(lambda x: expit(x) * density(x), -12, 14, limit=200)[0]
    return math.log(p1 / (1 - p1)) - math.log(p0 / (1 - p0))


def setup6_ate() -> float:
    from scipy.special import expit

    return 1.0 + float(expit(-1.5)) - float(expit(0.5))


def check_effect(label: str, value: float, mc_se: float, truth: float, exact: bool) -> list[str]:
    """An exact oracle (setup 1: the arms share every draw) must hit the
    truth to 1e-12; a Monte-Carlo one must land within 5 MC-SE."""
    tol = 1e-12 if exact else MC_SE_BOUND * mc_se
    if abs(value - truth) <= tol:
        return []
    return [f"{label}: {value!r} is {abs(value - truth):.3g} from {truth!r} (tol {tol:.3g})"]


def check_coef(label: str, fit, truth: float) -> list[str]:
    est = fit.coef("A")
    se = fit.standard_errors[fit.names.index("A")]
    if abs(est - truth) <= MC_SE_BOUND * se:
        return []
    return [f"{label}: coefficient on A {est!r} is more than 5 SE ({se:.3g}) from {truth}"]
