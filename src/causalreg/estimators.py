"""Regression fits, positivity diagnostics, and non-compliance estimands."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
import scipy.linalg
from scipy.special import expit

from ._shared import NumericalError
from .scm import Dataset

__all__ = [
    "DesignSpec",
    "FitResult",
    "FitError",
    "RankDeficiencyError",
    "NotBinaryError",
    "SeparationError",
    "ConvergenceError",
    "design_matrix",
    "stacked_design",
    "ols",
    "ols_fit",
    "logistic_fit",
    "irls",
    "positivity_check",
    "PositivityReport",
    "noncompliance_estimands",
    "NoncomplianceEstimands",
]

IRLS_TOL = 1e-8
IRLS_MAX_ITER = 25
SEPARATION_COEF_NORM = 1e3
SEPARATION_PROB_EPS = 1e-10
# A fit trusts an unpivoted R only when
#   sigma_min(R) > RANK_MARGIN * n * p * eps * sigma_max(R).
# The pivoted check fails a problem only when sigma_min(X) <= max(n, p) eps
# sigma_max(X), so the margin also covers the rounding of both factors;
# a problem inside it goes to the pivoted check.
RANK_MARGIN = 100.0
# Rows per batched QR: a taller matrix is factored block by block, which
# keeps numpy from holding a second copy of the whole of it.
QR_ROW_BLOCK = 1 << 16


class FitError(NumericalError):
    """A regression fit could not be completed."""


class RankDeficiencyError(FitError):
    def __init__(self, columns: Iterable[str]):
        self.columns = tuple(columns)
        super().__init__(
            f"design matrix is rank deficient; collinear columns: {list(self.columns)}"
        )


class NotBinaryError(FitError):
    """A column that must hold only 0 and 1 holds something else."""

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"column {column!r} must be binary 0/1")


class SeparationError(FitError):
    pass


class ConvergenceError(FitError):
    def __init__(self, message: str, trace: Iterable[float]):
        self.trace = tuple(trace)
        steps = ", ".join(f"{s:.3g}" for s in self.trace)
        super().__init__(f"{message} (step norms: {steps})")


@dataclass(frozen=True)
class DesignSpec:
    """Outcome plus covariate terms of a regression model."""

    outcome: str
    covariates: tuple[str, ...] = ()
    interactions: tuple[tuple[str, str], ...] = ()
    squares: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "covariates", tuple(self.covariates))
        object.__setattr__(
            self, "interactions", tuple(tuple(p) for p in self.interactions)
        )
        object.__setattr__(self, "squares", tuple(self.squares))
        for pair in self.interactions:
            if len(pair) != 2:
                raise ValueError(f"interactions look like A:B, got {':'.join(pair)!r}")
        terms = {*self.covariates, *(v for pair in self.interactions for v in pair),
                 *self.squares}
        if self.outcome in terms:
            raise ValueError(f"outcome {self.outcome!r} cannot also be a design term")
        names = self.column_names()
        # A:B and B:A are one column, and so are A:A and A^2.
        products = [tuple(sorted(p)) for p in self.interactions]
        products += [(v, v) for v in self.squares]
        if len(set(names)) != len(names) or len(set(products)) != len(products):
            raise ValueError(f"duplicate design terms in {names}")

    def variables(self) -> tuple[str, ...]:
        """The columns the design reads, outcome last."""
        names = [*self.covariates, *(v for pair in self.interactions for v in pair)]
        return tuple(dict.fromkeys([*names, *self.squares, self.outcome]))

    def column_names(self) -> tuple[str, ...]:
        names = ["intercept"]
        names += list(self.covariates)
        names += [f"{a}:{b}" for a, b in self.interactions]
        names += [f"{v}^2" for v in self.squares]
        return tuple(names)


@dataclass(frozen=True)
class FitResult:
    names: tuple[str, ...]
    coefficients: tuple[float, ...]
    standard_errors: tuple[float, ...]
    iterations: int = 0
    final_step_norm: float = 0.0
    converged: bool = True

    def __post_init__(self) -> None:
        if not (len(self.names) == len(self.coefficients) == len(self.standard_errors)):
            raise ValueError("coefficient, SE and name lengths disagree")

    def coef(self, name: str) -> float:
        try:
            return self.coefficients[self.names.index(name)]
        except ValueError:
            raise KeyError(f"no coefficient named {name!r}") from None

    def as_dict(self) -> dict:
        return {
            "coefficients": {
                name: {"estimate": est, "se": se}
                for name, est, se in zip(
                    self.names, self.coefficients, self.standard_errors
                )
            },
            "iterations": self.iterations,
            "final_step_norm": self.final_step_norm,
            "converged": self.converged,
        }


def stacked_design(
    columns: Mapping[str, np.ndarray], spec: DesignSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Build (X, y) from columns of one shape (..., n): X is (..., n, p) with
    the intercept first, y is (..., n)."""
    y = columns[spec.outcome]
    with np.errstate(over="ignore"):  # an overflow is the fit's verdict, not a warning
        X = np.stack(
            [np.ones(y.shape)]
            + [columns[name] for name in spec.covariates]
            + [columns[a] * columns[b] for a, b in spec.interactions]
            + [columns[name] ** 2 for name in spec.squares],
            axis=-1,
        )
    return X, y


def design_matrix(data: Dataset, spec: DesignSpec) -> tuple[np.ndarray, np.ndarray]:
    """Build (X, y) from a dataset; intercept first."""
    return stacked_design({name: data.column(name) for name in spec.variables()}, spec)


def _pivoted_qr(X: np.ndarray, names: tuple[str, ...]) -> None:
    """The rank verdict of scipy's pivoted QR of X: raises, naming the
    collinear columns, if X is rank deficient."""
    *_, r, pivots = scipy.linalg.qr(X, mode="raw", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = max(X.shape) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    rank = int(np.sum(diag > tol))
    if rank < X.shape[1]:
        raise RankDeficiencyError(names[j] for j in sorted(pivots[rank:]))


def _qr_r(A: np.ndarray) -> np.ndarray:
    """The R factors (R, k, k) of a stack A (R, n, k) with n >= k, one batched
    QR per block of QR_ROW_BLOCK rows with the R found so far on top, so a
    tall matrix is never held twice."""
    r = np.linalg.qr(A[:, :QR_ROW_BLOCK], mode="r")
    for start in range(QR_ROW_BLOCK, A.shape[1], QR_ROW_BLOCK):
        block = A[:, start:start + QR_ROW_BLOCK]
        r = np.linalg.qr(np.concatenate((r, block), axis=1), mode="r")
    return r


def _screen(
    X: np.ndarray, y: np.ndarray, spec: DesignSpec, binary: bool
) -> tuple[np.ndarray | None, list[FitError | None]]:
    """The checks every fit of a stack X (R, n, p), y (R, n) needs, in order:
    more rows than parameters, a binary outcome (when ``binary``), finite
    design entries, full column rank, a finite outcome.

    Returns the unpivoted R factors of [X | y] (R, p+1, p+1), or None when
    there are too few rows, and per problem None if it passed, else its
    FitError.  The pivoted QR settles the rank of only the problems the
    unpivoted R cannot vouch for.
    """
    reps, n, p = X.shape
    if n <= p:
        return None, [FitError(f"need more rows than parameters (n={n}, p={p})")
                      for _ in range(reps)]
    out: list[FitError | None] = [None] * reps
    if binary:
        for i in np.flatnonzero(~np.isin(y, (0.0, 1.0)).all(axis=1)):
            out[i] = NotBinaryError(spec.outcome)
    # [X | y] with each problem column-major, as LAPACK reads it, so that
    # numpy's copy into LAPACK's buffer is a contiguous one.
    xy = np.empty((reps, p + 1, n))
    xy[:, :p] = np.swapaxes(X, 1, 2)
    xy[:, p] = y
    r = _qr_r(np.swapaxes(xy, 1, 2))
    rx = r[:, :p, :p]
    finite = np.isfinite(rx).all(axis=(1, 2))
    sigma = np.linalg.svd(np.where(finite[:, None, None], rx, 0.0), compute_uv=False)
    margin = RANK_MARGIN * n * p * np.finfo(float).eps
    names = spec.column_names()
    # A non-finite entry of X leaves R non-finite, which fails this test too.
    for i in np.flatnonzero(~(sigma[:, -1] > margin * sigma[:, 0])):
        if out[i] is None:
            try:
                bad = np.flatnonzero(~np.isfinite(X[i]).all(axis=0))
                if bad.size:
                    raise FitError(f"design column {names[bad[0]]!r} is not finite")
                _pivoted_qr(X[i], names)
            except FitError as exc:
                out[i] = exc
    for i in np.flatnonzero(~np.isfinite(y).all(axis=1)):
        if out[i] is None:
            out[i] = FitError(f"outcome {spec.outcome!r} is not finite")
    return r, out


def ols(X: np.ndarray, y: np.ndarray, spec: DesignSpec) -> list[FitResult | FitError]:
    """Least squares with classical SEs on a stack of independent problems:
    X is (R, n, p) and y is (R, n).  Returns, per problem, its FitResult or
    the FitError that stopped it.

    Everything is read off the R of [X | y]: its last column holds Q'y and
    its corner entry the residual norm, so no Q is formed, and the SEs
    are the row norms of R^-1 (X'X = R'R) scaled by the residual SD.  A
    finite outcome whose coefficients or SEs overflow fails its problem.
    """
    n, p = X.shape[1:]
    r, out = _screen(X, y, spec, binary=False)
    ok = np.flatnonzero([fit is None for fit in out])
    if ok.size:
        rx = r[ok, :p, :p]
        beta = np.linalg.solve(rx, r[ok, :p, p:])[:, :, 0]
        rinv = np.linalg.inv(rx)
        with np.errstate(over="ignore"):  # an overflow is the fit's verdict
            sigma2 = r[ok, p, p] ** 2 / (n - p)
            ses = np.sqrt(sigma2[:, None] * np.sum(rinv * rinv, axis=2))
        finite = np.isfinite(beta).all(axis=1) & np.isfinite(ses).all(axis=1)
        names = spec.column_names()
        for i, b, s, good in zip(ok, beta, ses, finite):
            out[i] = (FitResult(names, tuple(map(float, b)), tuple(map(float, s))) if good
                      else FitError(f"outcome {spec.outcome!r} is too large to fit: "
                                    "a coefficient or SE overflows"))
    return out


def _fit_one(fitter, X: np.ndarray, y: np.ndarray, spec: DesignSpec) -> FitResult:
    """A stacked fitter on one design X (n, p), y (n,): its FitResult, or
    its FitError raised."""
    fit = fitter(X[None], y[None], spec)[0]
    if isinstance(fit, FitError):
        raise fit
    return fit


def ols_fit(data: Dataset, spec: DesignSpec) -> FitResult:
    """Least squares with classical SEs: :func:`ols` on one dataset."""
    return _fit_one(ols, *design_matrix(data, spec), spec)


def _solve_each(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a stack of systems a[i] x = b[i]; returns (x, solved), where a
    singular system leaves NaNs in x and False in solved."""
    try:
        return np.linalg.solve(a, b), np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        solved = np.zeros(len(a), dtype=bool)
        for i in range(len(a)):
            try:
                x[i] = np.linalg.solve(a[i], b[i])
                solved[i] = True
            except np.linalg.LinAlgError:
                pass
        return x, solved


def _information(X: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """X' W X for each problem of a stack, with W = diag(p (1 - p)).

    W X is formed one column at a time: a broadcast over the short last
    axis of X would run an inner loop of length p over every row.
    """
    w = probs * (1 - probs)
    wx = np.empty(X.shape)
    for j in range(X.shape[2]):
        np.multiply(w, X[:, :, j], out=wx[:, :, j])
    return np.swapaxes(X, 1, 2) @ wx


def _saturated(ones: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Per entry, whether a fitted probability is within
    SEPARATION_PROB_EPS of its observed class."""
    return np.where(ones, probs > 1 - SEPARATION_PROB_EPS, probs < SEPARATION_PROB_EPS)


def irls(
    X: np.ndarray, y: np.ndarray, spec: DesignSpec
) -> list[FitResult | FitError]:
    """Logistic regression by iteratively reweighted least squares on a
    stack of independent problems: X is (R, n, p) and y is (R, n).

    Newton steps solve the weighted normal equations; a problem converges
    when its largest coefficient update falls below 1e-8.  Each problem
    iterates, converges and fails on its own, as it would in a stack of
    one.  Returns, per problem, its FitResult or the FitError that ended it.
    """
    reps, _, p = X.shape
    names = spec.column_names()
    out: list[FitResult | FitError | None] = _screen(X, y, spec, binary=True)[1]
    live = np.flatnonzero([fit is None for fit in out])  # problems still iterating
    if live.size < reps:
        X, y = X[live], y[live]
    beta = np.zeros((reps, p))
    steps = np.zeros((reps, IRLS_MAX_ITER))
    ones = y == 1
    both_classes = ones.any(axis=1) & (~ones).any(axis=1)
    probs = np.full(y.shape, 0.5)  # expit(X @ 0)
    for iteration in range(1, IRLS_MAX_ITER + 1):
        if live.size == 0:
            break
        score = np.swapaxes(X, 1, 2) @ (y - probs)[:, :, None]
        step, solved = _solve_each(_information(X, probs), score)
        for i in live[~solved]:
            out[i] = SeparationError("singular information matrix")
        step = step[:, :, 0]
        beta[live] += step
        step_norms = np.max(np.abs(step), axis=1)
        steps[live, iteration - 1] = step_norms
        probs = expit((X @ beta[live][:, :, None])[:, :, 0])

        coef_norms = np.linalg.norm(beta[live], axis=1)
        diverged = solved & (coef_norms > SEPARATION_COEF_NORM)
        # Saturated means every fitted probability sits at its own class's
        # end.  Row 0 is tested first, so that only the problems it passes
        # are scanned whole.
        saturated = solved & ~diverged & both_classes & _saturated(ones[:, 0], probs[:, 0])
        maybe = np.flatnonzero(saturated)
        saturated[maybe] = _saturated(ones[maybe], probs[maybe]).all(axis=1)
        for k in np.flatnonzero(diverged):
            out[live[k]] = SeparationError(
                f"separation suspected: coefficient norm {coef_norms[k]:.3g} "
                f"exceeds {SEPARATION_COEF_NORM:g}"
            )
        for k in np.flatnonzero(saturated):
            out[live[k]] = SeparationError(
                "perfect separation: fitted probabilities saturated"
            )
        running = solved & ~diverged & ~saturated
        converged = running & (step_norms < IRLS_TOL)
        if converged.any():
            eye = np.broadcast_to(np.eye(p), (int(converged.sum()), p, p))
            done = (X, probs) if converged.all() else (X[converged], probs[converged])
            covs, invertible = _solve_each(_information(*done), eye)
            for k, cov, ok in zip(np.flatnonzero(converged), covs, invertible):
                i = live[k]
                if not ok:
                    out[i] = SeparationError("singular information matrix at convergence")
                    continue
                out[i] = FitResult(
                    names,
                    tuple(map(float, beta[i])),
                    tuple(map(float, np.sqrt(np.clip(np.diag(cov), 0.0, None)))),
                    iterations=iteration,
                    final_step_norm=float(step_norms[k]),
                    converged=True,
                )
        keep = running & ~converged
        if not keep.all():
            live, X, y, probs = live[keep], X[keep], y[keep], probs[keep]
            ones, both_classes = ones[keep], both_classes[keep]
    for i in live:
        out[i] = ConvergenceError(
            f"IRLS did not converge in {IRLS_MAX_ITER} iterations",
            map(float, steps[i]),
        )
    return out


def logistic_fit(data: Dataset, spec: DesignSpec) -> FitResult:
    """Logistic regression by iteratively reweighted least squares:
    :func:`irls` on one dataset."""
    return _fit_one(irls, *design_matrix(data, spec), spec)


@dataclass(frozen=True)
class PositivityReport:
    threshold: float
    min_propensity: float
    max_propensity: float
    fraction_below: float
    fraction_above: float
    flagged_rows: int
    n: int


def positivity_check(
    data: Dataset,
    exposure: str,
    covariates: Iterable[str],
    threshold: float = 0.01,
) -> PositivityReport:
    """Propensity-score screen for sparse treatment assignment.

    Fits a logistic propensity model and counts rows whose fitted
    probability falls below the threshold or above one minus it.  The
    exposure may not be one of the covariates.
    """
    if not 0 <= threshold < 0.5:
        raise ValueError("threshold must lie in [0, 0.5)")
    covariates = tuple(covariates)
    if exposure in covariates:
        raise ValueError(f"exposure {exposure!r} cannot also be a covariate")
    spec = DesignSpec(outcome=exposure, covariates=covariates)
    X, y = design_matrix(data, spec)
    fit = _fit_one(irls, X, y, spec)
    probs = expit(X @ np.asarray(fit.coefficients))
    below = probs < threshold
    above = probs > 1 - threshold
    return PositivityReport(
        threshold=threshold,
        min_propensity=float(probs.min()),
        max_propensity=float(probs.max()),
        fraction_below=float(below.mean()),
        fraction_above=float(above.mean()),
        flagged_rows=int((below | above).sum()),
        n=data.n,
    )


@dataclass(frozen=True)
class NoncomplianceEstimands:
    itt: float
    as_treated: float
    per_protocol: float
    cace: float
    control_uptake: float  # P(A=1 | Z=0); above 0 under two-sided non-compliance


def _subgroup_mean(y: np.ndarray, mask: np.ndarray, label: str) -> float:
    if not mask.any():
        raise FitError(f"empty subgroup: {label}")
    return float(y[mask].mean())


def noncompliance_estimands(data: Dataset) -> NoncomplianceEstimands:
    """Intention-to-treat, as-treated, per-protocol and complier effects.

    The columns ``A_assigned``, ``A_taken`` and ``Y`` must be binary.
    ``cace`` divides the intention-to-treat contrast by the uptake
    probability among those assigned to treatment, ``ITT / P(A=1 | Z=1)``.
    That equals the Wald complier effect only under one-sided
    non-compliance (no uptake among those assigned to control,
    ``control_uptake == 0``); otherwise the Wald denominator is
    ``P(A=1 | Z=1) - control_uptake``.
    """
    assigned, taken, outcome = "A_assigned", "A_taken", "Y"
    za = data.column(assigned)
    a = data.column(taken)
    y = data.column(outcome)
    for name, col in ((assigned, za), (taken, a), (outcome, y)):
        if not np.all(np.isin(col, (0.0, 1.0))):
            raise NotBinaryError(name)
    itt = _subgroup_mean(y, za == 1, f"{assigned}=1") - _subgroup_mean(
        y, za == 0, f"{assigned}=0"
    )
    as_treated = _subgroup_mean(y, a == 1, f"{taken}=1") - _subgroup_mean(
        y, a == 0, f"{taken}=0"
    )
    per_protocol = _subgroup_mean(
        y, (a == 1) & (za == 1), f"{taken}=1 & {assigned}=1"
    ) - _subgroup_mean(y, (a == 0) & (za == 0), f"{taken}=0 & {assigned}=0")
    uptake = float((a[za == 1] == 1).mean())
    if uptake == 0:
        raise FitError("no treatment uptake among those assigned to treatment")
    return NoncomplianceEstimands(
        itt=itt, as_treated=as_treated, per_protocol=per_protocol, cace=itt / uptake,
        control_uptake=float((a[za == 0] == 1).mean()),
    )
