import numpy as np
import pytest
from scipy.special import expit

from causalreg import (
    Dataset,
    DesignSpec,
    FitError,
    logistic_fit,
    model_fixture,
    noncompliance_estimands,
    ols_fit,
    positivity_check,
    simulate,
)
import causalreg.estimators as est
from causalreg.estimators import (
    NotBinaryError,
    RankDeficiencyError,
    SeparationError,
    design_matrix,
    irls,
    ols,
)


def dataset(**columns):
    names = tuple(columns)
    data = np.column_stack([np.asarray(v, dtype=float) for v in columns.values()])
    return Dataset(names, data)


def gradient_descent_logistic(X, y, tol=1e-10, max_iter=500_000):
    """Independent oracle: plain gradient ascent on the log-likelihood."""
    n = X.shape[0]
    lipschitz = 0.25 * np.linalg.eigvalsh(X.T @ X / n).max()
    lr = 1.0 / lipschitz
    beta = np.zeros(X.shape[1])
    for _ in range(max_iter):
        grad = X.T @ (y - expit(X @ beta)) / n
        beta = beta + lr * grad
        if np.max(np.abs(grad)) < tol:
            break
    return beta


@pytest.fixture(scope="module")
def logistic_fixture_100():
    rng = np.random.default_rng(1234)
    n = 100
    L = rng.normal(0, 1, n)
    A = rng.binomial(1, 0.5, n).astype(float)
    y = rng.binomial(1, expit(-0.3 + 0.8 * A + 0.5 * L)).astype(float)
    return dataset(A=A, L=L, Y=y)


class TestDesignSpec:
    def test_column_names(self):
        spec = DesignSpec("Y", ("A", "L"), interactions=(("A", "L"),), squares=("L",))
        assert spec.column_names() == ("intercept", "A", "L", "A:L", "L^2")

    def test_duplicate_terms_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DesignSpec("Y", ("A", "A"))

    @pytest.mark.parametrize("interactions, squares", [
        ((("A", "L"), ("L", "A")), ()),
        ((("L", "L"),), ("L",)),
    ], ids=["both_orders", "self_interaction_and_square"])
    def test_same_product_twice_rejected(self, interactions, squares):
        with pytest.raises(ValueError, match="duplicate design terms"):
            DesignSpec("Y", ("A", "L"), interactions=interactions, squares=squares)

    def test_interaction_arity_checked(self):
        with pytest.raises(ValueError, match="interactions look like A:B, got 'A'"):
            DesignSpec("Y", ("A",), interactions=(("A",),))

    @pytest.mark.parametrize("terms", [
        {"covariates": ("A", "Y")},
        {"covariates": ("A",), "interactions": (("A", "Y"),)},
        {"covariates": ("A",), "squares": ("Y",)},
    ], ids=["covariate", "interaction_member", "square"])
    def test_outcome_is_no_design_term(self, terms):
        with pytest.raises(ValueError) as info:
            DesignSpec("Y", **terms)
        assert str(info.value) == "outcome 'Y' cannot also be a design term"

    def test_interaction_and_square_columns(self):
        data = dataset(A=[1.0, 2.0], L=[3.0, 4.0], Y=[0.0, 0.0])
        spec = DesignSpec("Y", ("A",), interactions=(("A", "L"),), squares=("L",))
        X, _ = design_matrix(data, spec)
        assert np.allclose(X[:, 2], [3.0, 8.0])
        assert np.allclose(X[:, 3], [9.0, 16.0])


class TestOls:
    def test_exact_line(self):
        data = dataset(x=[0.0, 1.0, 2.0], y=[1.0, 3.0, 5.0])
        fit = ols_fit(data, DesignSpec("y", ("x",)))
        assert fit.coefficients == pytest.approx((1.0, 2.0), abs=1e-12)

    def test_constant_outcome(self):
        data = dataset(x=[0.0, 1.0, 2.0, 3.0], y=[4.0, 4.0, 4.0, 4.0])
        fit = ols_fit(data, DesignSpec("y", ("x",)))
        assert fit.coefficients == pytest.approx((4.0, 0.0), abs=1e-12)
        assert fit.standard_errors == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_setup1_coefficient_near_one(self):
        data = simulate(model_fixture("setup1"), 1000, seed=17)
        fit = ols_fit(data, DesignSpec("Y", ("A", "L")))
        assert fit.coef("A") == pytest.approx(1.0, abs=0.15)

    def test_rank_deficiency_names_columns(self):
        data = dataset(
            a=[1.0, 2.0, 3.0, 4.0],
            b=[2.0, 4.0, 6.0, 8.0],
            y=[1.0, 0.0, 1.0, 0.0],
        )
        with pytest.raises(RankDeficiencyError) as exc:
            ols_fit(data, DesignSpec("y", ("a", "b")))
        assert set(exc.value.columns) & {"a", "b"}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_outcome_rejected(self):
        data = dataset(x=[0.0, 1.0, 2.0, 3.0], y=[1.0, np.inf, 5.0, 7.0])
        with pytest.raises(FitError) as info:
            ols_fit(data, DesignSpec("y", ("x",)))
        assert str(info.value) == "outcome 'y' is not finite"

    def test_underdetermined_rejected(self):
        data = dataset(a=[1.0, 2.0], y=[1.0, 2.0])
        with pytest.raises(FitError, match="more rows"):
            ols_fit(data, DesignSpec("y", ("a",)))

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(5)
        n = 400
        data = dataset(
            a=rng.normal(size=n),
            b=rng.normal(size=n),
            y=rng.normal(size=n),
        )
        spec = DesignSpec("y", ("a", "b"), squares=("a",))
        fit = ols_fit(data, spec)
        X, y = design_matrix(data, spec)
        resid = y - X @ np.asarray(fit.coefficients)
        assert np.max(np.abs(X.T @ resid)) < 1e-8 * n


class TestLogistic:
    def test_symmetric_data_zero_fit(self):
        data = dataset(x=[-1.0, -1.0, 1.0, 1.0], y=[0.0, 1.0, 0.0, 1.0])
        fit = logistic_fit(data, DesignSpec("y", ("x",)))
        assert fit.coefficients == pytest.approx((0.0, 0.0), abs=1e-10)
        assert fit.converged

    def test_matches_gradient_descent_oracle(self, logistic_fixture_100):
        spec = DesignSpec("Y", ("A", "L"))
        fit = logistic_fit(logistic_fixture_100, spec)
        X, y = design_matrix(logistic_fixture_100, spec)
        oracle = gradient_descent_logistic(X, y)
        assert np.max(np.abs(np.asarray(fit.coefficients) - oracle)) < 1e-6

    def test_score_equations_hold_at_optimum(self, logistic_fixture_100):
        spec = DesignSpec("Y", ("A", "L"))
        fit = logistic_fit(logistic_fixture_100, spec)
        X, y = design_matrix(logistic_fixture_100, spec)
        score = X.T @ (y - expit(X @ np.asarray(fit.coefficients)))
        assert np.max(np.abs(score)) < 1e-6

    def test_row_permutation_invariance(self, logistic_fixture_100):
        spec = DesignSpec("Y", ("A", "L"))
        fit = logistic_fit(logistic_fixture_100, spec)
        rng = np.random.default_rng(0)
        perm = rng.permutation(logistic_fixture_100.n)
        shuffled = Dataset(
            logistic_fixture_100.names, logistic_fixture_100.data[perm].copy()
        )
        fit2 = logistic_fit(shuffled, spec)
        assert np.max(
            np.abs(np.asarray(fit.coefficients) - np.asarray(fit2.coefficients))
        ) < 1e-9

    def test_crude_fit_targets_marginal_log_odds_ratio(self):
        data = simulate(model_fixture("setup5"), 100_000, seed=23)
        fit = logistic_fit(data, DesignSpec("Y", ("A",)))
        y, a = data.column("Y"), data.column("A")
        p1, p0 = y[a == 1].mean(), y[a == 0].mean()
        direct = np.log(p1 / (1 - p1)) - np.log(p0 / (1 - p0))
        assert fit.coef("A") == pytest.approx(direct, abs=1e-6)

    def test_separation_detected(self):
        data = dataset(
            x=[-2.0, -1.5, -1.0, 1.0, 1.5, 2.0],
            y=[0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
        )
        with pytest.raises(SeparationError):
            logistic_fit(data, DesignSpec("y", ("x",)))

    def test_diverging_coefficients_suspect_separation(self):
        # The classes overlap nowhere, but the fitted probabilities near
        # x = 0 stay away from 0 and 1 until the slope passes the bound.
        x = np.array([-2.0, -1.0, -0.5, -0.001, 0.001, 0.5, 1.0, 2.0])
        data = dataset(x=x, y=(x > 0).astype(float))
        with pytest.raises(SeparationError, match="^separation suspected: coefficient "
                                                  "norm 2e\\+03 exceeds 1000$"):
            logistic_fit(data, DesignSpec("y", ("x",)))

    def test_non_binary_outcome_rejected(self):
        data = dataset(x=[0.0, 1.0, 2.0, 3.0], y=[0.0, 1.0, 2.0, 1.0])
        with pytest.raises(FitError, match="binary"):
            logistic_fit(data, DesignSpec("y", ("x",)))

    def test_non_convergence_reports_iteration_trace(self, logistic_fixture_100,
                                                     monkeypatch):
        import causalreg.estimators as est

        monkeypatch.setattr(est, "IRLS_MAX_ITER", 1)
        with pytest.raises(est.ConvergenceError, match="step norms") as exc:
            logistic_fit(logistic_fixture_100, DesignSpec("Y", ("A", "L")))
        assert len(exc.value.trace) == 1


    def test_stacked_problems_fail_alone(self, logistic_fixture_100):
        # A collinear problem in the stack fails by itself, naming its
        # columns as logistic_fit does; its neighbour gets the same fit
        # as alone.
        spec = DesignSpec("Y", ("A", "L"))
        X, y = design_matrix(logistic_fixture_100, spec)
        collinear = X.copy()
        collinear[:, 2] = collinear[:, 1]
        fits = irls(np.stack([collinear, X]), np.stack([y, y]), spec)
        assert isinstance(fits[0], RankDeficiencyError)
        assert set(fits[0].columns) & {"A", "L"}
        alone = logistic_fit(logistic_fixture_100, spec)
        assert fits[1].iterations == alone.iterations
        assert fits[1].coefficients == pytest.approx(alone.coefficients, abs=1e-12)


def _saturation_stack():
    """Six logistic problems (n=200): two ordinary ones, one perfectly
    separated with a gap between its classes (so its fitted probabilities
    saturate before its coefficients diverge), one whose outcome is all
    0, and two whose row 0 sits far out at the end of its own class, so
    that its fitted probability saturates while the other rows' do not."""
    rng = np.random.default_rng(23)
    n = 200
    x = rng.normal(size=(6, n))
    y = (rng.random((6, n)) < expit(0.3 + x)).astype(float)
    x[2] += 5 * np.sign(x[2])
    y[2] = x[2] > 0
    y[3] = 0.0
    x[4, 0], y[4, 0] = 40.0, 1.0
    x[5, 0], y[5, 0] = -40.0, 0.0
    X = np.stack([np.ones((6, n)), x], axis=-1)
    return X, y, DesignSpec("y", ("x",))


def _bits(a):
    """The bytes of an array's values, in C order."""
    return np.ascontiguousarray(a).tobytes()


class TestIrlsSaturation:
    def test_stack_matches_stacks_of_one(self):
        X, y, spec = _saturation_stack()
        fits = irls(X, y, spec)
        assert str(fits[2]) == "perfect separation: fitted probabilities saturated"
        for k in (0, 1, 4, 5):
            assert not isinstance(fits[k], FitError)
        for k, fit in enumerate(fits):
            alone = irls(X[k:k + 1], y[k:k + 1], spec)[0]
            assert type(fit) is type(alone)
            if isinstance(alone, FitError):
                assert str(fit) == str(alone)
            else:
                assert fit == alone

    def test_row_zero_saturated_alone_is_no_separation(self):
        # Row 0 of problems 4 and 5 passes the row-0 test at the fit, so the
        # fit went through the whole-problem scan.
        X, y, spec = _saturation_stack()
        fits = irls(X, y, spec)
        eps = est.SEPARATION_PROB_EPS
        for k in (4, 5):
            probs = expit(X[k] @ np.asarray(fits[k].coefficients))
            own_end = np.where(y[k] == 1, probs > 1 - eps, probs < eps)
            assert own_end[0] and not own_end.all()


class TestRewrittenSteps:
    """Each rewritten step of the fitters against the expression it
    replaced, bit for bit."""

    @pytest.mark.parametrize("reps, n", [(50, 1000), (1, 200_000)])
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_information(self, reps, n, p):
        rng = np.random.default_rng(p)
        X = rng.normal(size=(reps, n, p))
        probs = rng.random((reps, n))
        reference = np.swapaxes(X, 1, 2) @ ((probs * (1 - probs))[:, :, None] * X)
        assert _bits(est._information(X, probs)) == _bits(reference)

    # 200,000 rows are four row blocks of QR_ROW_BLOCK.
    @pytest.mark.parametrize("reps, n", [(50, 1000), (1, 200_000)])
    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    @pytest.mark.parametrize("finite", [True, False], ids=["finite", "non_finite"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_screen_r(self, reps, n, p, finite):
        rng = np.random.default_rng(10 + p)
        X = np.concatenate([np.ones((reps, n, 1)), rng.normal(size=(reps, n, p - 1))],
                           axis=2)
        y = rng.normal(size=(reps, n))
        if not finite:
            X[-1, n // 2, 1] = np.inf
            X[0, n - 1, p - 1] = np.nan
            y[reps // 2, 3] = -np.inf
        spec = DesignSpec("y", tuple(f"x{j}" for j in range(1, p)))
        r, _ = est._screen(X, y, spec, binary=False)
        reference = est._qr_r(np.concatenate((X, y[:, :, None]), axis=2))
        assert _bits(r) == _bits(reference)

    def test_positivity_check(self):
        data = simulate(model_fixture("setup1"), 200_000, seed=6)
        spec = DesignSpec("A", ("L",))
        fit = logistic_fit(data, spec)
        X, _ = design_matrix(data, spec)
        probs = expit(X @ np.asarray(fit.coefficients))
        below, above = probs < 0.01, probs > 0.99
        reference = {
            "min_propensity": probs.min(), "max_propensity": probs.max(),
            "fraction_below": below.mean(), "fraction_above": above.mean(),
        }
        report = positivity_check(data, "A", ("L",), threshold=0.01)
        for field, value in reference.items():
            assert getattr(report, field).hex() == float(value).hex(), field
        assert report.flagged_rows == int((below | above).sum())
        assert (report.n, report.threshold) == (200_000, 0.01)


def ols_stack_fixture():
    """Six problems (n=50, p=4): four well-conditioned, one with column c a
    multiple of column a (rank deficient), and one whose column c equals a
    up to 1e-12 (full rank, inside the SVD margin of the unpivoted check)."""
    rng = np.random.default_rng(31)
    reps, n = 6, 50
    X = np.concatenate([np.ones((reps, n, 1)), rng.normal(size=(reps, n, 3))], axis=2)
    X[4, :, 3] = 2.0 * X[4, :, 1]
    X[5, :, 3] = X[5, :, 1] + 1e-12 * rng.normal(size=n)
    y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + rng.normal(size=(reps, n))
    return X, y, DesignSpec("y", ("a", "b", "c"))


class TestStackedFitters:
    """ols and irls checked against numpy's least squares and the normal
    equations, not against each other's public wrappers."""

    def test_ols_matches_lstsq_and_normal_equations(self):
        X, y, spec = ols_stack_fixture()
        n, p = X.shape[1:]
        fits = ols(X, y, spec)
        for i in range(4):
            beta = np.linalg.lstsq(X[i], y[i], rcond=None)[0]
            resid = y[i] - X[i] @ beta
            sigma2 = resid @ resid / (n - p)
            ses = np.sqrt(sigma2 * np.diag(np.linalg.inv(X[i].T @ X[i])))
            assert fits[i].names == spec.column_names()
            np.testing.assert_allclose(fits[i].coefficients, beta, rtol=1e-10)
            np.testing.assert_allclose(fits[i].standard_errors, ses, rtol=1e-10)

    def test_ols_rank_verdicts_inside_the_margin(self):
        X, y, spec = ols_stack_fixture()
        n, p = X.shape[1:]
        # Member 5 is one the unpivoted check cannot vouch for, yet the
        # pivoted check finds it full rank.
        sigma = np.linalg.svd(X[5], compute_uv=False)
        assert sigma[-1] <= est.RANK_MARGIN * n * p * np.finfo(float).eps * sigma[0]
        assert sigma[-1] > n * np.finfo(float).eps * sigma[0]
        fits = ols(X, y, spec)
        assert isinstance(fits[4], RankDeficiencyError)
        assert set(fits[4].columns) & {"a", "c"}
        # Fitted, not rejected.  Its coefficients are near 1e11 and ill
        # determined, but its residual sum of squares is close to lstsq's.
        assert not isinstance(fits[5], FitError)
        rss = [np.sum((y[5] - X[5] @ beta) ** 2) for beta in (
            np.asarray(fits[5].coefficients), np.linalg.lstsq(X[5], y[5], rcond=None)[0])]
        assert rss[0] == pytest.approx(rss[1], rel=1e-3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ols_non_finite_outcome_fails_alone(self):
        X, y, spec = ols_stack_fixture()
        clean = ols(X, y, spec)
        y[2, 7] = -np.inf
        fits = ols(X, y, spec)
        assert str(fits[2]) == "outcome 'y' is not finite"
        assert isinstance(fits[4], RankDeficiencyError)
        for i in (0, 1, 3, 5):
            np.testing.assert_allclose(fits[i].coefficients, clean[i].coefficients,
                                       rtol=1e-12)
            np.testing.assert_allclose(fits[i].standard_errors,
                                       clean[i].standard_errors, rtol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ols_overflowing_fit_fails_alone(self):
        # A finite outcome whose residual variance overflows.
        spec = DesignSpec("Y", ("A",))
        X = np.column_stack([np.ones(5), [1.0, 0.0, 1.0, 0.0, 1.0]])
        y = np.array([[1e308, 1e308, -1e308, 3.0, 2.0], [1.0, 2.0, 0.5, 3.0, 2.0]])
        fits = ols(np.stack([X, X]), y, spec)
        assert str(fits[0]) == ("outcome 'Y' is too large to fit: a coefficient or SE "
                                "overflows")
        assert fits[1] == ols(X[None], y[1:], spec)[0]

    def test_solve_each_fails_only_the_singular_system(self):
        a = np.stack([np.eye(2), np.zeros((2, 2)), 2 * np.eye(2)])
        b = np.arange(1.0, 7.0).reshape(3, 2, 1)
        x, solved = est._solve_each(a, b)
        assert solved.tolist() == [True, False, True]
        assert np.isnan(x[1]).all()
        for i in (0, 2):
            assert np.array_equal(x[i], np.linalg.solve(a[i], b[i]))

    def test_too_few_rows_fail_every_problem(self):
        X, y, spec = ols_stack_fixture()
        for fit in ols(X[:, :4], y[:, :4], spec):
            assert str(fit) == "need more rows than parameters (n=4, p=4)"

    def test_irls_checks_in_order(self, logistic_fixture_100):
        spec = DesignSpec("Y", ("A", "L"))
        X, y = design_matrix(logistic_fixture_100, spec)
        collinear = X.copy()
        collinear[:, 2] = collinear[:, 1]
        # A non-binary outcome is reported before the rank of its design.
        fits = irls(np.stack([collinear, collinear]), np.stack([y, 2 * y]), spec)
        assert isinstance(fits[0], RankDeficiencyError)
        assert isinstance(fits[1], NotBinaryError)
        assert str(fits[1]) == "column 'Y' must be binary 0/1"

    def test_row_blocks_give_one_block_verdicts(self, logistic_fixture_100,
                                                monkeypatch):
        X, y, spec = ols_stack_fixture()
        lspec = DesignSpec("Y", ("A", "L"))
        LX, ly = design_matrix(logistic_fixture_100, lspec)
        collinear = LX.copy()
        collinear[:, 2] = collinear[:, 1]
        LX, ly = np.stack([LX, collinear, LX[::-1]]), np.stack([ly, ly, ly[::-1]])
        whole = ols(X, y, spec), irls(LX, ly, lspec)
        monkeypatch.setattr(est, "QR_ROW_BLOCK", 7)
        blocked = ols(X, y, spec), irls(LX, ly, lspec)
        for one, many in zip(whole, blocked):
            for a, b in zip(one, many):
                assert type(a) is type(b)
                if isinstance(a, FitError):
                    assert str(a) == str(b)
        # Member 5 of the OLS stack has ill-determined coefficients.
        for a, b in [*zip(whole[0][:4], blocked[0][:4]), *zip(whole[1], blocked[1])]:
            if not isinstance(a, FitError):
                np.testing.assert_allclose(a.coefficients, b.coefficients, rtol=1e-12)
                np.testing.assert_allclose(a.standard_errors, b.standard_errors,
                                           rtol=1e-12)


class TestPositivity:
    def test_randomized_data_unflagged(self):
        rng = np.random.default_rng(2)
        n = 5000
        data = dataset(
            A=rng.binomial(1, 0.5, n).astype(float),
            L=rng.normal(size=n),
        )
        report = positivity_check(data, "A", ("L",), threshold=0.01)
        assert report.flagged_rows == 0
        assert 0.4 < report.min_propensity < report.max_propensity < 0.6

    def test_setup1_confounding_flags_rows(self):
        data = simulate(model_fixture("setup1"), 20_000, seed=3)
        report = positivity_check(data, "A", ("L",), threshold=0.01)
        assert report.flagged_rows > 0
        # Tail mass of plogis(-0.5 + 2L) outside [0.01, 0.99] is about 6%.
        assert 0.02 < report.flagged_rows / report.n < 0.12

    def test_zero_threshold_never_flags(self):
        data = simulate(model_fixture("setup1"), 2000, seed=3)
        report = positivity_check(data, "A", ("L",), threshold=0.0)
        assert report.flagged_rows == 0
        assert report.fraction_below == 0.0
        assert report.fraction_above == 0.0

    def test_bad_threshold(self):
        data = simulate(model_fixture("setup1"), 500, seed=3)
        with pytest.raises(ValueError):
            positivity_check(data, "A", ("L",), threshold=0.7)


class TestNoncompliance:
    def test_full_compliance_collapses_estimands(self):
        rng = np.random.default_rng(11)
        n = 2000
        assigned = rng.binomial(1, 0.5, n).astype(float)
        y = rng.binomial(1, 0.3 + 0.2 * assigned).astype(float)
        data = dataset(A_assigned=assigned, A_taken=assigned.copy(), Y=y)
        est = noncompliance_estimands(data)
        assert est.as_treated == pytest.approx(est.itt)
        assert est.per_protocol == pytest.approx(est.itt)
        assert est.cace == pytest.approx(est.itt)
        assert est.control_uptake == 0.0

    def test_eight_row_hand_fixture(self):
        # Hand arithmetic: ITT = 3/4 - 2/4, as-treated = 3/4 - 2/4,
        # per-protocol = 2/3 - 1/3, CACE = (1/4) / (3/4), control uptake = 1/4.
        data = dataset(
            A_assigned=[1, 1, 1, 1, 0, 0, 0, 0],
            A_taken=[1, 1, 1, 0, 0, 0, 1, 0],
            Y=[1, 1, 0, 1, 0, 1, 1, 0],
        )
        est = noncompliance_estimands(data)
        assert est.itt == pytest.approx(0.25)
        assert est.as_treated == pytest.approx(0.25)
        assert est.per_protocol == pytest.approx(1 / 3)
        assert est.cace == pytest.approx(1 / 3)
        assert est.control_uptake == pytest.approx(1 / 4)

    def test_half_uptake_doubles_itt(self):
        data = dataset(
            A_assigned=[1, 1, 1, 1, 0, 0, 0, 0],
            A_taken=[1, 0, 1, 0, 0, 0, 0, 0],
            Y=[1, 1, 1, 0, 0, 1, 0, 0],
        )
        est = noncompliance_estimands(data)
        assert est.cace == pytest.approx(2 * est.itt)

    def test_cace_dominates_itt(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = 400
            assigned = rng.binomial(1, 0.5, n).astype(float)
            taken = np.where(
                assigned == 1, rng.binomial(1, 0.7, n), rng.binomial(1, 0.2, n)
            ).astype(float)
            y = rng.binomial(1, expit(-0.5 + taken)).astype(float)
            est = noncompliance_estimands(dataset(A_assigned=assigned, A_taken=taken, Y=y))
            assert abs(est.cace) >= abs(est.itt) - 1e-12

    def test_empty_subgroup_reported(self):
        data = dataset(
            A_assigned=[1, 1, 1, 1],
            A_taken=[1, 1, 0, 0],
            Y=[1, 0, 1, 0],
        )
        with pytest.raises(FitError, match="empty subgroup: A_assigned=0"):
            noncompliance_estimands(data)

    def test_non_binary_column_rejected(self):
        data = dataset(A_assigned=[1, 0, 2, 0], A_taken=[1, 0, 1, 0], Y=[1, 0, 1, 0])
        with pytest.raises(FitError, match="binary"):
            noncompliance_estimands(data)
