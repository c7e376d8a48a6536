"""Sharpe optimization on the simplex, moments, and the prescreen risk."""

import itertools
import math

import numpy as np
import pytest

from transrisk.gaussian import GaussianDist
from transrisk import portfolio
from transrisk.portfolio import (
    CAPPED,
    CONVERGED,
    DEFAULT_PENALTY,
    MAX_PENALTY,
    NO_INCREASE,
    Portfolio,
    ReturnsDataset,
    _Objective,
    _spg,
    estimate_moments,
    prescreen_risk_w2,
    project_simplex,
    sharpe_optimize,
    sharpe_ratio,
    transfer_portfolio,
)
from transrisk.errors import NumericalError, ValidationError


class TestTypes:
    def test_portfolio_simplex_invariants(self):
        with pytest.raises(ValidationError):
            Portfolio([0.5, 0.6])
        with pytest.raises(ValidationError):
            Portfolio([-0.1, 1.1])
        Portfolio([0.25, 0.75])

    def test_returns_need_two_periods(self):
        with pytest.raises(ValidationError, match="need at least two return periods"):
            ReturnsDataset(np.zeros((1, 3)))


class TestProjectSimplex:
    def test_already_feasible(self):
        w = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_simplex(w), w, atol=1e-14)

    def test_matches_quadratic_program(self):
        """Projection equals the argmin of ‖x − v‖² on the simplex,
        verified against a dense grid for d = 2."""
        rng = np.random.default_rng(1)
        grid = np.linspace(0.0, 1.0, 20001)
        simplex = np.column_stack([grid, 1.0 - grid])
        for _ in range(20):
            v = rng.normal(scale=2.0, size=2)
            proj = project_simplex(v)
            dists = np.sum((simplex - v) ** 2, axis=1)
            best = simplex[int(np.argmin(dists))]
            np.testing.assert_allclose(proj, best, atol=1e-4)

    def test_output_feasible(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            d = int(rng.integers(2, 8))
            w = project_simplex(rng.normal(scale=3.0, size=d))
            assert w.min() >= 0.0
            np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)


class TestEstimateMoments:
    def test_identical_rows_zero_covariance(self):
        data = ReturnsDataset(np.tile([0.01, 0.02], (2, 1)))
        law = estimate_moments(data)
        np.testing.assert_allclose(law.mean, [0.01, 0.02])
        np.testing.assert_allclose(law.cov, np.zeros((2, 2)), atol=1e-18)

    def test_constant_column_zero_variance(self):
        rng = np.random.default_rng(3)
        data = ReturnsDataset(np.column_stack([np.full(30, 0.01),
                                               rng.normal(size=30)]))
        assert estimate_moments(data).cov[0, 0] <= 1e-18

    def test_generator_round_trip(self):
        rng = np.random.default_rng(4)
        mu_true = np.array([0.05, 0.1, -0.02])
        a = rng.normal(size=(3, 3)) * 0.1
        sigma_true = a @ a.T + 0.01 * np.eye(3)
        n = 10 ** 5
        draws = rng.multivariate_normal(mu_true, sigma_true, size=n)
        law = estimate_moments(ReturnsDataset(draws))
        mu, sigma = law.mean, law.cov
        se_mu = np.sqrt(np.diag(sigma_true) / n)
        assert np.all(np.abs(mu - mu_true) <= 3.0 * se_mu)
        assert np.linalg.norm(sigma - sigma_true) <= 0.01


class TestSharpeRatio:
    def test_uniform_four_assets(self):
        port = Portfolio(np.full(4, 0.25))
        value = sharpe_ratio(port, GaussianDist(np.ones(4), np.eye(4)))
        np.testing.assert_allclose(value, 2.0, atol=1e-12)

    def test_homogeneous_in_mu(self):
        rng = np.random.default_rng(5)
        port = Portfolio(project_simplex(rng.normal(size=3)))
        mu = rng.normal(size=3)
        sigma = np.eye(3)
        base = sharpe_ratio(port, GaussianDist(mu, sigma))
        np.testing.assert_allclose(sharpe_ratio(port, GaussianDist(3.0 * mu, sigma)), 3.0 * base)

    def test_zero_variance_rejected(self):
        port = Portfolio([1.0, 0.0])
        with pytest.raises(NumericalError, match=r"portfolio variance 0\.000e\+00 below floor"):
            sharpe_ratio(port, GaussianDist(np.ones(2), np.diag([0.0, 1.0])))


class TestScaleInvariance:
    @pytest.mark.parametrize("scale", [1e-7, 1e-10])
    def test_rescaled_returns_same_fit(self, scale):
        """Rescaling every return by ``scale`` leaves the Sharpe transfer
        unchanged: zero variance is judged relative to the law's largest
        eigenvalue, so an absolute 1e-14 no longer calls a 1e-7 market
        riskless.  The exact fits and the Sharpe ratios agree to 1e-9
        relative.  The anchored fit stops wherever its ascent meets the
        1e-8 stationarity test, so it agrees to 1e-7."""
        def fit(s):
            rng = np.random.default_rng(0)
            return transfer_portfolio(*(ReturnsDataset(s * rng.normal(1.0, 1.0, size=(n, 3)))
                                        for n in (300, 120, 150)), DEFAULT_PENALTY)

        base, scaled = fit(1.0), fit(scale)
        np.testing.assert_allclose(base.direct.weights, [0.1955, 0.4466, 0.3579], atol=5e-5)
        for name, rtol in (("pretrained", 1e-9), ("direct", 1e-9), ("transferred", 1e-7)):
            np.testing.assert_allclose(getattr(scaled, name).weights,
                                       getattr(base, name).weights, rtol=rtol, err_msg=name)
        assert scaled.sharpe.keys() == base.sharpe.keys()
        for key, value in base.sharpe.items():
            np.testing.assert_allclose(scaled.sharpe[key], value, rtol=1e-9, err_msg=key)


def best_sharpe_by_supports(mu, sigma):
    """Largest Sharpe ratio on the simplex, by trying every support.

    On a support S of two or more assets the only stationary direction
    is Σ_S⁻¹μ_S; it is a candidate when its weights are nonnegative.
    Every vertex is a candidate too, which covers markets where no mean
    is positive.  The optimum is the best candidate.
    """
    d = mu.shape[0]
    candidates = list(np.eye(d))
    for size in range(2, d + 1):
        for support in itertools.combinations(range(d), size):
            s = list(support)
            z = np.linalg.solve(sigma[np.ix_(s, s)], mu[s])
            if z.min() >= 0.0 and z.sum() > 0.0:
                w = np.zeros(d)
                w[s] = z / z.sum()
                candidates.append(w)
    return max(float(mu @ w) / math.sqrt(float(w @ sigma @ w)) for w in candidates)


def objective(mu, sigma, anchor, penalty):
    """The solver's objective on the market (mu, sigma), with its floor."""
    return _Objective(mu, sigma, anchor, penalty, portfolio._floor(GaussianDist(mu, sigma)))


def stationarity(w, mu, sigma, anchor=None, penalty=0.0):
    """‖P(w + 1e-2·∇f) − w‖ / 1e-2, the step-normalized projected gradient."""
    grad = objective(mu, sigma, anchor, penalty).value_and_gradient(w)[1]
    return np.linalg.norm(project_simplex(w + 1e-2 * grad) - w) / 1e-2


def random_market(rng, d):
    a = rng.normal(size=(d, d)) * 0.1
    return a @ a.T + 0.01 * np.eye(d)


def assert_outcome_follows_linear_program(rows) -> bool:
    """The Sharpe objective of a history is unbounded exactly when a
    long-only portfolio φ with zero sample variance (R_c φ = 0, R_c the
    centred returns) has positive mean; a linear program decides that
    independently of the solver.  Such a history must raise; any other
    must give a feasible, stationary portfolio.  Returns whether it was
    unbounded."""
    from scipy.optimize import linprog

    law = estimate_moments(ReturnsDataset(rows))
    mu, sigma = law.mean, law.cov
    n, d = rows.shape
    lp = linprog(-mu, A_eq=np.vstack([rows - rows.mean(axis=0), np.ones(d)]),
                 b_eq=[*np.zeros(n), 1.0], bounds=(0.0, None))
    if lp.status == 0 and -lp.fun > 0.0:
        with pytest.raises(NumericalError, match="objective is unbounded"):
            sharpe_optimize(law)
        return True
    w = sharpe_optimize(law).weights
    bound = 1e-7 * max(1.0, np.linalg.norm(mu) / math.sqrt(w @ sigma @ w))
    assert stationarity(w, mu, sigma) <= bound
    return False


class TestSharpeOptimize:
    def test_symmetric_problem_centroid(self):
        port = sharpe_optimize(GaussianDist([0.3, 0.3], np.eye(2)))
        np.testing.assert_allclose(port.weights, [0.5, 0.5], atol=1e-6)

    def test_two_asset_example_matches_grid(self):
        """argmax of (0.2w + 0.1(1−w))/‖(w,1−w)‖ sits at (2/3, 1/3)."""
        port = sharpe_optimize(GaussianDist([0.2, 0.1], np.eye(2)))
        np.testing.assert_allclose(port.weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-4)
        grid = np.linspace(0.0, 1.0, 100001)
        values = (0.2 * grid + 0.1 * (1 - grid)) / np.sqrt(grid ** 2 + (1 - grid) ** 2)
        best = grid[int(np.argmax(values))]
        np.testing.assert_allclose(port.weights[0], best, atol=1e-4)

    def test_feasibility_and_stationarity(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            mu = rng.uniform(-0.1, 0.2, size=d)
            a = rng.normal(size=(d, d)) * 0.1
            sigma = a @ a.T + 0.01 * np.eye(d)
            port = sharpe_optimize(GaussianDist(mu, sigma))
            w = port.weights
            assert w.min() >= -1e-12
            np.testing.assert_allclose(w.sum(), 1.0, atol=1e-9)
            assert stationarity(w, mu, sigma) <= 1e-7

    def test_penalty_dominated_limit(self):
        """The optimum φ is the projection of anchor + ∇S(φ)/(2·penalty),
        S the Sharpe ratio, and the anchor is its own projection, so
        ‖φ − anchor‖ ≤ ‖∇S(φ)‖/(2·penalty): φ tends to the anchor at rate
        1/penalty, up to MAX_PENALTY."""
        rng = np.random.default_rng(7)
        anchor = Portfolio(project_simplex(rng.normal(size=4)))
        mu = rng.uniform(0.0, 0.2, size=4)
        a = rng.normal(size=(4, 4)) * 0.1
        sigma = a @ a.T + 0.02 * np.eye(4)
        for penalty in (1.0, 10.0, MAX_PENALTY):
            w = sharpe_optimize(GaussianDist(mu, sigma), anchor=anchor, penalty=penalty).weights
            sharpe_grad = objective(mu, sigma, None, 0.0).value_and_gradient(w)[1]
            assert (np.linalg.norm(w - anchor.weights)
                    <= np.linalg.norm(sharpe_grad) / (2.0 * penalty)), penalty
            assert stationarity(w, mu, sigma, anchor.weights, penalty) <= 1e-7, penalty

    @pytest.mark.parametrize("penalty", [np.nextafter(MAX_PENALTY, np.inf), 1e9, 1e308,
                                         -1e-300, np.nan])
    def test_penalty_outside_bound_rejected(self, penalty):
        """Past MAX_PENALTY the anchored ascent cannot keep its
        stationarity promise; such a penalty, a negative one and NaN are
        rejected before any solve."""
        anchor = Portfolio([0.5, 0.5])
        with pytest.raises(ValidationError, match="penalty must lie in"):
            sharpe_optimize(GaussianDist([0.1, 0.2], np.eye(2)), anchor=anchor, penalty=penalty)

    def test_anchored_beats_anchor(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = 5
            mu = rng.uniform(0.0, 0.2, size=d)
            a = rng.normal(size=(d, d)) * 0.1
            sigma = a @ a.T + 0.02 * np.eye(d)
            anchor = Portfolio(project_simplex(rng.normal(size=d)))
            port = sharpe_optimize(GaussianDist(mu, sigma), anchor=anchor, penalty=0.2)
            obj = objective(mu, sigma, anchor.weights, 0.2)
            assert obj.value(port.weights) >= obj.value(anchor.weights) - 1e-9
            uniform = np.full(d, 1.0 / d)
            assert obj.value(port.weights) >= obj.value(uniform) - 1e-9
            assert stationarity(port.weights, mu, sigma, anchor.weights, 0.2) <= 1e-7

    def test_stiff_penalty_stationarity(self):
        """A penalty of 100 makes the anchored objective stiff; the ascent
        still reaches stationarity 1e-7, because it measures each step's
        increase directly instead of differencing two rounded values."""
        rng = np.random.default_rng(15)
        for _ in range(40):
            d = int(rng.integers(3, 7))
            mu = rng.uniform(-0.05, 0.2, size=d)
            sigma = random_market(rng, d) + 0.01 * np.eye(d)
            anchor = Portfolio(project_simplex(rng.normal(size=d)))
            port = sharpe_optimize(GaussianDist(mu, sigma), anchor=anchor, penalty=100.0)
            assert stationarity(port.weights, mu, sigma, anchor.weights, 100.0) <= 1e-7

    def test_stationarity_on_reported_market(self):
        """Rounded moments of a market on which fixed-step projected
        gradient ascent stopped at stationarity 1.07e-7, above the 1e-7
        that sharpe_optimize promises."""
        mu = np.array([1.3672, -0.1813, 0.2449])
        sigma = np.array([[2.4034, -0.7426, 0.3765],
                          [-0.7426, 2.5792, -0.3791],
                          [0.3765, -0.3791, 1.3798]])
        law = GaussianDist(mu, sigma)
        port = sharpe_optimize(law)
        assert stationarity(port.weights, mu, sigma) <= 1e-7
        got = sharpe_ratio(port, law)
        assert abs(got - best_sharpe_by_supports(mu, sigma)) <= 1e-12 * got

    @pytest.mark.parametrize("kind", ["interior", "face", "nonpositive"])
    def test_unanchored_matches_support_enumeration(self, kind):
        """Interior optima (μ = Σφ for an interior φ), optima on faces
        (some means negative) and markets with no positive mean, where
        the answer is the best vertex."""
        rng = np.random.default_rng({"interior": 16, "face": 17, "nonpositive": 18}[kind])
        for _ in range(30):
            d = int(rng.integers(2, 7))
            sigma = random_market(rng, d)
            if kind == "interior":
                mu = sigma @ rng.uniform(0.5, 1.5, size=d)
            elif kind == "face":
                mu = rng.uniform(-0.2, 0.2, size=d)
                mu[0] = abs(mu[0])
            else:
                mu = -rng.uniform(0.0, 0.2, size=d)
            law = GaussianDist(mu, sigma)
            port = sharpe_optimize(law)
            got = sharpe_ratio(port, law)
            best = best_sharpe_by_supports(mu, sigma)
            assert abs(got - best) <= 1e-12 * abs(best)
            if kind == "interior":
                assert port.weights.min() > 0.0
            elif kind == "nonpositive":
                assert np.count_nonzero(port.weights) == 1
            assert stationarity(port.weights, mu, sigma) <= 1e-7

    def test_relabelling_permutes_weights(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            d = int(rng.integers(2, 7))
            mu = rng.uniform(-0.1, 0.2, size=d)
            sigma = random_market(rng, d)
            perm = rng.permutation(d)
            base = sharpe_optimize(GaussianDist(mu, sigma)).weights
            law = GaussianDist(mu[perm], sigma[np.ix_(perm, perm)])
            relabelled = sharpe_optimize(law).weights
            np.testing.assert_allclose(relabelled, base[perm], rtol=0.0, atol=1e-12)

    def test_scale_invariance_of_argmax(self):
        rng = np.random.default_rng(9)
        mu = rng.uniform(0.05, 0.2, size=4)
        a = rng.normal(size=(4, 4)) * 0.15
        sigma = a @ a.T + 0.02 * np.eye(4)
        base = sharpe_optimize(GaussianDist(mu, sigma)).weights
        for c in (0.5, 2.0, 10.0):
            scaled = sharpe_optimize(GaussianDist(c * mu, sigma)).weights
            assert np.linalg.norm(scaled - base) <= 1e-6

    def test_degenerate_variance_rejected(self):
        with pytest.raises(NumericalError, match="an asset with zero variance and positive mean"):
            sharpe_optimize(GaussianDist([0.1, 0.2], np.diag([1.0, 0.0])))

    def test_rank_deficient_history_follows_its_linear_program(self):
        """Two or three periods of four assets leave a covariance of rank
        one or two; some of these pass Cholesky by rounding, so they
        reach the NNLS."""
        rng = np.random.default_rng(0)
        unbounded = []
        for n in (2, 2, 2, 2, 3, 3, 3, 3):
            returns = rng.normal(size=(n, 4)) * 0.1 + 0.01
            for rows in (returns, np.round(returns, 8)):
                unbounded.append(assert_outcome_follows_linear_program(rows))
        assert 0 < sum(unbounded) < len(unbounded)  # both outcomes are checked

    def test_singular_sigma_through_the_active_set(self):
        """Short rounded histories whose singular Σ passes Cholesky and
        whose Σ⁻¹μ has a negative weight: the active-set NNLS runs on
        numerically dependent columns of L', where solving its normal
        equations instead raised LinAlgError on some of these."""
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(600):
            n, d = int(rng.integers(2, 5)), int(rng.integers(3, 7))
            rows = np.round(rng.normal(size=(n, d)) * 0.1 + 0.01, 8)
            law = estimate_moments(ReturnsDataset(rows))
            if law.chol is None:
                continue
            if np.linalg.solve(law.chol.T, np.linalg.solve(law.chol, law.mean)).min() < 0.0:
                assert_outcome_follows_linear_program(rows)
                checked += 1
        assert checked >= 100

    def test_zero_mean_cash_column_feasible(self):
        """A constant zero return has zero variance and zero mean: Σ is
        singular but the Sharpe optimum is finite."""
        rng = np.random.default_rng(20)
        returns = np.column_stack([np.zeros(50), rng.normal(0.01, 0.05, size=(50, 3))])
        law = estimate_moments(ReturnsDataset(returns))
        mu, sigma = law.mean, law.cov
        port = sharpe_optimize(law)
        assert port.weights.min() >= 0.0
        np.testing.assert_allclose(port.weights.sum(), 1.0, atol=1e-12)
        got = sharpe_ratio(port, law)
        np.testing.assert_allclose(got, best_sharpe_by_supports(mu[1:], sigma[1:, 1:]),
                                   rtol=1e-9)
        assert stationarity(port.weights, mu, sigma) <= 1e-7

    def test_non_psd_rejected(self):
        """A market law is validated once, by the law's own PSD test."""
        with pytest.raises(ValidationError, match="cov: min eigenvalue"):
            sharpe_optimize(GaussianDist([0.1, 0.2], [[1.0, 2.0], [2.0, 1.0]]))


def nnls_problem(rng, d, scale, interior):
    """(L', L⁻¹μ) of a random market with μ = scale·Σu and some mean
    positive: u > 0 puts the NNLS optimum inside the orthant, u of mixed
    sign on its boundary."""
    while True:
        sigma = random_market(rng, d)
        u = rng.uniform(0.5, 1.5, size=d) if interior else rng.uniform(-1.0, 1.0, size=d)
        if (u.min() > 0.0) == interior and (sigma @ u).max() > 0.0:
            chol = np.linalg.cholesky(sigma)
            return chol.T, np.linalg.solve(chol, scale * (sigma @ u))


class TestNNLS:
    """The Lawson–Hanson solve of the unanchored tangency portfolio,
    against scipy's NNLS as a reference."""

    @pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
    def test_matches_scipy(self, scale):
        from scipy.optimize import nnls

        rng = np.random.default_rng(int(100 * scale))
        for d in range(2, 9):
            for interior in (True, False) * 10:
                a, b = nnls_problem(rng, d, scale, interior)
                ref = nnls(a, b)[0]
                y = portfolio._nnls(a, b, 3 * d)
                np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-11 * np.abs(ref).max())
                assert y.min() >= 0.0 and (y.min() > 0.0) == interior
                # the solver: Σ⁻¹μ inside the orthant, Lawson–Hanson on its boundary
                w = sharpe_optimize(GaussianDist(a.T @ b, a.T @ a)).weights
                np.testing.assert_allclose(w, ref / ref.sum(), rtol=0.0, atol=1e-11)

    def test_cap_hands_over_to_spg(self, monkeypatch):
        """With the active-set cap at one pass no boundary problem
        settles, so the solve ends in the projected-gradient ascent:
        feasible and stationary, not an exception."""
        nnls, spg, calls = portfolio._nnls, portfolio._spg, []
        monkeypatch.setattr(portfolio, "_nnls", lambda a, b, max_iter: nnls(a, b, 1))
        monkeypatch.setattr(portfolio, "_spg", lambda *args: calls.append(1) or spg(*args))
        rng = np.random.default_rng(21)
        for d in range(2, 7):
            a, b = nnls_problem(rng, d, 1.0, interior=False)
            assert nnls(a, b, 1) is None
            mu, sigma = a.T @ b, a.T @ a
            law = GaussianDist(mu, sigma)
            port = sharpe_optimize(law)
            assert len(calls) == d - 1
            assert port.weights.min() >= 0.0 and abs(port.weights.sum() - 1.0) <= 1e-12
            assert stationarity(port.weights, mu, sigma) <= 1e-7
            best = best_sharpe_by_supports(mu, sigma)
            assert abs(sharpe_ratio(port, law) - best) <= 1e-9 * best


def anchored_problems(seed, count):
    """(objective, starts) of random anchored problems, d = 2..6, with
    the starts sharpe_optimize uses: uniform, each vertex, the anchor."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(2, 7))
        mu = rng.uniform(-0.05, 0.2, size=d)
        anchor = project_simplex(rng.normal(size=d))
        yield (objective(mu, random_market(rng, d), anchor, 0.2),
               np.array([np.full(d, 1.0 / d), *np.eye(d), anchor]))


def scan_projection(v):
    """The sorted-threshold rule as a scalar scan over one vector."""
    css = theta = 0.0
    for i, ui in enumerate(sorted(v.tolist(), reverse=True), start=1):
        css += ui
        if ui - (css - 1.0) / i > 0.0:
            theta = (css - 1.0) / i
    return np.maximum(v - theta, 0.0)


def ascent_from_one_start(obj, w):
    """The monotone SPG ascent from one start as a plain loop, with the
    scalar projection: the reference that each row of _spg matches."""
    grad = obj.value_and_gradient(w)[1]
    alpha = portfolio.STEP
    for _ in range(portfolio.MAX_ITER):
        moved = scan_projection(w + portfolio.STEP * grad) - w
        if math.sqrt(moved @ moved) / portfolio.STEP <= portfolio.GRAD_TOL:
            return w, CONVERGED
        direction = scan_projection(w + alpha * grad) - w
        slope = portfolio.ARMIJO * (grad @ direction)
        for lam in (0.5 ** k for k in range(54)):
            candidate = w + lam * direction
            candidate /= candidate.sum()
            gain = obj.gain(w, candidate, True)
            if gain > 0.0 and gain >= lam * slope:
                break
        else:
            return w, NO_INCREASE
        step = candidate - w
        new_grad = obj.value_and_gradient(candidate)[1]
        curvature = step @ (grad - new_grad)
        ratio = step @ step / curvature if curvature > 0.0 else portfolio.BB_MAX
        alpha = min(max(ratio, portfolio.BB_MIN), portfolio.BB_MAX)
        w, grad = candidate, new_grad
    return w, CAPPED


class TestBatchedSPG:
    """_spg runs every start as one row of an array; rows share no
    arithmetic, so a batch is its rows run alone."""

    def test_projection_rows_match_scalar_scan(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            rows = rng.normal(scale=3.0, size=(int(rng.integers(1, 9)), int(rng.integers(1, 8))))
            for row, projected in zip(rows, project_simplex(rows)):
                assert np.array_equal(projected, scan_projection(row))

    @pytest.mark.parametrize("grad_tol", [1e-8, -1.0])
    def test_rows_match_a_loop_per_start(self, monkeypatch, grad_tol):
        """Bit for bit, stop reasons included; a GRAD_TOL no row can meet
        makes every row backtrack down to λ = 2⁻⁵³."""
        monkeypatch.setattr(portfolio, "GRAD_TOL", grad_tol)
        for obj, starts in anchored_problems(44, 15):
            ends, stop = _spg(obj, starts)
            for start, end, code in zip(starts, ends, stop):
                want, want_code = ascent_from_one_start(obj, start)
                assert np.array_equal(end, want) and code == want_code

    def test_rows_match_single_row_batches(self):
        for obj, starts in anchored_problems(40, 30):
            ends, stop = _spg(obj, starts)
            for start, end, code in zip(starts, ends, stop):
                one, one_stop = _spg(obj, start[None])
                np.testing.assert_allclose(one[0], end, rtol=0.0, atol=1e-15)
                assert one_stop[0] == code

    def test_start_at_optimum_stays_put(self):
        for obj, starts in anchored_problems(41, 20):
            best = max(_spg(obj, starts)[0], key=obj.value)
            ends, stop = _spg(obj, np.vstack([best, starts]))
            assert stop[0] == CONVERGED and np.array_equal(ends[0], best)
            assert any(not np.array_equal(end, start) for end, start in zip(ends[1:], starts))

    def test_each_stop_reason(self, monkeypatch):
        """Converged at GRAD_TOL; with a GRAD_TOL no row can meet, no
        increase down to λ = 2⁻⁵³, at a point still stationary to 1e-7;
        with MAX_ITER = 1, the cap, after one step that did not lose."""
        problems = list(anchored_problems(42, 10))
        assert all(CONVERGED in _spg(obj, starts)[1] for obj, starts in problems)
        monkeypatch.setattr(portfolio, "GRAD_TOL", -1.0)
        for obj, starts in problems:
            ends, stop = _spg(obj, starts)
            assert set(stop) == {NO_INCREASE}
            best = max(ends, key=obj.value)
            assert stationarity(best, obj.mu, obj.sigma, obj.anchor, obj.penalty) <= 1e-7
        monkeypatch.setattr(portfolio, "GRAD_TOL", 1e-8)
        monkeypatch.setattr(portfolio, "MAX_ITER", 1)
        for obj, starts in problems:
            ends, stop = _spg(obj, starts)
            capped = stop == CAPPED
            assert capped.any() and set(stop[~capped]) <= {CONVERGED}
            assert np.all(obj.value(ends) >= obj.value(starts))
            assert not np.any(np.all(ends[capped] == starts[capped], axis=1))

    @pytest.mark.parametrize("grad_tol", [1e-8, -1.0])
    def test_solve_capped_at_every_start_raises(self, monkeypatch, grad_tol):
        """With MAX_ITER = 10, a solve raises NumericalError naming the
        cap exactly when every row stops at it; one row that converged
        (GRAD_TOL 1e-8) or found no increase (GRAD_TOL −1) returns its
        best endpoint, even when the other rows were capped."""
        monkeypatch.setattr(portfolio, "GRAD_TOL", grad_tol)
        monkeypatch.setattr(portfolio, "MAX_ITER", 10)
        outcomes = set()
        for obj, starts in anchored_problems(45, 40):
            anchor, law = Portfolio(obj.anchor), GaussianDist(obj.mu, obj.sigma)
            ends, stop = _spg(obj, starts)
            if (stop == CAPPED).all():
                with pytest.raises(NumericalError, match="MAX_ITER = 10 iterations"):
                    sharpe_optimize(law, anchor, obj.penalty)
                outcomes.add("capped")
            else:
                w = sharpe_optimize(law, anchor, obj.penalty).weights
                assert np.array_equal(w, max(ends, key=obj.value))
                outcomes.add("mixed" if CAPPED in stop else "settled")
        assert {"capped", "mixed"} <= outcomes

    @pytest.mark.parametrize("scale", [10.0, 100.0])
    def test_relative_stationarity_at_large_means(self, scale):
        """Means scaled by 10 or 100 raise the Sharpe ratio and the
        rounding the ascent stops at, so the absolute 1e-7 of the tests
        above does not always hold (about 1 in 130 solves at 10 and 1 in
        13 at 100 miss it).  Relative to max(1, ‖μ‖/σ_φ) it does."""
        rng = np.random.default_rng(int(scale))
        for _ in range(100):
            d = int(rng.integers(2, 7))
            mu = scale * rng.uniform(-0.05, 0.2, size=d)
            sigma = random_market(rng, d)
            anchor = Portfolio(project_simplex(rng.normal(size=d)))
            w = sharpe_optimize(GaussianDist(mu, sigma), anchor=anchor, penalty=0.2).weights
            bound = 1e-7 * max(1.0, np.linalg.norm(mu) / math.sqrt(w @ sigma @ w))
            assert stationarity(w, mu, sigma, anchor.weights, 0.2) <= bound


class TestPrescreenRisk:
    def test_identical_datasets_zero(self):
        rng = np.random.default_rng(10)
        data = ReturnsDataset(rng.normal(size=(100, 3)))
        assert prescreen_risk_w2(data, data) <= 1e-12

    def test_symmetric(self):
        rng = np.random.default_rng(11)
        a = ReturnsDataset(rng.normal(size=(80, 3)))
        b = ReturnsDataset(rng.normal(loc=0.01, size=(90, 3)))
        np.testing.assert_allclose(prescreen_risk_w2(a, b), prescreen_risk_w2(b, a),
                                   atol=1e-12)

    def test_pure_shift_is_squared_norm(self):
        rng = np.random.default_rng(12)
        returns = rng.normal(scale=0.02, size=(200, 3))
        shift = np.array([0.01, -0.02, 0.005])
        a = ReturnsDataset(returns)
        b = ReturnsDataset(returns + shift)
        np.testing.assert_allclose(prescreen_risk_w2(a, b),
                                   float(shift @ shift), atol=1e-12)

    def test_matches_closed_form_at_scale(self):
        """Moment estimates from 10^5 draws land near the population
        squared-W2 between the true Gaussians."""
        from transrisk.gaussian import w2_gaussian_sq

        rng = np.random.default_rng(13)
        mu_a, mu_b = np.array([0.05, 0.0]), np.array([0.02, 0.03])
        sig_a = np.array([[0.04, 0.01], [0.01, 0.09]])
        sig_b = np.array([[0.02, -0.005], [-0.005, 0.03]])
        a = ReturnsDataset(rng.multivariate_normal(mu_a, sig_a, size=10 ** 5))
        b = ReturnsDataset(rng.multivariate_normal(mu_b, sig_b, size=10 ** 5))
        truth = w2_gaussian_sq(GaussianDist(mu_a, sig_a), GaussianDist(mu_b, sig_b))
        got = prescreen_risk_w2(a, b)
        assert abs(got - truth) / truth < 0.05

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(14)
        a = ReturnsDataset(rng.normal(size=(10, 2)))
        b = ReturnsDataset(rng.normal(size=(10, 3)))
        with pytest.raises(ValidationError, match="asset counts differ: 2 vs 3"):
            prescreen_risk_w2(a, b)
