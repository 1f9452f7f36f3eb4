"""Weighted-chi-square ball probabilities, log-determinants, operator norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import chdtr, erf
from scipy.stats import chi2

from evbounds import (
    ConfigError,
    DomainError,
    SingularityError,
    log_det_pd,
    operator_norm,
    prob_ball,
)
from evbounds.quadform import chi2_ladder


# ---------------------------------------------------------------------------
# prob_ball closed forms
# ---------------------------------------------------------------------------

def test_prob_ball_standard_normal_unit_threshold():
    res = prob_ball(np.eye(1), 1.0)
    assert res.method == "eigen-series" and res.standard_error == 0.0
    assert abs(res.p - erf(1.0 / np.sqrt(2.0))) < 1e-10
    assert abs(res.p - 0.682689) < 1e-6


def test_prob_ball_chi2_two_dof_closed_form():
    t = 2.0 * np.log(20.0)
    res = prob_ball(np.eye(2), t)
    assert abs(res.p - (1.0 - np.exp(-t / 2.0))) < 1e-10
    assert abs(res.p - 0.95) < 1e-9


def test_prob_ball_scaled_identity():
    res = prob_ball(4.0 * np.eye(1), 1.0)
    assert abs(res.p - erf(0.5 / np.sqrt(2.0))) < 1e-10
    assert abs(res.p - 0.382925) < 1e-6


def test_prob_ball_distinct_weights_match_monte_carlo():
    rng = np.random.default_rng(0)
    for trial in range(6):
        d = rng.integers(2, 8)
        A = rng.normal(size=(d, d))
        M = A @ A.T
        t = float(np.trace(M) * rng.uniform(0.3, 1.5))
        det = prob_ball(M, t)
        assert det.method == "eigen-series"
        mc = prob_ball(M, t, method="monte-carlo", n_draws=400_000, seed=trial)
        assert abs(det.p - mc.p) <= 3 * mc.standard_error + 1e-8


def test_prob_ball_edge_cases_and_monotonicity():
    M = np.diag([1.0, 2.5, 0.3])
    assert prob_ball(M, 0.0).p == 0.0
    assert prob_ball(M, 1e12 * np.trace(M)).p >= 1 - 1e-9
    ts = np.linspace(0.1, 20.0, 25)
    ps = [prob_ball(M, t).p for t in ts]
    assert np.all(np.diff(ps) >= -1e-8)


def test_prob_ball_scale_equivariance():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(3, 3))
    M = A @ A.T
    t = np.trace(M)
    for s in (0.1, 3.0, 40.0):
        assert abs(prob_ball(s * M, s * t).p - prob_ball(M, t).p) < 2e-8


def test_prob_ball_zero_eigenvalues_are_degenerate_coordinates():
    # rank-1 M in d=3: only one chi-square coordinate contributes
    v = np.array([1.0, 2.0, -1.0])
    M = np.outer(v, v)
    lam = float(v @ v)
    res = prob_ball(M, 2.0)
    assert abs(res.p - chi2.cdf(2.0 / lam, df=1)) < 1e-8
    # fully degenerate: P(0 <= t) = 1
    assert prob_ball(np.zeros((2, 2)), 0.5).p == 1.0


def test_prob_ball_validation():
    with pytest.raises(DomainError):
        prob_ball(np.eye(2), -0.5)
    with pytest.raises(ConfigError):
        prob_ball(np.ones((2, 3)), 1.0)
    with pytest.raises(ConfigError):
        prob_ball(np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0)
    with pytest.raises(SingularityError):
        prob_ball(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)  # eigenvalue -1
    with pytest.raises(ConfigError):
        prob_ball(np.eye(2), 1.0, method="saddlepoint")


@pytest.mark.parametrize("M", [np.eye(3), np.diag([1.0, 2.5, 0.3])],
                         ids=["equal-eigenvalues", "unequal-eigenvalues"])
def test_prob_ball_nan_threshold_raises_and_infinite_threshold_is_one(M):
    # NaN used to reach QUADPACK (a segfault) or come back as p = nan
    with pytest.raises(DomainError):
        prob_ball(M, float("nan"))
    res = prob_ball(M, float("inf"))
    assert res.p == 1.0 and res.method == "eigen-series"


@settings(derandomize=True, deadline=None, max_examples=60)
@given(lams=st.lists(st.floats(1e-2, 10.0), min_size=2, max_size=12),
       fracs=st.lists(st.floats(1e-3, 4.0), min_size=2, max_size=6))
def test_prob_ball_monotone_in_t(lams, fracs):
    M = np.diag(lams)
    ts = np.sort(np.asarray(fracs) * sum(lams))
    ps = [prob_ball(M, t) for t in ts]
    assert all(r.method == "eigen-series" for r in ps)
    # each value is certified to 1e-8, so an ordered pair may invert by 2e-8
    assert all(b.p >= a.p - 2e-8 for a, b in zip(ps, ps[1:]))


def test_prob_ball_extreme_tails_clamp_cleanly():
    M = np.diag([1.0, 3.0])
    far = prob_ball(M, 4000.0)
    assert far.p == 1.0 and far.standard_error == 0.0
    tiny = prob_ball(M, 1e-14)
    assert tiny.p <= 1e-6


def test_prob_ball_large_dimension_falls_back_to_monte_carlo():
    rng = np.random.default_rng(2)
    lams = rng.uniform(0.5, 2.0, size=600)
    M = np.diag(lams)
    res = prob_ball(M, float(lams.sum()), n_draws=200_000)
    assert res.method == "monte-carlo"
    assert res.standard_error > 0
    # median of the weighted sum is near its mean: p should be near 1/2
    assert 0.4 < res.p < 0.6


# ---------------------------------------------------------------------------
# chi-square ladder
# ---------------------------------------------------------------------------

def test_chi2_cdf_matches_scipy_over_degrees_of_freedom_and_x():
    dfs = np.unique(np.round(np.geomspace(1, 40_001, 40)).astype(int))
    for m in dfs:
        for x in np.geomspace(1e-8, 1e5, 50):
            F, err = chi2_ladder(int(m), x, 1)
            assert abs(F[0] - chdtr(m, x)) <= 1e-10, (m, x)
            assert 0.0 <= err <= 1e-10


@pytest.mark.parametrize("m", [1, 2, 3, 7, 50, 499])
def test_chi2_ladder_matches_scipy_rung_by_rung(m):
    K = 2_000
    ks = np.arange(K)
    for x in np.geomspace(1e-6, 1e5, 25):
        F, err = chi2_ladder(m, x, K)
        assert np.max(np.abs(F - chdtr(m + 2 * ks, x))) <= 1e-10, x
        assert np.all(np.diff(F) <= 0.0)  # a reverse cumulative sum
        assert err <= 1e-10


def test_chi2_ladder_edge_values():
    assert np.all(chi2_ladder(3, 0.0, 4)[0] == 0.0)
    assert np.all(chi2_ladder(3, math.inf, 4)[0] == 1.0)
    with pytest.raises(DomainError):
        chi2_ladder(3, math.nan, 4)


_DF = st.integers(1, 40_001)
_X = st.floats(-8.0, 5.0).map(lambda e: 10.0 ** e)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(m=_DF, x=_X, x2=_X, step=st.integers(1, 50))
def test_chi2_cdf_properties(m, x, x2, step):
    # agrees with scipy; nondecreasing in x, nonincreasing in the degrees of
    # freedom, up to rounding (1e-14) between separately summed values
    cdf = lambda df, at: float(chi2_ladder(df, at, 1)[0][0])
    assert abs(cdf(m, x) - chdtr(m, x)) <= 1e-10
    lo, hi = sorted((x, x2))
    assert cdf(m, lo) <= cdf(m, hi) + 1e-14
    assert cdf(m + step, x) <= cdf(m, x) + 1e-14


# ---------------------------------------------------------------------------
# log_det_pd
# ---------------------------------------------------------------------------

def test_log_det_examples():
    assert abs(log_det_pd(np.diag([2.0, 3.0])) - np.log(6.0)) < 1e-14
    assert log_det_pd(np.eye(5)) == 0.0


def test_log_det_matches_eigenvalue_oracle():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(6, 6))
    H = A @ A.T + np.eye(6)
    oracle = float(np.sum(np.log(np.linalg.eigvalsh(H))))
    assert abs(log_det_pd(H) - oracle) < 1e-10


def test_log_det_block_additivity():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(2, 2))
    HA, HB = A @ A.T + np.eye(3), B @ B.T + np.eye(2)
    blocked = np.zeros((5, 5))
    blocked[:3, :3], blocked[3:, 3:] = HA, HB
    assert abs(log_det_pd(blocked) - log_det_pd(HA) - log_det_pd(HB)) < 1e-10


def test_log_det_validation():
    with pytest.raises(SingularityError):
        log_det_pd(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ConfigError):
        log_det_pd(np.array([[1.0, 0.3], [0.0, 1.0]]))
    with pytest.raises(ConfigError):
        log_det_pd(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# operator_norm
# ---------------------------------------------------------------------------

def test_operator_norm_examples():
    assert abs(operator_norm(np.diag([3.0, 4.0])) - 4.0) < 1e-9
    assert operator_norm(np.zeros((4, 2))) == 0.0


def test_operator_norm_matches_svd_oracle():
    rng = np.random.default_rng(5)
    for shape in [(50, 5), (5, 50), (20, 20)]:
        X = rng.normal(size=shape)
        svd = float(np.linalg.svd(X, compute_uv=False)[0])
        assert abs(operator_norm(X) - svd) < 1e-8 * svd


def test_operator_norm_rejects_non_finite():
    with pytest.raises(DomainError):
        operator_norm(np.array([[1.0, np.nan]]))
