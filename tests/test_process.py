"""Exact process suprema, chaining constants, empirical calibration."""

import math

import numpy as np
import pytest
from scipy import stats

from evbounds import (
    ConfigError,
    Ellipsoid,
    ProbResult,
    calibrate_C,
    default_ellipsoid,
    derive_rng,
    exact_sup,
    exact_sup_ellipsoid,
    get_mechanism,
    make_design,
    prob_ball,
    theoretical_C,
)
import evbounds.process as process_mod


def test_exact_sup_cauchy_schwarz_witness():
    assert exact_sup(np.eye(2), np.array([3.0, 4.0]), 0.5) == 2.5
    assert exact_sup(np.eye(2), np.zeros(2), 1.0) == 0.0


def test_exact_sup_homogeneous_in_rho_and_residual():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 3))
    r = rng.normal(size=20)
    base = exact_sup(X, r, 1.0)
    assert abs(exact_sup(X, r, 2.5) - 2.5 * base) < 1e-12 * (1 + base)
    assert abs(exact_sup(X, 3.0 * r, 1.0) - 3.0 * base) < 1e-11 * (1 + base)
    assert abs(base - np.linalg.norm(X.T @ r)) < 1e-12  # algebraic identity


def test_exact_sup_dominates_random_direction_search():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 4))
    r = rng.normal(size=30)
    rho = 0.7
    sup = exact_sup(X, r, rho)
    z = rng.standard_normal((100_000, 4))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    sampled = np.abs(z @ (X.T @ r)).max() * rho
    assert sampled <= sup * (1 + 1e-12)   # never exceeded by any direction
    assert sampled >= sup * (1 - 5e-3)    # random search closes the gap
    # the aligned direction attains the supremum exactly
    v = X.T @ r
    attained = abs((v / np.linalg.norm(v)) @ v) * rho
    assert abs(attained - sup) <= 1e-12 * (1 + sup)


def test_exact_sup_validation():
    with pytest.raises(ConfigError):
        exact_sup(np.eye(2), np.ones(3), 1.0)
    with pytest.raises(ConfigError):
        exact_sup(np.eye(2), np.ones(2), -1.0)


def test_exact_sup_ellipsoid_reduces_to_ball_for_W_eq_nI():
    rng = np.random.default_rng(2)
    n, d = 40, 3
    X = rng.normal(size=(n, d))
    r = rng.normal(size=n)
    ell = default_ellipsoid(np.zeros(d), n, c1=4.0)
    rho = np.sqrt(ell.threshold / n)  # Euclidean radius of the ellipsoid
    assert abs(exact_sup_ellipsoid(X, r, ell) - exact_sup(X, r, rho)) < 1e-10


def test_exact_sup_ellipsoid_general_W_matches_direct_formula():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(3, 3))
    W = A @ A.T + np.eye(3)
    ell = Ellipsoid(np.zeros(3), W, 2.0)
    X = rng.normal(size=(25, 3))
    r = rng.normal(size=25)
    z = X.T @ r
    direct = np.sqrt(ell.threshold * z @ np.linalg.solve(W, z))
    assert abs(exact_sup_ellipsoid(X, r, ell) - direct) < 1e-10


def test_theoretical_subgaussian_zero_tau_gives_zero():
    X = make_design(50, 2, "uniform", seed=0)
    pc = theoretical_C("subgaussian", 0.0, X, 2, 50, 16.0)
    assert pc.C == 0.0
    assert pc.source == "subgaussian-theory"
    assert abs(pc.delta_tilde - np.exp(-2)) < 1e-15


def test_theoretical_subexponential_threshold_plugin():
    # operator norm 10 via a diagonal-like design: first column scaled
    n, d = 100, 4
    X = np.zeros((n, d))
    X[:4, :] = np.eye(4)
    X[0, 0] = 10.0  # singular values 10, 1, 1, 1
    pc = theoretical_C("subexponential", 1.0, X, d, n, 16.0, nu=1.0)
    expected_threshold = 10.0 * np.sqrt(5.0) + 4.0
    assert abs(expected_threshold - 26.3606797749979) < 1e-12
    assert abs(pc.threshold - expected_threshold) < 1e-9
    rho = np.sqrt(16.0 * d / n)
    assert abs(pc.C - rho * expected_threshold / d) < 1e-12
    assert abs(pc.delta_tilde - 2 * np.exp(-4)) < 1e-15


def test_theoretical_C_validation():
    X = make_design(20, 2, "uniform", seed=1)
    with pytest.raises(ConfigError):
        theoretical_C("cauchy", 1.0, X, 2, 20, 16.0)
    with pytest.raises(ConfigError):
        theoretical_C("subgaussian", 1.0, X, 3, 20, 16.0)  # shape mismatch
    with pytest.raises(ConfigError):
        theoretical_C("subgaussian", -1.0, X, 2, 20, 16.0)
    # a nonpositive k0 or nu gives C <= 0, which can put the lower bound
    # above the upper one
    for kind, scale in [("subgaussian", {"k0": -1.0}), ("subgaussian", {"k0": 0.0}),
                        ("subexponential", {"nu": 0.0})]:
        with pytest.raises(ConfigError):
            theoretical_C(kind, 1.0, X, 2, 20, 16.0, **scale)


def test_subgaussian_bound_dominates_simulated_exceedance():
    # gaussian mechanism, tau = 1: P(sup > C*d) must be <= delta_tilde + 3 SE
    n, d = 60, 3
    X = make_design(n, d, "uniform", seed=2)
    mech = get_mechanism("glm-well-specified", family="gaussian",
                         beta0=[0.3, -0.2, 0.1])
    ell = default_ellipsoid(np.zeros(d), n, c1=4.0)
    pc = theoretical_C("subgaussian", 1.0, X, d, n, ell.R)
    mean = mech.mean(X)
    n_rep = 2000
    rng = np.random.default_rng(4)
    exceed = 0
    for _ in range(n_rep):
        sup = exact_sup_ellipsoid(X, mech.draw(X, rng) - mean, ell)
        exceed += sup > pc.C * d
    freq = exceed / n_rep
    se = np.sqrt(max(pc.delta_tilde * (1 - pc.delta_tilde), freq * (1 - freq) + 1e-12) / n_rep)
    assert freq <= pc.delta_tilde + 3 * se + 1e-12


def test_calibrate_zero_residuals_gives_zero():
    n, d = 50, 2
    X = make_design(n, d, "uniform", seed=3)
    mech = get_mechanism("hetero-gaussian", beta0=[0.5, -0.5], sigmas=[0.0])
    ell = default_ellipsoid(np.zeros(d), n)
    pc = calibrate_C(mech, X, ell, n_rep=200, delta_tilde=0.05, seed=5)
    assert pc.C == 0.0 and pc.source == "empirical-quantile"
    assert pc.method == "gaussian-exact"


def test_calibrated_never_exceeds_theoretical_subgaussian():
    n, d = 80, 3
    X = make_design(n, d, "uniform", seed=6)
    mech = get_mechanism("glm-well-specified", family="gaussian",
                         beta0=[0.2, 0.1, -0.3])
    ell = default_ellipsoid(np.zeros(d), n)
    emp = calibrate_C(mech, X, ell, n_rep=2000, delta_tilde=np.exp(-d), seed=7)
    theo = theoretical_C("subgaussian", 1.0, X, d, n, ell.R)
    assert abs(emp.delta_tilde - theo.delta_tilde) < 1e-15
    assert emp.C <= theo.C


def test_calibrated_quantile_monotone_in_delta_tilde():
    n, d = 60, 2
    X = make_design(n, d, "uniform", seed=8)
    mech = get_mechanism("glm-well-specified", family="logistic",
                         beta0=[0.4, -0.4])
    ell = default_ellipsoid(np.zeros(d), n)
    tight = calibrate_C(mech, X, ell, n_rep=400, delta_tilde=0.05, seed=9)
    loose = calibrate_C(mech, X, ell, n_rep=400, delta_tilde=0.20, seed=9)
    assert tight.C >= loose.C


def test_calibrate_validation():
    X = make_design(30, 2, "uniform", seed=10)
    mech = get_mechanism("glm-well-specified", family="gaussian", beta0=[0.1, 0.1])
    ell = default_ellipsoid(np.zeros(2), 30)
    with pytest.raises(ConfigError):
        calibrate_C(mech, X, ell, n_rep=50, delta_tilde=0.05)
    with pytest.raises(ConfigError):
        calibrate_C(mech, X, ell, n_rep=200, delta_tilde=0.3)


def test_calibrate_is_deterministic_in_seed():
    X = make_design(40, 2, "uniform", seed=11)
    mech = get_mechanism("glm-well-specified", family="poisson", beta0=[0.2, 0.1])
    ell = default_ellipsoid(np.zeros(2), 40)
    a = calibrate_C(mech, X, ell, n_rep=150, delta_tilde=0.1, seed=12)
    b = calibrate_C(mech, X, ell, n_rep=150, delta_tilde=0.1, seed=12)
    assert a.C == b.C


# ---------------------------------------------------------------------------
# the exact route for Gaussian residual laws
# ---------------------------------------------------------------------------

_GAUSSIAN_LAWS = [
    ("glm-well-specified", {"family": "gaussian", "beta0": [0.3, -0.2, 0.1]}),
    ("hetero-gaussian", {"beta0": [0.3, -0.2, 0.1], "sigmas": [0.5, 2.0, 1.0]}),
]


def _gaussian_setup(name, params):
    n, d = 40, 3
    X = make_design(n, d, "uniform", seed=14)
    mech = get_mechanism(name, **params)
    ell = default_ellipsoid(np.zeros(d), n)
    sigma = np.sqrt(mech.law.gaussian_variance(mech.mean(X)))
    B = X @ ell.W_inv_sqrt
    M = B.T @ (sigma[:, None] ** 2 * B)
    return X, mech, ell, sigma, (M + M.T) / 2


@pytest.mark.parametrize("name, params", _GAUSSIAN_LAWS)
def test_gaussian_C_is_the_exceedance_quantile(name, params):
    X, mech, ell, sigma, M = _gaussian_setup(name, params)
    delta_tilde = 0.05
    pc = calibrate_C(mech, X, ell, n_rep=400, delta_tilde=delta_tilde, seed=3)
    assert pc.method == "gaussian-exact" and pc.source == "empirical-quantile"
    # certified: the Gaussian mass at the returned s is at least 1 - delta_tilde,
    # and minimal: 1e-4 below it the mass falls short
    s = (pc.C * ell.d) ** 2 / ell.threshold
    assert prob_ball(M, s).p >= 1.0 - delta_tilde
    assert prob_ball(M, 0.9999 * s).p < 1.0 - delta_tilde
    # 2e5 simulated suprema exceed C d at the rate delta_tilde itself
    rng = np.random.default_rng(15)
    r0 = sigma * rng.standard_normal(len(sigma))
    B = X @ ell.W_inv_sqrt
    assert abs(np.sqrt(ell.threshold * np.sum((r0 @ B) ** 2))
               - exact_sup_ellipsoid(X, r0, ell)) < 1e-10
    n_sims, exceed = 200_000, 0
    for _ in range(n_sims // 20_000):
        xi = (sigma * rng.standard_normal((20_000, len(sigma)))) @ B
        exceed += int(np.count_nonzero(ell.threshold * np.einsum("ij,ij->i", xi, xi)
                                       > (pc.C * ell.d) ** 2))
    se = math.sqrt(delta_tilde * (1 - delta_tilde) / n_sims)
    assert abs(exceed / n_sims - delta_tilde) <= 4 * se


def test_gaussian_C_uncertified_mass_falls_back_to_chi2_bound(monkeypatch):
    X, mech, ell, _, M = _gaussian_setup(*_GAUSSIAN_LAWS[1])
    exact = calibrate_C(mech, X, ell, n_rep=400, delta_tilde=0.05)
    monkeypatch.setattr(process_mod, "prob_ball",
                        lambda M, t: ProbResult(p=0.5, standard_error=0.01,
                                                method="monte-carlo"))
    bound = calibrate_C(mech, X, ell, n_rep=400, delta_tilde=0.05)
    assert bound.method == "gaussian-chi2-bound"
    # the lam_max end: sup^2 <= R d lam_max chi2_d, at its certified quantile
    lam_max = np.linalg.eigvalsh(M)[-1]
    end = math.sqrt(ell.threshold * lam_max * stats.chi2.ppf(0.95, ell.d)) / ell.d
    assert end <= bound.C <= end * (1 + 1e-9)
    assert bound.C > exact.C


@pytest.mark.parametrize("family", ["logistic", "poisson"])
def test_simulation_route_is_the_400_draw_order_statistic(family):
    n, d, seed = 60, 2, 21
    X = make_design(n, d, "uniform", seed=16)
    mech = get_mechanism("glm-well-specified", family=family, beta0=[0.3, -0.2])
    assert mech.law.gaussian_variance is None
    ell = default_ellipsoid(np.zeros(d), n)
    mean = mech.mean(X)
    sups = sorted(exact_sup_ellipsoid(X, mech.draw_from_mean(mean, derive_rng(seed, "calibrate", r))
                                      - mean, ell)
                  for r in range(400))
    pc = calibrate_C(mech, X, ell, n_rep=400, delta_tilde=0.05, seed=seed)
    # the "higher" order statistic at 0.95: index ceil(0.95 * 399) = 380
    assert pc.C == sups[380] / d
    assert pc.method == "simulation"
