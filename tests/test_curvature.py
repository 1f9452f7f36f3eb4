"""Localization ellipsoid, curvature certificate, quadratic-sandwich check."""

import numpy as np
import pytest

import evbounds.curvature as curvature_mod
from evbounds import (
    ConfigError,
    Ellipsoid,
    NumericalError,
    SingularityError,
    certificate,
    check_assumption1,
    default_ellipsoid,
    get_family,
    make_design,
    predictor_intervals,
    sample_in_ellipsoid,
    solve_pseudo_true,
)

GAU = get_family("gaussian")
LOG = get_family("logistic")
POI = get_family("poisson")


# ---------------------------------------------------------------------------
# Ellipsoid
# ---------------------------------------------------------------------------

def test_ellipsoid_validation():
    with pytest.raises(ConfigError):
        Ellipsoid(np.zeros(2), np.eye(3), 1.0)          # shape mismatch
    with pytest.raises(ConfigError):
        Ellipsoid(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0)  # asym
    with pytest.raises(ConfigError):
        Ellipsoid(np.zeros(2), np.eye(2), 0.0)          # R must be > 0
    with pytest.raises(SingularityError):
        Ellipsoid(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)  # indefinite


def test_ellipsoid_membership_and_halfwidths():
    ell = Ellipsoid(np.array([1.0, -1.0]), np.diag([4.0, 1.0]), 2.0)
    assert ell.d == 2 and ell.threshold == 4.0
    assert ell.mahalanobis(np.array([1.0, -1.0])) == 0.0
    assert ell.contains(np.array([2.0, -1.0]))          # 4*(1)^2 = 4 <= 4
    assert not ell.contains(np.array([2.1, -1.0]))
    # batch form
    q = ell.mahalanobis(np.array([[1.0, -1.0], [1.0, 1.0]]))
    assert q.shape == (2,) and q[0] == 0.0 and q[1] == 4.0
    # exact coordinate ranges: sqrt(R d / W_jj)
    assert np.allclose(ell.coordinate_halfwidths(), [np.sqrt(4.0 / 4.0), np.sqrt(4.0)])


def test_ellipsoid_scaled_multiplies_R_only():
    ell = Ellipsoid(np.zeros(2), np.eye(2), 3.0)
    big = ell.scaled(4.0)
    assert big.R == 12.0
    assert np.array_equal(big.W, ell.W) and np.array_equal(big.center, ell.center)


def test_default_ellipsoid_is_euclidean_ball_with_radius_c1_sqrt_d_over_n():
    n, d, c1 = 200, 3, 4.0
    ell = default_ellipsoid(np.zeros(d), n, c1=c1)
    assert np.array_equal(ell.W, n * np.eye(d)) and ell.R == c1**2
    r_euclid = c1 * np.sqrt(d / n)
    on_boundary = np.array([r_euclid, 0.0, 0.0])
    assert abs(ell.mahalanobis(on_boundary) - ell.threshold) < 1e-9
    assert ell.contains(on_boundary)


# ---------------------------------------------------------------------------
# predictor intervals
# ---------------------------------------------------------------------------

def test_predictor_interval_unit_coordinate_vector():
    # W = n I and threshold n rho^2 make the interval for e_1 exactly +/- rho
    n, rho = 50, 0.3
    ell = Ellipsoid(np.zeros(2), n * np.eye(2), n * rho**2 / 2)  # R*d = n rho^2
    lo, hi = predictor_intervals(np.array([[1.0, 0.0]]), ell)
    assert abs(lo[0] + rho) < 1e-12 and abs(hi[0] - rho) < 1e-12


def test_predictor_interval_shrinks_to_center_value():
    X = make_design(10, 2, "uniform", seed=0)
    center = np.array([0.4, -0.2])
    ell = Ellipsoid(center, 10 * np.eye(2), 1e-18)
    lo, hi = predictor_intervals(X, ell)
    assert np.allclose(lo, X @ center, atol=1e-8)
    assert np.allclose(hi, X @ center, atol=1e-8)
    assert np.all(lo <= X @ center + 1e-15) and np.all(X @ center <= hi + 1e-15)


def test_predictor_interval_matches_boundary_search():
    rng = np.random.default_rng(21)
    A = rng.normal(size=(2, 2))
    W = A @ A.T + 0.5 * np.eye(2)
    ell = Ellipsoid(rng.normal(size=2), W, 2.5)
    X = rng.normal(size=(4, 2))
    lo, hi = predictor_intervals(X, ell)
    # rejection-free boundary oracle: sphere points through sqrt(Rd) W^{-1/2}
    z = rng.standard_normal((100_000, 2))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    pts = ell.center + np.sqrt(ell.threshold) * (z @ ell.W_inv_sqrt.T)
    proj = pts @ X.T
    scale = 1 + np.abs(hi)
    assert np.all(proj.max(axis=0) <= hi + 1e-12)
    assert np.all(proj.max(axis=0) >= hi - 1e-6 * scale)
    assert np.all(proj.min(axis=0) >= lo - 1e-12)
    assert np.all(proj.min(axis=0) <= lo + 1e-6 * (1 + np.abs(lo)))


def test_predictor_interval_dimension_mismatch():
    ell = Ellipsoid(np.zeros(2), np.eye(2), 1.0)
    with pytest.raises(ConfigError):
        predictor_intervals(np.ones((5, 3)), ell)


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------

def test_certificate_gaussian_is_exact():
    X = make_design(30, 3, "uniform", seed=1)
    ell = default_ellipsoid(np.zeros(3), 30)
    cert = certificate(GAU, X, ell)
    assert np.all(cert.u_sq == 1.0) and np.all(cert.v_sq == 1.0)
    assert np.allclose(cert.H, X.T @ X)
    assert cert.c == 1.0 and cert.c_in_range


def test_certificate_logistic_intercept_only_small_interval():
    n = 50
    X = np.ones((n, 1))
    # R chosen so the predictor interval is exactly (-0.1, 0.1)
    ell = Ellipsoid(np.zeros(1), n * np.eye(1), 0.01 * n)
    cert = certificate(LOG, X, ell)
    s = 1.0 / (1.0 + np.exp(-0.1))
    assert np.allclose(cert.t_lo, -0.1) and np.allclose(cert.t_hi, 0.1)
    assert np.allclose(cert.u_sq, s * (1 - s))
    assert abs(cert.u_sq[0] - 0.24937) < 1e-5
    assert np.all(cert.v_sq == 0.25)  # peak of the logistic variance is inside
    assert abs(cert.c - 4 * s * (1 - s)) < 1e-12
    assert abs(cert.c - 0.99750) < 5e-6


def test_certificate_poisson_monotone_extremes():
    n = 40
    X = np.ones((n, 1))
    ell = Ellipsoid(np.zeros(1), n * np.eye(1), 0.04 * n)  # interval (-0.2, 0.2)
    cert = certificate(POI, X, ell)
    assert np.allclose(cert.u_sq, np.exp(-0.2))
    assert np.allclose(cert.v_sq, np.exp(0.2))
    assert abs(cert.c - np.exp(-0.4)) < 1e-12


def test_certificate_degenerate_curvature_raises():
    X = np.ones((10, 1))
    huge = Ellipsoid(np.zeros(1), 10 * np.eye(1), 1e7)  # |t| up to ~1000
    with pytest.raises(SingularityError):
        certificate(LOG, X, huge)


def test_certificate_monotone_in_radius():
    X = make_design(40, 2, "uniform", seed=2)
    ell = default_ellipsoid(np.array([0.3, -0.1]), 40, c1=1.0)
    small = certificate(LOG, X, ell)
    large = certificate(LOG, X, ell.scaled(4.0))
    assert large.c <= small.c + 1e-15
    assert np.all(large.u_sq <= small.u_sq + 1e-15)
    assert np.all(large.v_sq >= small.v_sq - 1e-15)
    # H positive definite in both cases
    assert np.linalg.eigvalsh(small.H)[0] > 0
    assert np.linalg.eigvalsh(large.H)[0] > 0


# ---------------------------------------------------------------------------
# sampling and the sandwich check
# ---------------------------------------------------------------------------

def test_sample_in_ellipsoid_contained_and_space_filling():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(3, 3))
    ell = Ellipsoid(rng.normal(size=3), A @ A.T + np.eye(3), 1.7)
    pts = sample_in_ellipsoid(ell, 5000, rng)
    q = ell.mahalanobis(pts)
    assert np.all(q <= ell.threshold * (1 + 1e-9))
    assert q.max() > 0.9 * ell.threshold  # reaches near the boundary
    assert q.min() < 0.2 * ell.threshold  # and fills the interior


def test_assumption1_gaussian_equality_both_sides():
    X = make_design(60, 3, "uniform", seed=4)
    m = X @ np.array([0.5, -0.3, 0.2])
    fit = solve_pseudo_true(GAU, X, m)
    ell = default_ellipsoid(fit.beta_star, 60)
    cert = certificate(GAU, X, ell)
    rep = check_assumption1(GAU, X, m, fit, cert, ell, n_samples=2000, seed=5)
    assert rep.ok and rep.c_constraint_ok
    assert np.max(np.abs(rep.upper_slack)) < 1e-10
    assert np.max(np.abs(rep.lower_slack)) < 1e-10


def test_assumption1_logistic_modest_radius_ok():
    X = make_design(120, 2, "uniform", seed=6)
    m = LOG.a1(X @ np.array([0.6, -0.4]))
    fit = solve_pseudo_true(LOG, X, m)
    ell = default_ellipsoid(fit.beta_star, 120)
    cert = certificate(LOG, X, ell)
    rep = check_assumption1(LOG, X, m, fit, cert, ell, n_samples=4000, seed=7)
    assert rep.ok
    assert rep.c_constraint_ok
    assert np.all(rep.upper_slack >= -1e-10 * (1 + np.abs(rep.upper_slack)))


def test_assumption1_reports_c_breach_on_wide_ellipsoid():
    X = make_design(30, 2, "uniform", seed=8)
    m = LOG.a1(X @ np.array([0.2, 0.2]))
    fit = solve_pseudo_true(LOG, X, m)
    wide = default_ellipsoid(fit.beta_star, 30, c1=4.0).scaled(40.0)
    cert = certificate(LOG, X, wide)
    assert cert.c <= 0.5
    rep = check_assumption1(LOG, X, m, fit, cert, wide, n_samples=500, seed=9)
    assert not rep.c_constraint_ok
    # the two-sided inequality itself is still certified (u/v are exact)
    assert rep.ok


def test_assumption1_cross_check_raises_on_disagreement(monkeypatch):
    # the scalar KL routine spot-checks the vectorized sweep; a disagreement
    # must raise even under python -O, which strips assert statements
    X = make_design(40, 2, "uniform", seed=10)
    m = X @ np.array([0.4, -0.2])
    fit = solve_pseudo_true(GAU, X, m)
    ell = default_ellipsoid(fit.beta_star, 40)
    cert = certificate(GAU, X, ell)
    real = curvature_mod.kl_gap
    monkeypatch.setattr(curvature_mod, "kl_gap",
                        lambda *args: real(*args) + 1e-3)
    with pytest.raises(NumericalError):
        check_assumption1(GAU, X, m, fit, cert, ell, n_samples=50, seed=11)
