"""Assembly of the two-sided evidence bounds and the report invariants."""

import json

import numpy as np
import pytest
from scipy import stats

from evbounds import (
    ConfigError,
    Ellipsoid,
    NumericalError,
    ProcessConstants,
    certificate,
    compute_bounds,
    conjugate_log_z,
    default_ellipsoid,
    extremes_over_ball,
    get_family,
    get_prior,
    log_likelihood_full,
    prob_ball,
    solve_mle,
    theoretical_C,
)
import evbounds.quadform as quadform_mod

GAU = get_family("gaussian")
LOG = get_family("logistic")

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def _unit_problem(d=1, C=1.0, eta=0.0, delta=0.0, R=1.0, c1_scale=None):
    """Identity-curvature problem: H = I_d, W = I_d, threshold = R*d."""
    X = np.eye(d)
    ell = Ellipsoid(np.zeros(d), np.eye(d), R)
    cert = certificate(GAU, X, ell)
    proc = ProcessConstants(C=C, delta_tilde=0.0, source="fixed")
    rep = compute_bounds(None, 0.0, cert, proc, (0.0, 0.0), ell,
                         eta=eta, delta=delta)
    return rep


def test_unit_worked_example():
    # l*=0, log|H|=0, C=1, c=1, d=1, eta=0, flat prior extremes:
    # upper = C + log(2pi)/2 + log p, lower = -C + log(2pi)/2 + 1/2 + log p
    rep = _unit_problem(d=1, C=1.0, R=1.0)
    p = stats.chi2.cdf(1.0, df=1)
    assert abs(rep.upper - (1.0 + HALF_LOG_2PI + np.log(p))) < 1e-12
    assert abs(rep.lower - (-1.0 + HALF_LOG_2PI + 0.5 + np.log(p))) < 1e-12
    assert abs(rep.upper - (1.91894 + np.log(p))) < 1e-5
    assert abs(rep.lower - (0.41894 + np.log(p))) < 1e-5
    assert abs(rep.width - 1.5) < 1e-12  # 2C - c/2 at d=1, equal prob mass
    assert rep.log_det_H == 0.0 and rep.ell_star == 0.0
    # eta = delta = 0 clears the certification flag without blocking output
    assert not rep.theorem_certified


def test_reconstruction_identity_and_width_decomposition():
    rep = _unit_problem(d=3, C=1.4, eta=0.05, delta=0.05, R=2.0)
    skeleton = rep.ell_star - rep.log_det_H / 2.0
    assert abs(rep.upper - (skeleton + sum(rep.terms_upper.values()))) < 1e-12
    assert abs(rep.lower - (skeleton + sum(rep.terms_lower.values()))) < 1e-12
    C, c, d = rep.constants["C"], rep.constants["c"], 3
    width_pred = ((2 * C - c / 2) * d
                  + (rep.terms_upper["log_sup_prior"]
                     - rep.terms_lower["log_inf_prior"])
                  - np.log(1 - 0.05)
                  + (rep.terms_upper["log_prob_Rd"]
                     - rep.terms_lower["log_prob_Rd_over_c"]))
    assert abs(rep.width - width_pred) < 1e-12


def test_conjugate_instance_is_sandwiched():
    rng = np.random.default_rng(100)
    n, d, tau = 100, 5, 5.0
    X = rng.uniform(-1, 1, size=(n, d))
    y = X @ np.array([0.4, -0.3, 0.2, 0.1, -0.2]) + rng.standard_normal(n)
    fit = solve_mle(GAU, X, y)
    ll_star = log_likelihood_full(GAU, X, y, fit.beta_star)
    ell = default_ellipsoid(fit.beta_star, n, c1=4.0)
    cert = certificate(GAU, X, ell)
    proc = theoretical_C("subgaussian", 1.0, X, d, n, ell.R)
    prior = get_prior("gaussian-product", tau_p=tau)
    rep = compute_bounds(fit, ll_star, cert, proc, extremes_over_ball(prior, ell),
                         ell, eta=0.05, delta=0.05, assumption1_checked=True)
    oracle = conjugate_log_z(X, y, sigma=1.0, tau_p=tau).log_z
    assert rep.lower <= oracle <= rep.upper
    assert rep.theorem_certified
    assert abs(rep.coverage_guarantee - (1.0 - 0.05 - proc.delta_tilde)) < 1e-15
    assert rep.validity["assumption1_checked"] is True
    assert rep.validity["assumption2_source"] == proc.source


def test_location_equivariance():
    rng = np.random.default_rng(101)
    X = rng.uniform(-1, 1, size=(50, 2))
    ell = default_ellipsoid(np.zeros(2), 50, c1=4.0)
    cert = certificate(GAU, X, ell)
    proc = ProcessConstants(C=1.0, delta_tilde=0.05, source="fixed")
    a = compute_bounds(None, -12.0, cert, proc, (0.3, -0.1), ell)
    b = compute_bounds(None, -12.0 + 7.5, cert, proc, (0.3, -0.1), ell)
    assert abs((b.upper - a.upper) - 7.5) < 1e-9
    assert abs((b.lower - a.lower) - 7.5) < 1e-9
    assert abs(b.width - a.width) < 1e-12


def test_prob_term_ordering_with_contractive_curvature():
    # logistic curvature gives c < 1, so the lower bound's ball is larger
    rng = np.random.default_rng(102)
    n, d = 200, 2
    X = rng.uniform(-1, 1, size=(n, d))
    ell = default_ellipsoid(np.array([0.3, -0.2]), n, c1=4.0)
    cert = certificate(LOG, X, ell)
    assert 0.5 < cert.c < 1.0
    proc = ProcessConstants(C=1.0, delta_tilde=0.05, source="fixed")
    rep = compute_bounds(None, 0.0, cert, proc, (0.0, 0.0), ell)
    assert rep.terms_upper["log_prob_Rd"] <= rep.terms_lower["log_prob_Rd_over_c"]
    assert rep.prob_Rd.p <= rep.prob_Rd_over_c.p


def test_monotone_in_C_at_rate_two_d():
    d = 4
    X = np.eye(d)
    ell = Ellipsoid(np.zeros(d), np.eye(d), 2.0)
    cert = certificate(GAU, X, ell)
    lo = compute_bounds(None, 0.0, cert,
                        ProcessConstants(1.0, 0.05, "fixed"), (0.0, 0.0), ell)
    hi = compute_bounds(None, 0.0, cert,
                        ProcessConstants(1.3, 0.05, "fixed"), (0.0, 0.0), ell)
    assert abs((hi.upper - lo.upper) - 0.3 * d) < 1e-9
    assert abs((lo.lower - hi.lower) - 0.3 * d) < 1e-9
    assert abs((hi.width - lo.width) - 0.6 * d) < 1e-9


def test_width_affine_in_dimension():
    widths = {}
    for d in range(1, 9):
        rep = _unit_problem(d=d, C=1.2, eta=0.1, R=2.0)
        widths[d] = rep.width
    slope = 2 * 1.2 - 0.5  # 2C - c/2 with c = 1
    for d in range(2, 9):
        assert abs((widths[d] - widths[1]) - slope * (d - 1)) < 1e-10


def test_validation_errors():
    X = np.eye(2)
    ell = Ellipsoid(np.zeros(2), np.eye(2), 1.0)
    cert = certificate(GAU, X, ell)
    proc = ProcessConstants(1.0, 0.05, "fixed")
    with pytest.raises(ConfigError):
        compute_bounds(None, 0.0, cert, proc, (-1.0, 0.0), ell)  # sup < inf
    with pytest.raises(ConfigError):
        compute_bounds(None, 0.0, cert, proc, (0.0, 0.0), ell, eta=1.2)
    with pytest.raises(ConfigError):
        compute_bounds(None, 0.0, cert, proc, (0.0, 0.0), ell, delta=-0.1)
    fit = solve_mle(GAU, np.eye(2), np.array([1.0, 1.0]))
    with pytest.raises(ConfigError):
        compute_bounds(fit, 0.0, cert, proc, (0.0, 0.0), ell)  # center mismatch


def test_vanishing_mass_raises_numerical_error():
    # curvature so flat that the localized Gaussian puts no measurable mass
    # on the ellipsoid: the log would be -inf, so the report must refuse
    d = 30
    X = np.sqrt(1e-30) * np.eye(d)
    ell = Ellipsoid(np.zeros(d), np.eye(d), 16.0)
    cert = certificate(GAU, X, ell)
    proc = ProcessConstants(1.0, 0.05, "fixed")
    with pytest.raises(NumericalError):
        compute_bounds(None, 0.0, cert, proc, (0.0, 0.0), ell)


def test_to_dict_is_json_serializable_and_complete():
    rep = _unit_problem(d=2, C=1.0, eta=0.05, delta=0.05, R=1.5)
    blob = json.dumps(rep.to_dict())
    back = json.loads(blob)
    for key in ("ell_star", "log_det_H", "upper", "lower", "width",
                "terms_upper", "terms_lower", "constants", "validity",
                "theorem_certified", "coverage_guarantee", "prob_Rd",
                "prob_Rd_over_c", "prob_Rd_method", "prob_Rd_se",
                "prob_Rd_over_c_method", "prob_Rd_over_c_se", "C_method"):
        assert key in back
    assert back["validity"]["set_mass_certified"] is True
    assert back["width"] == pytest.approx(back["upper"] - back["lower"])
    assert "mle_log_lik" not in back  # absent unless recentering metadata given


def test_monte_carlo_set_mass_is_recorded_and_uncertified(monkeypatch):
    # unequal curvatures, so each mass needs the series; with the series and
    # the Imhof inversion both refusing, prob_ball falls back to Monte Carlo
    d = 2
    ell = Ellipsoid(np.zeros(d), np.eye(d), 1.5)
    cert = certificate(GAU, np.diag([1.0, 2.0]), ell)
    proc = ProcessConstants(C=1.0, delta_tilde=0.05, source="fixed")
    exact = compute_bounds(None, 0.0, cert, proc, (0.0, 0.0), ell)
    assert exact.prob_Rd.method == "eigen-series"
    assert exact.validity["set_mass_certified"] and exact.theorem_certified
    monkeypatch.setattr(quadform_mod, "_ruben_series", lambda lams, t: None)
    monkeypatch.setattr(quadform_mod, "_imhof_qawf", lambda lams, t: (np.nan, np.inf, True))
    mc = compute_bounds(None, 0.0, cert, proc, (0.0, 0.0), ell)
    assert mc.validity["set_mass_certified"] is False
    assert not mc.theorem_certified
    back = json.loads(json.dumps(mc.to_dict()))
    for name in ("prob_Rd", "prob_Rd_over_c"):
        assert back[f"{name}_method"] == "monte-carlo"
        assert back[f"{name}_se"] > 0
        assert abs(back[name] - getattr(exact, name).p) <= 5 * back[f"{name}_se"]


def _criterion_06_spectrum(index):
    """The index-th (M, t) of the acceptance suite's random spectra."""
    rng = np.random.default_rng(606)
    for _ in range(index + 1):
        d = int(rng.integers(1, 51))
        lam = 10.0 ** rng.uniform(-3, 2, size=d)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        t = float(rng.uniform(0.3, 2.0) * lam.sum())
    return (q * lam) @ q.T, t


def test_imhof_set_mass_is_labelled_and_certified():
    # spectrum 3 (d = 19, condition number 1.4e4) is too ill-conditioned for
    # the series at this t, so its mass comes from the Imhof inversion; the
    # report names that method and still counts the mass as certified
    M, t = _criterion_06_spectrum(3)
    M = (M + M.T) / 2
    assert prob_ball(M, t).method == "imhof"
    lam, Q = np.linalg.eigh(M)
    d = len(lam)
    ell = Ellipsoid(np.zeros(d), np.eye(d), t / d)           # threshold t
    cert = certificate(GAU, (Q / np.sqrt(lam)) @ Q.T, ell)  # H = M^{-1}, c = 1
    rep = compute_bounds(None, 0.0, cert, ProcessConstants(1.0, 0.05, "fixed"),
                         (0.0, 0.0), ell)
    assert rep.prob_Rd.method == rep.prob_Rd_over_c.method == "imhof"
    assert rep.validity["set_mass_certified"] and rep.theorem_certified
    assert rep.to_dict()["prob_Rd_method"] == "imhof"


def test_inverted_bracket_raises_numerical_error():
    # a negative C puts the lower bound above the upper one: refused
    ell = Ellipsoid(np.zeros(2), np.eye(2), 1.5)
    cert = certificate(GAU, np.eye(2), ell)
    with pytest.raises(NumericalError):
        compute_bounds(None, 0.0, cert, ProcessConstants(-5.0, 0.05, "fixed"), (0.0, 0.0), ell)


def test_mle_recentering_metadata():
    X = np.eye(1)
    ell = Ellipsoid(np.zeros(1), np.eye(1), 1.0)
    cert = certificate(GAU, X, ell)
    proc = ProcessConstants(1.0, 0.05, "fixed")
    rep = compute_bounds(None, -7.0, cert, proc, (0.0, 0.0), ell,
                         mle_log_lik=-5.0)
    assert rep.mle_log_lik == -5.0
    assert rep.mle_gap == 2.0
    back = rep.to_dict()
    assert back["mle_log_lik"] == -5.0 and back["mle_gap"] == 2.0
