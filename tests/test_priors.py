"""Product priors: densities, certified extremes over ellipsoids."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.optimize import brentq

from evbounds import (
    ConfigError,
    DomainError,
    Ellipsoid,
    default_ellipsoid,
    extremes_over_ball,
    get_prior,
    lipschitz_certificate,
    log_density,
)
from evbounds.priors import _min_l1_on_ball


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_laplace_log_density_at_origin():
    p = get_prior("laplace-product", kappa=1.0)
    assert abs(log_density(p, np.zeros(2)) - 2 * np.log(0.5)) < 1e-14


def test_gaussian_log_density_at_origin():
    p = get_prior("gaussian-product", tau_p=1.0)
    assert abs(log_density(p, np.zeros(1)) + 0.5 * np.log(2 * np.pi)) < 1e-14


def test_student_density_is_even():
    p = get_prior("student-product", nu=4.0, s=1.3)
    beta = np.array([0.7, -1.2, 0.1])
    assert abs(log_density(p, beta) - log_density(p, -beta)) < 1e-14


@pytest.mark.parametrize("kind,params,dist", [
    ("laplace-product", {"kappa": 2.0}, stats.laplace(scale=0.5)),
    ("gaussian-product", {"tau_p": 1.7}, stats.norm(scale=1.7)),
    ("student-product", {"nu": 5.0, "s": 1.2}, stats.t(df=5.0, scale=1.2)),
    ("uniform-box", {"a": -2.0, "b": 3.0}, stats.uniform(loc=-2.0, scale=5.0)),
])
def test_logpdf_matches_scipy(kind, params, dist):
    p = get_prior(kind, **params)
    x = np.linspace(-1.9, 2.9, 23)
    assert np.allclose(p.logpdf(x), dist.logpdf(x), atol=1e-12)


def test_uniform_box_outside_support_is_minus_inf():
    p = get_prior("uniform-box", a=-1.0, b=1.0)
    assert log_density(p, np.array([0.0, 2.0])) == -np.inf


def test_log_density_rejects_non_finite():
    p = get_prior("gaussian-product", tau_p=1.0)
    with pytest.raises(DomainError):
        log_density(p, np.array([np.nan]))


def test_prior_constructor_validation():
    with pytest.raises(ConfigError):
        get_prior("laplace-product", kappa=0.0)
    with pytest.raises(ConfigError):
        get_prior("gaussian-product", tau_p=-1.0)
    with pytest.raises(ConfigError):
        get_prior("uniform-box", a=1.0, b=1.0)
    with pytest.raises(ConfigError):
        get_prior("horseshoe")


def test_smoothed_derivatives_match_fd_away_from_kinks():
    for kind, params in [("laplace-product", {"kappa": 1.5}),
                         ("gaussian-product", {"tau_p": 0.8}),
                         ("student-product", {"nu": 6.0, "s": 1.0})]:
        p = get_prior(kind, **params)
        x = np.array([-2.0, -0.5, 0.7, 1.9])
        h = 1e-6
        fd1 = (p.logpdf(x + h) - p.logpdf(x - h)) / (2 * h)
        fd2 = (p.logpdf(x + h) - 2 * p.logpdf(x) + p.logpdf(x - h)) / h**2
        assert np.allclose(p.d1(x), fd1, atol=1e-5)
        assert np.allclose(p.d2(x), fd2, atol=1e-3)


# ---------------------------------------------------------------------------
# extremes over the localization set
# ---------------------------------------------------------------------------

def test_laplace_centered_ball_closed_form():
    d, n, kappa = 3, 100, 1.3
    p = get_prior("laplace-product", kappa=kappa)
    ell = default_ellipsoid(np.zeros(d), n, c1=2.0)
    rho = np.sqrt(ell.threshold / n)
    log_sup, log_inf = extremes_over_ball(p, ell)
    assert abs(log_sup - d * np.log(kappa / 2.0)) < 1e-12
    assert abs(log_inf - (d * np.log(kappa / 2.0) - kappa * np.sqrt(d) * rho)) < 1e-12


def test_gaussian_centered_ball_closed_form():
    d, n, tau = 2, 50, 2.0
    p = get_prior("gaussian-product", tau_p=tau)
    ell = default_ellipsoid(np.zeros(d), n, c1=3.0)
    rho = np.sqrt(ell.threshold / n)
    log_sup, log_inf = extremes_over_ball(p, ell)
    base = d * (-0.5 * np.log(2 * np.pi * tau**2))
    assert abs(log_sup - base) < 1e-12
    assert abs(log_inf - (base - rho**2 / (2 * tau**2))) < 1e-12


def _sampled_extremes(prior, ell, rng, n_points=200_000):
    """Max and min of the log prior over points drawn on the ellipsoid's
    boundary (every other point) and uniformly inside it, and over the
    prior's mode 0 if the ellipsoid holds it."""
    z = rng.standard_normal((n_points, ell.d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    radii = rng.random(n_points) ** (1.0 / ell.d)
    radii[::2] = 1.0
    pts = ell.center + np.sqrt(ell.threshold) * ((z * radii[:, None]) @ ell.W_inv_sqrt)
    if ell.center @ ell.W @ ell.center <= ell.threshold:
        pts = np.vstack([pts, np.zeros(ell.d)])
    vals = prior.logpdf(pts).sum(axis=1)
    return float(vals.max()), float(vals.min())


def test_extremes_bracket_sampled_extremes():
    # the one certified pair holds every sampled value; where a closed form
    # exists (laplace and gaussian on this spherical set) sampling nearly
    # attains it
    rng = np.random.default_rng(0)
    for kind, params, exact in [("laplace-product", {"kappa": 1.0}, True),
                                ("gaussian-product", {"tau_p": 1.5}, True),
                                ("student-product", {"nu": 5.0, "s": 1.0}, False)]:
        p = get_prior(kind, **params)
        ell = default_ellipsoid(rng.normal(scale=0.8, size=3), 60, c1=4.0)
        log_sup, log_inf = extremes_over_ball(p, ell)
        samp_sup, samp_inf = _sampled_extremes(p, ell, rng)
        assert log_inf <= samp_inf + 1e-12 and samp_sup <= log_sup + 1e-12
        if exact:
            assert log_sup - samp_sup < 1e-3 and samp_inf - log_inf < 1e-3


def test_analytic_matches_numeric_off_center_laplace():
    # l1 is convex, so over a disc that misses the origin both of its
    # extremes lie on the boundary circle: a dense evaluation there is a
    # numeric reference from inside, which the closed form must bound and
    # nearly meet.  The sup sits on the kink beta_2 = 0, where the
    # reference is off by at most kappa * rho * sqrt(2) * (pi / 1e6) ~ 6e-6
    p = get_prior("laplace-product", kappa=2.0)
    center = np.array([0.9, -0.2])
    ell = default_ellipsoid(center, 40, c1=3.0)
    rho = np.sqrt(ell.threshold / 40)
    assert np.linalg.norm(center) > rho
    theta = np.linspace(0.0, 2 * np.pi, 1_000_000, endpoint=False)
    circle = center + rho * np.column_stack([np.cos(theta), np.sin(theta)])
    vals = p.logpdf(circle).sum(axis=1)
    a_sup, a_inf = extremes_over_ball(p, ell)
    assert 0.0 <= a_sup - vals.max() < 1e-5
    assert 0.0 <= vals.min() - a_inf < 1e-9


@settings(derandomize=True, deadline=None, max_examples=200)
@given(m=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8),
       frac=st.floats(0.0, 1.5))
def test_min_l1_on_ball_matches_root_finding(m, frac):
    # the closed form against the root t of sum_j min(|m_j|, t)^2 = rho^2
    # found by bracketing
    m = np.array(m)
    am = np.abs(m)
    rho = frac * float(np.linalg.norm(m))
    if np.linalg.norm(m) <= rho:
        expected = 0.0
    else:
        t = brentq(lambda t: float(np.sum(np.minimum(am, t) ** 2) - rho * rho),
                   0.0, float(am.max()), xtol=1e-15, rtol=1e-15)
        expected = float(np.sum(am - np.minimum(am, t)))
    assert abs(_min_l1_on_ball(m, rho) - expected) <= 1e-12 * max(1.0, float(am.sum()))


def test_extremes_shrink_with_radius():
    p = get_prior("laplace-product", kappa=1.0)
    center = np.array([0.3, 0.1])
    gaps = []
    for c1 in (4.0, 1.0, 0.25, 0.05):
        ell = default_ellipsoid(center, 100, c1=c1)
        log_sup, log_inf = extremes_over_ball(p, ell)
        gaps.append(log_sup - log_inf)
    assert all(g >= 0 for g in gaps)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 0.03


def test_uniform_box_requires_containment():
    p = get_prior("uniform-box", a=-1.0, b=1.0)
    inside = default_ellipsoid(np.zeros(2), 400, c1=4.0)  # radius 0.28
    log_sup, log_inf = extremes_over_ball(p, inside)
    assert log_sup == log_inf == 2 * -np.log(2.0)
    outside = default_ellipsoid(np.array([0.95, 0.0]), 400, c1=4.0)
    with pytest.raises(DomainError):
        extremes_over_ball(p, outside)


def test_student_analytic_unavailable():
    # no closed form for the student product: even on a spherical metric
    # the pair is the per-coordinate box envelope, which holds the sampled
    # extremes; its inf is loose, the box's corners lying outside the ball
    p = get_prior("student-product", nu=5.0, s=1.0)
    ell = default_ellipsoid(np.zeros(2), 50)
    log_sup, log_inf = extremes_over_ball(p, ell)
    samp_sup, samp_inf = _sampled_extremes(p, ell, np.random.default_rng(1))
    assert log_inf <= samp_inf and samp_sup <= log_sup
    assert log_sup == 2 * p.log_normalizer  # the mode is inside the ball
    assert log_inf < samp_inf - 1e-3


def test_nonspherical_metric_gets_box_envelope():
    # a closed form needs W = s*I; on any other metric the gaussian product
    # gets the box envelope: the log density at the box point nearest the
    # mode, and at each coordinate's farther end
    p = get_prior("gaussian-product", tau_p=1.0)
    W = np.array([[30.0, 5.0], [5.0, 60.0]])
    ell = Ellipsoid(np.array([0.2, -0.1]), W, 4.0)
    log_sup, log_inf = extremes_over_ball(p, ell)
    lo = ell.center - ell.coordinate_halfwidths()
    hi = ell.center + ell.coordinate_halfwidths()
    assert log_sup == pytest.approx(float(np.sum(p.logpdf(np.clip(0.0, lo, hi)))), abs=1e-12)
    far = np.maximum(np.abs(lo), np.abs(hi))
    assert log_inf == pytest.approx(float(np.sum(p.logpdf(far))), abs=1e-12)
    samp_sup, samp_inf = _sampled_extremes(p, ell, np.random.default_rng(2))
    assert log_inf <= samp_inf and samp_sup <= log_sup


# ---------------------------------------------------------------------------
# shape certificate
# ---------------------------------------------------------------------------

def test_lipschitz_certificate_laplace_ok():
    p = get_prior("laplace-product", kappa=3.0)
    rep = lipschitz_certificate(p)
    assert rep.ok and rep.D == 1.0
    assert rep.max_excess <= 1e-12


def test_lipschitz_certificate_rejects_nonenvelope_priors():
    with pytest.raises(ConfigError):
        lipschitz_certificate(get_prior("gaussian-product", tau_p=1.0))
