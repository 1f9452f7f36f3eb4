"""Evidence oracles: conjugate closed form, quadrature, importance sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import evbounds.harness as harness_mod
from evbounds import (
    BoxError,
    CapabilityError,
    ConfigError,
    ExperimentConfig,
    QuadratureGrid,
    ReliabilityError,
    build_context,
    conjugate_log_z,
    default_ellipsoid,
    derive_rng,
    get_family,
    get_prior,
    importance_log_z,
    log_density,
    log_likelihood_full,
    log_posterior_unnorm,
    log_target_curvature,
    posterior_mass,
    posterior_mode,
    quadrature_log_z,
    replicate_rng,
    run_concentration,
    run_coverage,
    solve_pseudo_true,
)
from evbounds.families import _softplus

GAU = get_family("gaussian")
LOG = get_family("logistic")
POI = get_family("poisson")


# ---------------------------------------------------------------------------
# conjugate closed form
# ---------------------------------------------------------------------------

def test_conjugate_single_point_hand_value():
    est = conjugate_log_z(np.array([[1.0]]), np.array([0.0]), sigma=1.0, tau_p=1.0)
    assert est.method == "conjugate" and est.standard_error == 0.0
    assert abs(est.log_z - (-0.5 * np.log(4 * np.pi))) < 1e-14
    assert abs(est.log_z - (-1.26551)) < 1e-5


def test_conjugate_prior_collapse_limit():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    est = conjugate_log_z(X, y, sigma=1.3, tau_p=0.0)
    direct = float(np.sum(stats.norm.logpdf(y, scale=1.3)))
    assert abs(est.log_z - direct) < 1e-10


def test_conjugate_matches_dense_marginal_normal():
    rng = np.random.default_rng(1)
    n, d = 100, 5
    X = rng.uniform(-1, 1, size=(n, d))
    y = rng.normal(size=n)
    sigma, tau = 1.2, 0.7
    est = conjugate_log_z(X, y, sigma, tau)
    cov = sigma**2 * np.eye(n) + tau**2 * X @ X.T
    dense = stats.multivariate_normal(mean=np.zeros(n), cov=cov).logpdf(y)
    assert abs(est.log_z - dense) < 1e-9


def test_conjugate_validation():
    with pytest.raises(ConfigError):
        conjugate_log_z(np.eye(2), np.zeros(2), sigma=0.0, tau_p=1.0)
    with pytest.raises(ConfigError):
        conjugate_log_z(np.eye(2), np.zeros(2), sigma=1.0, tau_p=-0.5)


# ---------------------------------------------------------------------------
# posterior mode
# ---------------------------------------------------------------------------

def test_posterior_mode_gaussian_gaussian_closed_form():
    rng = np.random.default_rng(2)
    n, d, tau = 40, 3, 1.5
    X = rng.uniform(-1, 1, size=(n, d))
    y = X @ np.array([0.5, -0.5, 0.2]) + rng.standard_normal(n)
    prior = get_prior("gaussian-product", tau_p=tau)
    mode, curv = posterior_mode(GAU, X, y, prior)
    A = X.T @ X + np.eye(d) / tau**2
    assert np.allclose(mode, np.linalg.solve(A, X.T @ y), atol=1e-6)
    assert np.allclose(curv, A, atol=1e-9)


def test_posterior_mode_laplace_curvature_cap():
    # a strong lasso-style prior pins both coordinates at the kink (the
    # likelihood pull of 4 is below kappa=8); the reported curvature must
    # use the capped prior precision 2*kappa^2, not the smoothing spike
    X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    y = np.array([2.0, 2.0, 0.0, 0.0])
    prior = get_prior("laplace-product", kappa=8.0)
    mode, curv = posterior_mode(GAU, X, y, prior)
    assert np.max(np.abs(mode)) < 1e-6
    assert np.allclose(np.diag(curv), 2.0 + 2.0 * 8.0**2, atol=1e-6)
    assert abs(curv[0, 1]) < 1e-12


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_quadrature_matches_conjugate_d1():
    rng = np.random.default_rng(4)
    X = rng.uniform(-1, 1, size=(30, 1))
    y = 0.4 * X[:, 0] + rng.standard_normal(30)
    prior = get_prior("gaussian-product", tau_p=2.0)
    quad = quadrature_log_z(GAU, X, y, prior)
    conj = conjugate_log_z(X, y, sigma=1.0, tau_p=2.0)
    assert quad.standard_error == 0.0 and quad.method == "quadrature"
    assert abs(quad.log_z - conj.log_z) < 1e-8


def test_quadrature_matches_conjugate_d2():
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, size=(40, 2))
    y = X @ np.array([0.3, -0.6]) + rng.standard_normal(40)
    prior = get_prior("gaussian-product", tau_p=1.0)
    quad = quadrature_log_z(GAU, X, y, prior)
    conj = conjugate_log_z(X, y, sigma=1.0, tau_p=1.0)
    assert abs(quad.log_z - conj.log_z) < 1e-6


def test_quadrature_handles_prior_kinks_and_is_deterministic():
    rng = np.random.default_rng(6)
    X = rng.uniform(-1, 1, size=(50, 2))
    y = (rng.random(50) < LOG.a1(X @ np.array([0.8, -0.5]))).astype(float)
    prior = get_prior("laplace-product", kappa=1.0)
    a = quadrature_log_z(LOG, X, y, prior)
    b = quadrature_log_z(LOG, X, y, prior)
    assert a.log_z == b.log_z
    # doubling the starting resolution moves the certified value < 1e-6
    c = quadrature_log_z(LOG, X, y, prior, n_nodes_per_dim=64)
    assert abs(a.log_z - c.log_z) < 1e-6


def test_quadrature_capability_and_config_errors():
    X = np.ones((10, 4))
    prior = get_prior("gaussian-product", tau_p=1.0)
    with pytest.raises(CapabilityError):
        quadrature_log_z(GAU, X, np.zeros(10), prior)
    with pytest.raises(ConfigError):
        quadrature_log_z(GAU, np.ones((10, 1)), np.zeros(10), prior,
                         box_halfwidth=6.0)


def test_quadrature_flags_heavy_tails_spilling_the_box():
    # one observation, heavy-tailed prior: the mode-Hessian box misses real
    # mass on the boundary and the certificate must refuse, not mislead
    X = np.array([[1.0]])
    y = np.array([1.0])
    prior = get_prior("student-product", nu=2.0, s=5.0)
    with pytest.raises(Exception) as exc_info:
        quadrature_log_z(LOG, X, y, prior)
    assert exc_info.type.__name__ in ("BoxError", "ReliabilityError")


# ---------------------------------------------------------------------------
# quadrature grid shared across responses
# ---------------------------------------------------------------------------

def _population_grid(family, X, beta0, prior, **kwargs):
    """Grid centred at the pseudo-true fit, as a coverage study builds it."""
    centre = solve_pseudo_true(family, X, family.a1(X @ beta0)).beta_star
    return QuadratureGrid(family, X, prior, centre,
                          log_target_curvature(family, X, prior, centre), **kwargs)


@pytest.mark.parametrize("family, n, beta0, prior", [
    (LOG, 200, [0.8, -0.5], get_prior("gaussian-product", tau_p=3.0)),
    (POI, 100, [0.3, -0.2, 0.1], get_prior("laplace-product", kappa=1.0)),
    (GAU, 80, [0.5, -0.3], get_prior("gaussian-product", tau_p=2.0)),
])
def test_shared_grid_matches_mode_centred_quadrature(family, n, beta0, prior, design="uniform"):
    rng = np.random.default_rng(23)
    beta0 = np.array(beta0)
    X = (rng.uniform(-1, 1, size=(n, len(beta0))) if design == "uniform"
         else rng.choice([-1.0, 1.0], size=(n, len(beta0))))
    grid = _population_grid(family, X, beta0, prior)
    mean = family.a1(X @ beta0)
    for _ in range(3):
        if family is LOG:
            y = (rng.random(n) < mean).astype(float)
        elif family is POI:
            y = rng.poisson(mean).astype(float)
        else:
            y = mean + rng.standard_normal(n)
        shared = grid.log_z(y)
        own = quadrature_log_z(family, X, y, prior)
        assert shared.method == "quadrature" and shared.standard_error == 0.0
        assert abs(shared.log_z - own.log_z) < 1e-9
        if family is GAU:
            exact = conjugate_log_z(X, y, sigma=1.0, tau_p=prior.params["tau_p"])
            assert abs(shared.log_z - exact.log_z) < 1e-9


def test_shared_grid_on_repeated_rows_matches_conjugate():
    # 80 rows over at most 4 distinct ones: the grid sums the cumulant once
    # per distinct row, weighted by its count
    test_shared_grid_matches_mode_centred_quadrature(
        GAU, 80, [0.5, -0.3], get_prior("gaussian-product", tau_p=2.0), design="rademacher")


LOGISTIC_STUDY = {
    "family": "logistic", "mechanism": "glm-well-specified",
    "mechanism.beta0": [0.8, -0.5], "design": "uniform", "n": 200, "d": 2,
    "prior": "gaussian-product", "prior.tau_p": 3.0, "oracle": "quadrature",
    "calib_reps": 400, "n_replicates": 24, "master_seed": 7,
}

POISSON_STUDY = {
    "family": "poisson", "mechanism": "glm-well-specified",
    "mechanism.beta0": [0.3, -0.2, 0.1], "design": "uniform", "n": 400, "d": 3,
    "c1": 2.0, "prior": "laplace-product", "prior.kappa": 1.0,
    "oracle": "quadrature", "calib_reps": 400, "n_replicates": 1,
    "master_seed": 14048,
}


def _study_response(ctx, replicate):
    return ctx.mechanism.draw(ctx.X, replicate_rng(ctx.config.master_seed, replicate))


def test_coverage_replicate_falls_back_to_its_own_grid():
    # replicate 23 of the acceptance logistic study puts integrand mass on
    # the shared box's boundary; the study must integrate it on a box
    # centred at its own mode instead of failing it
    cfg = ExperimentConfig.from_flat(LOGISTIC_STUDY)
    ctx = harness_mod._coverage_context(cfg)
    y = _study_response(ctx, 23)
    with pytest.raises(BoxError):
        ctx.quad_grid.log_z(y)
    own = quadrature_log_z(ctx.family, ctx.X, y, ctx.prior)
    row = run_coverage(cfg).rows[23]
    assert row["failed"] == 0
    assert row["oracle_log_z"] == own.log_z


def test_coverage_replicate_no_longer_needs_the_posterior_mode():
    # on this dataset a coordinate of the mode sits on the laplace prior's
    # kink; the shared grid needs no mode, a wider shared box agrees, and
    # the mode search stops on the kink, so a mode-centred grid agrees too
    cfg = ExperimentConfig.from_flat(POISSON_STUDY)
    ctx = harness_mod._coverage_context(cfg)
    y = _study_response(ctx, 0)
    posterior_mode(ctx.family, ctx.X, y, ctx.prior)
    row = run_coverage(cfg).rows[0]
    assert row["failed"] == 0
    centre = ctx.fit.beta_star
    wide = QuadratureGrid(ctx.family, ctx.X, ctx.prior, centre,
                          log_target_curvature(ctx.family, ctx.X, ctx.prior, centre),
                          box_halfwidth=16.0)
    assert abs(row["oracle_log_z"] - wide.log_z(y).log_z) < 1e-6
    own = quadrature_log_z(ctx.family, ctx.X, y, ctx.prior)
    assert abs(row["oracle_log_z"] - own.log_z) < 1e-6


# the acceptance concentration study at its n = 200 point
CONCENTRATION_STUDY = {
    "family": "logistic", "mechanism": "glm-well-specified",
    "mechanism.beta0_scale": 0.5, "design": "rademacher",
    "prior": "laplace-product", "prior.kappa": 1.0, "c1": 4.0, "eta": 0.1,
    "d_rule": "n^0.3", "n_grid": [200], "n_replicates": 22, "n_draws": 20000,
    "n": 200, "master_seed": 4,
}


def _log_target(family, X, y, prior, beta):
    t = X @ beta
    return float(y @ t - np.sum(family.a(t)) + np.sum(prior.logpdf(beta)))


def _assert_coordinate_max(family, X, y, prior, mode, h=1e-3, rel=1e-9):
    at_mode = _log_target(family, X, y, prior, mode)
    for j in range(len(mode)):
        for step in (-h, h):
            probe = mode.copy()
            probe[j] += step
            assert _log_target(family, X, y, prior, probe) <= at_mode + rel * abs(at_mode)


@pytest.mark.parametrize("study, master_seed, replicate", [
    ("poisson", 14040, 79), ("poisson", 14048, 0), ("poisson", 14054, 97),
    ("concentration", 4, 21), ("concentration", 4, 163), ("concentration", 6, 71),
    ("concentration", 6, 96), ("concentration", 7, 81), ("concentration", 8, 159),
])
def test_posterior_mode_stops_on_the_laplace_kink(study, master_seed, replicate):
    # a coordinate of each of these modes sits on the kink, where a search
    # that steps across the kink without stopping on it runs out of iterations
    if study == "poisson":
        ctx = build_context(ExperimentConfig.from_flat(dict(POISSON_STUDY, master_seed=master_seed)))
        y = _study_response(ctx, replicate)
    else:
        ctx = build_context(ExperimentConfig.from_flat(
            dict(CONCENTRATION_STUDY, master_seed=master_seed)))
        y = ctx.mechanism.draw(ctx.X, derive_rng(master_seed, "concentration", 200, replicate))
    mode, _ = posterior_mode(ctx.family, ctx.X, y, ctx.prior)
    assert np.any(mode == 0.0)
    _assert_coordinate_max(ctx.family, ctx.X, y, ctx.prior, mode)


PRIORS = {
    "gaussian-product": {"tau_p": 2.0},
    "laplace-product": {"kappa": 1.0},
    "student-product": {"nu": 5.0, "s": 1.0},
    "uniform-box": {"a": -1.0, "b": 1.0},
}


@settings(derandomize=True, deadline=None, max_examples=50)
@given(family=st.sampled_from([GAU, LOG, POI]), prior=st.sampled_from(sorted(PRIORS)),
       n=st.integers(20, 200), d=st.integers(1, 4),
       scale=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
def test_posterior_mode_is_a_coordinate_maximum(family, prior, n, d, scale, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, d))
    beta0 = scale * rng.uniform(-1, 1, size=d)
    mean = family.a1(X @ beta0)
    y = family.sample(mean, rng)
    prior = get_prior(prior, **PRIORS[prior])
    mode, curvature = posterior_mode(family, X, y, prior)
    assert curvature.shape == (d, d)
    _assert_coordinate_max(family, X, y, prior, mode)


def test_concentration_estimate_at_a_kink_mode():
    # replicate 21 is the (4, 21) dataset above, whose mode sits on the kink
    row = run_concentration(ExperimentConfig.from_flat(CONCENTRATION_STUDY)).rows[21]
    assert row["ess_ok"] == 1 and row["fail_reason"] == ""
    assert abs(row["gamma"] - 0.968) < 0.005 and row["gamma_se"] < 0.002


# ---------------------------------------------------------------------------
# importance sampling
# ---------------------------------------------------------------------------

def test_importance_matches_conjugate_d5():
    rng = np.random.default_rng(7)
    n, d = 60, 5
    X = rng.uniform(-1, 1, size=(n, d))
    y = X @ rng.normal(scale=0.4, size=d) + rng.standard_normal(n)
    prior = get_prior("gaussian-product", tau_p=1.5)
    est = importance_log_z(GAU, X, y, prior, n_draws=40_000, seed=8)
    conj = conjugate_log_z(X, y, sigma=1.0, tau_p=1.5)
    assert est.method == "importance" and est.ess >= 0.05 * 40_000
    assert abs(est.log_z - conj.log_z) <= 3 * est.standard_error


def test_importance_matches_quadrature_poisson_d3():
    rng = np.random.default_rng(9)
    n, d = 80, 3
    X = rng.uniform(-1, 1, size=(n, d))
    y = rng.poisson(POI.a1(X @ np.array([0.3, -0.2, 0.1]))).astype(float)
    prior = get_prior("laplace-product", kappa=1.0)
    quad = quadrature_log_z(POI, X, y, prior)
    est = importance_log_z(POI, X, y, prior, n_draws=40_000, seed=10)
    assert abs(est.log_z - quad.log_z) <= 3 * est.standard_error


def test_importance_se_shrinks_at_root_two_rate():
    rng = np.random.default_rng(11)
    X = rng.uniform(-1, 1, size=(50, 2))
    y = X @ np.array([0.5, 0.2]) + rng.standard_normal(50)
    prior = get_prior("gaussian-product", tau_p=1.0)
    small = importance_log_z(GAU, X, y, prior, n_draws=20_000, seed=12)
    big = importance_log_z(GAU, X, y, prior, n_draws=40_000, seed=12)
    ratio = big.standard_error / small.standard_error
    assert 0.8 / np.sqrt(2.0) <= ratio <= 1.2 / np.sqrt(2.0)


def test_importance_draw_floor():
    X = np.ones((10, 1))
    prior = get_prior("gaussian-product", tau_p=1.0)
    with pytest.raises(ConfigError):
        importance_log_z(GAU, X, np.zeros(10), prior, n_draws=5000)


def test_importance_ess_guard_fires_loudly():
    # proposal scaled by the likelihood curvature, support cut by a tiny box
    # prior: almost every draw lands outside the box and gets zero weight
    rng = np.random.default_rng(13)
    X = rng.uniform(-1, 1, size=(20, 1))
    y = X[:, 0] + rng.standard_normal(20)
    prior = get_prior("uniform-box", a=-1e-3, b=1e-3)
    with pytest.raises(ReliabilityError):
        importance_log_z(GAU, X, y, prior, n_draws=20_000, seed=14)


# ---------------------------------------------------------------------------
# posterior mass
# ---------------------------------------------------------------------------

def _logistic_instance(seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(100, 2))
    y = (rng.random(100) < LOG.a1(X @ np.array([0.7, -0.3]))).astype(float)
    prior = get_prior("laplace-product", kappa=1.0)
    mode, _ = posterior_mode(LOG, X, y, prior)
    return X, y, prior, mode


def test_posterior_mass_limits_and_monotonicity():
    X, y, prior, mode = _logistic_instance(15)
    ell = default_ellipsoid(mode, 100, c1=4.0)
    huge = ell.scaled(1e6)
    tiny = ell.scaled(1e-8)
    m_huge = posterior_mass(LOG, X, y, prior, huge, n_draws=20_000, seed=16)
    m_tiny = posterior_mass(LOG, X, y, prior, tiny, n_draws=20_000, seed=16)
    assert m_huge.p > 0.999
    assert m_tiny.p < 0.001
    # same seed = same weighted sample: mass is exactly monotone in R
    probs = [posterior_mass(LOG, X, y, prior, ell.scaled(f), n_draws=20_000,
                            seed=16).p for f in (0.25, 1.0, 4.0, 16.0)]
    assert all(a <= b + 1e-15 for a, b in zip(probs, probs[1:]))


def test_posterior_mass_gaussian_matches_exact_posterior_cdf():
    rng = np.random.default_rng(17)
    n, tau = 50, 1.2
    X = rng.uniform(-1, 1, size=(n, 1))
    y = 0.6 * X[:, 0] + rng.standard_normal(n)
    prior = get_prior("gaussian-product", tau_p=tau)
    # exact posterior: N(mu, v) with v = 1/(X'X + 1/tau^2), mu = v X'y
    v = 1.0 / (float(X[:, 0] @ X[:, 0]) + 1.0 / tau**2)
    mu = v * float(X[:, 0] @ y)
    ell = default_ellipsoid(np.array([mu]), n, c1=2.0)
    hw = np.sqrt(ell.threshold / n)
    exact = stats.norm.cdf((mu + hw - mu) / np.sqrt(v)) - stats.norm.cdf((mu - hw - mu) / np.sqrt(v))
    est = posterior_mass(GAU, X, y, prior, ell, n_draws=40_000, seed=18)
    assert abs(est.p - exact) <= 3 * max(est.standard_error, 1e-4)


# ---------------------------------------------------------------------------
# unnormalized posterior evaluator
# ---------------------------------------------------------------------------

def test_log_posterior_unnorm_matches_direct_sum():
    # the Rademacher 30 x 2 design has at most 4 distinct rows, each repeated
    for design in ("uniform", "rademacher"):
        rng = np.random.default_rng(19)
        X = (rng.uniform(-1, 1, size=(30, 2)) if design == "uniform"
             else rng.choice([-1.0, 1.0], size=(30, 2)))
        y = rng.poisson(1.0, size=30).astype(float)
        prior = get_prior("laplace-product", kappa=2.0)
        logf = log_posterior_unnorm(POI, X, y, prior)
        pts = rng.normal(scale=0.3, size=(5, 2))
        vals = logf(pts)
        for k in range(5):
            direct = log_likelihood_full(POI, X, y, pts[k]) + log_density(prior, pts[k])
            assert abs(vals[k] - direct) < 1e-10


# ---------------------------------------------------------------------------
# logistic cumulant kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_softplus_matches_logaddexp(dtype):
    t = np.concatenate([np.linspace(-800.0, 800.0, 40_001),
                        [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 710.0, -745.0]])
    t = t.astype(dtype)
    before = t.copy()
    got = _softplus(t)
    want = np.logaddexp(dtype(0), t)
    assert got.dtype == dtype
    assert np.array_equal(t, before)  # argument not mutated
    ulps = np.abs(got - want) / np.spacing(np.maximum(np.abs(want), np.finfo(dtype).tiny))
    assert ulps.max() <= 4
    assert 0.0 <= got[0] <= np.exp(dtype(-799)) and got[40_000] == dtype(800)  # -+800
    assert abs(got[20_000] - np.log(dtype(2))) <= np.spacing(np.log(dtype(2)))
    zero_d = np.asarray(dtype(0.5))
    assert np.ndim(_softplus(zero_d)) == 0
    assert abs(_softplus(zero_d) - np.logaddexp(dtype(0), zero_d)) <= 4 * np.spacing(dtype(1))


def test_softplus_shapes_and_layouts():
    rng = np.random.default_rng(24)
    T = rng.normal(scale=30.0, size=(300, 70)).T   # non-contiguous input
    assert np.allclose(_softplus(T), np.logaddexp(0.0, T), rtol=1e-15, atol=0)
    assert _softplus(np.empty((0, 3))).shape == (0, 3)
    assert np.array_equal(_softplus(np.array([np.inf, -np.inf])), [np.inf, 0.0])
