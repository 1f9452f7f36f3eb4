"""Designs, mechanisms, tail certificates, and stream derivation."""

import numpy as np
import pytest
from scipy.special import ndtr

from evbounds import (
    ConfigError,
    derive_rng,
    derive_seed,
    get_mechanism,
    make_design,
    replicate_rng,
)


def test_derive_seed_stable_and_path_sensitive():
    a = derive_seed(7, "replicate", 3)
    assert a == derive_seed(7, "replicate", 3)
    assert a != derive_seed(7, "replicate", 4)
    assert a != derive_seed(8, "replicate", 3)
    assert a != derive_seed(7, "calibrate", 3)


def test_streams_are_order_free_and_isolated():
    r5_first = replicate_rng(1, 5).standard_normal(4)
    _ = replicate_rng(1, 0).standard_normal(100)  # interleave another stream
    r5_again = replicate_rng(1, 5).standard_normal(4)
    assert np.array_equal(r5_first, r5_again)
    assert replicate_rng(1, 5).standard_normal(1) != replicate_rng(1, 6).standard_normal(1)


def test_replicate_rng_is_the_named_stream():
    assert np.array_equal(replicate_rng(3, 2).standard_normal(8),
                          derive_rng(3, "replicate", 2).standard_normal(8))


@pytest.mark.parametrize("kind", ["rademacher", "uniform", "fixed-grid",
                                  "first-column-intercept"])
def test_designs_bounded_full_rank_deterministic(kind):
    X = make_design(60, 4, kind, seed=5)
    assert X.shape == (60, 4)
    assert np.max(np.abs(X)) <= 1.0 + 1e-12
    assert np.linalg.matrix_rank(X) == 4
    assert np.array_equal(X, make_design(60, 4, kind, seed=5))


def test_design_specifics():
    assert np.all(make_design(3, 1, "first-column-intercept")[:, 0] == 1.0)
    # fixed-grid ignores the seed entirely
    assert np.array_equal(make_design(20, 3, "fixed-grid", seed=1),
                          make_design(20, 3, "fixed-grid", seed=2))
    with pytest.raises(ConfigError):
        make_design(3, 5, "uniform")
    with pytest.raises(ConfigError):
        make_design(10, 2, "latin-hypercube")


def test_probit_truth_mean_is_normal_cdf():
    mech = get_mechanism("probit-truth", beta0=[0.5])
    X = np.ones((6, 1))
    assert np.allclose(mech.mean(X), ndtr(0.5))
    assert abs(mech.mean(X)[0] - 0.6915) < 5e-5


def test_poisson_truth_at_zero_parameter_has_unit_mean():
    mech = get_mechanism("glm-well-specified", family="poisson", beta0=[0.0, 0.0])
    X = make_design(30, 2, "uniform", seed=0)
    assert np.allclose(mech.mean(X), 1.0)


def test_hetero_gaussian_tau_is_max_sigma():
    mech = get_mechanism("hetero-gaussian", beta0=[0.1], sigmas=[1.0, 2.0])
    X = np.ones((10, 1))
    tail = mech.tail(X)
    assert tail.kind == "subgaussian" and tail.tau == 2.0
    # sigma profile tiles across observations
    draws = np.array([mech.draw(X, np.random.default_rng(s)) for s in range(4000)])
    sd = draws.std(axis=0)
    assert np.allclose(sd[0::2], 1.0, atol=0.08)
    assert np.allclose(sd[1::2], 2.0, atol=0.16)


def test_glm_tail_certificates():
    X = make_design(50, 2, "uniform", seed=1)
    g = get_mechanism("glm-well-specified", family="gaussian", beta0=[0.2, 0.1])
    assert g.tail(X).tau == 1.0
    l = get_mechanism("glm-well-specified", family="logistic", beta0=[0.2, 0.1])
    assert l.tail(X).tau == 0.5
    p = get_mechanism("glm-well-specified", family="poisson", beta0=[0.2, 0.1])
    tail = p.tail(X)
    assert tail.kind == "subexponential"
    assert abs(tail.nu - np.sqrt(2 * p.mean(X).max())) < 1e-12
    assert tail.gbar == 2.0 / 3.0


def test_negbin_tail_bound_dominates_true_mgf():
    mech = get_mechanism("negbin-truth", beta0=[0.4, -0.1], size=3.0)
    X = make_design(25, 2, "uniform", seed=2)
    tail = mech.tail(X)
    assert tail.kind == "subexponential"
    m = mech.mean(X)
    r = 3.0
    for i in (0, 12, 24):
        p = r / (r + m[i])
        for s in np.linspace(-1 / tail.gbar, 1 / tail.gbar, 9):
            if abs(s) < 1e-12 or s >= np.log1p(r / m[i]):
                continue
            log_mgf_centered = r * (np.log(p) - np.log1p(-(1 - p) * np.exp(s))) - s * m[i]
            assert log_mgf_centered <= s**2 * tail.nu**2 / 2 + 1e-12


def test_mechanism_draw_means_match_analytic_mean():
    X = make_design(200, 2, "uniform", seed=3)
    for name, params in [
        ("glm-well-specified", {"family": "poisson", "beta0": [0.3, -0.2]}),
        ("probit-truth", {"beta0": [0.5, 0.2]}),
        ("negbin-truth", {"beta0": [0.3, -0.2], "size": 4.0}),
    ]:
        mech = get_mechanism(name, **params)
        draws = np.stack([mech.draw(X, derive_rng(0, name, r)) for r in range(600)])
        err = np.abs(draws.mean(axis=0) - mech.mean(X))
        sd = draws.std(axis=0).max() + 1e-9
        assert err.max() < 5 * sd / np.sqrt(600), err.max()


def test_unknown_mechanism_raises():
    with pytest.raises(ConfigError):
        get_mechanism("cauchy-truth", beta0=[0.0])
