"""Reference computations the benchmark checks the program against.

Everything here is written from the model definitions, not from the
program's code: exact Gaussian evidence by dense Cholesky and by thin SVD,
Gaussian and logistic log-likelihoods, a lattice (Riemann-sum) evidence
integral, an importance-sampling posterior mass with a multivariate-t
proposal unlike the program's, and a binomial quantile.  Only numpy and
scipy.special are used.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# log-likelihoods (full densities, including the base measure)
# ---------------------------------------------------------------------------

def gaussian_loglik(X, y, beta, sigma=1.0):
    r = y - X @ beta
    n = len(y)
    return float(-0.5 * (r @ r) / sigma**2 - 0.5 * n * (LOG_2PI + 2.0 * math.log(sigma)))


def logistic_loglik_on_points(X, y, points, chunk_pairs=4_000_000):
    """Logistic log-likelihood of each row of `points` (k x d)."""
    points = np.atleast_2d(points)
    out = np.empty(points.shape[0])
    step = max(1, chunk_pairs // X.shape[0])
    for s in range(0, points.shape[0], step):
        T = X @ points[s:s + step].T                       # n x k
        out[s:s + step] = y @ T - np.logaddexp(0.0, T).sum(axis=0)
    return out


def log_prior_on_points(prior, params, points):
    points = np.atleast_2d(points)
    d = points.shape[1]
    if prior == "laplace-product":
        kappa = float(params.get("kappa", 1.0))
        return d * math.log(kappa / 2.0) - kappa * np.abs(points).sum(axis=1)
    if prior == "gaussian-product":
        tau = float(params.get("tau_p", 1.0))
        return -0.5 * (points**2).sum(axis=1) / tau**2 - 0.5 * d * (LOG_2PI + 2 * math.log(tau))
    raise ValueError(f"no reference prior for {prior!r}")


# ---------------------------------------------------------------------------
# exact Gaussian evidence: y ~ N(0, sigma^2 I + tau^2 X X')
# ---------------------------------------------------------------------------

def gaussian_evidence_dense(X, y, sigma, tau):
    """Log density of y under the marginal covariance, formed densely
    (for n up to a few thousand)."""
    n = len(y)
    S = sigma**2 * np.eye(n) + tau**2 * (X @ X.T)
    L = np.linalg.cholesky(S)
    z = np.linalg.solve(L, y)
    return float(-0.5 * (n * LOG_2PI + 2.0 * np.log(np.diag(L)).sum() + z @ z))


def gaussian_evidence_svd(X, y, sigma, tau):
    """The same density through the thin SVD X = U S V': the covariance has
    eigenvalues sigma^2 + tau^2 s_j^2 on span(U) and sigma^2 elsewhere."""
    n, _ = X.shape
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    lam = sigma**2 + tau**2 * s**2
    u = U.T @ y
    yy = float(y @ y)
    quad = (yy - float(u @ u)) / sigma**2 + float(np.sum(u**2 / lam))
    log_det = (n - len(s)) * 2.0 * math.log(sigma) + float(np.log(lam).sum())
    return -0.5 * (n * LOG_2PI + log_det + quad)


# ---------------------------------------------------------------------------
# logistic Newton fit (centering for the lattice and the proposal)
# ---------------------------------------------------------------------------

def logistic_mle(X, y, iters=50):
    """Newton's method for the logistic MLE; returns (beta, observed
    information)."""
    beta = np.zeros(X.shape[1])
    for _ in range(iters):
        mu = 0.5 * (1.0 + np.tanh(0.5 * (X @ beta)))
        info = (X * (mu * (1.0 - mu))[:, None]).T @ X
        step = np.linalg.solve(info, X.T @ (y - mu))
        beta = beta + step
        if np.max(np.abs(step)) < 1e-12:
            break
    mu = 0.5 * (1.0 + np.tanh(0.5 * (X @ beta)))
    return beta, (X * (mu * (1.0 - mu))[:, None]).T @ X


# ---------------------------------------------------------------------------
# lattice evidence
# ---------------------------------------------------------------------------

def lattice_log_evidence(X, y, prior, prior_params, halfwidth=10.0, h_sd=0.5):
    """log of the integral of logistic likelihood x prior, as a Riemann sum
    on the lattice centred at the MLE with step h_sd posterior sd per axis,
    out to +- halfwidth sd.  For a smooth integrand that decays fast this
    converges geometrically in 1/h."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    center, info = logistic_mle(X, y)
    sd = np.sqrt(np.diag(np.linalg.inv(info)))
    steps = np.arange(-math.ceil(halfwidth / h_sd), math.ceil(halfwidth / h_sd) + 1) * h_sd
    mesh = np.meshgrid(*[c + s * steps for c, s in zip(center, sd)], indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    logf = logistic_loglik_on_points(X, y, pts) + log_prior_on_points(prior, prior_params, pts)
    return float(logsumexp(logf)) + float(np.log(h_sd * sd).sum())


# ---------------------------------------------------------------------------
# posterior mass of a ball, by importance sampling
# ---------------------------------------------------------------------------

def ball_posterior_mass(X, y, prior, prior_params, center, radius_sq,
                        n_draws, seed, df=3.0, inflation=2.0):
    """Self-normalized importance estimate, for the logistic model, of
    P(||beta - center||^2 <= radius_sq | y), with a multivariate-t(df)
    proposal centred at the MLE
    with scale inflation * (observed information)^-1.  Returns (p, se)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    mle, info = logistic_mle(X, y)
    d = len(mle)
    L = np.linalg.cholesky(inflation * np.linalg.inv(info))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_draws, d))
    g = rng.chisquare(df, size=n_draws)
    draws = mle + (z @ L.T) / np.sqrt(g / df)[:, None]
    u = np.linalg.solve(L, (draws - mle).T)
    log_q = -0.5 * (df + d) * np.log1p(np.sum(u * u, axis=0) / df)   # up to a constant
    lw = (logistic_loglik_on_points(X, y, draws)
          + log_prior_on_points(prior, prior_params, draws) - log_q)
    w = np.exp(lw - lw.max())
    inside = (np.sum((draws - center) ** 2, axis=1) <= radius_sq).astype(float)
    sw = float(w.sum())
    p = float(w @ inside / sw)
    se = float(np.sqrt(np.sum((w * (inside - p)) ** 2)) / sw)
    return p, se


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

MISS_ALPHA = 1e-6


def binomial_lower_quantile(n, rate, alpha=MISS_ALPHA):
    """Smallest k with P(Bin(n, rate) <= k) >= alpha: fewer hits than this
    happen with probability below alpha when the true rate is `rate`."""
    cdf = 0.0
    for k in range(n + 1):
        cdf += math.comb(n, k) * rate**k * (1.0 - rate) ** (n - k)
        if cdf >= alpha:
            return k
    return n
