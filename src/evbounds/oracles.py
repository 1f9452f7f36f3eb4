"""Independent evidence oracles: ground truth for the log-evidence and for
posterior mass, used to validate the bounds rather than to compute them.

All oracles integrate the *full* data density (canonical log-likelihood plus
the family's base measure), so their values are directly comparable with
each other and with closed forms.  All arithmetic is in log space; raw
likelihood products are never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoxError, CapabilityError, ConfigError, ReliabilityError
from .pseudotrue import _cho_solve, _cholesky, newton_ascent

_ESS_FLOOR = 0.05
_QUAD_TOL = 1e-6
_BOUNDARY_LOG_TOL = np.log(1e-10)


@dataclass(frozen=True)
class EvidenceEstimate:
    log_z: float
    standard_error: float
    method: str
    n_evals: int
    ess: float | None = None


# doubles per u-by-k block of linear predictors (512 KB), u the number of
# distinct design rows.  The cumulant kernels hold at most two such blocks
# at once, the predictors and their cumulants, and at this size both stay
# in cache: blocks of 1e6 doubles ran the kernels 2-4x slower.
_CHUNK_DOUBLES = 2**16


def _chunk_points(n):
    return max(1, int(_CHUNK_DOUBLES // max(1, n)))


def _distinct_rows(X):
    """(rows, counts): the distinct rows of X and how often each occurs.

    A(beta) = sum_i a(x_i'beta) depends on the design only through these,
    A(beta) = sum_u m_u a(x_u'beta), so a design whose rows repeat (a
    Rademacher design of small d) costs one cumulant per distinct row.
    """
    rows, counts = np.unique(X, axis=0, return_counts=True)
    return rows, counts.astype(float)


def _cumulant_sum(family, rows, counts, points):
    """A(beta) = sum_u m_u a(x_u'beta) for each row beta of `points`."""
    return counts @ family.a(rows @ points.T)


def log_posterior_unnorm(family, X, y, prior):
    """Callable evaluating log{ p(y|beta) pi(beta) } on rows of points.

    Canonical form: log p(y|beta) = (X'y)'beta - A(beta) + base(y), so the
    response enters only through s = X'y and the base measure, and the
    design through its distinct rows and their counts (`_distinct_rows`).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    s = X.T @ y
    base = family.log_base_measure(y)
    rows, counts = _distinct_rows(X)
    chunk = _chunk_points(rows.shape[0])

    def logf(points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = points @ s
        for k in range(0, points.shape[0], chunk):
            out[k:k + chunk] -= _cumulant_sum(family, rows, counts, points[k:k + chunk])
        with np.errstate(invalid="ignore"):
            out += np.sum(prior.logpdf(points), axis=1)
        return out + base

    return logf


def log_target_curvature(family, X, prior, beta):
    """-(Hessian of the log target) at beta: X' diag(a''(X beta)) X plus the
    prior precision, capped for kinked priors.

    It does not depend on the response, so one curvature serves every
    dataset drawn on a design.
    """
    t = X @ beta
    curvature = (X * family.a2(t)[:, None]).T @ X
    prior_prec = -prior.d2(beta)
    if prior.curvature_cap is not None:
        prior_prec = np.minimum(prior_prec, prior.curvature_cap)
    return curvature + np.diag(prior_prec)


def posterior_mode(family, X, y, prior, tol=None, max_iter=200):
    """Posterior mode by `pseudotrue.newton_ascent` on log-likelihood plus
    log-prior: a point pinned at a prior kink or a box face is returned.

    Returns (mode, curvature) with curvature = -(Hessian of the log target)
    at the mode (`log_target_curvature`).  The mode is only a centering
    device for quadrature boxes and proposals; its tolerance is looser than
    the pseudo-true solver's.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if tol is None:
        tol = 1e-6 * (1 + X.shape[0])
    mode = newton_ascent(family, X, y, tol, max_iter, prior=prior).beta_star
    return mode, log_target_curvature(family, X, prior, mode)


def conjugate_log_z(X, y, sigma, tau_p):
    """Closed-form evidence for the Gaussian model with a Gaussian-product
    prior: y ~ N(0, sigma^2 I + tau_p^2 X X'), exact.

    Evaluated through the low-rank determinant and inversion identities
    (the covariance has rank-d structure), so cost is O(n d^2) and large-n
    scans never materialize an n-by-n matrix:

        log|s^2 I + t^2 X X'| = n log s^2 + log|I_d + (t/s)^2 X'X|
        y' Cov^{-1} y = (y'y - (t/s)^2 y'X (I_d + (t/s)^2 X'X)^{-1} X'y) / s^2
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if sigma <= 0 or tau_p < 0:
        raise ConfigError("sigma must be > 0 and tau_p >= 0")
    n, d = X.shape
    r2 = (tau_p / sigma) ** 2
    A = np.eye(d) + r2 * (X.T @ X)
    L = _cholesky(A, error="marginal covariance is not positive definite")
    log_det = n * np.log(sigma**2) + 2.0 * np.sum(np.log(np.diag(L)))
    z = X.T @ y
    quad = (float(y @ y) - r2 * float(z @ _cho_solve(L, z))) / sigma**2
    log_z = -0.5 * (n * np.log(2 * np.pi) + log_det + quad)
    return EvidenceEstimate(log_z=float(log_z), standard_error=0.0,
                            method="conjugate", n_evals=1)


# ---------------------------------------------------------------------------
# tensor-product quadrature (d <= 3)
# ---------------------------------------------------------------------------

def _panel_nodes(lo, hi, interior_kinks, n_nodes, min_nodes):
    """Gauss-Legendre nodes/log-weights on [lo, hi], with panels split at
    interior kink points so the integrand is smooth per panel; each panel
    gets its share of n_nodes, and at least min_nodes."""
    cuts = [lo] + [k for k in sorted(interior_kinks) if lo < k < hi] + [hi]
    lengths = np.diff(cuts)
    alloc = np.maximum(min_nodes, np.round(n_nodes * lengths / lengths.sum()).astype(int))
    nodes, logw = [], []
    for (a, b), k in zip(zip(cuts[:-1], cuts[1:]), alloc):
        x, w = np.polynomial.legendre.leggauss(int(k))
        nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
        logw.append(np.log(w) + np.log(0.5 * (b - a)))
    return np.concatenate(nodes), np.concatenate(logw)


def _check_quadrature_args(d, box_halfwidth, n_nodes_per_dim):
    if d > 3:
        raise CapabilityError("tensor quadrature supports d <= 3; use importance_log_z")
    if box_halfwidth < 12:
        raise ConfigError("box_halfwidth must be >= 12 posterior sd units")
    # level k gives each panel at least 8 * 2^k nodes, so a value below 8
    # would be silently replaced by the floor
    if n_nodes_per_dim < 8:
        raise ConfigError(f"n_nodes_per_dim must be at least 8, got {n_nodes_per_dim!r}")


class QuadratureGrid:
    """Tensor-product Gauss-Legendre quadrature (d <= 3) on the box
    centre +- box_halfwidth posterior sd, panels split at prior kinks, for
    any number of responses on one design.

    In canonical form the log integrand is s'beta + G(beta) + base(y) with
    s = X'y and G = -A + log prior free of y.  Each node-doubling level
    stores G and the log weights on its grid once, built when first needed;
    `log_z(y)` then costs one pass over the grid per level.  Nodes are kept
    per axis: the linear term is a broadcast outer sum.
    """

    def __init__(self, family, X, prior, centre, curvature, box_halfwidth=12.0,
                 n_nodes_per_dim=32):
        self.X = np.asarray(X, dtype=float)
        d = self.X.shape[1]
        _check_quadrature_args(d, box_halfwidth, n_nodes_per_dim)
        self._rows, self._counts = _distinct_rows(self.X)
        L = _cholesky(curvature + 1e-12 * np.trace(curvature) / d * np.eye(d),
                      error="posterior curvature not positive definite at the centre")
        sd = np.sqrt(np.diag(_cho_solve(L, np.eye(d))))
        centre = np.asarray(centre, dtype=float)
        self.family, self.prior = family, prior
        self.box_halfwidth = float(box_halfwidth)
        self.los = centre - box_halfwidth * sd
        self.his = centre + box_halfwidth * sd
        self.n_nodes_per_dim = int(n_nodes_per_dim)
        self._levels = []

    def _level(self, k):
        """(per-axis nodes, G, log weights) at n_nodes_per_dim * 2^k nodes.

        The per-panel floor doubles with the level too, so every panel
        between prior kinks grows from one level to the next and the
        node-doubling check compares refined values on each of them."""
        while len(self._levels) <= k:
            scale = 2 ** len(self._levels)
            axes = [_panel_nodes(lo, hi, self.prior.kinks, self.n_nodes_per_dim * scale,
                                 8 * scale)
                    for lo, hi in zip(self.los, self.his)]
            nodes = [a[0] for a in axes]
            shape = tuple(len(x) for x in nodes)
            G = np.zeros(shape)
            logW = np.zeros(shape)
            for dim, (x, lw) in enumerate(axes):
                axis_shape = [-1 if j == dim else 1 for j in range(len(shape))]
                with np.errstate(invalid="ignore"):
                    G += self.prior.logpdf(x).reshape(axis_shape)
                logW += lw.reshape(axis_shape)
            flat_G = G.reshape(-1)
            chunk = _chunk_points(self._rows.shape[0])
            for start in range(0, flat_G.size, chunk):
                idx = np.unravel_index(np.arange(start, min(start + chunk, flat_G.size)), shape)
                points = np.stack([x[i] for x, i in zip(nodes, idx)], axis=-1)
                flat_G[start:start + chunk] -= _cumulant_sum(self.family, self._rows,
                                                             self._counts, points)
            self._levels.append((nodes, G, logW))
        return self._levels[k]

    def _level_log_z(self, k, s, base):
        """log integral at level k; returns (log_z, max of the log integrand
        on its box boundary minus its overall max, number of nodes)."""
        nodes, G, logW = self._level(k)
        logF = G + base
        for dim, x in enumerate(nodes):
            logF += (s[dim] * x).reshape([-1 if j == dim else 1 for j in range(G.ndim)])
        top = float(logF.max())
        boundary = max(float(logF[(slice(None),) * dim + (end,)].max())
                       for dim in range(G.ndim) for end in (0, -1))
        logF += logW
        m = float(logF.max())
        if not np.isfinite(m):
            return m, boundary - top, G.size
        logF -= m
        np.exp(logF, out=logF)
        return m + float(np.log(logF.sum())), boundary - top, G.size

    def log_z(self, y):
        """Evidence for response y, certified by node-doubling agreement
        below 1e-6; a box whose boundary carries non-negligible integrand
        mass raises BoxError with a suggested halfwidth."""
        y = np.asarray(y, dtype=float)
        s = self.X.T @ y
        base = self.family.log_base_measure(y)
        prev, _, total_evals = self._level_log_z(0, s, base)
        for k in range(1, 4):
            cur, boundary_gap, evals = self._level_log_z(k, s, base)
            total_evals += evals
            if abs(cur - prev) < _QUAD_TOL:
                if boundary_gap > _BOUNDARY_LOG_TOL:
                    raise BoxError(
                        f"integrand mass on the box boundary (log gap "
                        f"{boundary_gap:.2f}); enlarge the box",
                        suggested_halfwidth=1.5 * self.box_halfwidth)
                return EvidenceEstimate(log_z=float(cur), standard_error=0.0,
                                        method="quadrature", n_evals=total_evals)
            prev = cur
        raise ReliabilityError(
            f"quadrature failed to certify {_QUAD_TOL:g} agreement after node doubling")


def quadrature_log_z(family, X, y, prior, box_halfwidth=12.0, n_nodes_per_dim=32):
    """Deterministic evidence for d <= 3 by tensor-product Gauss-Legendre
    quadrature on a box centred at this response's posterior mode; see
    QuadratureGrid for the certificate.  To integrate many responses on one
    design, build one QuadratureGrid and call its `log_z`.
    """
    X = np.asarray(X, dtype=float)
    _check_quadrature_args(X.shape[1], box_halfwidth, n_nodes_per_dim)
    mode, curv = posterior_mode(family, X, y, prior)
    grid = QuadratureGrid(family, X, prior, mode, curv, box_halfwidth, n_nodes_per_dim)
    return grid.log_z(y)


# ---------------------------------------------------------------------------
# importance sampling (moderate d)
# ---------------------------------------------------------------------------

_PROPOSAL_DF = 5.0
_PROPOSAL_INFLATION = 1.5


def _importance_sample(family, X, y, prior, n_draws, seed):
    """Multivariate-t proposal at the posterior mode; returns draws, shifted
    log-weights and diagnostics."""
    if n_draws < 10_000:
        raise ConfigError("need n_draws >= 10000 for a usable estimate")
    X = np.asarray(X, dtype=float)
    d = X.shape[1]
    mode, curv = posterior_mode(family, X, y, prior)
    shape = _PROPOSAL_INFLATION * _cho_solve(_cholesky(curv, lift=True), np.eye(d))
    shape = (shape + shape.T) / 2
    L = _cholesky(shape)
    log_det_shape = 2.0 * np.sum(np.log(np.diag(L)))

    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    nu = _PROPOSAL_DF
    z = rng.standard_normal((int(n_draws), d))
    g = rng.chisquare(nu, size=int(n_draws))
    draws = mode + (z @ L.T) / np.sqrt(g / nu)[:, None]

    delta = np.linalg.solve(L, (draws - mode).T)
    maha_sq = np.sum(delta * delta, axis=0)
    log_q = (math.lgamma((nu + d) / 2) - math.lgamma(nu / 2) - 0.5 * d * np.log(nu * np.pi)
             - 0.5 * log_det_shape - 0.5 * (nu + d) * np.log1p(maha_sq / nu))
    logf = log_posterior_unnorm(family, X, y, prior)
    lw = logf(draws) - log_q
    lw_max = float(lw.max())
    ws = np.exp(lw - lw_max)  # shifted weights, max = 1
    ess = float(ws.sum() ** 2 / (ws @ ws))
    if ess < _ESS_FLOOR * n_draws:
        raise ReliabilityError(
            f"effective sample size {ess:.1f} below floor "
            f"{_ESS_FLOOR:.0%} of {n_draws} draws; estimate not returned")
    return draws, lw_max, ws, ess


def importance_log_z(family, X, y, prior, n_draws=20_000, seed=0):
    """Evidence by importance sampling with a heavy-tailed elliptical
    proposal; delta-method standard error on the log scale."""
    draws, lw_max, ws, ess = _importance_sample(family, X, y, prior, n_draws, seed)
    n = len(ws)
    mean_w = float(ws.mean())
    log_z = lw_max + np.log(mean_w)
    se = float(ws.std(ddof=1) / (mean_w * np.sqrt(n)))
    return EvidenceEstimate(log_z=float(log_z), standard_error=se,
                            method="importance", n_evals=int(n), ess=ess)


def posterior_mass(family, X, y, prior, ell, n_draws=20_000, seed=0):
    """Self-normalized importance-sampling estimate of the posterior mass of
    the ellipsoid, with its standard error."""
    from .quadform import ProbResult  # local import to avoid cycle at module load
    draws, _, ws, ess = _importance_sample(family, X, y, prior, n_draws, seed)
    member = (ell.mahalanobis(draws) <= ell.threshold).astype(float)
    sw = float(ws.sum())
    p = float((ws @ member) / sw)
    se = float(np.sqrt(np.sum((ws * (member - p)) ** 2)) / sw)
    return ProbResult(p=p, standard_error=se, method="importance-sampling")
