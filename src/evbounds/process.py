"""Constants for the stochastic (empirical-process) term.

For GLMs the centered process <y - Ey, X(beta - beta*)> is linear in beta,
so its supremum over a ball or ellipsoid has a closed form; the chaining
bounds are retained only to report theoretical constants.  calibrate_C is
the honest empirical alternative: the (1 - delta_tilde) quantile of the
exact supremum, divided by d.  For independent Gaussian residuals the
squared supremum is a weighted chi-square and the quantile is solved for
with the certified CDF of quadform.prob_ball; any other residual law gets
the order statistic across simulated response draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datagen import derive_rng
from .errors import ConfigError
from .quadform import _ABS_TOL, chi2_ladder, operator_norm, prob_ball


@dataclass(frozen=True)
class ProcessConstants:
    """C such that the centered process stays below C*d off an event of
    probability delta_tilde."""

    C: float
    delta_tilde: float
    source: str  # subgaussian-theory | subexponential-theory | empirical-quantile
    threshold: float | None = None  # sub-exponential: unscaled deviation threshold
    k0: float | None = None
    nu: float | None = None
    # how C was made: gaussian-exact | gaussian-chi2-bound | simulation, or
    # the theory source
    method: str | None = None


def exact_sup(X, residual, rho):
    """sup over ||beta - b*|| <= rho of |<residual, X(beta - b*)>|
    = rho * ||X'residual||  (Cauchy-Schwarz, attained)."""
    X = np.asarray(X, dtype=float)
    residual = np.asarray(residual, dtype=float)
    if X.shape[0] != len(residual):
        raise ConfigError("design/residual length mismatch")
    if rho < 0:
        raise ConfigError("rho must be nonnegative")
    return float(rho * np.linalg.norm(X.T @ residual))


def exact_sup_ellipsoid(X, residual, ell):
    """Exact supremum of the same linear functional over the ellipsoid:
    sqrt(R d) * ||W^{-1/2} X' residual||."""
    X = np.asarray(X, dtype=float)
    residual = np.asarray(residual, dtype=float)
    v = ell.W_inv_sqrt @ (X.T @ residual)
    return float(np.sqrt(ell.threshold * (v @ v)))


def theoretical_C(kind, tau_or_gbar, X, d, n, R, k0=8.0, nu=1.0):
    """Chaining-based constants.

    subgaussian: C = k0 * tau * ||X||_2 * sqrt(R/n), delta_tilde = e^{-d}
    (the sqrt(d) width and the ball radius sqrt(R d / n) combine into a
    bound of C*d).

    subexponential: deviation threshold nu*||X||_2*sqrt(1+d) + gbar*d at
    probability 2 e^{-d}; scaled by the ball radius and divided by d to
    give the coefficient C.  The unscaled threshold is reported too.
    """
    X = np.asarray(X, dtype=float)
    if X.shape != (n, d):
        raise ConfigError(f"X shape {X.shape} does not match (n, d) = {(n, d)}")
    if tau_or_gbar < 0 or R <= 0:
        raise ConfigError("parameters must be positive")
    if not (k0 > 0 and nu > 0):  # a nonpositive scale would flip the bound
        raise ConfigError(f"k0 and nu must be positive, got k0 = {k0!r}, nu = {nu!r}")
    x_op = operator_norm(X)
    if kind == "subgaussian":
        C = k0 * tau_or_gbar * x_op * np.sqrt(R / n)
        return ProcessConstants(C=float(C), delta_tilde=float(np.exp(-d)),
                                source="subgaussian-theory", k0=k0,
                                method="subgaussian-theory")
    if kind == "subexponential":
        threshold = nu * x_op * np.sqrt(1.0 + d) + tau_or_gbar * d
        rho = np.sqrt(R * d / n)
        return ProcessConstants(C=float(rho * threshold / d),
                                delta_tilde=float(2 * np.exp(-d)),
                                source="subexponential-theory",
                                threshold=float(threshold), nu=nu,
                                method="subexponential-theory")
    raise ConfigError(f"unknown tail kind {kind!r}")


def _certified_root(g, lo, hi, rtol):
    """Smallest point found with g >= 0 on [lo, hi], where g is
    nondecreasing and `hi` is already known to be admissible.

    A bracketing secant with the Illinois modification shrinks [lo, hi]
    until hi - lo <= rtol * hi; hi always carries g >= 0 or is the given
    end.  g returns None when it cannot certify its value, and so does
    this function.
    """
    if hi - lo <= rtol * hi:
        return hi
    g_lo, g_hi = g(lo), g(hi)
    if g_lo is None or g_hi is None:
        return None
    if g_lo >= 0:
        return lo
    if g_hi < 0:  # admissible all the same; the root is within rounding of it
        return hi
    side = 0
    while hi - lo > rtol * hi:
        x = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        if not lo < x < hi:  # rounding on a narrow bracket
            x = 0.5 * (lo + hi)
        gx = g(x)
        if gx is None or gx == 0:  # uncertified, or the root itself
            return None if gx is None else x
        if gx > 0:
            hi, g_hi = x, gx
            if side == 1:
                g_lo *= 0.5
            side = 1
        else:
            lo, g_lo = x, gx
            if side == -1:
                g_hi *= 0.5
            side = -1
    return hi


def _chi2_quantile(m, level):
    """x with the certified chi-square_m CDF, F_m(x) - error, at least
    `level` in (3/4, 1), within a relative 1e-12 of the smallest such x.

    F_m(m) < 0.69 < level for every m, and the Laurent-Massart tail bound
    P(chi2_m >= m + 2 sqrt(m L) + 2 L) <= e^{-L} puts the upper end at
    level exactly.
    """
    L = -math.log1p(-level)

    def g(x):
        F, err = chi2_ladder(m, x, 1)
        return float(F[0]) - err - level

    return _certified_root(g, float(m), m + 2.0 * math.sqrt(m * L) + 2.0 * L, 1e-12)


def _gaussian_C(X, ell, variance, delta_tilde):
    """(C, method) for independent Gaussian residuals with these variances.

    The supremum over the ellipsoid is sqrt(R d) ||xi|| with
    xi = W^{-1/2} X' residual ~ N(0, M), M = W^{-1/2} X' diag(v) X W^{-1/2},
    so sup^2 / (R d) is a weighted chi-square with the eigenvalues lam of
    M as weights.  Stochastic ordering brackets its (1 - delta_tilde)
    quantile by lam_min q and lam_max q, q the chi-square_d quantile; the
    root of prob_ball(M, s).p - 1e-8 >= 1 - delta_tilde in between is
    found to a relative 1e-9 and its certified upper end returned, so
    P(sup > C d) <= delta_tilde holds exactly.  When prob_ball cannot
    certify a value, the lam_max end, itself a bound, is returned.
    """
    B = X @ ell.W_inv_sqrt
    M = B.T @ (np.asarray(variance, dtype=float)[:, None] * B)
    M = (M + M.T) / 2.0
    lam = np.linalg.eigvalsh(M)
    if lam[-1] <= 0.0:
        return 0.0, "gaussian-exact"
    level = 1.0 - delta_tilde
    q = _chi2_quantile(ell.d, level)

    def g(s):
        res = prob_ball(M, s)
        return None if res.method == "monte-carlo" else res.p - _ABS_TOL - level

    s_hi = _certified_root(g, max(float(lam[0]), 0.0) * q, float(lam[-1]) * q, 1e-9)
    method = "gaussian-exact"
    if s_hi is None:
        s_hi, method = float(lam[-1]) * q, "gaussian-chi2-bound"
    return math.sqrt(ell.threshold * s_hi) / ell.d, method


def calibrate_C(mechanism, X, ell, n_rep, delta_tilde, seed=0, mean=None):
    """Empirical-quantile C: the (1 - delta_tilde) quantile of the exact
    supremum over the ellipsoid, divided by d.

    A residual law with a `gaussian_variance` gets the quantile itself from
    the weighted chi-square law of the squared supremum (`_gaussian_C`;
    n_rep and seed are not used).  Any other law gets the conservative
    upper order statistic across n_rep simulated response draws.

    The supremum of the centered linear process does not depend on the
    model family or on the fitted center, only on the residual law, the
    design, and the ellipsoid geometry, so those are the only inputs.
    Residuals are drawn around `mean`, the analytic mean of y (by default
    mechanism.mean(X); a submodel on some of the generating design's
    columns passes the generating mean).
    """
    if n_rep < 100:
        raise ConfigError("need n_rep >= 100 to calibrate a quantile")
    if not (0 < delta_tilde < 0.25):
        raise ConfigError("delta_tilde must lie in (0, 1/4)")
    X = np.asarray(X, dtype=float)
    mean = mechanism.mean(X) if mean is None else mean
    variance = mechanism.law.gaussian_variance
    if variance is not None:
        C, method = _gaussian_C(X, ell, variance(mean), delta_tilde)
        return ProcessConstants(C=C, delta_tilde=float(delta_tilde),
                                source="empirical-quantile", method=method)
    sups = np.empty(int(n_rep))
    for r in range(int(n_rep)):
        rng = derive_rng(seed, "calibrate", r)
        sups[r] = exact_sup_ellipsoid(X, mechanism.draw_from_mean(mean, rng) - mean, ell)
    sups.sort()
    q = float(np.quantile(sups, 1.0 - delta_tilde, method="higher"))
    return ProcessConstants(C=q / ell.d, delta_tilde=float(delta_tilde),
                            source="empirical-quantile", method="simulation")
