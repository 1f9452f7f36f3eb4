"""Constants for the stochastic (empirical-process) term.

For GLMs the centered process <y - Ey, X(beta - beta*)> is linear in beta,
so its supremum over a ball or ellipsoid has a closed form; the chaining
bounds are retained only to report theoretical constants.  calibrate_C is
the honest empirical alternative: the (1 - delta_tilde) quantile of the
exact supremum across simulated response draws, divided by d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import derive_rng
from .errors import ConfigError
from .quadform import operator_norm


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
                                source="subgaussian-theory", k0=k0)
    if kind == "subexponential":
        threshold = nu * x_op * np.sqrt(1.0 + d) + tau_or_gbar * d
        rho = np.sqrt(R * d / n)
        return ProcessConstants(C=float(rho * threshold / d),
                                delta_tilde=float(2 * np.exp(-d)),
                                source="subexponential-theory",
                                threshold=float(threshold), nu=nu)
    raise ConfigError(f"unknown tail kind {kind!r}")


def calibrate_C(mechanism, X, ell, n_rep, delta_tilde, seed=0, mean=None):
    """Empirical-quantile C: simulate response draws from the mechanism,
    take the (1 - delta_tilde) quantile (conservative upper order statistic)
    of the exact supremum over the ellipsoid, divide by d.

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
    sups = np.empty(int(n_rep))
    for r in range(int(n_rep)):
        rng = derive_rng(seed, "calibrate", r)
        sups[r] = exact_sup_ellipsoid(X, mechanism.draw_from_mean(mean, rng) - mean, ell)
    sups.sort()
    q = float(np.quantile(sups, 1.0 - delta_tilde, method="higher"))
    return ProcessConstants(C=q / ell.d, delta_tilde=float(delta_tilde),
                            source="empirical-quantile")
