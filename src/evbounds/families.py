"""GLM families as data: cumulant, derivatives, curvature-rate certificate.

A family bundles the canonical-link cumulant a(t) with its first two
derivatives, a certified lower-rate function r for the local expansion

    a(t + h) >= a(t) + h * a'(t) + r(|h|) * a''(t) / 2,

the coefficients (r1, r2) of the small-increment envelope
r(h) >= h^2 / (r1 + r2 * h), exact per-interval extremes of a'' (used by the
curvature certificates), the base-measure term that upgrades the
canonical log-likelihood to a full log-density (needed when comparing
against closed-form evidence), and the family's response law: a sampler,
a certified residual tail and the response domain.

All callables are dtype-preserving numpy ufunc compositions so the grid
certification can run in extended precision.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class TailBound:
    """Certified residual tail: either sub-Gaussian with parameter tau, or
    sub-exponential with (nu, gbar) valid in E exp(s(y-Ey)) <= exp(s^2 nu^2/2)
    for |s| <= 1/g_i, gbar = max_i g_i."""

    kind: str  # "subgaussian" | "subexponential"
    tau: float | None = None
    nu: float | None = None
    gbar: float | None = None


def _sigmoid(t):
    # stable two-branch logistic, dtype preserving (scipy.expit is float64-only)
    t = np.asarray(t)
    out = np.empty_like(t, dtype=t.dtype if t.dtype.kind == "f" else np.float64)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


_SOFTPLUS_BLOCK = 16384  # elements per pass: the scratch block stays in cache


def _softplus(t):
    # log(1 + e^t) = max(t, 0) + log1p(e^-|t|), in place block by block:
    # one output array and a cache-sized scratch buffer, no full-size
    # temporaries (the likelihood kernels budget two arrays of t's size).
    # dtype preserving, so the rate certification can run it in longdouble.
    t = np.asarray(t)
    if t.dtype.kind != "f":
        t = t.astype(float)
    out = np.empty(t.shape, dtype=t.dtype)
    flat_t, flat_out = np.ravel(t), out.reshape(-1)
    buf = np.empty(min(flat_t.size, _SOFTPLUS_BLOCK), dtype=t.dtype)
    for s in range(0, flat_t.size, _SOFTPLUS_BLOCK):
        tb, ob = flat_t[s:s + _SOFTPLUS_BLOCK], flat_out[s:s + _SOFTPLUS_BLOCK]
        b = buf[:tb.size]
        np.abs(tb, out=b)
        np.negative(b, out=b)
        np.exp(b, out=b)
        np.log1p(b, out=b)
        np.maximum(tb, 0, out=ob)
        ob += b
    return out[()]


def _half_square(t):
    t = np.asarray(t)
    out = np.square(t)
    out *= 0.5
    return out


@dataclass(frozen=True)
class GlmFamily:
    """A one-parameter exponential family in canonical form.

    Attributes
    ----------
    name : str
    a, a1, a2 : vectorized cumulant and its first/second derivatives
    rate : certified rate function r(h), defined for h >= 0
    rate_coeffs : (r1, r2) with r(h) >= h^2 / (r1 + r2*h)
    a2_extremes : (lo, hi) arrays -> (min, max) of a'' over each [lo_i, hi_i]
    log_base_measure : y -> sum of log h(y_i); canonical + this = full density
    mean_ok : elementwise predicate for means in the family's open range
    sample : (mean vector, rng) -> responses drawn from the family at that mean
    tail : mean vector -> TailBound certified for the residuals y - mean
    response_domain : (lo, hi), the closed range every response lies in
    linpred_cap : if set, line searches reject |x'beta| beyond this (overflow
        guard for exp-type cumulants)
    gaussian_variance : mean vector -> per-observation variances when the
        residuals y - mean are independent Gaussians; None for other laws
    """

    name: str
    a: Callable
    a1: Callable
    a2: Callable
    rate: Callable
    rate_coeffs: tuple
    a2_extremes: Callable
    log_base_measure: Callable
    mean_ok: Callable
    sample: Callable
    tail: Callable
    response_domain: tuple
    linpred_cap: float | None = None
    gaussian_variance: Callable | None = None


def _logistic_a2_extremes(lo, hi):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    w = lambda t: _sigmoid(t) * _sigmoid(-t)
    wlo, whi = w(lo), w(hi)
    # w is unimodal with peak 1/4 at 0
    straddles = (lo <= 0) & (hi >= 0)
    v_sq = np.where(straddles, 0.25, np.maximum(wlo, whi))
    u_sq = np.minimum(wlo, whi)
    return u_sq, v_sq


def gaussian_family():
    return GlmFamily(
        name="gaussian",
        a=_half_square,
        a1=lambda t: np.asarray(t),
        a2=lambda t: np.ones_like(np.asarray(t, dtype=float)
                                  if np.asarray(t).dtype.kind != "f"
                                  else np.asarray(t)),
        rate=lambda h: np.asarray(h) ** 2,
        rate_coeffs=(1.0, 0.0),
        a2_extremes=lambda lo, hi: (np.ones_like(np.asarray(lo, dtype=float)),
                                    np.ones_like(np.asarray(hi, dtype=float))),
        log_base_measure=lambda y: float(
            -0.5 * np.sum(np.asarray(y, dtype=float) ** 2)
            - 0.5 * len(np.atleast_1d(y)) * np.log(2 * np.pi)),
        mean_ok=lambda m: np.isfinite(m),
        sample=lambda m, rng: m + rng.standard_normal(len(m)),
        tail=lambda m: TailBound("subgaussian", tau=1.0),
        response_domain=(-np.inf, np.inf),
        gaussian_variance=lambda m: np.ones(len(m)),
    )


def logistic_family():
    return GlmFamily(
        name="logistic",
        a=_softplus,
        a1=_sigmoid,
        a2=lambda t: _sigmoid(t) * _sigmoid(-np.asarray(t)),
        rate=lambda h: np.asarray(h) ** 2 / (np.asarray(h) + 2),
        rate_coeffs=(2.0, 1.0),
        a2_extremes=_logistic_a2_extremes,
        log_base_measure=lambda y: 0.0,
        mean_ok=lambda m: (np.asarray(m) > 0) & (np.asarray(m) < 1),
        sample=lambda m, rng: (rng.random(len(m)) < m).astype(float),
        # bounded in [0,1]: Hoeffding tau = (b-a)/2
        tail=lambda m: TailBound("subgaussian", tau=0.5),
        response_domain=(0.0, 1.0),
    )


def poisson_family():
    return GlmFamily(
        name="poisson",
        a=np.exp,
        a1=np.exp,
        a2=np.exp,
        rate=lambda h: np.asarray(h) ** 2 / (1 + np.asarray(h)),
        rate_coeffs=(1.0, 1.0),
        a2_extremes=lambda lo, hi: (np.exp(np.asarray(lo, dtype=float)),
                                    np.exp(np.asarray(hi, dtype=float))),
        log_base_measure=lambda y: -math.fsum(
            map(math.lgamma, (np.asarray(y, dtype=float).ravel() + 1).tolist())),
        mean_ok=lambda m: np.asarray(m) > 0,
        sample=lambda m, rng: rng.poisson(m).astype(float),
        # Bernstein: log MGF of y-m is m(e^s - 1 - s) <= s^2 m for |s| <= 3/2
        tail=lambda m: TailBound("subexponential", nu=float(np.sqrt(2 * m.max())),
                                 gbar=2.0 / 3.0),
        response_domain=(0.0, np.inf),
        linpred_cap=50.0,
    )


_REGISTRY = {
    "gaussian": gaussian_family,
    "logistic": logistic_family,
    "poisson": poisson_family,
}


def get_family(name):
    """Look up a shipped family by name."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise DomainError(f"unknown family {name!r}; known: {sorted(_REGISTRY)}")


def with_rate(family, rate, rate_coeffs):
    """Return a copy of `family` carrying a different candidate rate function
    (useful for certifying or refuting alternative rates)."""
    return dataclasses.replace(family, rate=rate, rate_coeffs=tuple(rate_coeffs))


def eval_cumulant(family, t):
    """Evaluate (a, a', a'') at t.  Raises DomainError on non-finite input."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise DomainError("non-finite value in cumulant argument")
    return family.a(t), family.a1(t), family.a2(t)


def rate(family, h):
    """Evaluate the family's rate function at h >= 0."""
    h = np.asarray(h, dtype=float)
    if np.any(h < 0) or not np.all(np.isfinite(h)):
        raise DomainError("rate function argument must be finite and >= 0")
    return family.rate(h)


@dataclass
class RateReport:
    """Grid certification result for a (family, rate) pair."""

    family: str
    tol: float
    violations: list  # (t, h, gap) triples with gap < -tol

    @property
    def ok(self):
        return not self.violations


def validate_rate(family, t_grid, h_grid, tol=1e-12):
    """Certify a(t+h) - a(t) - h a'(t) - r(|h|) a''(t)/2 >= -tol on a grid.

    The tolerance is absolute; the inequality is exact algebra, so the only
    slack needed is for rounding.  The sweep runs in extended precision so
    that rounding at large |t| (e.g. e^10 for the Poisson cumulant) stays
    well below the tolerance.
    """
    t = np.asarray(t_grid, dtype=np.longdouble)
    h = np.asarray(h_grid, dtype=np.longdouble)
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(h))):
        raise DomainError("rate grids must be finite")
    T, H = np.meshgrid(t, h, indexing="ij")
    gap = family.a(T + H) - (family.a(T) + H * family.a1(T)
                             + family.rate(np.abs(H)) * family.a2(T) / 2)
    bad = np.argwhere(gap < -tol)
    violations = [(float(t[i]), float(h[j]), float(gap[i, j])) for i, j in bad]
    return RateReport(family=family.name, tol=tol, violations=violations)


def _check_response(family, y):
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise DomainError("non-finite response value")
    lo, hi = family.response_domain
    if np.any(y < lo) or np.any(y > hi):
        raise DomainError(f"{family.name} response must lie in [{lo:g}, {hi:g}]")
    return y


def log_likelihood(family, X, y, beta):
    """Canonical log-likelihood sum_i { y_i * x_i'beta - a(x_i'beta) }.

    This omits the base measure; use `log_likelihood_full` when an absolute
    normalization is needed (evidence comparisons).
    """
    X = np.asarray(X, dtype=float)
    y = _check_response(family, y)
    beta = np.asarray(beta, dtype=float)
    t = X @ beta
    if not np.all(np.isfinite(t)):
        raise DomainError("non-finite linear predictor")
    return float(np.sum(y * t - family.a(t)))


def log_likelihood_full(family, X, y, beta):
    """Full log-density: canonical part plus the base-measure term."""
    return log_likelihood(family, X, y, beta) + family.log_base_measure(np.asarray(y, dtype=float))
