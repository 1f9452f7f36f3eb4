"""Product priors and their certified extremes over the localization set.

Bound assembly needs sup and inf of the prior density over an ellipsoid.
`extremes_over_ball` gives one certified pair, the sharpest the inputs
allow:

  a flat prior     -- its constant, exact over any set inside its support;
  a closed form    -- exact extremes over a Euclidean ball, for a prior with
      `ball_extremes` (Laplace and Gaussian products) on a spherical metric;
  anything else    -- the per-coordinate box envelope, valid for every
      product prior whose 1-d density is unimodal at 0 (all shipped ones).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError


@dataclass(frozen=True)
class Prior:
    """Product prior: independent coordinates with a shared 1-d density.

    logpdf/d1/d2 are vectorized in x (d1/d2 smoothed at kinks, for Newton
    mode-finding only — never used in certified extremes).  kinks are the
    non-smooth points of logpdf (quadrature panels split there).  shape_h
    and lipschitz_D describe the exponential-envelope form exp(-kappa*h(x))
    when the prior belongs to that class (None otherwise).
    """

    kind: str
    params: dict = field(repr=False)
    log_normalizer: float
    logpdf: Callable = field(repr=False)
    d1: Callable = field(repr=False)
    d2: Callable = field(repr=False)
    kinks: tuple = ()
    shape_h: Callable | None = field(repr=False, default=None)
    lipschitz_D: float | None = None
    # cap on the per-coordinate prior precision reported in mode curvature;
    # a kinked density has unbounded smoothed |d2| at the kink, which would
    # otherwise collapse curvature-matched proposal covariances
    curvature_cap: float | None = None
    # per-coordinate interval (lo, hi) where the density is positive
    support: tuple = (-math.inf, math.inf)
    # the density is constant on its support, so its extremes over any set
    # inside the support are exact
    flat: bool = False
    # exact extremes over a Euclidean ball ||beta - m|| <= rho:
    # (m, rho) -> (log_sup, log_inf)
    ball_extremes: Callable | None = field(repr=False, default=None)


def laplace_product(kappa=1.0):
    """Coordinates iid Laplace: density (kappa/2) exp(-kappa |x|)."""
    kappa = float(kappa)
    if kappa <= 0:
        raise ConfigError("kappa must be positive")
    eps = 1e-8

    def d1(x):
        return -kappa * x / np.sqrt(x * x + eps * eps)

    def d2(x):
        return -kappa * eps * eps / (x * x + eps * eps) ** 1.5

    log_normalizer = float(np.log(kappa / 2.0))

    def ball_extremes(m, rho):
        # the l1 norm is largest at m + rho * sign(m) / sqrt(d), where the
        # triangle inequality ||beta||_1 <= ||m||_1 + sqrt(d) rho is attained
        l1 = float(np.abs(m).sum())
        slack = np.sqrt(len(m)) * rho
        base = len(m) * log_normalizer
        return (base - kappa * _min_l1_on_ball(m, rho), base - kappa * (l1 + slack))

    return Prior(
        kind="laplace-product",
        params={"kappa": kappa},
        log_normalizer=log_normalizer,
        logpdf=lambda x: np.log(kappa / 2.0) - kappa * np.abs(x),
        d1=d1, d2=d2, kinks=(0.0,),
        shape_h=np.abs, lipschitz_D=1.0,
        curvature_cap=2.0 * kappa**2,
        ball_extremes=ball_extremes,
    )


def gaussian_product(tau_p=1.0):
    """Coordinates iid N(0, tau_p^2)."""
    tau_p = float(tau_p)
    if tau_p <= 0:
        raise ConfigError("tau_p must be positive")
    c = -0.5 * np.log(2 * np.pi * tau_p**2)

    def ball_extremes(m, rho):
        r0 = np.linalg.norm(m)
        r_min = max(0.0, r0 - rho)
        r_max = r0 + rho
        base = len(m) * float(c)
        return (base - r_min**2 / (2 * tau_p**2), base - r_max**2 / (2 * tau_p**2))

    return Prior(
        kind="gaussian-product",
        params={"tau_p": tau_p},
        log_normalizer=float(c),
        logpdf=lambda x: c - x * x / (2 * tau_p**2),
        d1=lambda x: -x / tau_p**2,
        d2=lambda x: -np.ones_like(np.asarray(x, dtype=float)) / tau_p**2,
        ball_extremes=ball_extremes,
    )


def student_product(nu=5.0, s=1.0):
    """Coordinates iid Student-t with nu degrees of freedom, scale s."""
    nu, s = float(nu), float(s)
    if nu <= 0 or s <= 0:
        raise ConfigError("nu and s must be positive")
    c = float(math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2) - 0.5 * np.log(nu * np.pi * s * s))
    return Prior(
        kind="student-product",
        params={"nu": nu, "s": s},
        log_normalizer=c,
        logpdf=lambda x: c - (nu + 1) / 2 * np.log1p(x * x / (nu * s * s)),
        d1=lambda x: -(nu + 1) * x / (nu * s * s + x * x),
        d2=lambda x: -(nu + 1) * (nu * s * s - x * x) / (nu * s * s + x * x) ** 2,
    )


def uniform_box(a=-1.0, b=1.0):
    """Coordinates iid uniform on [a, b].  Positive only on its box, so it
    satisfies the positivity hypothesis only when the localization set stays
    inside the box; extremes_over_ball enforces that."""
    a, b = float(a), float(b)
    if not b > a:
        raise ConfigError("need b > a")
    c = -np.log(b - a)

    def logpdf(x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, c)
        out[(x < a) | (x > b)] = -np.inf
        return out

    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return Prior(kind="uniform-box", params={"a": a, "b": b}, log_normalizer=float(c),
                 logpdf=logpdf, d1=zero, d2=zero, kinks=(a, b), support=(a, b), flat=True)


_REGISTRY = {
    "laplace-product": laplace_product,
    "gaussian-product": gaussian_product,
    "student-product": student_product,
    "uniform-box": uniform_box,
}


def get_prior(kind, **params):
    """Resolve a prior identifier plus parameters to a Prior; an unknown or
    wrongly typed parameter is a ConfigError."""
    try:
        ctor = _REGISTRY[kind]
    except KeyError:
        raise ConfigError(f"unknown prior {kind!r}; known: {sorted(_REGISTRY)}")
    try:
        return ctor(**params)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad parameters for prior {kind!r}: {exc}")


def log_density(prior, beta):
    """Exact joint log density (normalizer included); -inf outside a
    uniform box's support, reported explicitly rather than raised."""
    beta = np.asarray(beta, dtype=float)
    if not np.all(np.isfinite(beta)):
        raise DomainError("beta must be finite")
    return float(np.sum(prior.logpdf(beta)))


# ---------------------------------------------------------------------------
# extremes over the localization set
# ---------------------------------------------------------------------------

def _spherical_rho(ell):
    """If W = s*I, return the Euclidean radius sqrt(R d / s); else None."""
    W = ell.W
    s = float(np.mean(np.diag(W)))
    if np.allclose(W, s * np.eye(ell.d), rtol=0, atol=1e-12 * max(abs(s), 1.0)):
        return float(np.sqrt(ell.threshold / s))
    return None


def _min_l1_on_ball(m, rho):
    """Exact min of ||beta||_1 over ||beta - m|| <= rho: the soft threshold
    that shrinks each |m_j| by min(|m_j|, t), the steepest l1 descent per
    unit of l2 budget, with t the root of sum_j min(|m_j|, t)^2 = rho^2.
    With |m| sorted, a_1 <= ... <= a_d, the left side is S_k + (d - k) t^2
    for t in [a_k, a_{k+1}], S_k = a_1^2 + ... + a_k^2, so t is the root
    of that quadratic on the segment where rho^2 falls."""
    a = np.sort(np.abs(np.asarray(m, dtype=float)))
    d = len(a)
    sq = np.cumsum(a * a)
    if sq[-1] <= rho * rho:
        return 0.0
    # the left side at t = a_k, k = 1..d; nondecreasing, and above rho^2 at k = d
    at_breaks = sq + (d - np.arange(1, d + 1)) * a * a
    k = int(np.searchsorted(at_breaks, rho * rho, side="right"))
    t = np.sqrt(max(rho * rho - (sq[k - 1] if k else 0.0), 0.0) / (d - k))
    return float(np.sum(a[k:] - t))


def _coordinate_box(prior, ell):
    """The per-coordinate ranges (lo, hi) of the ellipsoid, refused unless
    the prior's support holds them (positivity on the set)."""
    hw = ell.coordinate_halfwidths()
    lo = ell.center - hw
    hi = ell.center + hw
    if np.any(lo < prior.support[0]) or np.any(hi > prior.support[1]):
        raise DomainError(
            f"{prior.kind} prior is zero on part of the localization set; "
            "positivity on the set is required")
    return lo, hi


def extremes_over_ball(prior, ell):
    """(log_sup, log_inf) of the prior density over the ellipsoid.

    Exact for a flat prior, and for a prior with closed-form ball extremes
    on a spherical metric (W = s*I).  Otherwise the per-coordinate box
    envelope: the box holds the ellipsoid, so its sup bounds the set's, and
    with a density unimodal at 0 the worse end of each coordinate's range
    bounds the inf.
    """
    lo, hi = _coordinate_box(prior, ell)  # positivity on the set, for every support
    if prior.flat:
        return (float(ell.d * prior.log_normalizer),) * 2
    rho = _spherical_rho(ell)
    if prior.ball_extremes is not None and rho is not None:
        log_sup, log_inf = prior.ball_extremes(ell.center, rho)
        return float(log_sup), float(log_inf)
    closest = np.clip(0.0, lo, hi)          # point of the box nearest the mode
    log_sup = float(np.sum(prior.logpdf(closest)))
    log_inf = float(np.sum(np.minimum(prior.logpdf(lo), prior.logpdf(hi))))
    return log_sup, log_inf


@dataclass
class LipschitzReport:
    D: float
    max_excess: float
    ok: bool


def lipschitz_certificate(prior, grid=None):
    """Check the exponential-envelope shape condition
    |h(x) - h(y)| <= D + D|x - y| on a grid of pairs.

    Only priors of the form exp(-kappa h) ship a shape; others are outside
    the envelope class and raise.
    """
    if prior.shape_h is None:
        raise ConfigError(
            f"prior {prior.kind!r} is not of the exponential-envelope form "
            "exp(-kappa*h); no shape to certify")
    if grid is None:
        grid = np.linspace(-50.0, 50.0, 401)
    grid = np.asarray(grid, dtype=float)
    h = prior.shape_h(grid)
    D = prior.lipschitz_D
    excess = np.abs(h[:, None] - h[None, :]) - D - D * np.abs(grid[:, None] - grid[None, :])
    worst = float(excess.max())
    return LipschitzReport(D=float(D), max_excess=worst, ok=worst <= 1e-12)
