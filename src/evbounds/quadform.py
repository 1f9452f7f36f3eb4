"""Spectral utilities: P(||xi||^2 <= t) for xi ~ N(0, M), log-determinants,
operator norms.

The weighted-chi-square CDF P(sum_j lam_j z_j^2 <= t) is computed by the
classical mixture-of-chi-squares series (Ruben's expansion): with base
scale beta = min lam, the CDF equals sum_k a_k F_{m+2k}(t/beta) with
nonnegative weights a_k summing to 1, so the truncation error is bounded
by the leftover weight times the last chi-square factor — a certified,
monotone error bound.  The chi-square ladder F_{m+2k} is a sum of positive
Poisson-type terms with its own bounded truncation (`chi2_ladder`).
Spectra too ill-conditioned for the series fall back to
characteristic-function inversion (Imhof's formula via QUADPACK's QAWF
transform code, trusted only in its genuinely oscillatory regime), then to
Monte Carlo with an honest standard error.  Extreme tails are
short-circuited by Chernoff clamps (error < 1e-13, far inside the 1e-8
budget).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, SingularityError
from .pseudotrue import _cholesky

_ABS_TOL = 1e-8  # certified absolute error of the eigen-series and imhof methods
_CLAMP_LOG = np.log(1e-13)


@dataclass(frozen=True)
class ProbResult:
    p: float
    standard_error: float
    method: str


def _log_poisson_terms(b, z):
    """log(e^{-z} z^b / Gamma(b + 1)) for an array of orders b > 0, z > 0.

    From b = 10 up it is b (log1p(t) - t) - log(2 pi b)/2 - S(b) with
    t = (z - b)/b and S the Stirling series of log Gamma (error below 2e-14
    at b = 10), which keeps out the cancellation between b log z and
    log Gamma(b + 1), both near 5e5 at z = 5e4.
    """
    out = np.empty(len(b))
    small = b < 10
    for i in np.flatnonzero(small):
        out[i] = b[i] * math.log(z) - z - math.lgamma(b[i] + 1)
    big = b[~small]
    t = (z - big) / big
    inv2 = 1.0 / (big * big)
    stirling = (1 / 12 + inv2 * (-1 / 360 + inv2 * (1 / 1260 + inv2 * (-1 / 1680
                                                                     + inv2 / 1188)))) / big
    with np.errstate(divide="ignore"):  # z/b below eps: log1p(-1), a zero term
        out[~small] = big * (np.log1p(t) - t) - 0.5 * np.log(2 * np.pi * big) - stirling
    return out


def chi2_ladder(m, x, K):
    """Chi-square CDFs F_{m+2k}(x) for k = 0..K-1, and a bound on their
    absolute error.

    With a = m/2 and z = x/2, F_{m+2k}(x) = P(a + k, z) = sum_{j>=k} w_j,
    w_j = e^{-z} z^{a+j} / Gamma(a+j+1): a reverse cumulative sum of
    positive terms, free of cancellation.  The terms rise up to j near
    z - a and fall after; they are summed on a window of 9 sqrt(z) + 40
    indices each side of the largest.  Beyond the window the ratio
    w_{j+1}/w_j = z/(a+j+1) stays below its value at the window's end, so
    the terms left out are at most a geometric series.  Below the window
    F_{m+2k}(x) = 1 - Q(a+k, z) with Q(a+k, z) = Q(a mod 1, z) + sum of
    the w_j below k (Q(0, z) = 0, Q(1/2, z) = erfc(sqrt z)), so it is 1
    within the same kind of bound.  The error adds those bounds and a
    rounding allowance of 4 ulp per summed term.
    """
    if math.isnan(x):
        raise DomainError("x must not be NaN")
    if x == math.inf:
        return np.ones(K), 0.0
    if x <= 0.0:
        return np.zeros(K), 0.0
    a, z = 0.5 * m, 0.5 * x
    top = max(0, math.floor(z - a))
    half = math.ceil(9.0 * math.sqrt(z)) + 40
    lo, hi = max(0, top - half), top + half
    F = np.ones(K)
    err = 0.0
    if lo > 0:  # 1 - F_{m+2k} <= Q(a + lo, z) for k <= lo
        s = (a + lo) / z
        err = (math.erfc(math.sqrt(z)) if m % 2 else 0.0) \
            + math.exp(_log_poisson_terms(np.array([a + lo]), z)[0]) * s / (1 - s)
    if lo >= K:
        return F, err
    w = np.exp(_log_poisson_terms(a + np.arange(lo, hi + 1), z))
    upper = np.minimum(np.cumsum(w[::-1])[::-1], 1.0)  # sum_{j>=k} w_j, k in [lo, hi]
    k = np.arange(lo, min(K, hi + 1))
    F[lo:k[-1] + 1] = upper[k - lo]
    F[hi + 1:] = 0.0
    r = z / (a + hi + 1)
    return F, err + w[-1] * r / (1 - r) + 4 * np.finfo(float).eps * len(w)


def _chernoff_log_upper_tail(lams, t):
    """min over s of log E e^{s(Q - t)}, s in (0, 1/(2 max lam)): a valid
    bound on log P(Q > t) at every grid point, so the grid min is valid."""
    lam_max = lams.max()
    s = np.linspace(1e-9, 0.5 / lam_max * (1 - 1e-9), 400)
    vals = -s * t - 0.5 * np.sum(np.log1p(-2 * s[:, None] * lams[None, :]), axis=1)
    return float(vals.min())


def _chernoff_log_lower_tail(lams, t):
    """min over s > 0 of log E e^{-s(Q - t)}: bound on log P(Q <= t).

    The optimum sits near len(lams)/(2t), which for very small t lies far
    beyond any fixed multiple of 1/lam_max, so the search range adapts to t.
    """
    lam_max = lams.max()
    s_hi = max(1e9 / lam_max, 1e3 * len(lams) / t)
    s = np.geomspace(1e-9 / lam_max, s_hi, 600)
    vals = s * t - 0.5 * np.sum(np.log1p(2 * s[:, None] * lams[None, :]), axis=1)
    return float(vals.min())


def _imhof_qawf(lams, t):
    """Imhof inversion via two QAWF Fourier integrals.

    P(Q <= t) = 1/2 - (1/pi) Int_0^inf sin(A(u) - t u/2) / (u rho(u)) du,
    A(u) = (1/2) sum arctan(lam u),  rho(u) = prod (1 + lam^2 u^2)^{1/4}.

    Splitting sin(A - wu) and subtracting the 1/u singularity analytically
    (Int sin(wu)/u du = pi/2) leaves two integrands that are finite at 0 and
    decay, which QAWF integrates with certified absolute error:

        P = 1 - Ic/pi + Is/pi,
        Ic = Int g_c(u) cos(wu) du,  g_c = sin(A)/(u rho),
        Is = Int q(u)  sin(wu) du,  q  = (cos(A)/rho - 1)/u.
    """
    from scipy import integrate  # deferred: scipy.integrate is slow to import
    omega = t / 2.0
    half_sum = lams.sum() / 2.0

    def log_rho(u):
        return 0.25 * np.sum(np.log1p((lams * u) ** 2))

    def g_c(u):
        if u < 1e-100:
            return half_sum
        with np.errstate(over="ignore"):
            denom = u * np.exp(log_rho(u))
        if not np.isfinite(denom):
            return 0.0
        return np.sin(0.5 * np.sum(np.arctan(lams * u))) / denom

    def q(u):
        if u < 1e-100:
            return 0.0
        with np.errstate(over="ignore"):
            inv_rho = np.exp(-log_rho(u))
        return (np.cos(0.5 * np.sum(np.arctan(lams * u))) * inv_rho - 1.0) / u

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ic, ic_err = integrate.quad(g_c, 0, np.inf, weight="cos", wvar=omega,
                                    epsabs=1e-10, limlst=200, limit=500)
        is_, is_err = integrate.quad(q, 0, np.inf, weight="sin", wvar=omega,
                                     epsabs=1e-10, limlst=200, limit=500)
    flagged = any(issubclass(w.category, integrate.IntegrationWarning) for w in caught)
    p = 1.0 - ic / np.pi + is_ / np.pi
    err = (ic_err + is_err) / np.pi
    return p, err, flagged


def _ruben_series(lams, t, tol=1e-9, max_terms=20_000, block=512):
    """Mixture-of-chi-squares expansion of P(sum lam_j z_j^2 <= t).

    With beta = min(lams) and c_i = 1 - beta/lam_i in [0, 1):

        P = sum_{k>=0} a_k F_{m+2k}(t/beta),
        a_0 = prod (beta/lam_i)^{1/2},
        a_k = (2k)^{-1} sum_{j=1..k} g_j a_{k-j},  g_j = sum_i c_i^j,

    where every a_k >= 0 and sum_k a_k = 1, so after K terms the error is
    at most (1 - sum_{k<K} a_k) * F_{m+2K}(t/beta), certified and monotone,
    plus the chi-square ladder's own error bound.
    Returns None when the certificate is not reached within max_terms (very
    ill-conditioned spectra at mid-range t) or the head weight underflows.
    """
    beta = float(lams.min())
    c = 1.0 - beta / lams
    log_a0 = 0.5 * float(np.sum(np.log(beta / lams)))
    if log_a0 < -700.0:
        return None
    x = t / beta
    m = len(lams)
    F_all, F_err = chi2_ladder(m, x, max_terms)
    a = np.empty(max_terms)
    g = np.empty(max_terms)
    a[0] = np.exp(log_a0)
    pow_c = c.copy()
    total = a[0]
    p = 0.0
    k_done = 0
    while k_done < max_terms:
        hi = min(k_done + block, max_terms)
        for k in range(max(k_done, 1), hi):
            g[k - 1] = pow_c.sum()
            pow_c *= c
            a[k] = (0.5 / k) * float(np.dot(g[:k], a[k - 1::-1]))
            total += a[k]
        F = F_all[k_done:hi]
        p += float(np.dot(a[k_done:hi], F))
        k_done = hi
        resid = max(0.0, 1.0 - total)
        if resid * (float(F[-1]) + F_err) + F_err <= tol:
            return float(min(max(p, 0.0), 1.0))
    return None


def _mc_prob(lams, t, n_draws, seed):
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    hits = 0
    remaining = int(n_draws)
    while remaining > 0:
        k = min(remaining, 200_000)
        z = rng.standard_normal((k, len(lams)))
        hits += int(np.count_nonzero((z * z) @ lams <= t))
        remaining -= k
    p = hits / n_draws
    se = float(np.sqrt(max(p * (1 - p), 1.0 / n_draws) / n_draws))
    return ProbResult(p=float(p), standard_error=se, method="monte-carlo")


def prob_ball(M, t, method="eigen-series", n_draws=10**6, seed=0):
    """P(||xi||^2 <= t) for xi ~ N(0, M), M symmetric PSD.

    eigen-series: certified absolute error <= 1e-8 (deterministic, SE = 0),
    by closed forms, tail clamps or the series; a spectrum the series cannot
    certify goes to Imhof's inversion (method "imhof", same error budget),
    then to Monte Carlo.
    monte-carlo: n_draws draws with reported standard error.
    Zero eigenvalues are degenerate coordinates contributing exactly 0.
    """
    M = np.asarray(M, dtype=float)
    t = float(t)
    if not t >= 0:  # NaN included
        raise DomainError(f"t must be nonnegative, got {t!r}")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ConfigError("M must be square")
    if not np.allclose(M, M.T, rtol=0, atol=1e-8 * max(1.0, np.abs(M).max())):
        raise ConfigError("M must be symmetric")
    lams = np.linalg.eigvalsh((M + M.T) / 2.0)
    if lams.min() < -1e-10:
        raise SingularityError(f"M is not PSD (eigenvalue {lams.min():.3e})")
    lam_max = lams.max() if len(lams) else 0.0
    lams = lams[lams > max(1e-14 * max(lam_max, 0.0), 0.0)]
    m = len(lams)

    if m == 0:
        return ProbResult(p=1.0, standard_error=0.0, method="eigen-series")
    if t == 0.0:
        return ProbResult(p=0.0, standard_error=0.0, method="eigen-series")

    if method == "monte-carlo" or (method == "eigen-series" and m > 500):
        return _mc_prob(lams, t, n_draws, seed)
    if method != "eigen-series":
        raise ConfigError(f"unknown method {method!r}")

    # exact shortcut: equal weights reduce to a plain chi-square
    if lams.max() - lams.min() <= 1e-12 * lams.max():
        return ProbResult(p=float(chi2_ladder(m, t / lams.mean(), 1)[0][0]),
                          standard_error=0.0, method="eigen-series")
    if m == 1:
        return ProbResult(p=float(chi2_ladder(1, t / lams[0], 1)[0][0]),
                          standard_error=0.0, method="eigen-series")

    # tail clamps: avoid asking the series/integral for 1 - 1e-16
    if t > lams.sum() and _chernoff_log_upper_tail(lams, t) < _CLAMP_LOG:
        return ProbResult(p=1.0, standard_error=0.0, method="eigen-series")
    if t < lams.sum() and _chernoff_log_lower_tail(lams, t) < _CLAMP_LOG:
        return ProbResult(p=0.0, standard_error=0.0, method="eigen-series")

    p_series = _ruben_series(lams, t)
    if p_series is not None:
        return ProbResult(p=p_series, standard_error=0.0, method="eigen-series")

    p, err, flagged = _imhof_qawf(lams, t)
    # trust the inversion only in its oscillatory regime: several full
    # periods across the integrand's core (at small omega the two Fourier
    # pieces cancel and QUADPACK's error estimate is silently wrong)
    oscillatory = (t / 2.0) * (20.0 / lams.min()) >= 16.0 * np.pi
    if oscillatory and not flagged and err <= _ABS_TOL and -1e-8 <= p <= 1 + 1e-8:
        return ProbResult(p=float(min(max(p, 0.0), 1.0)), standard_error=0.0,
                          method="imhof")
    # neither deterministic route certified; Monte Carlo with honest SE
    return _mc_prob(lams, t, n_draws, seed)


def log_det_pd(H):
    """log-determinant of a symmetric positive-definite matrix (Cholesky)."""
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ConfigError("H must be square")
    if not np.allclose(H, H.T, rtol=0, atol=1e-8 * max(1.0, np.abs(H).max())):
        raise ConfigError("H must be symmetric")
    return float(2.0 * np.sum(np.log(np.diag(_cholesky(H)))))


def operator_norm(X):
    """Largest singular value: the root of the largest eigenvalue of the
    smaller Gram matrix, exact to rounding."""
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise DomainError("non-finite entries")
    if X.ndim != 2:
        X = np.atleast_2d(X)
    G = X.T @ X if X.shape[1] <= X.shape[0] else X @ X.T
    return float(np.sqrt(max(float(np.linalg.eigvalsh(G)[-1]), 0.0)))
