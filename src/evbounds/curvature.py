"""Localization ellipsoid and the local-curvature certificate.

The certificate brackets each observation's second derivative a''(x_i'beta)
over the ellipsoid exactly (the linear predictor's range over an ellipsoid
is a closed interval, and a'' is constant, unimodal, or monotone for the
shipped families), yielding the matrix H of per-observation curvature
infima and the uniformity ratio c = min_i u_i^2 / v_i^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, NumericalError, SingularityError
from .pseudotrue import _cholesky, kl_gap


@dataclass(frozen=True)
class Ellipsoid:
    """{beta : (beta - center)' W (beta - center) <= R * d} with W pos. def."""

    center: np.ndarray
    W: np.ndarray
    R: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        W = np.asarray(self.W, dtype=float)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "W", W)
        if W.shape != (len(center), len(center)):
            raise ConfigError("W must be d x d")
        if not np.allclose(W, W.T, rtol=0, atol=1e-10 * max(1.0, np.abs(W).max())):
            raise ConfigError("W must be symmetric")
        if self.R <= 0:
            raise ConfigError("R must be positive")
        _cholesky(W, error="W must be positive definite")

    @property
    def d(self):
        return len(self.center)

    @property
    def threshold(self):
        return self.R * self.d

    @cached_property
    def W_inv_sqrt(self):
        lam, Q = np.linalg.eigh(self.W)
        return (Q / np.sqrt(lam)) @ Q.T

    @cached_property
    def W_sqrt(self):
        lam, Q = np.linalg.eigh(self.W)
        return (Q * np.sqrt(lam)) @ Q.T

    def mahalanobis(self, beta):
        """Quadratic form at one point (1d) or rows of points (2d)."""
        diff = np.atleast_2d(np.asarray(beta, dtype=float)) - self.center
        q = np.einsum("kd,de,ke->k", diff, self.W, diff)
        return float(q[0]) if np.asarray(beta).ndim == 1 else q

    def contains(self, beta, tol=1e-12):
        return self.mahalanobis(beta) <= self.threshold * (1 + tol)

    def coordinate_halfwidths(self):
        """Exact per-coordinate ranges: center_j +/- sqrt(R d) |W^{-1/2} e_j|."""
        inv_diag = np.sum(self.W_inv_sqrt**2, axis=0)  # diag of W^{-1}
        return np.sqrt(self.threshold * inv_diag)

    def scaled(self, factor):
        """Same shape and center, R multiplied by `factor`."""
        return Ellipsoid(self.center, self.W, self.R * factor)


def default_ellipsoid(center, n, c1=4.0):
    """The default localization set: W = n I, R = c1^2, i.e. the Euclidean
    ball of radius c1 * sqrt(d/n) around the center."""
    center = np.asarray(center, dtype=float)
    return Ellipsoid(center, float(n) * np.eye(len(center)), float(c1) ** 2)


def predictor_intervals(X, ell):
    """Exact range of x_i'beta over the ellipsoid, per observation:

        x_i'center +/- sqrt(R d) * |W^{-1/2} x_i|.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[1] != ell.d:
        raise ConfigError("design/ellipsoid dimension mismatch")
    mid = X @ ell.center
    V = X @ ell.W_inv_sqrt  # rows W^{-1/2} x_i
    hw = np.sqrt(ell.threshold * np.einsum("nd,nd->n", V, V))
    return mid - hw, mid + hw


@dataclass
class CurvatureCertificate:
    t_lo: np.ndarray
    t_hi: np.ndarray
    u_sq: np.ndarray
    v_sq: np.ndarray
    H: np.ndarray
    c: float

    @property
    def c_in_range(self):
        """The bound's hypothesis on the curvature ratio; c = 1 is the exact
        quadratic (Gaussian) limit where the sandwich is an equality."""
        return 0.5 < self.c <= 1.0


def certificate(family, X, ell):
    """Assemble the curvature certificate over the ellipsoid.

    u_sq/v_sq are the exact per-interval extremes of a'' (analytic per
    family); H = X' diag(u_sq) X; c = min u_sq/v_sq.
    """
    X = np.asarray(X, dtype=float)
    t_lo, t_hi = predictor_intervals(X, ell)
    u_sq, v_sq = family.a2_extremes(t_lo, t_hi)
    u_sq = np.asarray(u_sq, dtype=float)
    v_sq = np.asarray(v_sq, dtype=float)
    if np.any(u_sq <= 1e-300) or not np.all(np.isfinite(v_sq)):
        raise SingularityError(
            "degenerate curvature: some a'' infimum vanishes (or supremum "
            "overflows) on its predictor interval; shrink the ellipsoid")
    H = (X * u_sq[:, None]).T @ X
    c = float(np.min(u_sq / v_sq))
    return CurvatureCertificate(t_lo=t_lo, t_hi=t_hi, u_sq=u_sq, v_sq=v_sq, H=H, c=c)


def sample_in_ellipsoid(ell, n_samples, rng):
    """Uniform sample in the ellipsoid: uniform in the unit ball, mapped
    through sqrt(R d) W^{-1/2} and shifted to the center."""
    z = rng.standard_normal((int(n_samples), ell.d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    radii = rng.random(int(n_samples)) ** (1.0 / ell.d)
    ball = z * radii[:, None]
    return ell.center + np.sqrt(ell.threshold) * (ball @ ell.W_inv_sqrt.T)


@dataclass
class Assumption1Report:
    """Sampled verification of the two-sided local quadratic inequality

        q/(2c) >= kl >= q/2,   q = (beta-b*)' H (beta-b*),

    at relative tolerance 1e-10, plus the curvature-ratio hypothesis flag."""

    n_samples: int
    c: float
    c_constraint_ok: bool
    violations: list  # (sample index, side, excess)
    upper_slack: np.ndarray = field(repr=False, default=None)  # q/(2c) - kl
    lower_slack: np.ndarray = field(repr=False, default=None)  # kl - q/2

    @property
    def ok(self):
        return not self.violations


def check_assumption1(family, X, true_mean, fit, cert, ell, n_samples=10_000, seed=0, tol=1e-10):
    """Sample uniformly in the ellipsoid and check the quadratic sandwich.

    Violations are reported, never thrown; the curvature-ratio constraint
    (1/2, 1] is reported in the same way.
    """
    X = np.asarray(X, dtype=float)
    rng = np.random.default_rng(seed)
    pts = sample_in_ellipsoid(ell, n_samples, rng)
    diff = pts - fit.beta_star
    q = np.einsum("kd,de,ke->k", diff, cert.H, diff)

    t_star = X @ fit.beta_star
    a_star = family.a(t_star)
    a1_star = family.a1(t_star)
    # kl for all samples at once: sum_i a(t_ik) - a(t_i*) - a'(t_i*)(t_ik - t_i*)
    T = X @ pts.T  # n x k
    kl = np.sum(family.a(T) - a_star[:, None] - a1_star[:, None] * (T - t_star[:, None]), axis=0)

    tol_k = tol * (1 + np.abs(kl))
    upper_slack = q / (2 * cert.c) - kl
    lower_slack = kl - q / 2
    violations = []
    for k in np.nonzero(upper_slack < -tol_k)[0]:
        violations.append((int(k), "upper", float(-upper_slack[k])))
    for k in np.nonzero(lower_slack < -tol_k)[0]:
        violations.append((int(k), "lower", float(-lower_slack[k])))
    # spot-verify the vectorized kl on one sample against the scalar routine
    if len(pts):
        kl0 = kl_gap(family, X, true_mean, fit.beta_star, pts[0])
        if not abs(kl0 - kl[0]) <= 1e-8 * (1 + abs(kl0)):
            raise NumericalError(
                f"vectorized KL gap {kl[0]!r} disagrees with the scalar "
                f"routine {kl0!r} at the first sample")
    return Assumption1Report(
        n_samples=int(n_samples), c=cert.c, c_constraint_ok=cert.c_in_range,
        violations=violations, upper_slack=upper_slack, lower_slack=lower_slack)
