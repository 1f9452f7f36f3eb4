"""Pseudo-true parameter: the maximizer of the expected log-likelihood.

Under misspecification the fitted model's population optimum need not equal
any generating parameter; it is the Kullback-Leibler projection of the truth
onto the model.  The solver is damped Newton ascent with an Armijo line
search, which is globally convergent here because the objective is smooth
and strictly concave for full-column-rank designs.  The same solver, with a
log prior added, finds posterior modes (see `newton_ascent`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NonConvergenceError, SingularityError

ARMIJO_C = 1e-4
MAX_ITER = 200


@dataclass
class PseudoTrueFit:
    beta_star: np.ndarray
    objective: float
    grad_norm: float
    iterations: int
    converged: bool


def expected_loglik(family, X, true_mean, beta):
    """Value, gradient and Hessian of E l(beta) = sum_i {Ey_i x_i'b - a(x_i'b)}.

    The Hessian is -X' diag(a''(Xb)) X, negative definite for full-rank X.
    """
    X = np.asarray(X, dtype=float)
    true_mean = np.asarray(true_mean, dtype=float)
    beta = np.asarray(beta, dtype=float)
    n, d = X.shape
    if len(true_mean) != n or len(beta) != d:
        raise ConfigError("dimension mismatch in expected_loglik")
    t = X @ beta
    value = float(np.sum(true_mean * t - family.a(t)))
    grad = X.T @ (true_mean - family.a1(t))
    w = family.a2(t)
    hess = -(X * w[:, None]).T @ X
    return value, grad, hess


def _check_rank(X):
    s = np.linalg.svd(X, compute_uv=False)
    if s[-1] <= s[0] * 1e-12 * max(X.shape):
        raise SingularityError("design is rank deficient")


_KINK_STEP = 1e-7  # run of the one-sided difference quotients at a kink


def _with_prior(prior, beta, grad, neg_hess):
    """Gradient and -Hessian of the log target from the log-likelihood's.
    Off the prior's kinks add its d1 and -d2.  A coordinate on a kink (a
    box face is one) takes the one-sided slope of the exact log density
    that ascends, and no prior curvature; if neither side ascends it is
    held: gradient 0, and out of the Newton system."""
    on_kink = np.isin(beta, prior.kinks)
    k = beta[on_kink]
    with np.errstate(invalid="ignore"):
        at, up, down = (prior.logpdf(k + h) for h in (0.0, _KINK_STEP, -_KINK_STEP))
    right = grad[on_kink] + (up - at) / _KINK_STEP
    left = grad[on_kink] + (at - down) / _KINK_STEP
    grad, curvature = grad + prior.d1(beta), -prior.d2(beta)
    grad[on_kink] = np.where(right > 0, right, np.where(left < 0, left, 0.0))
    curvature[on_kink] = 0.0
    held = on_kink & (grad == 0)
    return grad, np.where(held[:, None] | held[None, :], np.diag(held * 1.0),
                          neg_hess + np.diag(curvature))


def _cholesky(M, lift=False, error="matrix is not positive definite"):
    """Lower Cholesky factor L of M (M = L L'): the package's one Cholesky
    factorization, for solves (`_cho_solve`) and log-determinants.  With
    lift, a failure lifts the diagonal (doubling from 1e-10 * (1 +
    mean diagonal)) until M factors; without, it is a SingularityError
    with message `error`."""
    jitter = 0.0
    while True:
        try:
            return np.linalg.cholesky(M + jitter * np.eye(len(M)))
        except np.linalg.LinAlgError:
            if not lift:
                raise SingularityError(error)
            jitter = max(2 * jitter, 1e-10 * (1 + np.trace(M) / len(M)))


def _cho_solve(L, b):
    """x with (L L') x = b, for L from `_cholesky`."""
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


def newton_ascent(family, X, target, tol_grad, max_iter=MAX_ITER, prior=None):
    """Maximize target'X beta - A(beta) [+ log prior(beta)] by damped
    Newton ascent from beta = 0 (clamped into the prior's support).

    target is Ey (pseudo-true fit) or y (MLE, posterior mode).  The prior
    enters the Newton system as in `_with_prior` (its -Hessian lifted if it
    is not positive definite) and the line search through its exact log
    density.  Armijo backtracking; a coordinate that would cross a prior
    kink stops on it.  Converged when the gradient norm is at most
    tol_grad.  Stalled when no step passes the line search, or the step
    moves beta by under 1e-13 and the value by under 1e-12, relative: with
    a prior the point is pinned at a kink and is returned (converged
    False); without one the optimum is at infinity: NonConvergenceError.
    """
    beta = np.zeros(X.shape[1])
    if prior is not None:
        beta = np.clip(beta, *prior.support)
    kinks = () if prior is None else prior.kinks

    def value_at(t, b):
        value = float(np.sum(target * t - family.a(t)))
        return value if prior is None else value + float(np.sum(prior.logpdf(b)))

    t = X @ beta
    value = value_at(t, beta)
    for it in range(1, max_iter + 1):
        grad = X.T @ (target - family.a1(t))
        neg_hess = (X * family.a2(t)[:, None]).T @ X
        if prior is not None:
            grad, neg_hess = _with_prior(prior, beta, grad, neg_hess)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol_grad:
            return PseudoTrueFit(beta, value, gnorm, it - 1, True)
        step = _cho_solve(_cholesky(neg_hess, lift=prior is not None,
                                     error="expected-likelihood Hessian not negative definite"),
                           grad)
        # a coordinate on a kink moves only the way its slope ascends
        step = np.where(np.isin(beta, kinks) & (step * grad <= 0), 0.0, step)
        slope = float(grad @ step)  # Newton direction: slope > 0
        alpha, cand = 1.0, None
        while alpha >= 1e-14:
            trial = beta + alpha * step
            for k in kinks:
                trial = np.where((beta - k) * (trial - k) < 0, k, trial)
            trial_t = X @ trial
            if family.linpred_cap is None or np.max(np.abs(trial_t)) <= family.linpred_cap:
                trial_value = value_at(trial_t, trial)
                if trial_value >= value + ARMIJO_C * alpha * slope:
                    cand = trial
                    break
            alpha *= 0.5
        if cand is not None:
            moved = np.max(np.abs(cand - beta)) > 1e-13 * (1 + np.max(np.abs(beta)))
            gained = trial_value - value > 1e-12 * (1 + abs(value))
            beta, t, value = cand, trial_t, trial_value
            if moved or gained:
                continue
        if prior is None:
            raise NonConvergenceError(
                f"line search stalled at iteration {it} (grad norm {gnorm:.3e}); "
                "the optimum may be at infinity (e.g. targets on the mean boundary)")
        return PseudoTrueFit(beta, value, gnorm, it, False)
    raise NonConvergenceError(
        f"no convergence in {max_iter} iterations (grad norm {gnorm:.3e}, tol {tol_grad:.3e})")


def solve_pseudo_true(family, X, true_mean, tol_grad=None, max_iter=MAX_ITER):
    """Maximize the expected log-likelihood; tol on the gradient scales with n.

    Raises SingularityError for rank-deficient X, DomainError when the target
    mean leaves the family's attainable range (where the optimum diverges),
    NonConvergenceError past the iteration cap.
    """
    X = np.asarray(X, dtype=float)
    true_mean = np.asarray(true_mean, dtype=float)
    n, d = X.shape
    _check_rank(X)
    if not np.all(family.mean_ok(true_mean)):
        raise DomainError(
            f"true_mean outside the open mean range of family {family.name!r}; "
            "the expected-likelihood maximizer diverges")
    if tol_grad is None:
        tol_grad = 1e-8 * n
    return newton_ascent(family, X, true_mean, tol_grad, max_iter)


def solve_mle(family, X, y, tol_grad=None, max_iter=MAX_ITER):
    """Maximize the sample log-likelihood (same ascent, y in place of Ey).

    Boundary responses (e.g. 0/1 outcomes) are allowed; with separated data
    the optimum is at infinity and this raises NonConvergenceError.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_rank(X)
    if tol_grad is None:
        tol_grad = 1e-8 * X.shape[0]
    fit = newton_ascent(family, X, y, tol_grad, max_iter)
    fitted = family.a1(X @ fit.beta_star)
    if np.max(np.abs(y - fitted)) < 1e-6 and not np.all(family.mean_ok(y)):
        # fitted means have reached boundary responses: the gradient vanishes
        # only in the limit, so the small-gradient point is not a maximizer
        raise NonConvergenceError(
            "sample optimum is at infinity (fitted means reach the boundary "
            "responses); the data are separated")
    return fit


def kl_gap(family, X, true_mean, beta_star, beta):
    """Divergence of the model at beta from the model at beta_star:

        sum_i { a(x_i'b) - a(x_i'b*) - a'(x_i'b*) x_i'(b - b*) } >= 0,

    which equals minus the expected log-likelihood-ratio when beta_star is
    the fitted optimum.  true_mean is used to verify that premise: a visibly
    non-stationary beta_star is rejected rather than silently mis-scored.
    """
    X = np.asarray(X, dtype=float)
    beta_star = np.asarray(beta_star, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != beta_star.shape or X.shape[1] != len(beta):
        raise ConfigError("dimension mismatch in kl_gap")
    t_star = X @ beta_star
    if true_mean is not None:
        stat = np.linalg.norm(X.T @ (np.asarray(true_mean, dtype=float) - family.a1(t_star)))
        if stat > 1e-3 * X.shape[0]:
            raise DomainError(
                f"beta_star fails the stationarity check (|grad| = {stat:.3e}); "
                "pass a converged fit")
    t = X @ beta
    return float(np.sum(family.a(t) - family.a(t_star) - family.a1(t_star) * (t - t_star)))


def kl_gap_lower_bound(family, X, beta_star, beta):
    """Certified curvature lower bound on kl_gap:

        (b-b*)' X'WX (b-b*) / (2 * (r1 + r2 * max|X| * sqrt(d) * |b-b*|)),

    with W = diag(a''(X b*)).  The chain: each summand of kl_gap is at least
    r(|h_i|) * a''(t_i) / 2 with h_i = x_i'(b-b*), and r(h) >= h^2/(r1+r2*h),
    so the factor 2 from the rate inequality must be carried through — the
    Gaussian case is the witness that it cannot be dropped (there kl_gap
    equals quad/2 exactly, and this bound is tight).  Useful as an
    independent cross-check of the rate machinery on random instances.
    """
    X = np.asarray(X, dtype=float)
    beta_star = np.asarray(beta_star, dtype=float)
    beta = np.asarray(beta, dtype=float)
    r1, r2 = family.rate_coeffs
    w = family.a2(X @ beta_star)
    diff = beta - beta_star
    quad = float((X @ diff) ** 2 @ w)
    denom = r1 + r2 * np.max(np.abs(X)) * np.sqrt(X.shape[1]) * np.linalg.norm(diff)
    return quad / (2.0 * denom)
