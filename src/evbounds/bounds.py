"""Assembly of the two-sided log-evidence bounds.

The upper bound adds to the Laplace skeleton l(b*) - log|H|/2 the constants
C1*d (stochastic term plus Gaussian normalization), the prior supremum over
the localization set, the concentration correction -log(1-eta), and the log
Gaussian mass of the set; the lower bound mirrors it with C2*d, the prior
infimum, and the mass of the c-enlarged set:

    C1 = C + log(2 pi)/2,     C2 = -C + log(2 pi)/2 + c/2.

Both hold simultaneously off an event of probability delta + delta_tilde.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError
from .quadform import ProbResult, log_det_pd, prob_ball


@dataclass
class BoundsReport:
    ell_star: float
    log_det_H: float
    upper: float
    lower: float
    terms_upper: dict
    terms_lower: dict
    constants: dict   # C, c, eta, R, delta, delta_tilde
    validity: dict    # c_in_range, eta_in_range, set_mass_certified, assumption1_checked,
                      # assumption2_source
    prob_Rd: ProbResult = field(repr=False, default=None)
    prob_Rd_over_c: ProbResult = field(repr=False, default=None)
    coverage_guarantee: float = 0.0
    mle_log_lik: float | None = None
    mle_gap: float | None = None
    C_method: str | None = None  # ProcessConstants.method

    @property
    def width(self):
        return self.upper - self.lower

    @property
    def theorem_certified(self):
        return bool(self.validity["c_in_range"] and self.validity["eta_in_range"]
                    and self.validity["set_mass_certified"])

    def to_dict(self):
        out = {
            "ell_star": self.ell_star,
            "log_det_H": self.log_det_H,
            "upper": self.upper,
            "lower": self.lower,
            "width": self.width,
            "terms_upper": dict(self.terms_upper),
            "terms_lower": dict(self.terms_lower),
            "constants": dict(self.constants),
            "validity": dict(self.validity),
            "theorem_certified": self.theorem_certified,
            "coverage_guarantee": self.coverage_guarantee,
            "C_method": self.C_method,
        }
        for name in ("prob_Rd", "prob_Rd_over_c"):
            mass = getattr(self, name)
            out[name] = mass.p
            out[f"{name}_method"] = mass.method
            out[f"{name}_se"] = mass.standard_error
        if self.mle_log_lik is not None:
            out["mle_log_lik"] = self.mle_log_lik
            out["mle_gap"] = self.mle_gap
        return out


def compute_bounds(fit, loglik_at_star, cert, proc, prior_ext, ell, eta=0.05,
                   delta=0.05, assumption1_checked=False, mle_log_lik=None):
    """Assemble the sandwich from independently built certificates.

    Parameters mirror the pipeline: `fit` the pseudo-true fit (its center
    must be the ellipsoid's), `loglik_at_star` the realized log-likelihood
    at beta* for the observed data (full density), `cert` the curvature
    certificate, `proc` the process constants, `prior_ext` the
    (log_sup, log_inf) prior extremes, `ell` the localization set.

    `mle_log_lik` optionally records the sample-MLE log-likelihood; the
    report then carries the documented gap mle_log_lik - loglik_at_star
    as metadata (the bounds themselves stay anchored at beta*).

    Inconsistent ingredients (e.g. a negative C) can put the lower bound
    above the upper one; that is refused as a NumericalError.
    """
    if fit is not None and not np.allclose(fit.beta_star, ell.center, atol=1e-9):
        raise ConfigError("ellipsoid must be centered at the fitted beta*")
    d = ell.d
    c = float(cert.c)
    C = float(proc.C)
    log_sup, log_inf = float(prior_ext[0]), float(prior_ext[1])
    if log_sup < log_inf:
        raise ConfigError("prior extremes inverted")
    if not (0 <= eta < 1):
        raise ConfigError("eta must lie in [0, 1)")
    if not (0 <= delta < 1):
        raise ConfigError("delta must lie in [0, 1)")

    log_det_H = log_det_pd(cert.H)
    # covariance of the localized Gaussian in the W metric: W^{1/2} H^{-1} W^{1/2}
    W_half = ell.W_sqrt
    M = W_half @ np.linalg.solve(cert.H, W_half)
    M = (M + M.T) / 2
    p1 = prob_ball(M, ell.threshold)
    p2 = prob_ball(M, ell.threshold / c)
    if p1.p <= 0.0 or p2.p <= 0.0:
        raise NumericalError(
            "Gaussian mass of the localization set underflows; R is too "
            "small for this curvature (enlarge the radius multiplier)")

    half_log_2pi = 0.5 * np.log(2 * np.pi)
    c1 = C + half_log_2pi
    c2 = -C + half_log_2pi + c / 2.0

    terms_upper = {
        "C1_d": float(c1 * d),
        "log_sup_prior": log_sup,
        "minus_log_1_minus_eta": float(-np.log1p(-eta)),
        "log_prob_Rd": float(np.log(p1.p)),
    }
    terms_lower = {
        "C2_d": float(c2 * d),
        "log_inf_prior": log_inf,
        "log_prob_Rd_over_c": float(np.log(p2.p)),
    }
    skeleton = loglik_at_star - log_det_H / 2.0
    upper = skeleton + sum(terms_upper.values())
    lower = skeleton + sum(terms_lower.values())
    if not lower <= upper:  # NaN included
        raise NumericalError(
            f"lower bound {lower!r} is not below upper bound {upper!r}; "
            f"the ingredients are inconsistent (C = {C!r})")

    validity = {
        "c_in_range": bool(0.5 < c <= 1.0),
        "eta_in_range": bool(0 < eta < 0.25 and 0 < delta < 0.25
                             and 0 < proc.delta_tilde < 0.25),
        # a Monte-Carlo set mass carries a standard error, not a certificate
        "set_mass_certified": "monte-carlo" not in (p1.method, p2.method),
        "assumption1_checked": bool(assumption1_checked),
        "assumption2_source": proc.source,
    }
    constants = {"C": C, "c": c, "eta": float(eta), "R": float(ell.R),
                 "delta": float(delta), "delta_tilde": float(proc.delta_tilde)}
    return BoundsReport(
        ell_star=float(loglik_at_star),
        log_det_H=float(log_det_H),
        upper=float(upper),
        lower=float(lower),
        terms_upper=terms_upper,
        terms_lower=terms_lower,
        constants=constants,
        validity=validity,
        prob_Rd=p1,
        prob_Rd_over_c=p2,
        coverage_guarantee=float(1.0 - delta - proc.delta_tilde),
        mle_log_lik=None if mle_log_lik is None else float(mle_log_lik),
        mle_gap=None if mle_log_lik is None else float(mle_log_lik - loglik_at_star),
        C_method=proc.method,
    )
