"""Designs, truths, and counter-based replicate streams.

Mechanisms expose the *analytic* mean of y and a certified tail bound so the
downstream constants (sub-Gaussian tau, sub-exponential (nu, gbar)) are valid
upper bounds rather than estimates.  Mechanisms may lie outside the fitted
model class on purpose.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError
from .families import TailBound, get_family


# ---------------------------------------------------------------------------
# reproducible stream derivation
# ---------------------------------------------------------------------------

_U64 = np.uint64


def derive_seed(master_seed, *path):
    """Derive a 64-bit seed for a named stream from a master seed.

    The path is hashed with blake2b (stable across processes and runs,
    unlike the builtin hash), so any worker can reconstruct the stream for
    replicate r without generating the streams before it.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(int(master_seed).to_bytes(8, "little", signed=False))
    for part in path:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest()[:8], "little")


def derive_rng(master_seed, *path):
    """Counter-based generator for a named stream.

    Philox is keyed by (master_seed, hashed path), so streams are
    independent, order-free, and reproducible in isolation.
    """
    word = derive_seed(master_seed, *path)
    key = np.array([int(master_seed) & 0xFFFFFFFFFFFFFFFF, word], dtype=_U64)
    return np.random.Generator(np.random.Philox(key=key))


def replicate_rng(master_seed, replicate):
    """Stream for replicate `replicate` of an experiment."""
    return derive_rng(master_seed, "replicate", int(replicate))


# ---------------------------------------------------------------------------
# designs
# ---------------------------------------------------------------------------

def make_design(n, d, kind, seed=0):
    """Build an n-by-d design with entries bounded by 1 in absolute value.

    kinds: "rademacher", "uniform", "fixed-grid", "first-column-intercept".
    Deterministic given (n, d, kind, seed); "fixed-grid" ignores the seed.
    """
    n, d = int(n), int(d)
    if n < d or d < 1:
        raise ConfigError(f"need n >= d >= 1, got n={n}, d={d}")
    if n * d > np.iinfo(np.intp).max // 8:  # beyond any float64 array
        raise ConfigError(f"an n x d = {n} x {d} design is too large to allocate")
    rng = np.random.default_rng(seed)
    if kind == "rademacher":
        X = rng.choice([-1.0, 1.0], size=(n, d))
    elif kind == "uniform":
        X = rng.uniform(-1.0, 1.0, size=(n, d))
    elif kind == "fixed-grid":
        # discrete-cosine columns: orthogonal frequencies, hence full rank,
        # and closed-form Gram matrices for hand checks
        i = np.arange(n)[:, None] + 0.5
        j = np.arange(1, d + 1)[None, :]
        X = np.cos(j * np.pi * i / n)
    elif kind == "first-column-intercept":
        X = np.empty((n, d))
        X[:, 0] = 1.0
        if d > 1:
            X[:, 1:] = rng.uniform(-1.0, 1.0, size=(n, d - 1))
    else:
        raise ConfigError(f"unknown design kind {kind!r}")
    return X


# ---------------------------------------------------------------------------
# mechanisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualLaw:
    """Responses around a mean vector: sample(m, rng) draws them, tail(m)
    certifies the residuals y - m, and gaussian_variance(m), set only when
    those residuals are independent Gaussians, gives their variances.  A
    GlmFamily is one too."""

    sample: Callable
    tail: Callable
    gaussian_variance: Callable | None = None


@dataclass(frozen=True, eq=False)
class Mechanism:
    """A data-generating truth: the analytic mean inverse_link(X @ beta0)
    plus a residual law (sampler and certified tail).

    The sampler and the tail certificate are functions of the mean vector
    alone, so a mechanism can also drive pipelines whose design differs
    from the one that generated the mean (submodel comparisons)."""

    name: str
    beta0: np.ndarray
    inverse_link: Callable = field(repr=False)
    law: object = field(repr=False)  # a ResidualLaw or a GlmFamily

    def mean(self, X):
        return self.inverse_link(X @ self.beta0)

    def draw_from_mean(self, m, rng):
        return self.law.sample(m, rng)

    def tail_from_mean(self, m):
        return self.law.tail(m)

    def draw(self, X, rng):
        return self.draw_from_mean(self.mean(X), rng)

    def tail(self, X):
        return self.tail_from_mean(self.mean(X))


def glm_truth(family, beta0):
    """Well-specified canonical GLM truth with parameter beta0."""
    law = get_family(family) if isinstance(family, str) else family
    return Mechanism(f"glm-well-specified({law.name})", np.asarray(beta0, dtype=float),
                     law.a1, law)


_erfc = np.vectorize(math.erfc, otypes=[float])


def probit_truth(beta0):
    """Bernoulli truth with a probit link: misspecified for the logistic model."""
    return Mechanism("probit-truth", np.asarray(beta0, dtype=float),
                     lambda t: 0.5 * _erfc(-t / math.sqrt(2.0)),  # normal CDF
                     get_family("logistic"))  # Bernoulli responses


def negbin_truth(beta0, size):
    """Negative-binomial truth with log link: overdispersed counts, the
    designated sub-exponential (non-sub-Gaussian) mechanism."""
    r = float(size)
    if r <= 0:
        raise ConfigError("negbin size must be > 0")

    def tail(m):
        # MGF of y - m is finite for s < log(1 + size/m); certify (nu, g) on
        # half that radius via a grid bound on 2*logMGF_centered(s)/s^2,
        # inflated 10% to absorb the grid.
        s_max = np.log1p(r / m)  # per-observation MGF radius
        g_i = 2.0 / s_max
        gbar = float(g_i.max())
        nu_sq = 0.0
        for mi, si in zip(m, s_max):
            s = np.linspace(-si / 2, si / 2, 201)[1:-1]
            s = s[np.abs(s) > 1e-9]
            p = r / (r + mi)
            log_mgf = r * (np.log(p) - np.log1p(-(1 - p) * np.exp(s))) - s * mi
            nu_sq = max(nu_sq, float(np.max(2 * log_mgf / s**2)))
        return TailBound("subexponential", nu=float(np.sqrt(1.1 * nu_sq)), gbar=gbar)

    law = ResidualLaw(sample=lambda m, rng: rng.negative_binomial(r, r / (r + m)).astype(float),
                      tail=tail)
    return Mechanism("negbin-truth", np.asarray(beta0, dtype=float), np.exp, law)


def hetero_gaussian(beta0, sigmas):
    """Gaussian truth with identity link and a per-observation sigma
    profile, tiled across the observations."""
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    if sigmas.size == 0 or not np.all(sigmas >= 0):
        raise ConfigError("sigma profile must be a non-empty list of nonnegative numbers")

    law = ResidualLaw(
        sample=lambda m, rng: m + np.resize(sigmas, len(m)) * rng.standard_normal(len(m)),
        tail=lambda m: TailBound("subgaussian", tau=float(sigmas.max())),
        gaussian_variance=lambda m: np.resize(sigmas**2, len(m)))
    return Mechanism("hetero-gaussian", np.asarray(beta0, dtype=float), lambda t: t, law)


_MECHANISMS = {"glm-well-specified": glm_truth, "probit-truth": probit_truth,
               "negbin-truth": negbin_truth, "hetero-gaussian": hetero_gaussian}


def get_mechanism(name, **params):
    """Resolve a mechanism identifier plus parameters to a Mechanism; a
    missing, unknown or wrongly typed parameter is a ConfigError."""
    ctor = _MECHANISMS.get(name)
    if ctor is None:
        raise ConfigError(f"unknown mechanism {name!r}")
    try:
        return ctor(**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for mechanism {name!r}: {exc}")
