"""Designs, truths, and counter-based replicate streams.

Mechanisms expose the *analytic* mean of y and a certified tail bound so the
downstream constants (sub-Gaussian tau, sub-exponential (nu, gbar)) are valid
upper bounds rather than estimates.  Mechanisms may lie outside the fitted
model class on purpose.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
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

class Mechanism:
    """A data-generating truth: an analytic mean vector plus a residual law
    (sampler and certified tail).

    The sampler and the tail certificate are functions of the mean vector
    alone, so a mechanism can also drive pipelines whose design differs
    from the one that generated the mean (submodel comparisons).  By
    default the residual law is that of the GlmFamily `response`."""

    name = "base"
    response = None

    def mean(self, X):
        raise NotImplementedError

    def draw_from_mean(self, m, rng):
        return self.response.sample(m, rng)

    def tail_from_mean(self, m):
        return self.response.tail(m)

    def draw(self, X, rng):
        return self.draw_from_mean(self.mean(X), rng)

    def tail(self, X):
        return self.tail_from_mean(self.mean(X))


class GlmTruth(Mechanism):
    """Well-specified canonical GLM truth with parameter beta0."""

    def __init__(self, family, beta0):
        self.response = get_family(family) if isinstance(family, str) else family
        self.beta0 = np.asarray(beta0, dtype=float)
        self.name = f"glm-well-specified({self.response.name})"

    def mean(self, X):
        return np.asarray(self.response.a1(X @ self.beta0), dtype=float)


_erfc = np.vectorize(math.erfc, otypes=[float])


class ProbitTruth(Mechanism):
    """Bernoulli truth with a probit link: misspecified for the logistic model."""

    name = "probit-truth"

    def __init__(self, beta0):
        self.beta0 = np.asarray(beta0, dtype=float)
        self.response = get_family("logistic")  # Bernoulli responses

    def mean(self, X):
        return 0.5 * _erfc(-(X @ self.beta0) / math.sqrt(2.0))  # normal CDF


class NegBinTruth(Mechanism):
    """Negative-binomial truth with log link: overdispersed counts, the
    designated sub-exponential (non-sub-Gaussian) mechanism."""

    name = "negbin-truth"

    def __init__(self, beta0, size):
        self.beta0 = np.asarray(beta0, dtype=float)
        self.size = float(size)
        if self.size <= 0:
            raise ConfigError("negbin size must be > 0")

    def mean(self, X):
        return np.exp(X @ self.beta0)

    def draw_from_mean(self, m, rng):
        p = self.size / (self.size + m)
        return rng.negative_binomial(self.size, p).astype(float)

    def tail_from_mean(self, m):
        # MGF of y - m is finite for s < log(1 + size/m); certify (nu, g) on
        # half that radius via a grid bound on 2*logMGF_centered(s)/s^2,
        # inflated 10% to absorb the grid.
        r = self.size
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


class HeteroGaussian(Mechanism):
    """Gaussian truth with identity link and a per-observation sigma profile."""

    name = "hetero-gaussian"

    def __init__(self, beta0, sigmas):
        self.beta0 = np.asarray(beta0, dtype=float)
        self.sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
        if np.any(self.sigmas < 0):
            raise ConfigError("sigma profile must be nonnegative")

    def _sigma_vec(self, n):
        return np.resize(self.sigmas, n)

    def mean(self, X):
        return X @ self.beta0

    def draw_from_mean(self, m, rng):
        n = len(m)
        return m + self._sigma_vec(n) * rng.standard_normal(n)

    def tail_from_mean(self, m):
        return TailBound("subgaussian", tau=float(self.sigmas.max()))


def get_mechanism(name, **params):
    """Resolve a mechanism identifier plus parameters to a Mechanism; a
    missing, unknown or wrongly typed parameter is a ConfigError."""
    cls = {"glm-well-specified": GlmTruth, "probit-truth": ProbitTruth,
           "negbin-truth": NegBinTruth, "hetero-gaussian": HeteroGaussian}.get(name)
    if cls is None:
        raise ConfigError(f"unknown mechanism {name!r}")
    try:
        return cls(**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for mechanism {name!r}: {exc}")


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    true_mean: np.ndarray
    tau: float | None
    mechanism: str
    seed: int
    tail: TailBound = field(repr=False, default=None)

    def __post_init__(self):
        n, d = self.X.shape
        if not (n >= d >= 1):
            raise ConfigError(f"need n >= d >= 1, got {self.X.shape}")
        for name, v in (("X", self.X), ("y", self.y), ("true_mean", self.true_mean)):
            if not np.all(np.isfinite(v)):
                raise DomainError(f"non-finite entries in {name}")
        if len(self.y) != n or len(self.true_mean) != n:
            raise ConfigError("y / true_mean length mismatch with X")


def simulate_truth(mechanism, X, params=None, seed=0):
    """Draw a Dataset from a mechanism (identifier + params, or an instance).

    true_mean is the mechanism's analytic mean; tau is a certified
    sub-Gaussian parameter, or None when the mechanism is routed to the
    sub-exponential tail (see the tail field).
    """
    if isinstance(mechanism, str):
        mech = get_mechanism(mechanism, **(params or {}))
    else:
        mech = mechanism
    X = np.asarray(X, dtype=float)
    rng = derive_rng(seed, "simulate", mech.name)
    tail = mech.tail(X)
    return Dataset(
        X=X,
        y=mech.draw(X, rng),
        true_mean=mech.mean(X),
        tau=tail.tau if tail.kind == "subgaussian" else None,
        mechanism=mech.name,
        seed=int(seed),
        tail=tail,
    )


def dataset_to_csv(ds, path):
    """Write a dataset as CSV with columns y, true_mean, x1..xd."""
    d = ds.X.shape[1]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "true_mean"] + [f"x{j + 1}" for j in range(d)])
        for i in range(ds.X.shape[0]):
            w.writerow([format(ds.y[i], ".17g"), format(ds.true_mean[i], ".17g")]
                       + [format(v, ".17g") for v in ds.X[i]])
