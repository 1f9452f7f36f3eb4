"""Experiment driver: coverage studies, BIC scans, concentration
experiments, and model comparison, all deterministic given a master seed.

Replicates use counter-derived streams (see datagen), so results are
independent of worker count and each replicate is reproducible in
isolation.  CSV output is written in replicate order with fixed float
formatting, making reruns byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict, replace
from functools import cached_property

import numpy as np

from .bounds import compute_bounds
from .curvature import certificate, default_ellipsoid
from .datagen import derive_rng, derive_seed, make_design, get_mechanism, replicate_rng
from .errors import (BoxError, ConfigError, EvboundsError, NumericalError,
                     ReliabilityError, SingularityError)
from .families import get_family, log_likelihood_full
from .oracles import (QuadratureGrid, conjugate_log_z, importance_log_z,
                      log_target_curvature, posterior_mass, quadrature_log_z)
from .priors import extremes_over_ball, get_prior
from .process import calibrate_C, exact_sup_ellipsoid, theoretical_C
from .pseudotrue import solve_pseudo_true

_SCHEMA_COMMENT = "# evbounds report schema v1"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    family: str = "gaussian"
    mechanism: str = "glm-well-specified"
    mechanism_params: dict = field(default_factory=dict)
    design: str = "uniform"
    n: int = 100
    d: int | None = None
    d_rule: str | None = None          # e.g. "n^0.3" -> d = ceil(n**0.3)
    n_grid: tuple | None = None        # for bic-scan / concentration
    prior: str = "gaussian-product"
    prior_params: dict = field(default_factory=dict)
    prior_extremes: str = "conservative"
    c1: float = 4.0
    c_source: str = "empirical-quantile"
    k0: float = 8.0
    nu: float = 1.0
    eta: float = 0.05
    delta: float = 0.05
    delta_tilde: float = 0.05
    calib_reps: int = 400
    n_replicates: int = 100
    oracle: str = "auto"               # conjugate | quadrature | importance | auto
    sigma: float = 1.0                 # conjugate oracle noise scale
    box_halfwidth: float = 12.0
    n_nodes_per_dim: int = 32
    n_draws: int = 20_000
    master_seed: int = 0
    output_path: str | None = None
    jobs: int = 1
    candidates: tuple = ()             # model comparison only

    # -- flat key-value (de)serialization: nested dicts use dotted keys -----

    _NESTED = ("mechanism", "prior")

    @classmethod
    def from_flat(cls, flat):
        kwargs = {}
        mech_params, prior_params = {}, {}
        valid = set(cls.__dataclass_fields__)
        for key, value in flat.items():
            if key.startswith("mechanism."):
                mech_params[key.split(".", 1)[1]] = value
            elif key.startswith("prior."):
                prior_params[key.split(".", 1)[1]] = value
            elif key in ("n_grid", "candidates"):
                kwargs[key] = tuple(value) if value is not None else None
            elif key in valid:
                _check_type(key, value, cls.__dataclass_fields__[key].type)
                kwargs[key] = value
            else:
                raise ConfigError(f"unknown config key {key!r}")
        if mech_params:
            kwargs["mechanism_params"] = mech_params
        if prior_params:
            kwargs["prior_params"] = prior_params
        cfg = cls(**kwargs)
        cfg.resolve_d(cfg.n)  # validate d/d_rule early
        return cfg

    def to_flat(self):
        out = {}
        for key, value in asdict(self).items():
            if key == "mechanism_params":
                for pk, pv in value.items():
                    out[f"mechanism.{pk}"] = pv
            elif key == "prior_params":
                for pk, pv in value.items():
                    out[f"prior.{pk}"] = pv
            elif key in ("n_grid", "candidates"):
                if value:
                    out[key] = list(value)
            elif value != self.__dataclass_fields__[key].default:
                out[key] = value
            elif key in ("family", "mechanism", "n", "master_seed"):
                out[key] = value
        return out

    def resolve_d(self, n):
        if self.d is not None:
            if self.d_rule is not None:
                raise ConfigError("give d or d_rule, not both")
            return int(self.d)
        if self.d_rule is not None:
            rule = self.d_rule.strip()
            if not rule.startswith("n^"):
                raise ConfigError(f"unsupported d_rule {self.d_rule!r}; use 'n^<exponent>'")
            return int(math.ceil(n ** float(rule[2:])))
        raise ConfigError("config needs d or d_rule")


_SCALAR_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}


def _check_type(key, value, annotation):
    """Refuse a scalar config value of the wrong type (e.g. "n": "abc")."""
    kind, _, alternative = annotation.partition(" | ")
    expected = _SCALAR_TYPES.get(kind)
    if expected is None or (value is None and alternative == "None"):
        return
    if isinstance(value, bool) or not isinstance(value, expected):
        raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}")


def load_config(path):
    try:
        with open(path) as fh:
            flat = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc.strerror}")
    except ValueError as exc:  # malformed JSON or text encoding
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}")
    if not isinstance(flat, dict):
        raise ConfigError("config file must hold a flat JSON object")
    return ExperimentConfig.from_flat(flat)


# ---------------------------------------------------------------------------
# pipeline context (constants shared by all replicates)
# ---------------------------------------------------------------------------

@dataclass
class PipelineContext:
    """The replicate-invariant objects of one pipeline (see build_context).
    The stages after the ellipsoid are built when first read, so a caller
    pays only for the stages it uses."""

    config: ExperimentConfig
    n: int
    d: int
    family: object
    X: np.ndarray
    mechanism: object
    true_mean: np.ndarray
    fit: object
    ell: object
    quad_grid: object = None  # quadrature grid shared by a coverage study's replicates

    @cached_property
    def cert(self):
        return certificate(self.family, self.X, self.ell)

    @cached_property
    def prior(self):
        return get_prior(self.config.prior, **self.config.prior_params)

    @cached_property
    def prior_ext(self):
        return extremes_over_ball(self.prior, self.ell, self.config.prior_extremes)

    @cached_property
    def proc(self):
        """Process constants for residuals drawn around true_mean."""
        config, n, d = self.config, self.n, self.d
        if config.c_source == "empirical-quantile":
            seed = derive_seed(config.master_seed, "calibration", n, d)
            return calibrate_C(self.mechanism, self.X, self.ell, config.calib_reps,
                               config.delta_tilde, seed=seed, mean=self.true_mean)
        tail = self.mechanism.tail_from_mean(self.true_mean)
        if config.c_source == "subgaussian-theory":
            if tail.kind != "subgaussian" or tail.tau is None:
                raise ConfigError(
                    f"mechanism {self.mechanism.name!r} has no finite sub-Gaussian "
                    "parameter; use c_source subexponential-theory")
            return theoretical_C("subgaussian", tail.tau, self.X, d, n, self.ell.R,
                                 k0=config.k0)
        if config.c_source == "subexponential-theory":
            gbar = tail.gbar if tail.kind == "subexponential" else 0.0
            nu = tail.nu if (tail.kind == "subexponential" and tail.nu is not None) else config.nu
            return theoretical_C("subexponential", gbar, self.X, d, n, self.ell.R, nu=nu)
        raise ConfigError(f"unknown c_source {config.c_source!r}")

    @cached_property
    def base_report(self):
        """Bounds at loglik = 0; per-replicate bounds are shifts."""
        return compute_bounds(self.fit, 0.0, self.cert, self.proc, self.prior_ext, self.ell,
                              eta=self.config.eta, delta=self.config.delta)


def _build_mechanism(config, d):
    params = dict(config.mechanism_params)
    if config.mechanism == "glm-well-specified":
        params.setdefault("family", config.family)
    scale = params.pop("beta0_scale", None)
    if "beta0" not in params and scale is not None:
        try:
            params["beta0"] = (float(scale) / np.sqrt(d)) * np.ones(d)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad mechanism parameter beta0_scale: {exc}")
    mech = get_mechanism(config.mechanism, **params)  # converts beta0
    if np.shape(mech.beta0) != (d,):
        raise ConfigError(f"beta0 shape {np.shape(mech.beta0)} != (d,) = ({d},)")
    return mech


def _check_columns(columns, d):
    """Candidate column indices as ints, each in 0..d-1 (no wrap-around)."""
    try:
        cols = [int(c) for c in columns]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad columns {columns!r}: {exc}")
    if not cols or not all(0 <= c < d for c in cols):
        raise ConfigError(f"columns {cols} must be a non-empty list of indices in 0..{d - 1}")
    return cols


def build_context(config, n=None, d=None, columns=None):
    """The one pipeline builder: design, truth, true mean, pseudo-true fit
    and localization ellipsoid at n (default config.n) and d (default from
    the config); the certificate, prior, prior extremes, process constants
    and zero-anchored report when first read (see PipelineContext).  With
    `columns` the model is fitted on those design columns while the truth
    generates from the whole design (a submodel)."""
    n = int(n if n is not None else config.n)
    d = int(d if d is not None else config.resolve_d(n))
    X = make_design(n, d, config.design, seed=derive_seed(config.master_seed, "design", n, d))
    mech = _build_mechanism(config, d)
    true_mean = mech.mean(X)
    if columns is not None:
        X = X[:, _check_columns(columns, d)]
        d = X.shape[1]
    family = get_family(config.family)
    fit = solve_pseudo_true(family, X, true_mean)
    ell = default_ellipsoid(fit.beta_star, n, config.c1)
    return PipelineContext(config=config, n=n, d=d, family=family, X=X, mechanism=mech,
                           true_mean=true_mean, fit=fit, ell=ell)


def _resolve_oracle(config, d):
    if config.oracle != "auto":
        return config.oracle
    if config.family == "gaussian" and config.prior == "gaussian-product":
        return "conjugate"
    if d <= 3:
        return "quadrature"
    return "importance"


def _run_oracle(ctx, y, replicate):
    config = ctx.config
    method = _resolve_oracle(config, ctx.d)
    if method == "conjugate":
        if config.family != "gaussian" or config.prior != "gaussian-product":
            raise ConfigError("conjugate oracle needs the gaussian family with "
                              "a gaussian-product prior")
        tau_p = ctx.prior.params["tau_p"]
        return conjugate_log_z(ctx.X, y, config.sigma, tau_p)
    if method == "quadrature":
        if ctx.quad_grid is not None:
            try:
                return ctx.quad_grid.log_z(y)
            except (BoxError, ReliabilityError):
                pass  # the shared box does not suit this response: use its own
        return quadrature_log_z(ctx.family, ctx.X, y, ctx.prior,
                                box_halfwidth=config.box_halfwidth,
                                n_nodes_per_dim=config.n_nodes_per_dim)
    if method == "importance":
        seed = derive_seed(config.master_seed, "oracle", replicate)
        return importance_log_z(ctx.family, ctx.X, y, ctx.prior,
                                n_draws=config.n_draws, seed=seed)
    raise ConfigError(f"unknown oracle {config.oracle!r}")


# ---------------------------------------------------------------------------
# coverage study
# ---------------------------------------------------------------------------

_COVERAGE_COLUMNS = ["replicate", "ell_star", "oracle_log_z", "oracle_se", "lower",
                     "upper", "width", "hit", "miss_side", "sup_realized",
                     "sup_exceeds", "theorem_certified", "failed", "fail_reason"]


def _coverage_row(ctx, replicate):
    config = ctx.config
    rng = replicate_rng(config.master_seed, replicate)
    y = ctx.mechanism.draw(ctx.X, rng)
    ell_star = log_likelihood_full(ctx.family, ctx.X, y, ctx.fit.beta_star)
    sup_realized = exact_sup_ellipsoid(ctx.X, y - ctx.true_mean, ctx.ell)
    row = {
        "replicate": replicate,
        "ell_star": ell_star,
        "oracle_log_z": math.nan,
        "oracle_se": math.nan,
        "lower": ell_star + ctx.base_report.lower,
        "upper": ell_star + ctx.base_report.upper,
        "width": ctx.base_report.width,
        "hit": 0,
        "miss_side": "",
        "sup_realized": sup_realized,
        "sup_exceeds": int(sup_realized > ctx.proc.C * ctx.d),
        "theorem_certified": int(ctx.base_report.theorem_certified),
        "failed": 0,
        "fail_reason": "",
    }
    try:
        est = _run_oracle(ctx, y, replicate)
    except (ReliabilityError, NumericalError) as exc:
        row["failed"] = 1
        row["fail_reason"] = f"{type(exc).__name__}: {exc}"
        return row
    row["oracle_log_z"] = est.log_z
    row["oracle_se"] = est.standard_error
    if est.log_z > row["upper"]:
        row["miss_side"] = "upper"
    elif est.log_z < row["lower"]:
        row["miss_side"] = "lower"
    else:
        row["hit"] = 1
    return row


def _coverage_context(config):
    """The pipeline context of a coverage study.  A quadrature oracle gets
    one y-free grid centred at beta* and scaled by the log-target curvature
    there, shared by every replicate; a replicate the shared grid cannot
    certify retries on a grid centred at its own posterior mode."""
    ctx = build_context(config)
    if _resolve_oracle(config, ctx.d) == "quadrature":
        centre = ctx.fit.beta_star
        try:
            ctx.quad_grid = QuadratureGrid(
                ctx.family, ctx.X, ctx.prior, centre,
                log_target_curvature(ctx.family, ctx.X, ctx.prior, centre),
                box_halfwidth=config.box_halfwidth,
                n_nodes_per_dim=config.n_nodes_per_dim)
        except SingularityError:
            pass  # every replicate integrates on its own mode-centred grid
    return ctx


# the context of the study a pool worker serves, set once per worker process
_worker_ctx = None


def _init_coverage_worker(flat_json):
    # contexts hold closures that do not pickle; rebuilding one from its
    # config is deterministic, so every worker sees the parent's context
    global _worker_ctx
    _worker_ctx = _coverage_context(ExperimentConfig.from_flat(json.loads(flat_json)))


def _coverage_worker(replicate):
    return _coverage_row(_worker_ctx, replicate)


@dataclass
class CoverageReport:
    config: ExperimentConfig
    rows: list
    n_replicates: int
    n_sandwich_hits: int
    n_misses: int
    n_failures: int
    hit_rate: float
    guaranteed_rate: float
    mean_width: float
    mean_width_per_d: float
    constants: dict
    validity: dict

    def summary(self):
        return {k: v for k, v in vars(self).items() if k not in ("config", "rows")}

    def write_csv(self, path):
        _write_csv(path, _COVERAGE_COLUMNS, self.rows)


def _fmt(value):
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return format(value, ".17g")
    return str(value)


def _write_csv(path, columns, rows):
    with open(path, "w", newline="") as fh:
        fh.write(_SCHEMA_COMMENT + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def run_coverage(config):
    """Replicate-level sandwich coverage against the configured oracle.

    Failures (oracle reliability, certification) are counted separately
    from misses; n_replicates = hits + misses + failures always.
    """
    ctx = _coverage_context(config)
    base = ctx.base_report  # builds every stage, so a bad config fails before the pool
    reps = range(config.n_replicates)
    if config.jobs > 1:
        flat_json = json.dumps(config.to_flat(), sort_keys=True)
        with ProcessPoolExecutor(max_workers=config.jobs,
                                 mp_context=multiprocessing.get_context("spawn"),
                                 initializer=_init_coverage_worker,
                                 initargs=(flat_json,)) as pool:
            rows = list(pool.map(_coverage_worker, reps, chunksize=8))
    else:
        rows = [_coverage_row(ctx, r) for r in reps]
    hits = sum(r["hit"] for r in rows)
    failures = sum(r["failed"] for r in rows)
    misses = config.n_replicates - hits - failures
    widths = [r["width"] for r in rows if not r["failed"]]
    mean_width = float(np.mean(widths)) if widths else math.nan
    return CoverageReport(
        config=config, rows=rows, n_replicates=config.n_replicates,
        n_sandwich_hits=hits, n_misses=misses, n_failures=failures,
        hit_rate=hits / config.n_replicates,
        guaranteed_rate=1.0 - config.delta - ctx.proc.delta_tilde,
        mean_width=mean_width, mean_width_per_d=mean_width / ctx.d,
        constants=dict(base.constants), validity=dict(base.validity))


# ---------------------------------------------------------------------------
# BIC leading-term scan
# ---------------------------------------------------------------------------

_BIC_COLUMNS = ["n", "d", "log_det_H", "d_log_n", "ell_star", "oracle_log_z",
                "lower", "upper", "midpoint", "C", "c"]


@dataclass
class BicScanReport:
    rows: list
    slope: float
    d: int

    def summary(self):
        return {"slope_log_det_H_vs_log_n": self.slope, "d": self.d,
                "rows": self.rows}

    def write_csv(self, path):
        _write_csv(path, _BIC_COLUMNS, self.rows)


def run_bic_scan(config, n_grid=None):
    """Scan n with d fixed: log|H| should grow like d*log(n), the Laplace
    skeleton reproducing the classical model-selection penalty."""
    grid = tuple(n_grid if n_grid is not None else (config.n_grid or ()))
    if not grid or list(grid) != sorted(grid):
        raise ConfigError("bic scan needs an increasing n_grid")
    rows = []
    d = config.resolve_d(grid[0])
    for n in grid:
        ctx = build_context(config, n=n, d=d)
        rng = derive_rng(config.master_seed, "bic", n)
        y = ctx.mechanism.draw(ctx.X, rng)
        ell_star = log_likelihood_full(ctx.family, ctx.X, y, ctx.fit.beta_star)
        lower = ell_star + ctx.base_report.lower
        upper = ell_star + ctx.base_report.upper
        try:
            oracle = _run_oracle(ctx, y, 0).log_z
        except EvboundsError:
            oracle = math.nan
        rows.append({
            "n": n, "d": ctx.d, "log_det_H": ctx.base_report.log_det_H,
            "d_log_n": ctx.d * math.log(n), "ell_star": ell_star,
            "oracle_log_z": oracle, "lower": lower, "upper": upper,
            "midpoint": (lower + upper) / 2.0,
            "C": ctx.proc.C, "c": ctx.cert.c,
        })
    slope = float(np.polyfit(np.log(grid), [r["log_det_H"] for r in rows], 1)[0])
    return BicScanReport(rows=rows, slope=slope, d=d)


# ---------------------------------------------------------------------------
# posterior concentration study
# ---------------------------------------------------------------------------

_CONC_COLUMNS = ["n", "d", "replicate", "gamma", "gamma_se", "ess_ok", "fail_reason"]


@dataclass
class ConcentrationReport:
    rows: list
    per_n: list  # dicts: n, d, frac_concentrated, ess_ok_frac, mean_gamma
    eta: float
    nondecreasing: bool

    def summary(self):
        return {"eta": self.eta, "per_n": self.per_n,
                "fraction_nondecreasing_in_n": self.nondecreasing}

    def write_csv(self, path):
        _write_csv(path, _CONC_COLUMNS, self.rows)


def run_concentration(config):
    """Posterior-mass concentration on the localization set as n grows,
    with d following the configured rule.

    The prior must belong to the exponential-envelope class exp(-kappa*h)
    with h Lipschitz-enveloped (e.g. laplace-product): the concentration
    guarantee is proved for that class, and a gaussian-product prior is
    refused here because its shape grows quadratically, outside the class.
    """
    prior = get_prior(config.prior, **config.prior_params)
    if prior.shape_h is None:
        raise ConfigError(
            f"prior {config.prior!r} is outside the exponential-envelope class "
            "exp(-kappa*h(x)) with |h(x)-h(y)| <= D + D|x-y| that the "
            "concentration guarantee requires; use laplace-product")
    grid = tuple(config.n_grid or ())
    if not grid:
        raise ConfigError("concentration study needs n_grid")
    rows, per_n = [], []
    for n in grid:
        ctx = build_context(config, n=n)
        gammas, ess_ok_count = [], 0
        for r in range(config.n_replicates):
            rng = derive_rng(config.master_seed, "concentration", n, r)
            y = ctx.mechanism.draw(ctx.X, rng)
            row = {"n": n, "d": ctx.d, "replicate": r, "gamma": math.nan,
                   "gamma_se": math.nan, "ess_ok": 0, "fail_reason": ""}
            try:
                mass = posterior_mass(ctx.family, ctx.X, y, prior, ctx.ell,
                                      n_draws=config.n_draws,
                                      seed=derive_seed(config.master_seed,
                                                       "concentration-draws", n, r))
                row.update(gamma=mass.p, gamma_se=mass.standard_error, ess_ok=1)
                gammas.append(mass.p)
                ess_ok_count += 1
            except (ReliabilityError, NumericalError) as exc:
                row["fail_reason"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
        threshold = 1.0 - config.eta
        frac = sum(g >= threshold for g in gammas) / config.n_replicates
        per_n.append({"n": n, "d": ctx.d, "frac_concentrated": frac,
                      "ess_ok_frac": ess_ok_count / config.n_replicates,
                      "mean_gamma": float(np.mean(gammas)) if gammas else math.nan})
    fracs = [p["frac_concentrated"] for p in per_n]
    nondecreasing = all(a <= b + 1e-12 for a, b in zip(fracs, fracs[1:]))
    return ConcentrationReport(rows=rows, per_n=per_n, eta=config.eta,
                               nondecreasing=nondecreasing)


# ---------------------------------------------------------------------------
# model comparison
# ---------------------------------------------------------------------------

_COMPARE_COLUMNS = ["name", "d", "lower", "upper", "oracle_log_z", "oracle_se"]


@dataclass
class CompareReport:
    rows: list
    certified: list      # (name_above, name_below) with lower_a > upper_b
    not_certified: list  # unordered pairs with overlapping intervals

    def summary(self):
        return {"rows": self.rows,
                "certified_order": [list(p) for p in self.certified],
                "not_certified": [list(p) for p in self.not_certified]}

    def write_csv(self, path):
        _write_csv(path, _COMPARE_COLUMNS, self.rows)


def run_model_compare(config):
    """Evaluate candidate models on one shared dataset and report the
    partial order certified by non-overlapping evidence intervals.

    Candidates are dicts with a `name`, optional `columns` (indices into
    the base design), and optional overrides for family/prior keys.  A
    candidate that sets `prior` takes its `prior.*` keys from itself alone;
    one that does not inherits the base config's.
    """
    if not config.candidates:
        raise ConfigError("model comparison needs a candidates list")
    base = build_context(config)
    y = base.mechanism.draw(base.X, derive_rng(config.master_seed, "compare"))
    # a candidate may refit with another family; the truth stays the base one
    truth = {"family": config.family} if config.mechanism == "glm-well-specified" else {}
    mechanism_params = {**truth, **config.mechanism_params}

    rows = []
    for cand in config.candidates:
        cand = dict(cand)
        name = cand.pop("name")
        cols = cand.pop("columns", None)
        overrides = {}
        prior_params = {} if "prior" in cand else dict(config.prior_params)
        for key, value in cand.items():
            if key.startswith("prior."):
                prior_params[key.split(".", 1)[1]] = value
            elif key in ("family", "prior", "c1", "eta", "delta", "oracle",
                         "prior_extremes", "c_source", "calib_reps",
                         "delta_tilde", "n_nodes_per_dim", "box_halfwidth",
                         "n_draws", "sigma"):
                overrides[key] = value
            else:
                raise ConfigError(f"unknown candidate key {key!r}")
        sub = replace(config, prior_params=prior_params,
                      mechanism_params=mechanism_params, **overrides)
        ctx = build_context(sub, columns=cols)
        report = compute_bounds(ctx.fit, log_likelihood_full(ctx.family, ctx.X, y,
                                                             ctx.fit.beta_star),
                                ctx.cert, ctx.proc, ctx.prior_ext, ctx.ell,
                                eta=sub.eta, delta=sub.delta)
        try:
            est = _run_oracle(ctx, y, 0)
            oracle, oracle_se = est.log_z, est.standard_error
        except EvboundsError:
            oracle, oracle_se = math.nan, math.nan
        rows.append({"name": name, "d": ctx.d, "lower": report.lower,
                     "upper": report.upper, "oracle_log_z": oracle,
                     "oracle_se": oracle_se})

    certified, not_certified = [], []
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            if i < j:
                if a["lower"] > b["upper"]:
                    certified.append((a["name"], b["name"]))
                elif b["lower"] > a["upper"]:
                    certified.append((b["name"], a["name"]))
                else:
                    not_certified.append((a["name"], b["name"]))
    return CompareReport(rows=rows, certified=certified, not_certified=not_certified)

