"""Command-line interface.

Every subcommand reads a flat JSON config, prints a JSON result to stdout,
and optionally writes CSV tables.  Exit codes: 0 success, 2 configuration
error, 3 numerical/reliability failure, 4 hypothesis violation in --strict
mode.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .bounds import compute_bounds
from .curvature import check_assumption1
from .datagen import derive_rng
from .errors import ConfigError, HypothesisViolation, NumericalError
from .families import log_likelihood_full
from .harness import (build_context, load_config, run_bic_scan, run_concentration,
                      run_coverage, run_model_compare, _run_oracle, _write_csv)
from .pseudotrue import solve_mle


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and (obj != obj):  # NaN -> null for valid JSON
        return None
    return obj


def _emit(payload):
    json.dump(_jsonable(payload), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _replicate_data(ctx):
    rng = derive_rng(ctx.config.master_seed, "replicate", 0)
    return ctx.mechanism.draw(ctx.X, rng)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_pseudo_true(config, args):
    ctx = build_context(config)
    fit = ctx.fit
    _emit({"n": ctx.n, "d": ctx.d, "beta_star": fit.beta_star,
           "objective": fit.objective, "grad_norm": fit.grad_norm,
           "iterations": fit.iterations, "converged": fit.converged})


def _cmd_curvature(config, args):
    ctx = build_context(config)
    cert = ctx.cert
    if args.csv:
        rows = [{"i": i, "t_lo": float(cert.t_lo[i]), "t_hi": float(cert.t_hi[i]),
                 "u_sq": float(cert.u_sq[i]), "v_sq": float(cert.v_sq[i])}
                for i in range(ctx.n)]
        _write_csv(args.csv, ["i", "t_lo", "t_hi", "u_sq", "v_sq"], rows)
    _emit({"n": ctx.n, "d": ctx.d, "c": cert.c, "c_in_range": cert.c_in_range,
           "log_det_H": ctx.base_report.log_det_H, "H": cert.H,
           "interval_table_csv": args.csv})


def _cmd_process_constants(config, args):
    ctx = build_context(config)
    proc = ctx.proc
    _emit({"C": proc.C, "C_times_d": proc.C * ctx.d, "delta_tilde": proc.delta_tilde,
           "source": proc.source, "C_method": proc.method, "threshold": proc.threshold,
           "k0": proc.k0, "nu": proc.nu})


def _cmd_oracle(config, args):
    ctx = build_context(config)
    y = _replicate_data(ctx)
    est = _run_oracle(ctx, y, 0)
    _emit({"log_z": est.log_z, "standard_error": est.standard_error,
           "method": est.method, "n_evals": est.n_evals, "ess": est.ess})


def _cmd_bounds(config, args):
    ctx = build_context(config)
    y = _replicate_data(ctx)
    ell_star = log_likelihood_full(ctx.family, ctx.X, y, ctx.fit.beta_star)
    a1_checked = False
    if args.check_rate:
        a1_checked = check_assumption1(ctx.family, ctx.X, ctx.true_mean,
                                       ctx.fit, ctx.cert, ctx.ell,
                                       n_samples=2000,
                                       seed=config.master_seed).ok
    mle = solve_mle(ctx.family, ctx.X, y)
    mle_full = log_likelihood_full(ctx.family, ctx.X, y, mle.beta_star)
    report = compute_bounds(ctx.fit, ell_star, ctx.cert, ctx.proc, ctx.prior_ext,
                            ctx.ell, eta=config.eta, delta=config.delta,
                            assumption1_checked=a1_checked,
                            mle_log_lik=mle_full)
    if args.strict and not report.theorem_certified:
        raise HypothesisViolation(
            f"bound hypotheses not certified: validity = {report.validity}")
    if args.csv:
        row = {"lower": report.lower, "upper": report.upper, "width": report.width,
               "ell_star": report.ell_star, "log_det_H": report.log_det_H,
               **{f"constants.{k}": v for k, v in report.constants.items()}}
        _write_csv(args.csv, list(row), [row])
    _emit(report.to_dict())


def _cmd_study(config, args):
    """coverage, bic-scan, concentration and compare: run the study, write
    its CSV, print its summary."""
    run = {"coverage": run_coverage, "bic-scan": run_bic_scan,
           "concentration": run_concentration, "compare": run_model_compare}[args.command]
    report = run(config)
    path = args.csv or config.output_path
    if path:
        report.write_csv(path)
    if args.strict and not getattr(report, "theorem_certified", True):
        raise HypothesisViolation(
            f"bound hypotheses not certified: validity = {report.validity}")
    _emit({**report.summary(), "csv": path})


_COMMANDS = {
    "pseudo-true": (_cmd_pseudo_true, "solve the population-level fit"),
    "curvature": (_cmd_curvature, "curvature certificate: c, H, interval table"),
    "process-constants": (_cmd_process_constants, "stochastic-term constant C"),
    "oracle": (_cmd_oracle, "independent log-evidence estimate for one dataset"),
    "bounds": (_cmd_bounds, "two-sided log-evidence bounds for one dataset"),
    "coverage": (_cmd_study, "replicate coverage study against an oracle"),
    "bic-scan": (_cmd_study, "growth of log|H| and the sandwich along an n grid"),
    "concentration": (_cmd_study, "posterior mass of the localization set"),
    "compare": (_cmd_study, "certified model ordering on shared data"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="evbounds",
        description="Two-sided log-evidence bounds for (possibly misspecified) GLMs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="flat JSON config file")
        p.add_argument("--csv", default=None, help="CSV output path")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--replicates", type=int, default=None,
                       help="override n_replicates")
        p.add_argument("--jobs", type=int, default=None, help="override worker count")
        p.add_argument("--strict", action="store_true",
                       help="exit 4 unless every bound hypothesis is certified")
        if name == "bounds":
            p.add_argument("--check-rate", action="store_true",
                           help="also sample-check the local curvature sandwich")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        overrides = {}
        if args.seed is not None:
            overrides["master_seed"] = args.seed
        if args.replicates is not None:
            overrides["n_replicates"] = args.replicates
        if args.jobs is not None:
            overrides["jobs"] = args.jobs
        if overrides:
            config = dataclasses.replace(config, **overrides)
        _COMMANDS[args.command][0](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"config error: the configured sizes do not fit in memory ({exc})",
              file=sys.stderr)
        return 2
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
