"""The three workloads: their inputs, one timed round each, and the checks
made on the rounds' outputs after the timed phase.

A round calls the program only through `evbounds.run_coverage`,
`evbounds.run_concentration` or `evbounds.cli.main([...])`, looked up at
call time so that the tracer's wrappers are seen.  Round k of a run with
seed s gives every study the master seed  base + 1000 * s + k  (k < 1000),
so --seed 0 starts from the acceptance suite's seeds.

`check(k, record)` returns one [group, status] pair per unit (a coverage
replicate, one posterior-mass estimate, one `bounds` bracket) with status
"ok", "failed" (the program refused or raised) or "wrong" (a check on its
output failed); the coverage counts {group: [hits, trials, rate]} that
run.py pools over the rounds of a run; and notes on what failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import evbounds
import evbounds.cli

import reference as ref

ROUND_STRIDE = 1000


def master_seed(base, seed, k):
    if not 0 <= k < ROUND_STRIDE:
        raise ValueError(f"round {k} out of range")
    return int(base) + ROUND_STRIDE * int(seed) + int(k)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

# coverage-quadrature: the acceptance logistic study, and a Gaussian study
# forced through quadrature; replicate counts per round.  The acceptance
# Poisson study (laplace-product prior) is left out: about one dataset in
# 900 stalls `posterior_mode` at the prior's kink, so whether a run fails
# would depend on its seed.
COVERAGE_STUDIES = {
    "logistic": {
        "family": "logistic", "mechanism": "glm-well-specified",
        "mechanism.beta0": [0.8, -0.5], "design": "uniform", "n": 200, "d": 2,
        "prior": "gaussian-product", "prior.tau_p": 3.0,
        "oracle": "quadrature", "calib_reps": 400, "n_replicates": 10, "master_seed": 7,
    },
    "gaussian": {
        "family": "gaussian", "mechanism": "glm-well-specified",
        "mechanism.beta0": [0.5, -0.3], "design": "uniform", "n": 400, "d": 2,
        "prior": "gaussian-product", "prior.tau_p": 2.0,
        "oracle": "quadrature", "calib_reps": 400, "n_replicates": 10,
        "master_seed": 20260816,
    },
}

# concentration-importance: the acceptance concentration study without its
# n = 200 point, one replicate per n per round.  At n = 200 (d = 5) about
# one dataset in 300 stalls `posterior_mode` at the laplace prior's kink;
# none did in 6000 datasets at n = 800 or 2000 at n = 3200.
CONCENTRATION = {
    "family": "logistic", "mechanism": "glm-well-specified",
    "mechanism.beta0_scale": 0.5, "design": "rademacher",
    "prior": "laplace-product", "prior.kappa": 1.0, "c1": 4.0, "eta": 0.1,
    "d_rule": "n^0.3", "n_grid": [800, 3200], "n_replicates": 1,
    "n_draws": 20000, "master_seed": 3, "n": 800,
}

# cli-bounds: three scale points, empirical-quantile C from 400 draws.
BOUNDS_POINTS = {
    "gaussian-1e5x5": {
        "family": "gaussian", "mechanism": "glm-well-specified",
        "mechanism.beta0": [0.4, -0.3, 0.2, 0.1, -0.2], "design": "uniform",
        "n": 100000, "d": 5, "prior": "gaussian-product", "prior.tau_p": 5.0,
        "c_source": "empirical-quantile", "calib_reps": 400, "master_seed": 20260816,
    },
    "logistic-2e4x50": {
        "family": "logistic", "mechanism": "glm-well-specified",
        "mechanism.beta0_scale": 0.5, "design": "uniform", "n": 20000, "d": 50,
        "prior": "gaussian-product", "prior.tau_p": 3.0,
        "c_source": "empirical-quantile", "calib_reps": 400, "master_seed": 7,
    },
    "probit-2e4x20": {
        "family": "logistic", "mechanism": "probit-truth",
        "mechanism.beta0_scale": 0.5, "design": "uniform", "n": 20000, "d": 20,
        "prior": "gaussian-product", "prior.tau_p": 3.0,
        "c_source": "empirical-quantile", "calib_reps": 400, "master_seed": 42,
    },
}


def _design(flat, ms, n=None, d=None):
    """The design the harness builds for this config (same seed path)."""
    n = int(n if n is not None else flat["n"])
    d = int(d if d is not None else flat["d"])
    return evbounds.make_design(n, d, flat["design"],
                                seed=evbounds.derive_seed(ms, "design", n, d))


def _response(flat, X, rng, beta0=None):
    beta0 = np.asarray(flat["mechanism.beta0"] if beta0 is None else beta0, dtype=float)
    mech = evbounds.get_mechanism("glm-well-specified", family=flat["family"], beta0=beta0)
    return mech.draw(X, rng)


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# coverage-quadrature
# ---------------------------------------------------------------------------

class CoverageQuadrature:
    name = "coverage-quadrature"
    EXACT_TOL = 1e-6      # quadrature certifies 1e-6 node-doubling agreement
    LATTICE_TOL = 1e-6    # lattice evidence vs quadrature, absolute in log Z

    def __init__(self, seed, workdir):
        self.seed = seed

    def prepare(self, k):
        pass

    def run_round(self, k):
        out = {}
        for study, flat in COVERAGE_STUDIES.items():
            ms = master_seed(flat["master_seed"], self.seed, k)
            config = evbounds.ExperimentConfig.from_flat(dict(flat, master_seed=ms))
            out[study] = (ms, evbounds.run_coverage(config))
        return out

    def units(self, record):
        return sum(rep.n_replicates for _, rep in record.values())

    def check(self, k, record):
        statuses, pools, notes = [], {}, []
        for study, (ms, rep) in record.items():
            flat = COVERAGE_STUDIES[study]
            rate = rep.guaranteed_rate
            if abs(rate - (1.0 - rep.config.delta - rep.config.delta_tilde)) > 1e-12:
                notes.append(f"{study}: guaranteed_rate {rate!r}")
                statuses += [[study, "wrong"]] * rep.n_replicates
                continue
            pools[study] = [rep.n_sandwich_hits, rep.n_replicates - rep.n_failures, rate]
            X = _design(flat, ms)
            for row in rep.rows:
                r = row["replicate"]
                if row["failed"]:
                    statuses.append([study, "failed"])
                    notes.append(f"{study} replicate {r}: {row['fail_reason']}")
                    continue
                y = _response(flat, X, evbounds.replicate_rng(ms, r))
                if study == "gaussian":
                    reference = ref.gaussian_evidence_dense(X, y, 1.0, flat["prior.tau_p"])
                    tol = self.EXACT_TOL
                elif k == 0 and r == 0:
                    reference = ref.lattice_log_evidence(
                        X, y, flat["prior"], {"tau_p": flat["prior.tau_p"]})
                    tol = self.LATTICE_TOL
                else:
                    statuses.append([study, "ok"])
                    continue
                ok = abs(row["oracle_log_z"] - reference) <= tol
                statuses.append([study, "ok" if ok else "wrong"])
                if not ok:
                    notes.append(f"{study} replicate {r}: oracle {row['oracle_log_z']!r} "
                                 f"vs reference {reference!r}")
        return statuses, pools, notes


# ---------------------------------------------------------------------------
# concentration-importance
# ---------------------------------------------------------------------------

class ConcentrationImportance:
    name = "concentration-importance"
    SE_MULT = 5.0          # agreement within 5 combined standard errors ...
    SE_FLOOR = 1e-3        # ... each taken as at least 1e-3
    REF_DRAWS = 40_000
    # (round, n) pairs re-estimated with the benchmark's own proposal
    CROSS_CHECKS = ((0, 800), (1, 800))

    def __init__(self, seed, workdir):
        self.seed = seed

    def prepare(self, k):
        pass

    def run_round(self, k):
        ms = master_seed(CONCENTRATION["master_seed"], self.seed, k)
        config = evbounds.ExperimentConfig.from_flat(dict(CONCENTRATION, master_seed=ms))
        return ms, evbounds.run_concentration(config)

    def units(self, record):
        return len(record[1].rows)

    def check(self, k, record):
        statuses, notes = [], []
        flat = CONCENTRATION
        ms, rep = record
        expected = len(flat["n_grid"]) * flat["n_replicates"]
        if len(rep.rows) != expected:
            notes.append(f"{len(rep.rows)} rows, expected {expected}")
            statuses += [["rows", "wrong"]] * max(0, expected - len(rep.rows))
        for row in rep.rows:
            n, d = row["n"], row["d"]
            group = f"n={n}"
            if not row["ess_ok"]:
                statuses.append([group, "failed"])
                notes.append(f"n={n}: {row['fail_reason']}")
                continue
            gamma, se = row["gamma"], row["gamma_se"]
            ok = 0.0 <= gamma <= 1.0 and se >= 0.0
            if not ok:
                notes.append(f"n={n}: gamma {gamma!r} se {se!r}")
            elif (k, n) in self.CROSS_CHECKS:
                X = _design(flat, ms, n, d)
                beta0 = (flat["mechanism.beta0_scale"] / math.sqrt(d)) * np.ones(d)
                y = _response(flat, X, evbounds.derive_rng(ms, "concentration", n, row["replicate"]),
                              beta0=beta0)
                # well specified: the pseudo-true centre of the ball is beta0
                p_ref, se_ref = ref.ball_posterior_mass(
                    X, y, flat["prior"], {"kappa": flat["prior.kappa"]},
                    beta0, flat["c1"] ** 2 * d / n, self.REF_DRAWS,
                    seed=evbounds.derive_seed(ms, "benchmark-reference", n))
                tol = self.SE_MULT * math.hypot(max(se, self.SE_FLOOR), max(se_ref, self.SE_FLOOR))
                if abs(gamma - p_ref) > tol:
                    ok = False
                    notes.append(f"n={n}: gamma {gamma:.5f}+-{se:.5f} vs "
                                 f"reference {p_ref:.5f}+-{se_ref:.5f}")
            statuses.append([group, "ok" if ok else "wrong"])
        return statuses, {}, notes


# ---------------------------------------------------------------------------
# cli-bounds
# ---------------------------------------------------------------------------

class CliBounds:
    name = "cli-bounds"
    REL = 1e-9

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.paths = {}

    def prepare(self, k):
        """Write round k's config files (input, outside the timed phase)."""
        for point, flat in BOUNDS_POINTS.items():
            path = os.path.join(self.workdir, f"{point}-round{k}.json")
            with open(path, "w") as fh:
                json.dump(dict(flat, master_seed=master_seed(flat["master_seed"], self.seed, k)), fh)
            self.paths[point] = path

    def run_round(self, k):
        out = {}
        for point in BOUNDS_POINTS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = evbounds.cli.main(["bounds", "--config", self.paths[point]])
                except SystemExit as exc:          # argparse
                    code = exc.code
                except Exception as exc:           # a traceback is a failed call
                    code = f"{type(exc).__name__}: {exc}"
            out[point] = (code, stdout.getvalue(), stderr.getvalue())
        return out

    def units(self, record):
        return len(record)

    def _check_report(self, point, ms, r):
        """Notes on what the report gets wrong, and whether the exact
        evidence lies inside its bracket (None where it is not known)."""
        notes = []
        flat = BOUNDS_POINTS[point]
        for side, terms in (("upper", "terms_upper"), ("lower", "terms_lower")):
            rebuilt = r["ell_star"] - r["log_det_H"] / 2.0 + math.fsum(r[terms].values())
            if not _close(rebuilt, r[side], self.REL):
                notes.append(f"{side} {r[side]!r} != skeleton + terms {rebuilt!r}")
        if not r["mle_gap"] >= 0.0:
            notes.append(f"mle_gap {r['mle_gap']!r} < 0")
        const = r["constants"]
        if abs(r["coverage_guarantee"] - (1.0 - const["delta"] - const["delta_tilde"])) > 1e-12:
            notes.append(f"coverage_guarantee {r['coverage_guarantee']!r}")
        if flat["family"] != "gaussian":
            return notes, None
        X = _design(flat, ms)
        beta0 = np.asarray(flat["mechanism.beta0"], dtype=float)
        y = _response(flat, X, evbounds.derive_rng(ms, "replicate", 0))
        log_det = float(np.linalg.slogdet(X.T @ X)[1])
        if not _close(r["log_det_H"], log_det, self.REL):
            notes.append(f"log_det_H {r['log_det_H']!r} != log det X'X {log_det!r}")
        if abs(const["c"] - 1.0) > 1e-12:
            notes.append(f"c {const['c']!r} != 1")
        ell = ref.gaussian_loglik(X, y, beta0)
        if not _close(r["ell_star"], ell, self.REL):
            notes.append(f"ell_star {r['ell_star']!r} != loglik at beta0 {ell!r}")
        log_z = ref.gaussian_evidence_svd(X, y, 1.0, flat["prior.tau_p"])
        return notes, r["lower"] <= log_z <= r["upper"]

    def check(self, k, record):
        statuses, pools, notes = [], {}, []
        for point, (code, out, err) in record.items():
            ms = master_seed(BOUNDS_POINTS[point]["master_seed"], self.seed, k)
            if code != 0:
                statuses.append([point, "failed"])
                notes.append(f"{point}: exit {code!r}: {err.strip()[-200:]}")
                continue
            try:
                r = json.loads(out)
            except ValueError:
                statuses.append([point, "failed"])
                notes.append(f"{point}: output is not JSON")
                continue
            bad, inside = self._check_report(point, ms, r)
            statuses.append([point, "wrong" if bad else "ok"])
            notes += [f"{point}: {b}" for b in bad]
            if inside is not None:
                pools[point] = [int(inside), 1, r["coverage_guarantee"]]
        return statuses, pools, notes


WORKLOADS = {w.name: w for w in (CoverageQuadrature, ConcentrationImportance, CliBounds)}
