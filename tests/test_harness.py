"""Experiment harness: config plumbing, coverage accounting, scans, CLI."""

import contextlib
import gc
import io
import json
import math
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import sqrtm

from evbounds import (
    ConfigError,
    ExperimentConfig,
    ReliabilityError,
    build_context,
    default_ellipsoid,
    get_family,
    get_prior,
    load_config,
    posterior_mass,
    prob_ball,
    run_bic_scan,
    run_concentration,
    run_coverage,
    run_model_compare,
)
from evbounds.cli import main
import evbounds.harness as harness_mod


def _conjugate_flat(**extra):
    flat = {
        "family": "gaussian",
        "mechanism": "glm-well-specified",
        "mechanism.beta0": [0.5, -0.3],
        "design": "uniform",
        "n": 50,
        "d": 2,
        "prior": "gaussian-product",
        "prior.tau_p": 3.0,
        "calib_reps": 100,
        "n_replicates": 10,
        "master_seed": 1,
    }
    flat.update(extra)
    return flat


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_round_trip():
    cfg = ExperimentConfig.from_flat(_conjugate_flat(eta=0.1, n_grid=[50, 100]))
    again = ExperimentConfig.from_flat(cfg.to_flat())
    assert again == cfg
    assert cfg.mechanism_params == {"beta0": [0.5, -0.3]}
    assert cfg.prior_params == {"tau_p": 3.0}


def test_config_unknown_key_and_d_rules():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_flat(_conjugate_flat(bogus=1))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_flat(_conjugate_flat(d_rule="n^0.3"))  # both d and rule
    flat = _conjugate_flat()
    del flat["d"]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_flat(dict(flat, d_rule="sqrt(n)"))
    cfg = ExperimentConfig.from_flat(dict(flat, d_rule="n^0.3"))
    assert cfg.resolve_d(200) == int(np.ceil(200 ** 0.3))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_flat(flat)  # neither d nor d_rule


def test_load_config_requires_flat_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_conjugate_flat()))
    assert load_config(str(path)).n == 50
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_build_context_consistency():
    cfg = ExperimentConfig.from_flat(_conjugate_flat())
    ctx = build_context(cfg)
    assert ctx.n == 50 and ctx.d == 2
    assert ctx.X.shape == (50, 2)
    assert np.allclose(ctx.ell.center, ctx.fit.beta_star)
    assert ctx.base_report.ell_star == 0.0
    assert ctx.proc.source == "empirical-quantile"


# ---------------------------------------------------------------------------
# coverage study
# ---------------------------------------------------------------------------

def test_coverage_accounting_identity_and_summary():
    cfg = ExperimentConfig.from_flat(_conjugate_flat())
    rep = run_coverage(cfg)
    assert rep.n_replicates == 10
    assert rep.n_sandwich_hits + rep.n_misses + rep.n_failures == 10
    assert rep.hit_rate == rep.n_sandwich_hits / 10
    assert len(rep.rows) == 10
    summary = rep.summary()
    assert "guaranteed_rate" in summary and "hit_rate" in summary
    assert abs(summary["guaranteed_rate"]
               - (1.0 - cfg.delta - rep.constants["delta_tilde"])) < 1e-12
    for row in rep.rows:
        assert row["hit"] in (0, 1)
        assert row["lower"] <= row["upper"]


def test_coverage_single_replicate_degenerate():
    cfg = ExperimentConfig.from_flat(_conjugate_flat(n_replicates=1))
    rep = run_coverage(cfg)
    assert len(rep.rows) == 1
    assert rep.hit_rate in (0.0, 1.0)


def test_coverage_failures_counted_not_missed(tmp_path, monkeypatch):
    calls = {"k": 0}
    real = harness_mod._run_oracle

    def flaky(ctx, y, replicate):
        calls["k"] += 1
        if replicate % 2 == 0:
            raise ReliabilityError("synthetic oracle outage")
        return real(ctx, y, replicate)

    monkeypatch.setattr(harness_mod, "_run_oracle", flaky)
    cfg = ExperimentConfig.from_flat(_conjugate_flat(n_replicates=6))
    rep = run_coverage(cfg)
    assert rep.n_failures == 3
    assert rep.n_sandwich_hits + rep.n_misses == 3
    path = tmp_path / "cov.csv"
    rep.write_csv(str(path))
    text = path.read_text().splitlines()
    assert text[0].startswith("#")  # versioned schema comment
    failed_rows = [ln for ln in text if "ReliabilityError" in ln]
    assert len(failed_rows) == 3


def test_coverage_sup_exceedance_respects_quantile_level():
    cfg = ExperimentConfig.from_flat(_conjugate_flat(
        n_replicates=100, delta_tilde=0.1, calib_reps=400, master_seed=5))
    rep = run_coverage(cfg)
    rate = np.mean([row["sup_exceeds"] for row in rep.rows])
    se = np.sqrt(0.1 * 0.9 / 100)
    assert rate <= 0.1 + 3 * se


def test_coverage_csv_deterministic_and_job_invariant(tmp_path):
    cfg = ExperimentConfig.from_flat(_conjugate_flat(n_replicates=8))
    paths = []
    for tag in ("a", "b"):
        rep = run_coverage(cfg)
        p = tmp_path / f"{tag}.csv"
        rep.write_csv(str(p))
        paths.append(p)
    rep2 = run_coverage(ExperimentConfig.from_flat(
        _conjugate_flat(n_replicates=8, jobs=2)))
    p2 = tmp_path / "jobs2.csv"
    rep2.write_csv(str(p2))
    blob = paths[0].read_bytes()
    assert paths[1].read_bytes() == blob
    assert p2.read_bytes() == blob


def _quadrature_flat(**extra):
    flat = {
        "family": "logistic",
        "mechanism": "glm-well-specified",
        "mechanism.beta0": [0.8, -0.5],
        "design": "uniform",
        "n": 100,
        "d": 2,
        "prior": "gaussian-product",
        "prior.tau_p": 3.0,
        "oracle": "quadrature",
        "calib_reps": 100,
        "n_replicates": 12,
        "master_seed": 2,
    }
    flat.update(extra)
    return flat


def test_coverage_shared_quadrature_grid_job_invariant():
    one = run_coverage(ExperimentConfig.from_flat(_quadrature_flat()))
    two = run_coverage(ExperimentConfig.from_flat(_quadrature_flat(jobs=2)))
    assert one.n_failures == 0
    assert two.rows == one.rows


def test_coverage_without_shared_grid_when_centre_curvature_is_singular():
    # a tight Cauchy prior far below beta* makes the log target convex at
    # beta*, so no shared box can be scaled there; the study still runs,
    # each replicate on a box at its own posterior mode
    flat = _quadrature_flat(**{"mechanism.beta0": [3.0], "n": 4, "d": 1,
                               "prior": "student-product", "prior.nu": 1.0,
                               "prior.s": 0.05, "n_replicates": 4, "master_seed": 1})
    del flat["prior.tau_p"]
    cfg = ExperimentConfig.from_flat(flat)
    assert harness_mod._coverage_context(cfg).quad_grid is None
    rep = run_coverage(cfg)
    assert rep.n_sandwich_hits + rep.n_misses + rep.n_failures == 4


def test_coverage_keeps_no_context_alive(monkeypatch):
    # a study's context (with its quadrature levels) dies with the study
    refs = []
    real = harness_mod._coverage_context

    def recording(config):
        ctx = real(config)
        refs.append(weakref.ref(ctx))
        return ctx

    monkeypatch.setattr(harness_mod, "_coverage_context", recording)
    rep = run_coverage(ExperimentConfig.from_flat(_quadrature_flat(n_replicates=3)))
    assert rep.n_failures == 0 and len(refs) == 1
    gc.collect()
    assert refs[0]() is None


# ---------------------------------------------------------------------------
# BIC scan
# ---------------------------------------------------------------------------

def test_bic_scan_intercept_only_log_det_is_log_n():
    flat = _conjugate_flat(design="first-column-intercept")
    flat["d"] = 1
    flat["mechanism.beta0"] = [0.4]
    cfg = ExperimentConfig.from_flat(flat)
    rep = run_bic_scan(cfg, n_grid=(50, 100, 200))
    for row in rep.rows:
        assert abs(row["log_det_H"] - np.log(row["n"])) < 1e-12
    assert abs(rep.slope - 1.0) < 0.05
    # midpoint stays anchored to the Laplace skeleton within the fixed band
    for row in rep.rows:
        skeleton = row["ell_star"] - row["log_det_H"] / 2.0
        band = (2 * row["C"] - row["c"] / 2.0) * rep.d / 2.0
        assert abs(row["midpoint"] - skeleton) <= band + 5.0  # prior terms margin


def test_bic_scan_validation():
    cfg = ExperimentConfig.from_flat(_conjugate_flat())
    with pytest.raises(ConfigError):
        run_bic_scan(cfg, n_grid=(100, 50))
    with pytest.raises(ConfigError):
        run_bic_scan(cfg, n_grid=())


# ---------------------------------------------------------------------------
# concentration study
# ---------------------------------------------------------------------------

def _concentration_flat(c1):
    return {
        "family": "logistic",
        "mechanism": "glm-well-specified",
        "mechanism.beta0_scale": 0.5,
        "design": "rademacher",
        "n_grid": [60],
        "d": 2,
        "prior": "laplace-product",
        "prior.kappa": 1.0,
        "c1": c1,
        "eta": 0.1,
        "n_replicates": 3,
        "n_draws": 10_000,
        "master_seed": 9,
        "n": 60,
    }


def test_concentration_refuses_priors_outside_envelope_class():
    cfg = ExperimentConfig.from_flat(_conjugate_flat(n_grid=[50]))
    with pytest.raises(ConfigError) as err:
        run_concentration(cfg)
    assert "laplace-product" in str(err.value)


def test_concentration_needs_grid():
    flat = _concentration_flat(1.0)
    del flat["n_grid"]
    with pytest.raises(ConfigError):
        run_concentration(ExperimentConfig.from_flat(flat))


def test_concentration_mass_monotone_in_radius():
    small = run_concentration(ExperimentConfig.from_flat(_concentration_flat(1.0)))
    big = run_concentration(ExperimentConfig.from_flat(_concentration_flat(2.0)))
    # same master seed -> same data and same importance draws; R scaled x4
    # only enlarges the membership set, so every gamma is nondecreasing
    for a, b in zip(small.rows, big.rows):
        assert (a["replicate"], a["n"]) == (b["replicate"], b["n"])
        assert a["gamma"] <= b["gamma"] + 1e-15
    assert small.per_n[0]["frac_concentrated"] <= big.per_n[0]["frac_concentrated"] + 1e-15


def test_stages_are_built_only_when_read(tmp_path, capsys, monkeypatch):
    # neither a concentration study nor a pseudo-true fit reads the
    # certificate, the prior extremes or the process constants
    def refuse(*args, **kwargs):
        raise AssertionError("stage built but never read")

    for name in ("calibrate_C", "certificate", "extremes_over_ball"):
        monkeypatch.setattr(harness_mod, name, refuse)
    rep = run_concentration(ExperimentConfig.from_flat(_concentration_flat(1.0)))
    assert all(row["ess_ok"] for row in rep.rows)
    assert main(["pseudo-true", "--config", _write_cfg(tmp_path, _conjugate_flat())]) == 0
    assert json.loads(capsys.readouterr().out)["converged"]


def test_posterior_mass_matches_exact_conjugate_ellipsoid_mass():
    # gaussian variant where the posterior is exactly normal: the sampled
    # localization mass must agree with the closed-form Gaussian ellipsoid
    # probability computed by the eigen-series
    rng = np.random.default_rng(21)
    n, d, tau = 200, 2, 1.0
    X = rng.uniform(-1, 1, size=(n, d))
    y = X @ np.array([0.5, -0.2]) + rng.standard_normal(n)
    prior = get_prior("gaussian-product", tau_p=tau)
    A = X.T @ X + np.eye(d) / tau**2
    cov = np.linalg.inv(A)
    m_post = cov @ (X.T @ y)
    ell = default_ellipsoid(m_post, n, c1=1.0)
    root = np.real(sqrtm(cov))
    M = root @ (n * np.eye(d)) @ root
    exact = prob_ball((M + M.T) / 2.0, ell.threshold).p
    est = posterior_mass(get_family("gaussian"), X, y, prior, ell,
                         n_draws=40_000, seed=22)
    assert abs(est.p - exact) <= 3 * max(est.standard_error, 1e-3)


# ---------------------------------------------------------------------------
# model comparison
# ---------------------------------------------------------------------------

def _compare_flat(candidates):
    return {
        "family": "gaussian",
        "mechanism": "glm-well-specified",
        "mechanism.beta0": [0.6, -0.4, 0.0],
        "design": "uniform",
        "n": 80,
        "d": 3,
        "prior": "gaussian-product",
        "prior.tau_p": 2.0,
        "calib_reps": 100,
        "master_seed": 13,
        "candidates": candidates,
    }


def test_compare_identical_candidates_tie():
    rep = run_model_compare(ExperimentConfig.from_flat(
        _compare_flat([{"name": "a"}, {"name": "b"}])))
    ra, rb = rep.rows
    assert ra["lower"] == rb["lower"] and ra["upper"] == rb["upper"]
    assert rep.certified == []
    assert ("a", "b") in rep.not_certified


def test_compare_nested_models_honest_overlap():
    # the sub-model drops a pure-noise column; at this scale the interval
    # widths (order d per model) dwarf the 0.5*log(n) evidence gap, so the
    # honest report is overlap, with each oracle inside its own sandwich
    rep = run_model_compare(ExperimentConfig.from_flat(
        _compare_flat([{"name": "sub", "columns": [0, 1]}, {"name": "full"}])))
    by_name = {r["name"]: r for r in rep.rows}
    assert by_name["sub"]["d"] == 2 and by_name["full"]["d"] == 3
    for row in rep.rows:
        assert row["lower"] <= row["oracle_log_z"] <= row["upper"]
    assert rep.certified == []
    assert ("sub", "full") in rep.not_certified


def test_compare_validation():
    with pytest.raises(ConfigError):
        run_model_compare(ExperimentConfig.from_flat(_compare_flat([])))
    with pytest.raises(ConfigError):
        run_model_compare(ExperimentConfig.from_flat(
            _compare_flat([{"name": "x", "wat": 1}])))


def test_compare_candidate_prior_takes_only_its_own_parameters():
    # the base config's prior.tau_p does not leak into a laplace candidate
    rep = run_model_compare(ExperimentConfig.from_flat(_compare_flat(
        [{"name": "gauss"}, {"name": "lap", "prior": "laplace-product", "prior.kappa": 1.0}])))
    by_name = {r["name"]: r for r in rep.rows}
    assert set(by_name) == {"gauss", "lap"}
    assert np.isfinite(by_name["lap"]["lower"]) and by_name["lap"]["lower"] <= by_name["lap"]["upper"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write_cfg(tmp_path, flat, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(flat))
    return str(path)


def test_import_and_cli_bounds_load_no_scipy(tmp_path):
    # nothing a `bounds` run does needs scipy, the exact laplace-product
    # extremes and the Gaussian-law C included; QUADPACK inversion imports
    # it where it is used
    conjugate = _write_cfg(tmp_path, _conjugate_flat())
    logistic = _write_cfg(tmp_path, _conjugate_flat(
        family="logistic", **{"mechanism.beta0": [0.8, -0.5]}), name="logistic.json")
    laplace_flat = _conjugate_flat(prior="laplace-product", **{"prior.kappa": 1.0})
    del laplace_flat["prior.tau_p"]
    laplace = _write_cfg(tmp_path, laplace_flat, name="laplace.json")
    code = (
        "import contextlib, io, sys\n"
        "loaded = lambda: [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "import evbounds, evbounds.cli\n"
        "print(loaded())\n"
        "for command, path in zip(sys.argv[1::2], sys.argv[2::2]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = evbounds.cli.main([command, '--config', path])\n"
        "    print(code, loaded())\n")
    out = subprocess.run([sys.executable, "-c", code, "bounds", conjugate, "bounds", logistic,
                          "bounds", laplace, "process-constants", conjugate],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:5] == ["[]", "0 []", "0 []", "0 []", "0 []"]


@pytest.mark.parametrize("family, method", [("gaussian", "gaussian-exact"),
                                            ("logistic", "simulation")])
def test_cli_process_constants_report_how_C_was_made(tmp_path, capsys, family, method):
    path = _write_cfg(tmp_path, _conjugate_flat(family=family))
    assert main(["process-constants", "--config", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["C_method"] == method and out["source"] == "empirical-quantile"
    assert main(["bounds", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["C_method"] == method


def test_gaussian_C_root_find_is_short(monkeypatch):
    import evbounds.process as process_mod
    calls = []
    real = process_mod.prob_ball

    def counted(M, t):
        calls.append(t)
        return real(M, t)

    monkeypatch.setattr(process_mod, "prob_ball", counted)
    ctx = build_context(ExperimentConfig.from_flat(_conjugate_flat()))
    assert ctx.proc.method == "gaussian-exact"
    assert 0 < len(calls) <= 16


# scalar keys of a small gaussian or logistic config, each at a valid value
_AUDIT_VALID = {"n": 40, "d": 2, "c1": 4.0, "k0": 8.0, "nu": 1.0, "eta": 0.05,
                "delta": 0.05, "delta_tilde": 0.05, "calib_reps": 100, "n_replicates": 3,
                "box_halfwidth": 12.0, "n_nodes_per_dim": 16, "n_draws": 2000,
                "master_seed": 1, "prior.tau_p": 3.0}


def _audit_value(valid, kind):
    if kind == "zero":
        return 0 * valid
    if kind == "negative":
        return -valid
    if kind == "huge":
        return 10**18 if isinstance(valid, int) else 1e300
    return "x" if kind == "wrong-type" else valid


@settings(max_examples=40, deadline=None, derandomize=True)
@given(family=st.sampled_from(["gaussian", "logistic"]),
       oracle=st.sampled_from(["auto", "quadrature"]),
       changes=st.dictionaries(st.sampled_from(sorted(_AUDIT_VALID)),
                               st.sampled_from(["valid", "zero", "negative", "huge",
                                                "wrong-type"]),
                               max_size=3))
def test_config_audit_refuses_without_traceback(tmp_path_factory, family, oracle, changes):
    flat = _conjugate_flat(family=family, oracle=oracle, jobs=1, **_AUDIT_VALID)
    flat.update({key: _audit_value(_AUDIT_VALID[key], kind) for key, kind in changes.items()})
    path = _write_cfg(tmp_path_factory.mktemp("audit"), flat)
    for command in ("bounds", "oracle"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", path])
        assert code in (0, 2, 3, 4), (command, code)
        assert "Traceback" not in err.getvalue()
        if code != 0:
            continue
        report = json.loads(out.getvalue())
        if command == "oracle":
            assert math.isfinite(report["log_z"])
            continue
        assert math.isfinite(report["lower"]) and math.isfinite(report["upper"])
        assert report["lower"] <= report["upper"]
        if report["theorem_certified"]:
            v = report["validity"]
            assert v["c_in_range"] and v["eta_in_range"] and v["set_mass_certified"]


def test_cli_bounds_success_json(tmp_path, capsys):
    path = _write_cfg(tmp_path, _conjugate_flat())
    assert main(["bounds", "--config", path]) == 0
    out = json.loads(capsys.readouterr().out)
    for key in ("upper", "lower", "width", "terms_upper", "terms_lower",
                "theorem_certified", "coverage_guarantee"):
        assert key in out
    assert out["lower"] <= out["upper"]
    assert out["mle_gap"] >= -1e-9  # the sample MLE dominates the fixed center


def test_cli_exit_code_config_error(tmp_path, capsys):
    path = _write_cfg(tmp_path, _conjugate_flat(bogus=1))
    assert main(["bounds", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_exit_code_config_error_missing_file(tmp_path, capsys):
    path = str(tmp_path / "absent.json")
    assert main(["bounds", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_exit_code_config_error_malformed_json(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"family": "gaussian", "n": ')
    assert main(["bounds", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_exit_code_config_error_wrong_type(tmp_path, capsys):
    path = _write_cfg(tmp_path, _conjugate_flat(n="abc"))
    assert main(["bounds", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'n'" in err


@pytest.mark.parametrize("extra", [
    {"prior.tau_p": "abc"},
    {"mechanism.beta0": "x"},
    {"prior.bogus": 1},
    {"mechanism.size": "big"},  # a key the mechanism does not take
])
def test_cli_exit_code_config_error_nested_parameter(tmp_path, capsys, extra):
    path = _write_cfg(tmp_path, _conjugate_flat(**extra))
    assert main(["bounds", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, flat", [
    ("bounds", _conjugate_flat(d=None, d_rule="n^abc")),
    ("bounds", _conjugate_flat(d=None, d_rule="n^1e400")),
    ("concentration", dict(_concentration_flat(4.0), n_grid=["a"])),
    ("bic-scan", _conjugate_flat(n_grid=[100, "x"])),
    ("bic-scan", _conjugate_flat(n_grid=100)),
    ("coverage", _conjugate_flat(n_replicates=0)),
    ("coverage", _conjugate_flat(n_replicates=-3)),
    ("bounds", _conjugate_flat(c1=-4)),
    ("bounds", _conjugate_flat(**{"mechanism": "hetero-gaussian", "mechanism.sigmas": []})),
    ("compare", _compare_flat([1])),
    ("compare", _compare_flat([{"name": "a"}, {"columns": [0]}])),
    ("compare", _compare_flat([{"name": "a", "c1": "big"}])),
    # below the 8-node panel floor two tensor levels used to coincide and
    # pass the node-doubling check uncompared (log_z -67.87 against -65.67);
    # the floor would now silently replace the value
    ("oracle", _conjugate_flat(oracle="quadrature", n_nodes_per_dim=0)),
    ("oracle", _conjugate_flat(oracle="quadrature", n_nodes_per_dim=4)),
    # removed keys: the conjugate oracle's noise scale is the family's
    # unit scale, and the prior extremes have one certified route
    ("bounds", _conjugate_flat(sigma=2.0)),
    ("bounds", _conjugate_flat(prior_extremes="numeric")),
    ("compare", _compare_flat([{"name": "a", "sigma": 2.0}])),
    # "k0": -1 used to exit 0 with the lower bound above the upper one and
    # theorem_certified true
    ("bounds", _conjugate_flat(c_source="subgaussian-theory", k0=-1)),
    ("bounds", _conjugate_flat(c_source="subgaussian-theory", k0=0)),
    ("bounds", _conjugate_flat(c_source="subexponential-theory", nu=0.0)),
])
def test_cli_exit_code_config_error_bad_value(tmp_path, capsys, command, flat):
    # each of these used to end in a traceback or to exit 0 with a
    # meaningless result
    path = _write_cfg(tmp_path, flat)
    assert main([command, "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("c1", "Infinity"), ("c1", "NaN"),
                                        ("prior.tau_p", "NaN")])
def test_cli_exit_code_config_error_non_finite_number(tmp_path, capsys, key, value):
    # json reads NaN and Infinity; "c1": Infinity used to exit 0 with an
    # infinite upper bound
    text = json.dumps(_conjugate_flat(**{key: 1.0})).replace("1.0", value, 1)
    assert json.loads(text)[key] != 1.0
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["bounds", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(key) in err and "finite" in err


@pytest.mark.parametrize("columns", [[7], [-1], [0, 3], []])
def test_cli_compare_exit_code_columns_outside_design(tmp_path, capsys, columns):
    # d = 3: an index past the design or a negative one (which numpy would
    # wrap to the last column) is a config error, not a traceback
    path = _write_cfg(tmp_path, _compare_flat([{"name": "a"}, {"name": "b", "columns": columns}]))
    assert main(["compare", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "columns" in err


def test_cli_exit_code_strict_hypothesis_violation(tmp_path, capsys):
    path = _write_cfg(tmp_path, _conjugate_flat(eta=0.3))
    assert main(["bounds", "--config", path, "--strict"]) == 4
    assert "hypothesis violation" in capsys.readouterr().err


def test_cli_coverage_strict_checks_every_hypothesis(tmp_path, capsys):
    # eta = 0.3 leaves c in range; coverage --strict used to check c alone
    path = _write_cfg(tmp_path, _conjugate_flat(eta=0.3, n_replicates=2))
    assert main(["coverage", "--config", path, "--strict"]) == 4
    assert "hypothesis violation" in capsys.readouterr().err


def test_cli_exit_code_numerical_failure(tmp_path, capsys):
    # heavy-tailed prior spills the quadrature box: refusal surfaces as 3
    flat = {
        "family": "logistic",
        "mechanism": "glm-well-specified",
        "mechanism.beta0": [0.8],
        "design": "uniform",
        "n": 1,
        "d": 1,
        "prior": "student-product",
        "prior.nu": 2.0,
        "prior.s": 5.0,
        "calib_reps": 100,
        "oracle": "quadrature",
        "master_seed": 3,
    }
    path = _write_cfg(tmp_path, flat)
    assert main(["oracle", "--config", path]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_coverage_csv_and_overrides(tmp_path, capsys):
    path = _write_cfg(tmp_path, _conjugate_flat())
    csv_path = tmp_path / "cov.csv"
    code = main(["coverage", "--config", path, "--csv", str(csv_path),
                 "--replicates", "3", "--seed", "77"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n_replicates"] == 3
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("#") and len(lines) == 2 + 3  # comment + header


def test_cli_curvature_interval_table(tmp_path, capsys):
    path = _write_cfg(tmp_path, _conjugate_flat())
    csv_path = tmp_path / "curv.csv"
    assert main(["curvature", "--config", path, "--csv", str(csv_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.5 < out["c"] <= 1.0
    assert len(out["H"]) == 2
    lines = csv_path.read_text().splitlines()
    assert lines[1].split(",")[:3] == ["i", "t_lo", "t_hi"]
    assert len(lines) == 2 + 50  # one row per observation


def test_benchmark_tracer_targets_resolve():
    # the benchmark's tracer patches these names; a function or method that
    # moves would silently drop its span, so every target must resolve, a
    # method in its class's own __dict__
    import importlib
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "evbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("evbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, (module, attr, _) in tracer.TARGETS.items():
        mod = importlib.import_module(f"evbounds.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(mod, cls_name)).get(meth)), name
        else:
            assert callable(getattr(mod, attr, None)), name
    assert callable(importlib.import_module("evbounds.oracles").log_posterior_unnorm)
