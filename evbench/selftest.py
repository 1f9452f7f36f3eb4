"""Self-tests of the benchmark: reference formulas against hand values,
span self times against their parents, and failed checks against the
failed-operation count.  Run from the root of a checkout:

    python3 evbench/selftest.py
"""

import json
import math
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np                       # noqa: E402
from scipy.integrate import quad         # noqa: E402

import evbounds                          # noqa: E402
import reference as ref                  # noqa: E402
import workloads as W                    # noqa: E402
from run import settle                  # noqa: E402
from tracer import Tracer, layer_metrics, merge  # noqa: E402


class ReferenceFormulas(unittest.TestCase):
    def test_gaussian_evidence_one_observation(self):
        # y ~ N(0, sigma^2 + tau^2 x^2) = N(0, 1 + 0.25 * 4) = N(0, 2)
        X, y = np.array([[2.0]]), np.array([0.7])
        hand = -0.5 * (math.log(2 * math.pi) + math.log(2.0) + 0.49 / 2.0)
        self.assertAlmostEqual(ref.gaussian_evidence_dense(X, y, 1.0, 0.5), hand, places=14)
        self.assertAlmostEqual(ref.gaussian_evidence_svd(X, y, 1.0, 0.5), hand, places=14)

    def test_gaussian_evidence_routes_agree(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, size=(60, 3))
        y = rng.standard_normal(60)
        self.assertAlmostEqual(ref.gaussian_evidence_dense(X, y, 1.3, 2.0),
                               ref.gaussian_evidence_svd(X, y, 1.3, 2.0), places=10)

    def test_logliks(self):
        X = np.array([[1.0], [1.0]])
        # logistic at beta = 0: -n log 2
        self.assertAlmostEqual(ref.logistic_loglik_on_points(X, np.array([0.0, 1.0]), [[0.0]])[0],
                               -2.0 * math.log(2.0), places=14)
        # logistic at beta = log 3: y = 1 gives log(3/4), y = 0 gives log(1/4)
        self.assertAlmostEqual(ref.logistic_loglik_on_points(X, np.array([0.0, 1.0]),
                                                             [[math.log(3.0)]])[0],
                               math.log(3.0 / 16.0), places=14)
        # gaussian: two residuals of 1 -> -1 - log(2 pi)
        self.assertAlmostEqual(ref.gaussian_loglik(X, np.array([1.0, 1.0]), np.array([0.0])),
                               -1.0 - math.log(2 * math.pi), places=14)
        self.assertAlmostEqual(ref.log_prior_on_points("laplace-product", {"kappa": 1.0},
                                                       [[0.0, 0.0]])[0], 2 * math.log(0.5))
        self.assertAlmostEqual(ref.log_prior_on_points("gaussian-product", {"tau_p": 2.0}, [[0.0]])[0],
                               -0.5 * math.log(2 * math.pi * 4.0))

    def test_lattice_evidence_against_adaptive_quadrature(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, size=(30, 1))
        y = (rng.random(30) < 0.5 * (1 + np.tanh(0.4 * X[:, 0]))).astype(float)

        def f(b):
            return math.exp(ref.logistic_loglik_on_points(X, y, [[b]])[0] - b * b / 18.0) / math.sqrt(18 * math.pi)

        hand = math.log(quad(f, -15, 15, epsabs=0, epsrel=1e-13, limit=200)[0])
        got = ref.lattice_log_evidence(X, y, "gaussian-product", {"tau_p": 3.0})
        self.assertLess(abs(got - hand), 1e-10)

    def test_ball_mass_against_adaptive_quadrature(self):
        rng = np.random.default_rng(5)
        X = rng.choice([-1.0, 1.0], size=(40, 1))
        y = (rng.random(40) < 0.6).astype(float)
        post = lambda b: math.exp(ref.logistic_loglik_on_points(X, y, [[b]])[0] - abs(b))  # noqa: E731
        c, r = 0.2, 0.3
        inside = quad(post, c - r, c + r)[0]
        total = quad(post, -8, c - r)[0] + inside + quad(post, c + r, 8)[0]
        p, se = ref.ball_posterior_mass(X, y, "laplace-product", {"kappa": 1.0},
                                        np.array([c]), r * r, 40_000, seed=3)
        self.assertLess(abs(p - inside / total), 5 * se)

    def test_binomial_floor(self):
        # P(Bin(10, .9) <= 2) = 3.74e-7 < 1e-6 <= P(Bin(10, .9) <= 3) = 9.12e-6
        self.assertEqual(ref.binomial_lower_quantile(10, 0.9), 3)


def _fake_package():
    """fake.a.outer calls inner twice; fake.b holds inner under an alias."""
    pkg = types.ModuleType("fake")
    a = types.ModuleType("fake.a")
    b = types.ModuleType("fake.b")

    def inner(x):
        return x + 1

    def outer(x):
        return a.inner(x) + a.inner(x)

    a.inner, a.outer = inner, outer
    b.alias = inner
    pkg.a, pkg.b = a, b
    return {"fake": pkg, "fake.a": a, "fake.b": b}


class Tracing(unittest.TestCase):
    def setUp(self):
        self.mods = _fake_package()
        sys.modules.update(self.mods)
        ticks = iter(range(1000))
        self.tracer = Tracer("t", package="fake", clock=lambda: float(next(ticks)))
        targets = {"a.outer": ("a", "outer", None),
                   "a.inner": ("a", "inner", lambda args, kw, res: {"points": args[0]})}
        self.originals = (self.mods["fake.a"].inner, self.mods["fake.a"].outer)
        self.tracer.install(targets)

    def tearDown(self):
        self.tracer.uninstall()
        for name in self.mods:
            sys.modules.pop(name, None)

    def test_self_times_add_up_to_parent(self):
        a = self.mods["fake.a"]
        self.assertEqual(a.outer(2), 6)
        spans, selfs = self.tracer.spans, self.tracer.self_times()
        outer = next(s for s in spans if s[2] == "a.outer")
        children = [s for s in spans if s[1] == outer[0]]
        self.assertEqual(len(children), 2)
        duration = outer[4] - outer[3]
        self.assertEqual(selfs[outer[0]] + sum(c[4] - c[3] for c in children), duration)
        self.assertEqual(sum(selfs), duration)   # the whole tree is one root span
        self.assertEqual(sum(c[6]["points"] for c in children), 4)
        agg = merge([self.tracer.aggregate(), self.tracer.aggregate()])
        self.assertEqual(agg["calls"], {"a.outer": 2, "a.inner": 4})
        self.assertEqual(agg["self_s"]["a.outer"] + agg["self_s"]["a.inner"], 2 * duration)
        self.assertEqual(agg["counts"]["a.inner.points"], 8)
        self.assertEqual(layer_metrics(agg)["cli.main.calls"], 0)

    def test_every_namespace_wrapped_and_restored(self):
        a, b = self.mods["fake.a"], self.mods["fake.b"]
        self.assertIs(a.inner, b.alias)
        self.assertIsNot(a.inner, self.originals[0])
        self.tracer.uninstall()
        self.assertIs(a.inner, self.originals[0])
        self.assertIs(b.alias, self.originals[0])
        self.assertIs(a.outer, self.originals[1])


class FailedChecksCount(unittest.TestCase):
    @staticmethod
    def _round(statuses, pools=None):
        return {"round": 0, "statuses": statuses, "pools": pools or {}, "notes": []}

    def test_settle(self):
        self.assertEqual(settle([self._round([["a", "ok"], ["a", "ok"]])])[:3], (2, 0, True))
        self.assertEqual(settle([self._round([["a", "ok"], ["b", "failed"]])])[:3], (2, 1, True))
        self.assertEqual(settle([self._round([["a", "wrong"], ["b", "failed"]])])[:3], (2, 2, False))

    def test_pooled_coverage_floor(self):
        # 10 trials at rate 0.9 need 3 hits (see test_binomial_floor)
        rounds = [self._round([["s", "ok"]] * 5, {"s": [1, 5, 0.9]}),
                  self._round([["s", "ok"], ["t", "ok"]], {"s": [1, 5, 0.9]})]
        self.assertEqual(settle(rounds)[:3], (7, 6, False))
        rounds[1]["pools"]["s"][0] = 2
        self.assertEqual(settle(rounds)[:3], (7, 0, True))

    def _bracket(self):
        # consistent: upper = -10 - 4/2 + 1 = -11, lower = -10 - 2 - 1 = -13
        return {"ell_star": -10.0, "log_det_H": 4.0, "terms_upper": {"a": 1.0},
                "terms_lower": {"b": -1.0}, "upper": -11.0, "lower": -13.0,
                "mle_gap": 0.5, "coverage_guarantee": 0.9,
                "constants": {"delta": 0.05, "delta_tilde": 0.05, "c": 0.8}}

    def test_cli_check(self):
        wl = W.CliBounds(seed=0, workdir=".")
        good, bad = self._bracket(), dict(self._bracket(), upper=-10.5)
        point = "probit-2e4x20"
        runs = {"ok": (0, json.dumps(good), ""), "wrong": (0, json.dumps(bad), ""),
                "failed": (2, "", "config error")}
        for expected, outcome in runs.items():
            statuses, _, notes = wl.check(0, {point: outcome})
            self.assertEqual(statuses, [[point, expected]])
            self.assertEqual(bool(notes), expected != "ok")
        statuses, pools, notes = wl.check(0, {point: runs["wrong"]})
        self.assertEqual(settle([self._round(statuses, pools)])[:3], (1, 1, False))

    def test_coverage_check_catches_a_wrong_evidence(self):
        flat = dict(W.COVERAGE_STUDIES["gaussian"], n_replicates=2)
        rep = evbounds.run_coverage(evbounds.ExperimentConfig.from_flat(flat))
        wl = W.CoverageQuadrature(seed=0, workdir=".")
        record = {"gaussian": (flat["master_seed"], rep)}
        statuses, pools, _ = wl.check(0, record)
        self.assertEqual(settle([self._round(statuses, pools)])[:3], (2, 0, True))
        rep.rows[1]["oracle_log_z"] += 1e-4
        statuses, pools, _ = wl.check(0, record)
        self.assertEqual(settle([self._round(statuses, pools)])[:3], (2, 1, False))


if __name__ == "__main__":
    unittest.main()
