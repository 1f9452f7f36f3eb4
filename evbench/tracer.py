"""Outside-in span tracer for the evbounds package.

`Tracer.install()` replaces each traced public function with a wrapper in
every namespace of the loaded package that holds it (modules bind names at
import, so `harness.calibrate_C` and `process.calibrate_C` are the same
object under two names).  A wrapper records one span: name, start, end,
parent span, round and a few counts taken from the arguments or the
result.  Spans stay in memory; `write()` dumps them as JSON lines and
`aggregate()` sums them; `merge()` and `layer_metrics()` turn the sums of
several rounds into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

def _fit_iterations(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _prob_method(args, kwargs, result):
    return {"mc_fallbacks": int(result.method == "monte-carlo")}


def _quad_points(args, kwargs, result):
    return {"points": int(result.n_evals)}


# span name -> (module, attribute, counter); counter(args, kwargs, result)
# returns a dict of counts or None
TARGETS = {
    "cli.main": ("cli", "main", None),
    "harness.build_context": ("harness", "build_context", None),
    "harness.run_coverage": ("harness", "run_coverage", None),
    "harness.run_concentration": ("harness", "run_concentration", None),
    "datagen.make_design": ("datagen", "make_design", None),
    "datagen.draw": ("datagen", "Mechanism.draw", None),
    "process.calibrate_C": ("process", "calibrate_C", None),
    "process.exact_sup_ellipsoid": ("process", "exact_sup_ellipsoid", None),
    "pseudotrue.solve_pseudo_true": ("pseudotrue", "solve_pseudo_true", _fit_iterations),
    "pseudotrue.solve_mle": ("pseudotrue", "solve_mle", _fit_iterations),
    "curvature.certificate": ("curvature", "certificate", None),
    "priors.extremes_over_ball": ("priors", "extremes_over_ball", None),
    "quadform.prob_ball": ("quadform", "prob_ball", _prob_method),
    "bounds.compute_bounds": ("bounds", "compute_bounds", None),
    "families.log_likelihood_full": ("families", "log_likelihood_full", None),
    "oracles.quadrature_log_z": ("oracles", "quadrature_log_z", _quad_points),
    "oracles.posterior_mode": ("oracles", "posterior_mode", None),
    "oracles.posterior_mass": ("oracles", "posterior_mass", None),
}
LOGF = "oracles.logf"   # the closure log_posterior_unnorm returns

# per-layer metrics: span name -> quantities reported
REPORTED = {
    "cli.main": ("calls", "self_s"),
    "harness.build_context": ("self_s",),
    "harness.run_coverage": ("self_s",),
    "harness.run_concentration": ("self_s",),
    "datagen.make_design": ("self_s",),
    "datagen.draw": ("calls", "self_s"),
    "process.calibrate_C": ("self_s",),
    "process.exact_sup_ellipsoid": ("calls", "self_s"),
    "pseudotrue.solve_pseudo_true": ("self_s", "iterations"),
    "pseudotrue.solve_mle": ("self_s", "iterations"),
    "curvature.certificate": ("self_s",),
    "priors.extremes_over_ball": ("self_s",),
    "quadform.prob_ball": ("calls", "self_s", "mc_fallbacks"),
    "bounds.compute_bounds": ("self_s",),
    "families.log_likelihood_full": ("calls", "self_s"),
    "oracles.quadrature_log_z": ("calls", "self_s", "points", "levels", "final_level_share"),
    "oracles.posterior_mode": ("calls", "self_s"),
    LOGF: ("self_s", "points", "pair_evals"),
    "oracles.posterior_mass": ("calls", "self_s"),
}


class Tracer:
    """Spans are lists [id, parent, name, start, end, round, counts]."""

    def __init__(self, run_id, package="evbounds", clock=time.perf_counter):
        self.run_id = run_id
        self.package = package
        self.clock = clock
        self.spans = []
        self.round = 0
        self._stack = []
        self._patches = []   # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def wrap(self, name, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, self.round, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if counter is not None:
                rec[6] = counter(args, kwargs, result)
            return result

        return traced

    # -- installing -------------------------------------------------------

    def _modules(self):
        return [m for k, m in list(sys.modules.items())
                if m is not None and (k == self.package or k.startswith(self.package + "."))]

    def _replace_everywhere(self, original, wrapper):
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self, targets=None):
        targets = TARGETS if targets is None else targets
        for name, (module, attr, counter) in targets.items():
            mod = sys.modules[f"{self.package}.{module}"]
            if "." in attr:                      # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, counter))
            else:
                original = getattr(mod, attr)
                self._replace_everywhere(original, self.wrap(name, original, counter))
        oracles = sys.modules.get(f"{self.package}.oracles")
        if hasattr(oracles, "log_posterior_unnorm"):
            self._install_logf(oracles)
        return self

    def _install_logf(self, oracles):
        original = oracles.log_posterior_unnorm
        tracer = self

        def counter_for(n_obs):
            def count(args, kwargs, result):
                k = int(np.atleast_2d(np.asarray(args[0])).shape[0])
                return {"points": k, "pair_evals": k * n_obs}
            return count

        @functools.wraps(original)
        def log_posterior_unnorm(family, X, y, prior):
            logf = original(family, X, y, prior)
            return tracer.wrap(LOGF, logf, counter_for(int(np.shape(X)[0])))

        self._replace_everywhere(original, log_posterior_unnorm)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- reading ----------------------------------------------------------

    def self_times(self):
        """Self time per span: duration minus the durations of its direct
        children (children nest inside their parent in one thread)."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[4] - s[3]) - child[s[0]] for s in self.spans]

    def aggregate(self):
        """Sums over this tracer's spans, to be added across rounds and
        turned into metrics by `layer_metrics`."""
        selfs = self.self_times()
        calls, self_s, counts, modules = {}, {}, {}, {}
        quad_points = {}   # quadrature span id -> points of each logf level
        for span, st in zip(self.spans, selfs):
            parent, name = span[1], span[2]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + st
            module = name.split(".")[0]
            modules[module] = modules.get(module, 0.0) + st
            for key, value in (span[6] or {}).items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
            if name == LOGF and parent >= 0 and self.spans[parent][2] == "oracles.quadrature_log_z":
                quad_points.setdefault(parent, []).append(span[6]["points"])
        # only quadrature calls that returned have a final level
        returned = [quad_points.get(s[0], []) for s in self.spans
                    if s[2] == "oracles.quadrature_log_z" and s[6] is not None]
        return {"calls": calls, "self_s": self_s, "counts": counts, "module_self_s": modules,
                "spans": len(self.spans),
                "quad_returned": len(returned),
                "quad_levels": sum(len(p) for p in returned),
                "quad_final_points": sum(p[-1] for p in returned if p),
                "quad_all_points": sum(sum(p) for p in returned)}

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "round": self.round,
                                 "spans": len(self.spans)}) + "\n")
            for sid, parent, name, start, end, rnd, cnt in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "round": rnd,
                                     "run_id": self.run_id, "counts": cnt}) + "\n")


def merge(aggregates):
    """Add up `Tracer.aggregate()` results from several rounds."""
    total = {}
    for agg in aggregates:
        for key, value in agg.items():
            if isinstance(value, dict):
                bucket = total.setdefault(key, {})
                for k, v in value.items():
                    bucket[k] = bucket.get(k, 0) + v
            else:
                total[key] = total.get(key, 0) + value
    return total


def layer_metrics(agg):
    """The per-layer metrics named in REPORTED, from merged aggregates;
    a function never called reads 0."""
    derived = {
        "oracles.quadrature_log_z.levels":
            agg["quad_levels"] / agg["quad_returned"] if agg["quad_returned"] else 0.0,
        "oracles.quadrature_log_z.final_level_share":
            agg["quad_final_points"] / agg["quad_all_points"] if agg["quad_all_points"] else 0.0,
    }
    out = {}
    for name, quantities in REPORTED.items():
        for q in quantities:
            key = f"{name}.{q}"
            if q == "calls":
                out[key] = agg["calls"].get(name, 0)
            elif q == "self_s":
                out[key] = agg["self_s"].get(name, 0.0)
            elif key in derived:
                out[key] = derived[key]
            else:
                out[key] = agg["counts"].get(key, 0)
    return out
