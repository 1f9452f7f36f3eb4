"""Benchmark entry point; run from the root of an evbounds checkout:

    python3 evbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Each round of a workload runs in its own fresh interpreter (worker.py),
one at a time, which times `import evbounds`, the round and the process's
peak resident set, and checks the round's outputs.

--trace 0 runs rounds until T seconds of timed work and prints the
end-to-end metrics: the medians over the rounds of the import time (topped
up to five samples with import-only interpreters) and of units per second,
and the least of the rounds' peak RSS.  --trace 1 runs a fixed number of
rounds (T over the nominal round length) twice, untraced and traced in
turn, adds `python -X importtime` figures, prints the per-layer metrics
and the tracing overhead, and writes the spans to evbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; metric names and units come from
BENCHMARK.json.  Every child runs with one BLAS/OpenMP thread and
PYTHONPATH set to the checkout's `src` only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEADLINE_S = 170.0          # the whole run ends well inside 180 s
SETUP_SAMPLES = 5
IMPORTTIME_PROBES = 3
NOMINAL_ROUND_S = {"coverage-quadrature": 2.5, "concentration-importance": 2.8,
                   "cli-bounds": 4.2}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import evbounds, evbounds.cli; "
                "print(time.perf_counter() - t)")


class BenchError(Exception):
    pass


def child_env(src):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") or k == "PYTHONHOME"}
    env["PYTHONPATH"] = str(src)
    env.update({k: "1" for k in THREAD_VARS})
    return env


class Runner:
    def __init__(self, root, workload, seed, workdir):
        self.root = root
        self.src = root / "src"
        self.env = child_env(self.src)
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.start = time.monotonic()

    def _call(self, cmd):
        left = DEADLINE_S - (time.monotonic() - self.start)
        if left <= 0:
            raise BenchError("out of time")
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out: {cmd[1:3]}")
        if proc.returncode != 0:
            raise BenchError(f"{cmd[1:3]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return proc

    def import_seconds(self):
        return float(self._call([sys.executable, "-c", IMPORT_PROBE]).stdout.split()[-1])

    def importtime(self):
        """Cumulative seconds of evbounds and scipy.stats under -X importtime."""
        err = self._call([sys.executable, "-X", "importtime", "-c",
                          "import evbounds, evbounds.cli"]).stderr
        cum = {}
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if m:
                cum[m.group(2)] = int(m.group(1)) / 1e6
        return cum.get("evbounds", 0.0), cum.get("scipy.stats", 0.0)

    def round(self, k, trace):
        proc = self._call([sys.executable, str(BENCH_DIR / "worker.py"),
                           "--workload", self.workload, "--seed", str(self.seed),
                           "--round", str(k), "--trace", str(trace),
                           "--src", str(self.src), "--workdir", str(self.workdir)])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def rounds(self, seconds):
        """Untraced rounds 0, 1, ... until `seconds` of timed work."""
        results, timed = [], 0.0
        while timed < seconds:
            results.append(self.round(len(results), 0))
            timed += results[-1]["round_s"]
        return results


def rate(res):
    return res["units"] / res["round_s"]


def settle(results):
    """(attempted, failed, correct, notes) over rounds.  Coverage counts are
    pooled per group across the rounds; a group with fewer hits than the
    binomial floor at its guaranteed rate has every unit marked wrong."""
    from reference import binomial_lower_quantile

    pooled, notes = {}, []
    for res in results:
        notes += [f"round {res['round']}: {n}" for n in res["notes"]]
        for group, (hits, trials, rate_) in res["pools"].items():
            acc = pooled.setdefault(group, [0, 0, rate_])
            acc[0] += hits
            acc[1] += trials
    short = set()
    for group, (hits, trials, rate_) in pooled.items():
        floor = binomial_lower_quantile(trials, rate_)
        if hits < floor:
            short.add(group)
            notes.append(f"{group}: {hits}/{trials} hits, below the binomial floor {floor} "
                         f"at rate {rate_}")
    statuses = [("wrong" if group in short else status)
                for res in results for group, status in res["statuses"]]
    failed = sum(s != "ok" for s in statuses)
    return len(statuses), failed, all(s != "wrong" for s in statuses), notes


def end_to_end(runner, seconds):
    results = runner.rounds(seconds)
    setups = [r["setup_s"] for r in results]
    setups += [runner.import_seconds() for _ in range(SETUP_SAMPLES - len(setups))]
    metrics = {"setup_s": statistics.median(setups),
               "units_per_s": statistics.median(rate(r) for r in results),
               # the least peak over rounds: a round that meets a replicate needing a
               # third quadrature level, or whose allocator kept a freed 16 MB block,
               # peaks far higher (the per-layer rounds.peak_rss_max_mb shows those)
               "peak_rss_mb": min(r["peak_rss_mb"] for r in results)}
    return results, metrics


def per_layer(runner, seconds):
    from tracer import layer_metrics, merge

    imports = [runner.importtime() for _ in range(IMPORTTIME_PROBES)]
    count = max(1, round(seconds / NOMINAL_ROUND_S[runner.workload]))
    # untraced and traced rounds alternate, so a drift in the machine's
    # speed does not pass for tracing overhead
    plain, traced = [], []
    for k in range(count):
        plain.append(runner.round(k, 0))
        traced.append(runner.round(k, 1))
    agg = merge(r["aggregate"] for r in traced)
    metrics = layer_metrics(agg)
    plain_rate = statistics.median(rate(r) for r in plain)
    traced_rate = statistics.median(rate(r) for r in traced)
    metrics.update({
        "import.evbounds_s": statistics.median(i[0] for i in imports),
        "import.scipy_stats_s": statistics.median(i[1] for i in imports),
        "rounds.count": count,
        "rounds.peak_rss_max_mb": max(r["peak_rss_mb"] for r in plain),
        "trace.spans": agg["spans"],
        "trace.units_per_s": traced_rate,
        "trace.untraced_units_per_s": plain_rate,
        "trace.overhead_pct": 100.0 * (plain_rate / traced_rate - 1.0),
    })
    timed = sum(r["round_s"] for r in traced)
    share = sorted(agg["module_self_s"].items(), key=lambda kv: -kv[1])
    print("self time by module, share of the traced rounds: " +
          ", ".join(f"{m} {s / timed:.1%}" for m, s in share), file=sys.stderr)
    path = BENCH_DIR / "out" / f"trace-{runner.workload}-seed{runner.seed}.jsonl"
    with open(path, "w") as out:
        for r in traced:
            out.write(Path(r["spans_path"]).read_text())
    print(f"spans written to {path}", file=sys.stderr)
    return plain + traced, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "evbounds" / "__init__.py").is_file():
        print(f"no evbounds sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(root, args.workload, args.seed, workdir)
        results, metrics = (per_layer if args.trace else end_to_end)(runner, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1
    attempted, failed, correct, notes = settle(results)
    for note in notes:
        print(f"check: {note}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(results)} rounds, "
          f"{sum(r['round_s'] for r in results):.2f} s timed; by round: units/s "
          f"{[round(rate(r), 3) for r in results]}, peak RSS MB "
          f"{[round(r['peak_rss_mb'], 1) for r in results]}", file=sys.stderr)
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
