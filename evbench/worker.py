"""One round of one workload in a fresh interpreter: time `import
evbounds`, run the round, then check its outputs.  Started by run.py with
PYTHONPATH naming the checkout's `src`; prints one JSON object as its last
line.

    python3 worker.py --workload NAME --seed S --round K [--trace 0|1]
                      --src DIR --workdir DIR
"""

import time

_t0 = time.perf_counter()
import evbounds          # noqa: E402  (the import is the set-up being timed)
import evbounds.cli      # noqa: E402
SETUP_S = time.perf_counter() - _t0

import argparse          # noqa: E402
import json              # noqa: E402
import os                # noqa: E402
import resource          # noqa: E402
import sys               # noqa: E402


def run_round(workload, seed, k, trace, workdir):
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, workdir)
    wl.prepare(k)
    tracer = Tracer(f"{workload}:seed{seed}").install() if trace else None
    if tracer is not None:
        tracer.round = k
    try:
        t = time.perf_counter()
        record = wl.run_round(k)
        round_s = time.perf_counter() - t
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.uninstall()
    statuses, pools, notes = wl.check(k, record)
    result = {"round": k, "setup_s": SETUP_S, "round_s": round_s,
              "units": wl.units(record), "peak_rss_mb": peak_rss_mb,
              "statuses": statuses, "pools": pools, "notes": notes}
    if tracer is not None:
        path = os.path.join(workdir, f"spans-round{k}.jsonl")
        tracer.write(path)
        result["spans_path"] = path
        result["aggregate"] = tracer.aggregate()
    return result


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--round", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--src", required=True)
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)
    # the program must come from the checkout, never from an installed copy
    src = os.path.realpath(args.src)
    if not os.path.realpath(evbounds.__file__).startswith(src + os.sep):
        print(f"evbounds imported from {evbounds.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = run_round(args.workload, args.seed, args.round, args.trace, args.workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
