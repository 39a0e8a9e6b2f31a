"""Benchmark of rankone's public API on four workloads.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: rankone is imported from ``src``.
One process, one thread.  ``--trace 0`` prints the end-to-end metrics and
``--trace 1`` the per-layer metrics of ``layers.py``; ``--smoke`` shrinks
every workload to a size that finishes in seconds.  All times are CPU
time of this process (see README.md).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, _SRC)

import rankone  # noqa: E402
import rankone.io  # noqa: E402

# CPU time since the process started: interpreter start-up plus the import.
IMPORT_CPU_S = time.process_time()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one round")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.path.commonpath([os.path.abspath(rankone.__file__), _SRC]) != _SRC:
        print(f"rankone was imported from {rankone.__file__}, not from {_SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()

    def load_round(index):
        rng = workloads.round_rng(args.workload, args.seed, index)
        cases = workload.cases(rng, args.smoke)
        t0 = time.process_time()
        loaded = [workload.load(rankone, c) for c in cases]
        return cases, loaded, time.process_time() - t0

    cases, loaded, load_s = load_round(0)
    setup_s = IMPORT_CPU_S + load_s

    times_ns = []
    problems = []
    attempted = failed = 0
    busy_ns = 0
    rounds = 0
    while True:
        if rounds:
            cases, loaded, _ = load_round(rounds)
        gc.collect()
        for case, item in zip(cases, loaded):
            attempted += 1
            t0 = time.process_time_ns()
            try:
                out = workload.run(rankone, item)
            except Exception:  # noqa: BLE001 - an operation that raises counts as failed
                busy_ns += time.process_time_ns() - t0
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            dt = time.process_time_ns() - t0
            busy_ns += dt
            times_ns.append(dt)
            problems.extend(workload.check(case, out))
        rounds += 1
        if args.smoke or busy_ns >= args.seconds * 1e9:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems.extend(workload.finish())
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    if tracer is not None:
        for layer in tracer.absent:
            print(f"absent: {layer}")
        values = tracer.metrics(attempted)
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in layers.metric_names()
        }
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": (attempted - failed) / (busy_ns / 1e9), "unit": "1/s"},
            "op_p50_ms": {
                "value": statistics.median(times_ns) / 1e6 if times_ns else 0.0,
                "unit": "ms",
            },
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    print(
        f"{args.workload}: {rounds} rounds, {attempted} operations in {busy_ns / 1e9:.3f} s CPU, "
        f"{len(problems)} check failures"
    )
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
