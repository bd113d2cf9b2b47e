"""Run-to-run steadiness of the end-to-end metrics.

    python3 perfbench/steadiness.py --workloads walk,chamber --seeds 1-10 --seconds 25

Runs the benchmark once per (workload, seed), one process at a time, in
the order seed-major (every workload at seed 1, then at seed 2, ...) so
that slow drift of the host touches every workload alike.  Prints each
run's metrics and, per workload and metric, the median and the
interquartile distance as a share of the median, as
`statistics.quantiles(values, n=4)` gives the quartiles.
"""

import argparse
import json
import statistics
import sys

import run
import stats


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="walk,freeenergy,chamber,ballmc")
    parser.add_argument("--seeds", default="1-10", help="range lo-hi")
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    values = {w: {} for w in names}
    for seed in _seeds(args.seeds):
        for w in names:
            result, _ = run.run_child(w, seed, args.seconds, 0)
            row = {k: m["value"] for k, m in result["metrics"].items()}
            print(json.dumps({"workload": w, "seed": seed, "failed": result["failed"], **row}),
                  flush=True)
            for k, v in row.items():
                values[w].setdefault(k, []).append(v)
    for w in names:
        for k, vals in values[w].items():
            if len(vals) >= 2:
                print(f"{w:<11} {k:<12} median {statistics.median(vals):12.6g}  "
                      f"spread {stats.spread(vals):.3f}  (n={len(vals)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
