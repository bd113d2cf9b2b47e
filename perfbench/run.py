"""conebessel benchmark: four seeded CLI workloads, run in-process.

    python3 perfbench/run.py --workload walk --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the repository root (the package is imported from `src/`).  One
op is one `conebessel.cli.main([...])` call; a single client sends the
next op only when the last one has returned (closed loop).  Every op's
CSV is checked against an independent reference (see workloads.py), and
the first op is repeated at the end of the run to check that its CSV is
byte-identical.

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates
untraced and traced ops and reports per-layer metrics from the spans of
the traced ones (see spans.py), plus the ratio of untraced to traced
throughput.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  `--workload all` runs
each workload in its own process and prints each one's report instead.
BLAS and OpenMP are pinned to one thread before numpy loads.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import stats
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
MIN_OPS = 11  # the tail percentile needs ten ops beyond it

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
WORK_UNIT = {
    "walk": "walk steps",
    "freeenergy": "walk steps",
    "chamber": "Haar samples",
    "ballmc": "ball proposals",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _import_cli():
    src = ROOT / "src"
    if not (src / "conebessel" / "__init__.py").is_file():
        raise BenchError(f"package source not found under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    from conebessel import cli

    return cli


def run_op(main, op, out_dir):
    """One op: returns (exit code, seconds, CSV bytes or None)."""
    argv = list(op.argv) + ["--threads", "1", "--out", str(out_dir)]
    csv_path = out_dir / op.csv
    if csv_path.exists():
        csv_path.unlink()
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        rc = main(argv)
        seconds = time.perf_counter() - start
    data = csv_path.read_bytes() if rc == 0 and csv_path.exists() else None
    return rc, seconds, data


def verify(op, rc, data):
    """None when the op succeeded and matches its reference, else a reason."""
    if rc != 0:
        return f"exit code {rc}"
    if data is None:
        return "no CSV written"
    return op.check(data.decode("utf-8"))


def setup(workload, seed, main, out_dir):
    """Warm-up ops (workloads.WARMUP), which also build the Jack tables."""
    for op in workloads.warmup(workload, seed):
        rc, _, data = run_op(main, op, out_dir)
        reason = verify(op, rc, data)
        if reason is not None:
            raise BenchError(f"warm-up op {' '.join(op.argv)} failed: {reason}")


def measure_setup(workload, seed):
    """Median time from process start to the end of set-up, over fresh
    processes: interpreter start, imports, warm-up and table builds."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            rc = proc.wait(timeout=170)
        if rc != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe exited with {rc}")
        times.append(elapsed)
    return statistics.median(times)


def timed_loop(workload, seed, seconds, main, out_dir, recorder=None):
    """Closed loop for `seconds`.  With a recorder, ops alternate in pairs:
    two untraced, two traced, so that no op shape (chamber alternates the
    field every op) is traced more often than another.

    Returns a dict of latency lists, work totals and failure counts.
    """
    res = {"lat": [], "work": 0, "lat_t": [], "work_t": 0, "attempted": 0, "failed": 0}
    traced_main = recorder.wrap(spans.ROOT, main) if recorder else None
    first = None
    start = time.perf_counter()
    for i, op in enumerate(workloads.ops(workload, seed)):
        elapsed = time.perf_counter() - start
        # Ops that raise leave no latency; give up on MIN_OPS at 2x seconds.
        if elapsed >= seconds and (len(res["lat"]) >= MIN_OPS or elapsed >= 2 * seconds):
            break
        traced = recorder is not None and (i // 2) % 2 == 1
        res["attempted"] += 1
        try:
            if traced:
                recorder.op = i
                recorder.install()
                try:
                    rc, sec, data = run_op(traced_main, op, out_dir)
                finally:
                    recorder.uninstall()
            else:
                rc, sec, data = run_op(main, op, out_dir)
            reason = verify(op, rc, data)
        except Exception:  # an op that crashes is a failed op; keep measuring
            traceback.print_exc()
            reason, sec, data = "raised", None, None
        if reason is not None:
            res["failed"] += 1
            print(f"op {i} failed ({reason}): {' '.join(op.argv)}", file=sys.stderr)
        if sec is not None:
            key = "_t" if traced else ""
            res["lat" + key].append(sec)
            res["work" + key] += op.work
        if first is None and data is not None:
            first = (op, data)
    # Reproducibility: the first op's config again gives a byte-identical CSV.
    res["attempted"] += 1
    if first is None:
        res["failed"] += 1
    else:
        op, data = first
        rc, _, again = run_op(main, op, out_dir)
        if again != data:
            res["failed"] += 1
            print(f"repeat of {' '.join(op.argv)} is not byte-identical", file=sys.stderr)
    return res


def run(workload, seed, seconds, trace):
    out_dir = OUT / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    cli = _import_cli()
    setup_s = None if trace else measure_setup(workload, seed)
    recorder = spans.Recorder() if trace else None
    t0 = time.perf_counter()
    if recorder:
        recorder.install()
        try:
            setup(workload, seed, recorder.wrap(spans.ROOT, cli.main), out_dir)
        finally:
            recorder.uninstall()
    else:
        setup(workload, seed, cli.main, out_dir)
    res = timed_loop(workload, seed, seconds, cli.main, out_dir, recorder)
    lat = res["lat"]
    if not lat or (trace and not res["lat_t"]):
        raise BenchError(f"no op completed; {res['failed']} of {res['attempted']} failed")
    if trace:
        ops_t = len(res["lat_t"])
        ratio = (res["work"] / sum(lat)) / (res["work_t"] / sum(res["lat_t"]))
        metrics = spans.layer_metrics(recorder, ops_t, sum(res["lat_t"]) / ops_t, ratio)
        units = spans.per_layer_units()
        recorder.write(OUT / f"spans-{workload}.tsv", t0)
        print(f"{workload}: {ops_t} traced ops, {len(lat)} untraced; "
              f"spans in {OUT / f'spans-{workload}.tsv'}")
    else:
        tail = stats.tail_percentile(lat)
        tail_text = f"{1e3 * tail[1]:.6g} ms (p{tail[0]})" if tail else "n/a"
        metrics = {
            "setup_s": setup_s,
            "op_p50_ms": 1e3 * statistics.median(lat),
            "work_per_s": res["work"] / sum(lat),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
        # Printed, not gated: its run-to-run spread on a 2-core host exceeds
        # the largest bound the benchmark may set (see README.md).
        print(f"{workload}: {len(lat)} ops; op_tail_ms {tail_text}; "
              f"work_per_s counts {WORK_UNIT[workload]}")
    fail_ratio = res["failed"] / res["attempted"]
    for name, value in metrics.items():
        print(f"{workload} {name} {value:.6g} {units[name]}")
    print(f"{workload} fail_ratio {fail_ratio:.6g} ({res['failed']}/{res['attempted']})")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_child(workload, seed, seconds, trace):
    """One benchmark run in a fresh process: (result object, report lines)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload {workload} exited with {proc.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def run_all(seed, seconds, trace):
    """Every workload in its own process; prints each one's report."""
    correct = True
    for workload in workloads.GENERATORS:
        result, report = run_child(workload, seed, seconds, trace)
        print("\n".join(report), flush=True)
        correct = correct and result["correct"]
    return correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.GENERATORS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return 0 if run_all(args.seed, args.seconds, args.trace) else 1
        if args.probe_setup:
            out_dir = OUT / f"{args.workload}-probe"
            out_dir.mkdir(parents=True, exist_ok=True)
            setup(args.workload, args.seed, _import_cli().main, out_dir)
            print("ready", flush=True)
            return 0
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
