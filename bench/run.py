"""nlslab benchmark: one workload, measured for a fixed time, outputs checked.

    python3 bench/run.py --workload {wpm-minus,series-sweep,classify-dense}
                         [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from anywhere; the package is imported from the ``src/`` directory next
to this one.  Each sample is a fresh child process (sample.py) that runs one
scenario into a fresh output root under ``.bench_runs/``, so no sample reuses
another's outputs.  Samples run one at a time until ``--seconds`` would be
exceeded (at least one, two when tracing).  Before them, one warm-up and
two import-only processes time the package set-up.

With ``--trace 0`` every sample is untraced and the result carries the
end-to-end metrics.  With ``--trace 1`` samples alternate untraced and
traced, and the result carries the per-layer metrics of the traced samples
plus the tracing overhead (traced minus untraced run time).  ``--smoke``
runs the same workloads on a coarse grid (n = 400) in seconds; it exercises
the plumbing, and the reference-scale output checks are expected to fail
there for wpm-minus and series-sweep.

Times are reported in reference-speed seconds: each raw time is scaled by
the speed of a fixed kernel timed in the same process (calibrate.py), which
removes most of the drift of a shared machine.  Human-readable lines, raw
medians included, come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_runs")
SAMPLE = os.path.join(HERE, "sample.py")

# single-threaded BLAS/OpenMP in every child; only the sweep pool runs
# parallel work, with one worker per available core
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

SETUP_SPAWNS = 2
TIME_LIMIT_S = 170.0  # a whole invocation must end within 180 s


class BenchError(RuntimeError):
    pass


def spawn(req, env, deadline):
    """Run sample.py with one request; returns its result with setup_s added."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, SAMPLE, json.dumps(req)], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        raise BenchError("sample process exceeded the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("sample process exited with code %d" % proc.returncode)
    res = json.loads(lines[-1])
    res["setup_s"] = res["ready"] - t_spawn
    res["wall_s"] = time.monotonic() - t_spawn
    return res


def high_percentile(values):
    """(p, value): the highest percentile with at least 10 samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def check_sample(name, params, res, reference):
    if "error" in res:
        return ["raised %s" % res["error"]]
    try:
        return workloads.check(name, params, res["manifest"], reference)
    except (OSError, KeyError, ValueError) as exc:
        return ["outputs unreadable: %s: %s" % (type(exc).__name__, exc)]


def measure(args, params, env):
    """Time the set-up, then run samples until --seconds is used; returns (setups, samples)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    reference = workloads.load_reference()
    out = os.path.join(OUT_ROOT, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    try:
        # the warm-up byte-compiles the package and fills the file cache
        spawn({"src": SRC, "setup_only": True}, env, deadline)
        setups = [spawn({"src": SRC, "setup_only": True}, env, deadline)
                  for _ in range(SETUP_SPAWNS)]

        samples, span_rows = [], []
        start = time.monotonic()
        while True:
            i = len(samples)
            traced = bool(args.trace) and i % 2 == 1
            sample_out = os.path.join(out, "sample-%d" % i)
            os.makedirs(sample_out)
            run_id = "%s-seed%d-%d" % (args.workload, args.seed, i)
            res = spawn({"src": SRC, "workload": args.workload, "params": params,
                         "out": sample_out, "trace": traced, "run_id": run_id},
                        env, deadline)
            res["traced"] = traced
            res["problems"] = check_sample(args.workload, params, res, reference)
            for problem in res["problems"]:
                print("sample %d failed its output check: %s" % (i, problem), file=sys.stderr)
            if traced:
                with open(os.path.join(sample_out, "spans.json")) as f:
                    spans = json.load(f)
                res["layers"] = tracing.layer_metrics(spans["rows"], spans["counts"])
                span_rows.extend(spans["rows"])
            shutil.rmtree(sample_out)
            samples.append(res)
            elapsed = time.monotonic() - start
            typical = statistics.median(s["wall_s"] for s in samples)
            if len(samples) >= 1 + args.trace and elapsed + typical > args.seconds:
                break
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if span_rows:
        with open(os.path.join(OUT_ROOT, "spans-%s.jsonl" % args.workload), "w") as f:
            for row in span_rows:
                f.write(json.dumps(row) + "\n")
    return setups, samples


def speed(res):
    """Reference-speed seconds per raw second in the process that produced res."""
    return res["reference_s"] / statistics.fmean(res["cal_s"])


def report(args, params, setups, samples, nproc, env):
    plain = [s for s in samples if not s["traced"]]
    timed = {"run_s": plain, "setup_s": setups + samples, "cpu_s": plain}
    failed = sum(1 for s in samples if s["problems"])
    versions = setups[0]["versions"]
    factors = [speed(s) for s in setups + samples]

    print("# nlslab benchmark  workload=%s seed=%d seconds=%d trace=%d smoke=%d"
          % (args.workload, args.seed, args.seconds, args.trace, args.smoke))
    print("# params %s" % json.dumps(params, sort_keys=True))
    print("# threads %s  nproc=%d  sweep workers=%d"
          % (" ".join("%s=%s" % (v, env[v]) for v in THREAD_VARS), nproc, nproc))
    print("# python %s  numpy %s  scipy %s  blas %s  commit %s"
          % (versions["python"], versions["numpy"], versions["scipy"], versions["blas"],
             git_commit()))
    print("# times in reference-speed seconds (calibrate.py); speed factor median %.4g, "
          "range %.4g-%.4g over %d processes"
          % (statistics.median(factors), min(factors), max(factors), len(factors)))
    metrics = {}
    for name, unit in END_TO_END.items():
        if name in timed:
            vals = [s[name] * speed(s) for s in timed[name]]
            raw = " (raw %.6g s)" % statistics.median(s[name] for s in timed[name])
        else:
            vals, raw = [s[name] for s in plain], ""
        med = statistics.median(vals)
        hp = high_percentile(vals)
        tail = "p%.0f=%.6g" % hp if hp else "p-high=n/a (needs >= 11 samples)"
        print("%-14s median=%-10.6g %-3s%s  %s  samples=%d"
              % (name, med, unit, raw, tail, len(vals)))
        metrics[name] = {"value": med, "unit": unit}
    print("%-14s %.6g (%d of %d attempted samples failed)"
          % ("failed_frac", failed / len(samples), failed, len(samples)))

    if args.trace:
        # per-layer times are raw seconds, like the spans they come from
        traced = [s for s in samples if s["traced"]]
        layers = {key: statistics.median(s["layers"][key] for s in traced)
                  for key in traced[0]["layers"]}
        layers["trace.run_s"] = statistics.median(s["run_s"] for s in traced)
        layers["trace.overhead_s"] = (layers["trace.run_s"]
                                      - statistics.median(s["run_s"] for s in plain))
        print("# per-layer metrics from %d traced sample(s), raw seconds" % len(traced))
        metrics = {}
        for name, unit in tracing.PER_LAYER.items():
            print("%-40s %-14.6g %s" % (name, layers[name], unit))
            metrics[name] = {"value": layers[name], "unit": unit}

    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="coarse grid (n = 400): the same workloads in seconds")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nlslab", "__init__.py")):
        print("error: no nlslab package under %s" % SRC, file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    nproc = len(os.sched_getaffinity(0))
    params = workloads.params(args.workload, args.seed, smoke=args.smoke, workers=nproc)
    try:
        setups, samples = measure(args, params, env)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    report(args, params, setups, samples, nproc, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
