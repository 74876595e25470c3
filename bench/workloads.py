"""The three benchmark workloads: seeded parameters, scenario calls, output checks.

Each workload drives one public scenario entry point of ``nlslab.experiments``
at the reference scale (d = 6, r_max = 60, n = 6000) and stresses a different
part of the chain W -> (e0, Y+) -> W_k^± -> split-step evolution ->
classification:

* ``wpm-minus``      the canonical W^- experiment; the Cayley step loop is
                     ~95% of it, so a stepper change shows here;
* ``series-sweep``   spectra plus 32 near-solution cells on a worker pool; it
                     never calls the evolver, so a stepper change must not
                     show here;
* ``classify-dense`` a short, sample-dense, early-terminating blowup run; the
                     modulation fit and the per-step blowup detector dominate.

Parameter generation and checks use only the standard library, so the parent
benchmark process never imports numpy; the scenario call runs in a fresh
child process (sample.py).
"""

import csv
import json
import os
import random

NAMES = ("wpm-minus", "series-sweep", "classify-dense")

# Seed 0 (the default) gives the midpoint of every seeded range, which are
# the values the workloads are described with.
DEFAULT_SEED = 0

REFERENCE_N = 6000
SMOKE_N = 400

# classify-dense factors sit on this grid so that every seed has a reference
# blowup time recorded in reference.json.  The range is [1.019, 1.021]: its
# blowup times differ by under 4%, whereas across [1.015, 1.025] they differ
# by 17%, and the run time follows the blowup time.
FACTOR_LO, FACTOR_STEP, FACTOR_COUNT = 1.019, 0.0001, 21

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def factor_grid():
    return [round(FACTOR_LO + FACTOR_STEP * i, 4) for i in range(FACTOR_COUNT)]


def params(name, seed, smoke=False, workers=1):
    """Scenario parameters for one workload, a pure function of the seed."""
    n = SMOKE_N if smoke else REFERENCE_N
    rng = random.Random(seed)
    mid = seed == DEFAULT_SEED
    if name == "wpm-minus":
        # both ends of [-11, -10] pass every embedded check at n = 6000
        t0 = -10.5 if mid else round(rng.uniform(-11.0, -10.0), 6)
        return {"n": n, "seed_t0": t0}
    if name == "series-sweep":
        a_bar = 1.6 if mid else round(rng.uniform(1.2, 2.0), 6)
        return {"n": [n, 2 * n], "a_bar": a_bar, "workers": workers}
    if name == "classify-dense":
        grid = factor_grid()
        factor = grid[FACTOR_COUNT // 2] if mid else grid[rng.randrange(FACTOR_COUNT)]
        return {"n": n, "factor": factor}
    raise ValueError("unknown workload %r (expected one of %s)" % (name, ", ".join(NAMES)))


def sweep_config(p):
    return {"ranges": {"d": [6], "n": list(p["n"]), "k": [1, 2, 3, 4],
                       "a": [1.0, -1.0, p["a_bar"], -p["a_bar"]]}}


def classify_config(p, schema_version):
    return {"scenario": "classify-custom", "schema_version": schema_version,
            "grid": {"d": 6, "r_max": 60.0, "n": p["n"]},
            "initial": {"kind": "scaled-w", "factor": p["factor"]},
            "evolver": {"dt": 0.01, "t_span": [0.0, 40.0], "sample_every": 0.02}}


def call(name, p, out_dir, ex):
    """Run the workload's scenario once through the public API; returns the manifest."""
    if name == "wpm-minus":
        return ex.canonical_wpm(6, -1, out_dir=out_dir, seed_t0=p["seed_t0"],
                                grid={"n": p["n"]})
    if name == "series-sweep":
        return ex.sweep(sweep_config(p), out_dir=out_dir, workers=p["workers"])
    return ex.run(classify_config(p, ex.SCHEMA_VERSION), out_dir=out_dir)


def load_reference():
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def _load(run_dir, name):
    with open(os.path.join(run_dir, name)) as f:
        return json.load(f)


def check(name, p, manifest, reference):
    """Return a list of problems with one run's outputs (empty when correct)."""
    problems = []
    if not manifest.get("ok"):
        failed = [k for k, c in manifest.get("checks", {}).items() if not c.get("passed")]
        problems.append("manifest.ok is false (failed: %s)" % ", ".join(failed))
    run_dir = manifest["run_dir"]
    if name == "wpm-minus":
        rep = _load(run_dir, "report.json")
        if rep["forward"]["regime"] != "converges-to-W":
            problems.append("forward regime %r" % rep["forward"]["regime"])
        if rep["backward"]["regime"] != "scattering-proxy":
            problems.append("backward regime %r" % rep["backward"]["regime"])
        e0_ref = reference["e0"][str(p["n"])]
        if abs(rep["e0"] - e0_ref) > 1e-6 * e0_ref:
            problems.append("e0 %.17g differs from reference %.17g" % (rep["e0"], e0_ref))
    elif name == "series-sweep":
        with open(os.path.join(run_dir, "aggregate.csv")) as f:
            rows = list(csv.DictReader(f))
        want = len(p["n"]) * 4 * 4
        if len(rows) != want:
            problems.append("%d of %d cells completed" % (len(rows), want))
        for row in rows:
            rate, target = float(row["rate"]), float(row["rate_target"])
            if not abs(rate - target) <= 0.10 * target:
                problems.append("cell n=%s k=%s a=%s: rate %.6g vs (k+1)e0 %.6g"
                                % (row["n"], row["k"], row["a"], rate, target))
    elif name == "classify-dense":
        rep = _load(run_dir, "report.json")
        if rep["regime"] != "blowup":
            problems.append("regime %r" % rep["regime"])
        else:
            t_star = rep["details"]["termination"]["t_star"]
            ref = reference["t_star"][str(p["n"])]["%.4f" % p["factor"]]
            if abs(t_star - ref) > 0.01 * abs(ref):
                problems.append("t_star %.6g differs from reference %.6g" % (t_star, ref))
    return problems
