"""Recompute the reference values that the benchmark's output checks compare against.

    python3 bench/reference.py > bench/reference.json

For the reference grid (n = 6000) and the smoke grid (n = 400): e0 of the
linearized operator, and the blowup time t_star of classify-dense for every
factor a seed can select.  Rerun only when a change is meant to move these
numbers, and say so where the change is recorded.
"""

import json
import os
import shutil
import sys

import run
import workloads

for _var in run.THREAD_VARS:
    os.environ[_var] = "1"
sys.path.insert(0, run.SRC)

from nlslab import discretization as dz  # noqa: E402
from nlslab import experiments as ex  # noqa: E402
from nlslab import linearized_spectrum as ls  # noqa: E402


def main():
    out = os.path.join(run.OUT_ROOT, "reference")
    ref = {"e0": {}, "t_star": {}}
    try:
        for n in (workloads.SMOKE_N, workloads.REFERENCE_N):
            blocks = ls.build_blocks(dz.build_grid(6, 60.0, n))
            ref["e0"][str(n)] = ls.ground_mode(blocks).e0
            table = ref["t_star"][str(n)] = {}
            for factor in workloads.factor_grid():
                p = {"n": n, "factor": factor}
                manifest = workloads.call("classify-dense", p, out, ex)
                rep = dz.load_json(os.path.join(manifest["run_dir"], "report.json"))
                if rep["regime"] != "blowup":
                    raise SystemExit("factor %.4f at n=%d classifies as %r"
                                     % (factor, n, rep["regime"]))
                table["%.4f" % factor] = rep["details"]["termination"]["t_star"]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    json.dump(ref, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
