"""One benchmark sample: a fresh interpreter running one scenario into a fresh output root.

    python3 bench/sample.py '<request JSON>'

The request names the source tree, the workload and its parameters, the
output root and whether to trace.  The thread-count variables are set by the
caller in this process's environment, so they hold before numpy is imported.
The last line of standard output is a JSON object: the moment the package
was imported and ready (time.monotonic, comparable with the caller's clock),
the wall and CPU time of the scenario call, the peak RSS, the manifest, and
the calibration kernel's times (calibrate.py) taken after the import and,
for a sample, again after the scenario.  A traced sample also writes its
spans to ``spans.json`` in the output root.
"""

import json
import os
import sys
import time


def _versions():
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def main():
    req = json.loads(sys.argv[1])
    sys.path.insert(0, req["src"])
    import nlslab
    ready = time.monotonic()
    if not os.path.abspath(nlslab.__file__).startswith(os.path.abspath(req["src"])):
        raise SystemExit("nlslab imported from %s, not from %s" % (nlslab.__file__, req["src"]))
    import calibrate
    result = {"ready": ready, "cal_s": [calibrate.kernel_seconds()],
              "reference_s": calibrate.REFERENCE_S}
    if req.get("setup_only"):
        result["versions"] = _versions()
        print(json.dumps(result))
        return

    import resource

    import workloads
    from nlslab import experiments as ex

    tracer = None
    if req["trace"]:
        import tracing
        tracer = tracing.Tracer(req["run_id"])
        tracer.install()
    args = (req["workload"], req["params"], req["out"], ex)

    t0, c0 = time.monotonic(), time.process_time()
    try:
        if tracer is None:
            result["manifest"] = workloads.call(*args)
        else:
            result["manifest"] = tracer.span("sample", workloads.call, *args)
    except Exception as exc:  # a raised scenario is a failed attempt, not a crash
        result["error"] = "%s: %s" % (type(exc).__name__, exc)
    result["run_s"] = time.monotonic() - t0
    result["cpu_s"] = time.process_time() - c0
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["cal_s"].append(calibrate.kernel_seconds())
    if tracer is not None:
        tracer.restore()
        with open(os.path.join(req["out"], "spans.json"), "w") as f:
            json.dump({"rows": tracer.rows(), "counts": tracer.counts}, f)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
