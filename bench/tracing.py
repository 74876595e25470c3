"""Span tracing of the nlslab layers from outside the package.

``Tracer.install`` swaps the public functions of each layer module for
wrappers that record a span per call: (name, start, end, parent, thread).
Spans stay in memory and are written once, when the sample ends.  Nothing
under ``src/`` is modified; the module attributes are swapped only in the
traced child process.

Parent links follow the call stack of the calling thread.  A span opened on
a worker thread with an empty stack (a sweep cell) is parented to the
innermost open span of the main thread, which is the call that submitted
the work.

``layer_metrics`` turns the spans and counters of one sample into the
per-layer metrics named in ``PER_LAYER``.
"""

import functools
import os
import threading
import time
from collections import Counter, defaultdict

# per-layer metric -> unit; every traced run reports all of them
PER_LAYER = {
    "evolver.steps": "count",
    "evolver.step_us": "us",
    "evolver.steps_per_s": "1/s",
    "evolver.evolve_s": "s",
    "evolver.solve_banded_s": "s",
    "evolver.solve_banded_calls": "count",
    "evolver.make_stepper_s": "s",
    "evolver.samples": "count",
    "diagnostics.fit_modulation_s": "s",
    "diagnostics.fit_modulation_calls": "count",
    "diagnostics.fit_modulation_nfev": "count",
    "diagnostics.classify_s": "s",
    "linearized_spectrum.ground_mode_s": "s",
    "linearized_spectrum.ground_mode_calls": "count",
    "linearized_spectrum.spsolve_calls": "count",
    "linearized_spectrum.save_eigenpair_s": "s",
    "series_builder.build_near_solution_s": "s",
    "series_builder.solve_profile_s": "s",
    "series_builder.solve_profile_calls": "count",
    "series_builder.order_forcing_s": "s",
    "series_builder.residual_rate_s": "s",
    "series_builder.save_near_solution_s": "s",
    "discretization.kinetic_sq_s": "s",
    "discretization.kinetic_sq_calls": "count",
    "discretization.save_field_s": "s",
    "discretization.save_field_bytes": "B",
    "ground_state.w_family_calls": "count",
    "ground_state.w_family_s": "s",
    "ground_state.sample_w_calls": "count",
    "experiments.run_self_s": "s",
    "experiments.output_bytes": "B",
    "experiments.sweep_concurrency": "ratio",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


class _Stack(threading.local):
    def __init__(self):
        self.items = []


class Tracer:
    """In-memory span recorder for one sample (one scenario call)."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1, thread id]
        self.counts = Counter()
        self._lock = threading.Lock()
        self._stack = _Stack()
        self._main_items = self._stack.items
        self._undo = []

    def _open(self, name):
        items = self._stack.items
        if items:
            parent = items[-1]
        else:
            main = self._main_items
            parent = main[-1] if main else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent,
                               threading.get_ident()])
        items.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.items.pop()

    def span(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called name."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def count(self, key, n):
        with self._lock:
            self.counts[key] += n

    def traced(self, fn, name, after=None):
        """fn wrapped in a span; after(result, args) may count and replace the result."""
        @functools.wraps(fn)
        def call(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            return result if after is None else after(result, args)
        return call

    def wrap(self, obj, attr, name=None, after=None):
        orig = getattr(obj, attr)
        if name is None:
            name = "%s.%s" % (obj.__name__.rsplit(".", 1)[-1], attr)
        self._undo.append((obj, attr, orig))
        setattr(obj, attr, self.traced(orig, name, after))

    def restore(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def install(self):
        """Wrap the public functions of every nlslab layer that the workloads reach."""
        import scipy.sparse.linalg as spla

        from nlslab import diagnostics as dg
        from nlslab import discretization as dz
        from nlslab import evolver as ev
        from nlslab import experiments as ex
        from nlslab import ground_state as gs
        from nlslab import linearized_spectrum as ls
        from nlslab import series_builder as sb

        def field_bytes(result, args):
            self.count("discretization.save_field_bytes", os.path.getsize(args[0]))
            return result

        def output_bytes(manifest, args):
            total = 0
            for base, _, files in os.walk(manifest["run_dir"]):
                total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
            self.count("experiments.output_bytes", total)
            return manifest

        def evolve_samples(trace, args):
            self.count("evolver.samples", len(trace.times))
            return trace

        def fit_nfev(fit, args):
            self.count("diagnostics.fit_modulation_nfev", fit.diagnostics.get("nfev", 0))
            return fit

        def traced_stepper(step_fn, args):
            return self.traced(step_fn, "evolver.step")

        self.wrap(dz, "kinetic_sq")
        self.wrap(dz, "save_field", after=field_bytes)
        self.wrap(gs, "w_family")
        self.wrap(gs, "sample_w")
        self.wrap(ls, "ground_mode")
        self.wrap(ls, "save_eigenpair")
        # linearized_spectrum is the only nlslab module that calls spsolve
        self.wrap(spla, "spsolve", name="linearized_spectrum.spsolve")
        for attr in ("build_near_solution", "solve_profile", "order_forcing",
                     "residual_rate", "save_near_solution"):
            self.wrap(sb, attr)
        self.wrap(ev, "evolve", after=evolve_samples)
        self.wrap(ev, "make_stepper", after=traced_stepper)
        self.wrap(ev, "solve_banded")
        self.wrap(dg, "fit_modulation", after=fit_nfev)
        self.wrap(dg, "classify")
        self.wrap(ex, "run", after=output_bytes)

    def rows(self):
        """Spans as JSON-ready dicts, tagged with the run id."""
        return [{"name": n, "start": s, "end": e, "parent": p, "thread": t,
                 "run_id": self.run_id} for n, s, e, p, t in self.spans]


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(rows, counts):
    """Per-layer metrics of one traced sample from its span rows and counters.

    Times are inclusive span totals unless named ``self``: self time is a
    span's duration minus the part of it that its child spans cover.
    """
    total, calls = defaultdict(float), Counter()
    children = defaultdict(list)
    for r in rows:
        total[r["name"]] += r["end"] - r["start"]
        calls[r["name"]] += 1
        if r["parent"] >= 0:
            children[r["parent"]].append((r["start"], r["end"]))

    def self_time(name):
        return sum(r["end"] - r["start"] - _covered(children[i], r["start"], r["end"])
                   for i, r in enumerate(rows) if r["name"] == name)

    # sweep cells: top-level spans on worker threads, over the pool-phase wall
    main_thread = rows[0]["thread"] if rows else None
    cells = [r for r in rows if r["thread"] != main_thread
             and r["parent"] >= 0 and rows[r["parent"]]["thread"] == main_thread]
    if cells:
        wall = max(r["end"] for r in cells) - min(r["start"] for r in cells)
        concurrency = sum(r["end"] - r["start"] for r in cells) / wall
    else:
        concurrency = 0.0

    steps = calls["evolver.step"]
    evolve_s = total["evolver.evolve"]
    m = {
        "evolver.steps": steps,
        # inclusive time of the step function (both nonlinear half-steps and
        # the linear solve); the per-sample diagnostics are outside it
        "evolver.step_us": 1e6 * total["evolver.step"] / steps if steps else 0.0,
        "evolver.steps_per_s": steps / evolve_s if evolve_s else 0.0,
        "evolver.evolve_s": evolve_s,
        "evolver.solve_banded_s": total["evolver.solve_banded"],
        "evolver.solve_banded_calls": calls["evolver.solve_banded"],
        "evolver.make_stepper_s": total["evolver.make_stepper"],
        "evolver.samples": counts.get("evolver.samples", 0),
        "diagnostics.fit_modulation_s": total["diagnostics.fit_modulation"],
        "diagnostics.fit_modulation_calls": calls["diagnostics.fit_modulation"],
        "diagnostics.fit_modulation_nfev": counts.get("diagnostics.fit_modulation_nfev", 0),
        "diagnostics.classify_s": total["diagnostics.classify"],
        "linearized_spectrum.ground_mode_s": total["linearized_spectrum.ground_mode"],
        "linearized_spectrum.ground_mode_calls": calls["linearized_spectrum.ground_mode"],
        "linearized_spectrum.spsolve_calls": calls["linearized_spectrum.spsolve"],
        "linearized_spectrum.save_eigenpair_s": total["linearized_spectrum.save_eigenpair"],
        "series_builder.build_near_solution_s": total["series_builder.build_near_solution"],
        "series_builder.solve_profile_s": total["series_builder.solve_profile"],
        "series_builder.solve_profile_calls": calls["series_builder.solve_profile"],
        "series_builder.order_forcing_s": total["series_builder.order_forcing"],
        "series_builder.residual_rate_s": total["series_builder.residual_rate"],
        "series_builder.save_near_solution_s": total["series_builder.save_near_solution"],
        "discretization.kinetic_sq_s": total["discretization.kinetic_sq"],
        "discretization.kinetic_sq_calls": calls["discretization.kinetic_sq"],
        "discretization.save_field_s": total["discretization.save_field"],
        "discretization.save_field_bytes": counts.get("discretization.save_field_bytes", 0),
        "ground_state.w_family_calls": calls["ground_state.w_family"],
        "ground_state.w_family_s": total["ground_state.w_family"],
        "ground_state.sample_w_calls": calls["ground_state.sample_w"],
        "experiments.run_self_s": self_time("experiments.run"),
        "experiments.output_bytes": counts.get("experiments.output_bytes", 0),
        "experiments.sweep_concurrency": concurrency,
    }
    return m
