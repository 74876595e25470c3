"""Experiment orchestration: scenario configs, canonical runs, sweeps.

Configs are JSON (versioned schema).  One table, _KEYS, gives each key's
check and default; normalize() checks a config against it, fills in the
defaults, and rejects every key its scenario's pipeline does not read
(_READS).  Each run writes into an append-only directory named by the content
hash of the filled-in config (an implicit default and the same default
written out share a directory), containing the declared outputs plus a
manifest.json echoing the filled-in config, library versions, wall time,
the seconds of normalize's config check as "check_s", stage seconds under
"timings" (a sweep's spectra, its unit series and its cells;
evolve-near-solution's spectrum, series, bundle writes, forward and
backward evolution, and the stage that runs the last three as evolve_s;
classify-custom's evolution), each evolution's steps, seconds and
termination status (e.g. "scattering-detected" for a run stopped at its
scattering decision) under "evolutions" (W+'s dt/2 blowup refinement as
"backward_refined"), a sweep's number of processes that ran its residual
ladders as "cell_processes", the sorted relative paths of every other file in
the run directory under "outputs", and the pass/fail record of every embedded
check.
Only the evolving scenarios (evolve-near-solution, classify-custom) read an
evolver section; the others reject one.
The spans an evolving scenario is given (t_span, sample_every) must be whole
numbers of steps of dt; evolve-near-solution derives its spans on that grid.
Numerics are deterministic (fixed iteration orders), so rerunning a config
reproduces every output but the manifest byte-for-byte.  A pipeline builds one
background per grid and passes it through series, evolution and classification.

Independent jobs run on evolver.forked_map: the caller and forked workers,
each on a CPU of its own, at most as many as the process may run on.
evolve-near-solution forks its backward evolution onto a worker as soon as
the seed exists; meanwhile the caller writes the eigenpair and near-solution
bundle (save_s) and evolves the seed forward with its fit worker.  evolve_s
times that whole stage, so the backward run overlaps the caller's work by
save_s + forward_s + backward_s - evolve_s.  The backward span is the seed's
reflection horizon, within which the scattering rule may fire (evolver.evolve),
rounded down to the step grid; W-'s backward run stops at its scattering
decision, W+'s at its blowup, and W+'s dt/2 refinement, run afterwards only
on a blowup, takes the same span.  A sweep runs one residual ladder per
(d, n, k, sign of a) on at most `workers` processes; each amplitude's row is
its sign's report translated in time (_run_sweep).  Where no worker may be
forked, the jobs run one after the other in the caller; the outputs are the
same bytes either way.
"""

import copy
import hashlib
import json
import math
import os
import shutil
import time as _time

import numpy as np

from . import __version__
from . import diagnostics as dg
from . import discretization as dz
from . import evolver as ev
from . import ground_state as gs
from . import linearized_spectrum as ls
from . import series_builder as sb

SCHEMA_VERSION = 1

# the paths each scenario's pipeline reads
_GRID = ("grid.d", "grid.r_max", "grid.n")
_STEP = ("evolver.dt", "evolver.sample_every")
_READS = {scen: ("scenario", "schema_version") + paths for scen, paths in {
    "ground-state": _GRID,
    "spectrum": _GRID,
    "build-series": _GRID + ("series.k", "series.a"),
    "evolve-near-solution": _GRID + ("series.k",) + _STEP + ("sign", "seed_t0"),
    "classify-custom": _GRID + ("initial.kind", "initial.factor", "initial.path") + _STEP + (
        "evolver.t_span",),
    "sweep": ("grid.r_max", "ranges.d", "ranges.n", "ranges.k", "ranges.a"),
}.items()}
SCENARIOS = tuple(_READS)
# the scenarios whose pipeline computes a spectrum (ls.ground_mode)
_SPECTRAL = ("spectrum", "build-series", "evolve-near-solution", "sweep")
# the H^1 distance from W at which wpm's forward horizon puts the departure (_run_wpm)
DEPARTURE_FLOOR = 1e-3
# path -> (check, default); a key without a default is required, a section's
# default fills it when it is absent (so a given grid must be complete), and
# initial.factor and initial.path are required by the initial.kind that reads
# them (_KIND_READS).  A check is the least integer allowed, "positive",
# "nonzero" or "finite" for a real number, "span" for [t0, t1], str for a
# file path, dict for a section, or a tuple of the allowed values; a ranges
# entry is a nonempty list of values that each pass its check.  An amplitude
# of 0 is refused: a zero series has no validity start t_k, and zero initial
# data no reflection horizon.
_KEYS = {
    "scenario": (SCENARIOS,), "schema_version": ((SCHEMA_VERSION,), SCHEMA_VERSION),
    "grid": (dict, {"d": 6, "r_max": 60.0, "n": 6000}),
    "grid.d": (3,), "grid.r_max": ("positive",), "grid.n": (16,),
    "series": (dict, {}), "series.k": (1, 3), "series.a": ("nonzero", 1.0),
    "evolver": (dict, {}), "evolver.dt": ("positive", 0.01),
    "evolver.sample_every": ("positive", 0.5), "evolver.t_span": ("span", [0.0, 20.0]),
    "sign": ((1, -1), -1), "seed_t0": ("finite", -10.5),
    "initial": (dict,), "initial.kind": (("scaled-w", "field"),),
    "initial.factor": ("nonzero",), "initial.path": (str,),
    "ranges": (dict,), "ranges.d": (3, [6]), "ranges.n": (16, [6000]),
    "ranges.k": (1, [3]), "ranges.a": ("nonzero", [1.0]),
}
_KIND_READS = (("scaled-w", "initial.factor"), ("field", "initial.path"))


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join("  %s" % e for e in self.errors))


def normalize(cfg):
    """Check a config against _KEYS and fill in its defaults: returns (the
    filled-in config, a list of error strings with field paths, empty when
    valid).  Unknown keys and sections that are not objects are reported
    first, alone; an initial field file is read whole and checked last."""
    if not isinstance(cfg, dict):
        return cfg, ["config: expected a JSON object"]
    errors = _check("scenario", SCENARIOS, cfg.get("scenario"))
    if errors:
        return cfg, errors
    scen = cfg["scenario"]
    reads = _READS[scen]
    sections = {path.split(".")[0] for path in reads if "." in path}
    for key, val in cfg.items():
        if key not in reads and key not in sections:
            errors.append("%s: unknown key" % key)
        elif key in sections:
            errors += _check(key, dict, val) or [
                "%s.%s: unknown key" % (key, sub) for sub in val if "%s.%s" % (key, sub) not in reads]
    if errors:
        return cfg, errors
    out = {key: dict(val) if key in sections else val for key, val in cfg.items()}
    for sec in sorted(sections - set(out)):
        if len(_KEYS[sec]) == 1:
            errors.append("%s: missing" % sec)
        else:
            out[sec] = {key: val for key, val in _KEYS[sec][1].items()
                        if "%s.%s" % (sec, key) in reads}
    for path in reads:
        sec, _, key = path.rpartition(".")
        obj = out.get(sec) if sec else out
        if obj is None:  # a missing section, reported above
            continue
        if key not in obj and len(_KEYS[path]) > 1:
            obj[key] = copy.deepcopy(_KEYS[path][1])
        elif key not in obj:
            kinds = [kind for kind, read in _KIND_READS if read == path]
            if not kinds or obj.get("kind") in kinds:
                errors.append("%s: missing" % path)
            continue
        want, val = _KEYS[path][0], obj[key]
        if sec != "ranges":
            errors += _check(path, want, val)
        elif not (isinstance(val, list) and val):
            errors.append("%s: expected a nonempty list" % path)
        else:
            for i, item in enumerate(val):
                errors += _check("%s[%d]" % (path, i), want, item)
    if errors:
        return out, errors
    if scen == "ground-state" and out["grid"]["n"] % 2:
        # gs.kinetic_norm Richardson-refines only on even n; unrefined, the
        # Pohozaev gap is 1.2e-4 to 1.7e-4 at n = 801 (d = 6, 7) and 2.2e-6
        # at n = 6001, above its 1e-6 check
        errors.append("grid.n: the ground-state scenario needs an even n, got %d"
                      % out["grid"]["n"])
    errors += _grid_errors(out)
    if errors:
        return out, errors
    init = out.get("initial", {})
    if init.get("kind") == "field":
        errors += _field_errors(init["path"], dz.build_grid(**out["grid"]))
    elif init.get("kind") == "scaled-w":
        errors += _factor_errors(init["factor"], out["grid"]["d"])
    if "a" in out.get("series", {}):
        errors += _amplitude_errors(out["series"]["a"], out["series"]["k"])
    if "evolver" in out and not errors:
        errors += _whole_steps(out)
    return out, errors


def _grid_errors(cfg):
    """[an error for each grid of cfg whose DiscreteLaplacian overflows or
    has non-finite bands] (r_max far from 1 against d and n: the face fluxes
    and cell volumes go as r^(d-1) and r^d), and for a scenario that computes
    a spectrum, [an error for each grid whose coarse shift fails] (no unstable
    mode, or no convergence), under grid.r_max, naming the paths that give
    the grid's d and n.  The shift is memoized, so the pipeline reuses it."""
    grid = cfg["grid"]
    if cfg["scenario"] == "sweep":
        grids = [("ranges.d[%d]" % i, d, "ranges.n[%d]" % j, n)
                 for i, d in enumerate(cfg["ranges"]["d"])
                 for j, n in enumerate(cfg["ranges"]["n"])]
    else:
        grids = [("grid.d", grid["d"], "grid.n", grid["n"])]
    errors = []
    for d_path, d, n_path, n in grids:
        where = "%s = %d, %s = %d" % (d_path, d, n_path, n)
        try:
            with np.errstate(all="ignore"):
                lapl = dz.DiscreteLaplacian(dz.build_grid(d, grid["r_max"], n))
            ok = all(np.all(np.isfinite(band)) for band in (lapl.lo, lapl.di, lapl.up))
        except OverflowError:
            ok = False
        if not ok:
            errors.append("grid.r_max: %r gives a Laplacian with non-finite bands at %s"
                          % (grid["r_max"], where))
        elif cfg["scenario"] in _SPECTRAL:
            try:
                with np.errstate(all="ignore"):
                    ls._coarse_shift(d, grid["r_max"], min(ls.N_COARSE, n))
            except (RuntimeError, np.linalg.LinAlgError) as exc:
                errors.append("grid.r_max: %r gives no coarse-grid shift at %s: %s"
                              % (grid["r_max"], where, exc))
    return errors


def _factor_errors(factor, d):
    """[the error for a scaled-w factor whose (|factor| max W)^(2(d+2)/(d-2)),
    the largest power a sample forms, is not finite (max W = W(0) = 1)], else []."""
    try:
        ok = math.isfinite(abs(factor) ** (2 * (d + 2) / (d - 2)))
    except OverflowError:
        ok = False
    return [] if ok else ["initial.factor: %r overflows (|factor| max W)^%g, the largest "
                          "power a sample forms at d = %d" % (factor, 2 * (d + 2) / (d - 2), d)]


def _amplitude_errors(a, k):
    """[the error for a series amplitude a whose powers |a|^j, j = 1..k, the
    series of order k multiplies its profiles by, leave the normal
    floating-point range], else []."""
    fin = np.finfo(float)
    try:
        ok = all(fin.tiny <= abs(a) ** j <= fin.max for j in (1, k))
    except OverflowError:
        ok = False
    return [] if ok else ["series.a: %r takes a power |a|^j, j <= %d, out of the "
                          "normal floating-point range" % (a, k)]


def _field_errors(path, grid):
    """[the error for the initial field file at path] when it cannot be read,
    lies on another grid than grid, or holds non-finite or only zero values,
    else []."""
    try:
        u, fgrid = dz.load_field(path)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return ["initial.path: %s: %s" % (type(exc).__name__, exc)]
    if fgrid != grid:
        return ["initial.path: field grid %r does not match config grid %r" % (fgrid, grid)]
    if not np.all(np.isfinite(u)):
        return ["initial.path: field holds non-finite values"]
    if not np.any(u):
        return ["initial.path: field is zero everywhere"]
    return []


def _check(where, want, val):
    """[the error for val at the field path where] when val fails the check
    want (see _KEYS), else []."""
    if isinstance(want, tuple):
        ok, what = any(type(val) is type(v) and val == v for v in want), "one of %s" % list(want)
    elif isinstance(want, int):
        ok, what = isinstance(val, int) and _number(val) and val >= want, "integer >= %d" % want
    elif want in ("positive", "nonzero", "finite"):
        ok = _number(val) and {"positive": val > 0, "nonzero": val != 0, "finite": True}[want]
        what = "a finite number other than 0" if want == "nonzero" else "a %s number" % want
    elif want == "span":
        ok = isinstance(val, (list, tuple)) and len(val) == 2 and all(map(_number, val))
        what = "[t0, t1], two finite numbers"
    else:
        ok = isinstance(val, want)
        what = {str: "a file path", dict: "an object"}[want]
    return [] if ok else ["%s: expected %s, got %r" % (where, what, val)]


def _whole_steps(cfg):
    """Errors for the spans of an evolving scenario that are not whole
    numbers of steps of dt (within 1e-9 relative), and for an evolve-near-solution
    dt below 2^-53, too small for even a one-unit span to count exactly."""
    ecfg = cfg["evolver"]
    spans = {"evolver.sample_every:": ecfg["sample_every"]}
    if "t_span" in ecfg:
        spans["evolver.t_span: length"] = abs(ecfg["t_span"][1] - ecfg["t_span"][0])
    errors = []
    for what, span in spans.items():
        n = span / ecfg["dt"]
        if not math.isfinite(n) or abs(n - round(n)) > 1e-9 * n:
            errors.append("%s %r is not a whole number of steps of dt = %r"
                          % (what, span, ecfg["dt"]))
    if not errors and cfg["scenario"] == "evolve-near-solution" and ecfg["dt"] < 2.0 ** -53:
        errors.append("evolver.dt: %r is below 2^-53: the spans the run derives would not "
                      "be whole, finite numbers of steps" % ecfg["dt"])
    return errors


def _number(val):
    """A finite real number, given as an int or a float (not a bool)."""
    return isinstance(val, (int, float)) and not isinstance(val, bool) and -np.inf < val < np.inf


def _digest(filled):
    """The run-directory hash of a filled-in config (normalize), so that an
    implicit default and the same default written out hash alike."""
    canon = json.dumps(filled, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _versions():
    import scipy
    return {"nlslab": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


def _spectrum(grid):
    bg = gs.Background(grid)
    return bg, ls.ground_mode(bg)


# ---------------------------------------------------------------------------
# scenario pipelines (each returns (checks, the entries it adds to the
# manifest: "timings" in seconds and "evolutions", where it has them))

def _evolve(u0, ecfg, bg):
    """Evolve u0 on bg under the evolver settings ecfg: (trace, its steps,
    samples, seconds, stepper set-up and samples included, and termination
    status, and for an evolution that fits the modulation, the seconds its
    fits took as fit_seconds)."""
    t0 = _time.perf_counter()
    trace = ev.evolve(u0, ev.EvolverConfig(**ecfg), bg)
    record = {"steps": trace.steps, "samples": len(trace.times),
              "seconds": _time.perf_counter() - t0,
              "status": trace.termination["status"]}
    if trace.config.track_modulation:
        record["fit_seconds"] = trace.fit_seconds
    return trace, record


def _evolve_step(u0, ecfg, bg, path):
    """Evolve u0 on bg under the evolver settings ecfg, save the trace as
    path.csv and path.json, and classify it: (report, _evolve's record)."""
    trace, record = _evolve(u0, ecfg, bg)
    trace.save(path + ".csv", path + ".json")
    return dg.classify(trace), record


def _run_ground_state(cfg, rundir):
    grid = dz.build_grid(**cfg["grid"])
    W = gs.sample_w(grid)
    kin = gs.kinetic_norm(W, grid)
    en = gs.energy(W, grid)
    quot = gs.sobolev_quotient(W, grid)
    gap = abs(en - kin ** 2 / grid.d) / en
    dz.save_field(os.path.join(rundir, "w.csv"), W.astype(complex), grid)
    dz.save_json(os.path.join(rundir, "ground_state.json"), {
        "kinetic_norm": kin, "energy": en, "sobolev_quotient": quot,
        "pohozaev_gap": gap,
        "tolerances": {"pohozaev_gap": 1e-6},
    })
    checks = {"pohozaev-identity": {"passed": gap <= 1e-6, "value": gap,
                                    "tolerance": 1e-6}}
    return checks, {}


def _run_spectrum(cfg, rundir):
    grid = dz.build_grid(**cfg["grid"])
    bg, pair = _spectrum(grid)
    ls.save_eigenpair(os.path.join(rundir, "eigenpair"), pair, grid)
    checks = {
        "e0-positive": {"passed": pair.e0 > 0, "value": pair.e0},
        "block-residual": {"passed": pair.residual <= 1e-8,
                           "value": pair.residual, "tolerance": 1e-8},
    }
    return checks, {}


def _run_build_series(cfg, rundir):
    k = cfg["series"]["k"]
    bg, pair = _spectrum(dz.build_grid(**cfg["grid"]))
    near = sb.build_near_solution(k, cfg["series"]["a"], pair, bg)
    report = sb.residual_rate(near)
    sb.save_near_solution(os.path.join(rundir, "near_solution"), near, report)
    target = (k + 1) * pair.e0
    rel = abs(report.rate - target) / target
    checks = {"residual-rate": {"passed": rel <= 0.10, "value": report.rate,
                                "target": target, "relative_error": rel}}
    return checks, {}


def _run_wpm(cfg, rundir):
    grid = dz.build_grid(**cfg["grid"])
    sign, seed_t0, ecfg = cfg["sign"], cfg["seed_t0"], cfg["evolver"]

    t0 = _time.perf_counter()
    bg, pair = _spectrum(grid)
    t1 = _time.perf_counter()
    near = sb.build_near_solution(cfg["series"]["k"], float(sign), pair, bg)
    u0 = sb.assemble(near, seed_t0)
    timings = {"spectrum_s": t1 - t0, "series_s": _time.perf_counter() - t1}

    # forward horizon: stop before the unstable mode amplifies floor-level
    # noise into departure; d0 e^{-e0 t} meets eta e^{+e0 t} at
    # (1/(2 e0)) ln(d0/eta), eta = DEPARTURE_FLOOR, kept with a safety factor
    d0 = dz.h1_distance(u0, bg.W.astype(complex), grid)
    t_fwd = 0.75 / (2 * pair.e0) * np.log(d0 / DEPARTURE_FLOOR)
    # on the step grid, so the trace ends at the reported horizon
    t_fwd = round(t_fwd / ecfg["dt"]) * ecfg["dt"]
    if t_fwd <= 0:  # a seed this near W would run the "forward" trace backward
        raise ConfigError(["seed_t0: %r leaves no forward step: 0.75/(2 e0) ln(d0/%g) rounds "
                           "to %g for the seed's H^1 distance d0 = %.6g from W"
                           % (seed_t0, DEPARTURE_FLOOR, t_fwd, d0)])

    horizon = ev.reflection_horizon(u0, grid)["horizon_elapsed"]  # where scattering may fire
    t_bwd = math.floor(horizon / ecfg["dt"]) * ecfg["dt"]  # rounded down to the step grid
    fwd = dict(ecfg, t_span=(seed_t0, seed_t0 + t_fwd), track_modulation=True)
    bwd = dict(ecfg, t_span=(seed_t0, seed_t0 - t_bwd), track_modulation=False)
    spans = {"trace_backward": bwd, "trace_forward": fwd}

    def job(name):
        if name in spans:
            return _evolve_step(u0, spans[name], bg, os.path.join(rundir, name))
        t = _time.perf_counter()
        ls.save_eigenpair(os.path.join(rundir, "eigenpair"), pair, grid)
        sb.save_near_solution(os.path.join(rundir, "near_solution"), near)
        return _time.perf_counter() - t

    # the caller writes the bundle, then evolves forward, while the worker
    # evolves backward, the critical path, from the moment the seed exists
    t2 = _time.perf_counter()
    timings["save_s"], (rep_b, rec_b), (rep_f, rec_f) = ev.forked_map(
        job, ["bundle"] + list(spans), 2)
    timings["evolve_s"] = _time.perf_counter() - t2
    evolutions = {"forward": rec_f, "backward": rec_b}
    timings["forward_s"] = rec_f["seconds"]
    timings["backward_s"] = rec_b["seconds"]

    checks = {}
    rate = rep_f.rate.rate if rep_f.rate is not None else float("nan")
    checks["forward-converges-to-w"] = {
        "passed": rep_f.regime == "converges-to-W", "value": rep_f.regime}
    checks["forward-rate"] = {
        "passed": np.isfinite(rate) and abs(rate - pair.e0) / pair.e0 <= 0.15,
        "value": rate, "target": pair.e0}
    want_side = "below" if sign < 0 else "above"
    checks["kinetic-side"] = {
        "passed": rep_f.kinetic_side == want_side
                  and not rep_f.details["kinetic_violations"],
        "value": rep_f.kinetic_side}
    if sign < 0:
        checks["backward-scatters"] = {
            "passed": rep_b.regime == "scattering-proxy", "value": rep_b.regime}
    else:
        checks["backward-blowup"] = {
            "passed": rep_b.regime == "blowup", "value": rep_b.regime}
        if rep_b.regime == "blowup":
            t_star = rep_b.details["termination"]["t_star"]
            trace_b2, evolutions["backward_refined"] = _evolve(
                u0, dict(bwd, dt=ecfg["dt"] / 2), bg)
            t_star2 = trace_b2.termination.get("t_star", float("nan"))
            shift = abs(t_star2 - t_star) / abs(t_star - seed_t0)
            checks["blowup-time-stable"] = {
                "passed": np.isfinite(t_star2) and shift <= 0.05,
                "t_star": t_star, "t_star_refined": t_star2, "shift": shift}

    dz.save_json(os.path.join(rundir, "report.json"), {
        "e0": pair.e0, "sign": sign, "seed_t0": seed_t0,
        "forward_horizon": seed_t0 + t_fwd,
        "forward": rep_f.as_dict(), "backward": rep_b.as_dict(),
    })
    return checks, {"timings": timings, "evolutions": evolutions}


def _run_classify(cfg, rundir):
    init = cfg["initial"]
    bg = gs.Background(dz.build_grid(**cfg["grid"]))
    if init["kind"] == "scaled-w":
        u0 = init["factor"] * bg.W.astype(complex)
    else:
        u0 = dz.load_field(init["path"])[0]  # on the config grid: validated
    report, record = _evolve_step(u0, cfg["evolver"], bg, os.path.join(rundir, "trace"))
    dz.save_json(os.path.join(rundir, "report.json"), report.as_dict())
    checks = {"classified": {"passed": report.regime != "undetermined",
                             "value": report.regime}}
    return checks, {"timings": {"evolve_s": record["seconds"]},
                    "evolutions": {"evolve": record}}


def _run_sweep(cfg, rundir, workers=1):
    ds, ns, ks, aa = (cfg["ranges"][key] for key in ("d", "n", "k", "a"))
    r_max = cfg["grid"]["r_max"]

    # per (d, n): the spectrum and one a = 1 series at the largest k.  Since
    # Phi_j^a = a^j Phi_j^1 (acceptance criterion 6 checks this against the
    # direct solve), W_k^a(t) = W_k^s(t - ln|a|/e0) for s = sgn a: one residual
    # ladder per (d, n, k, s) on the prefix scaled by s^j, and each amplitude's
    # row is its sign's report with t_k + ln|a|/e0.  Grids of one d share the
    # memoized coarse shift of the spectrum.
    units, failures, timings = {}, {}, {"spectra_s": 0.0, "series_s": 0.0}
    for d in ds:
        for n in ns:
            t0 = _time.perf_counter()
            bg, pair = _spectrum(dz.build_grid(d, r_max, n))
            t1 = _time.perf_counter()
            try:
                units[(d, n)] = sb.build_near_solution(max(ks), 1.0, pair, bg)
            except Exception as exc:  # recorded for each of the grid's cells
                failures.update(dict.fromkeys([(d, n, k, a) for k in ks for a in aa],
                                              "%s: %s" % (type(exc).__name__, exc)))
            timings["spectra_s"] += t1 - t0
            timings["series_s"] += _time.perf_counter() - t1

    def ladder(params):
        d, n, k, s = params
        unit = units[(d, n)]
        try:
            profiles = [None] + [s ** j * unit.profiles[j] for j in range(1, k + 1)]
            report = sb.residual_rate(sb.NearSolution(unit.background, k, s, unit.e0,
                                                      profiles))
        except Exception as exc:  # recorded for each of its amplitudes, sweep continues
            return "%s: %s" % (type(exc).__name__, exc)
        return report.t_k, report.rate

    t1 = _time.perf_counter()
    signs = list(dict.fromkeys(math.copysign(1.0, a) for a in aa))
    ladders = [(d, n, k, s) for d, n in units for k in ks for s in signs]
    procs = ev._processes(workers, len(ladders))
    rows = {}
    for (d, n, k, s), res in zip(ladders, ev.forked_map(ladder, ladders, procs)):
        e0 = units[(d, n)].e0
        for a in (a for a in aa if math.copysign(1.0, a) == s):
            if isinstance(res, str):
                failures[(d, n, k, a)] = res
            else:
                rows[(d, n, k, a)] = {"d": d, "n": n, "k": k, "a": a, "e0": e0,
                                      "t_k": res[0] + math.log(abs(a)) / e0,
                                      "rate": res[1], "rate_target": (k + 1) * e0}
    timings["cells_s"] = _time.perf_counter() - t1

    cols = ["d", "n", "k", "a", "e0", "t_k", "rate", "rate_target"]
    with open(os.path.join(rundir, "aggregate.csv"), "w") as f:
        f.write(",".join(cols) + "\n")
        for c in sorted(rows):  # by cell key, whatever the order of the ranges
            f.write(",".join("%.17g" % rows[c][col] if isinstance(rows[c][col], float)
                             else str(rows[c][col]) for col in cols) + "\n")
    if failures:
        dz.save_json(os.path.join(rundir, "failures.json"),
                     {str(k): v for k, v in failures.items()})
    checks = {"all-cells-completed": {"passed": not failures,
                                      "failed_cells": len(failures)}}
    return checks, {"timings": timings, "cell_processes": procs}


_PIPELINES = {
    "ground-state": _run_ground_state,
    "spectrum": _run_spectrum,
    "build-series": _run_build_series,
    "evolve-near-solution": _run_wpm,
    "classify-custom": _run_classify,
}


def run(cfg, out_dir=".", workers=1, check=False):
    """Execute a scenario config; returns the manifest dict.  workers caps
    the processes that run a sweep's cells (_run_sweep).

    Raises ConfigError on an invalid config or workers.  A call that raises
    leaves no run directory behind, except one that existed before it."""
    if not (isinstance(workers, int) and workers >= 1):
        raise ConfigError(["workers: expected an integer >= 1, got %r" % (workers,)])
    t0 = _time.perf_counter()  # normalize runs a spectrum's coarse shift (_grid_errors)
    cfg, errors = normalize(cfg)
    check_s = _time.perf_counter() - t0
    if errors:
        raise ConfigError(errors)
    scen = cfg["scenario"]
    rundir = os.path.join(out_dir, "%s-%s" % (scen, _digest(cfg)))
    created = not os.path.isdir(rundir)  # one that exists may hold a finished run
    os.makedirs(rundir, exist_ok=True)
    try:
        checks, entries = (_run_sweep(cfg, rundir, workers=workers) if scen == "sweep"
                           else _PIPELINES[scen](cfg, rundir))
    except BaseException:
        if created:
            shutil.rmtree(rundir)
        raise
    outputs = sorted(os.path.relpath(os.path.join(base, name), rundir)
                     for base, _, names in os.walk(rundir) for name in names)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg,
        "versions": _versions(),
        "wall_time_s": _time.perf_counter() - t0,
        "check_s": check_s,
        "run_dir": rundir,
        "outputs": [path for path in outputs if path != "manifest.json"],
        "checks": checks,
        "ok": all(c["passed"] for c in checks.values()) if checks else True,
    }
    manifest.update(entries)
    dz.save_json(os.path.join(rundir, "manifest.json"), manifest)
    if check and not manifest["ok"]:
        failed = [name for name, c in checks.items() if not c["passed"]]
        raise RuntimeError("embedded checks failed: %s (see %s)"
                           % (", ".join(failed), rundir))
    return manifest


def canonical_wpm(d, sign, out_dir=".", **overrides):
    """The canonical threshold-solution experiment for the given sign.

    Builds spectrum -> series (k=3) -> seeds the near solution -> evolves
    forward (to the pre-departure horizon) and backward -> classifies both
    directions, checking the expected forward convergence, kinetic side, and
    backward scattering/blowup behavior.  Every other key takes its _KEYS
    default; a sign other than +1 or -1 raises ConfigError (a ValueError).
    """
    cfg = {"scenario": "evolve-near-solution", "sign": sign,
           "grid": dict(_KEYS["grid"][1], d=d)}
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    return run(cfg, out_dir=out_dir)


def sweep(cfg, out_dir=".", workers=1):
    return run(dict({"scenario": "sweep"}, **cfg), out_dir=out_dir, workers=workers)
