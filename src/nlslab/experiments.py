"""Experiment orchestration: scenario configs, canonical runs, sweeps.

Configs are JSON (versioned schema).  Each run writes into an append-only
directory named by the content hash of its config, containing the declared
outputs plus a manifest.json echoing the config, library versions, wall
time, stage seconds under "timings" (a sweep's spectra and unit series and
its cells; evolve-near-solution's spectrum, series, and forward and backward
evolution, the backward blowup refinement included; classify-custom's
evolution), an output index, and the pass/fail record of every embedded check.
The spans an evolving scenario steps through (classify-custom's t_span,
sample_every, backward_span) must be whole numbers of steps of dt.
Numerics are deterministic (fixed iteration orders), so rerunning a config
reproduces every output but the manifest byte-for-byte.  A config holds
only keys its scenario's pipeline reads (_READS).  A pipeline builds one
background per grid and passes it through series, evolution and classification.
"""

import concurrent.futures
import hashlib
import json
import math
import os
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

DEFAULT_GRID = {"d": 6, "r_max": 60.0, "n": 6000}

# what each scenario's pipeline reads besides _COMMON: key -> the keys of its
# object, or None for a value.  Scenarios that never evolve still accept (and
# check) an evolver object.
_GRID = ("d", "r_max", "n")
_COMMON = {"scenario": None, "schema_version": None,
           "evolver": ("dt", "t_span", "sample_every", "linear_step", "track_modulation")}
_READS = {
    "ground-state": {"grid": _GRID},
    "spectrum": {"grid": _GRID},
    "build-series": {"grid": _GRID, "series": ("k", "a")},
    "evolve-near-solution": {
        "grid": _GRID, "series": ("k",), "evolver": ("dt", "sample_every", "linear_step"),
        **dict.fromkeys(("sign", "seed_t0", "departure_floor", "backward_span",
                         "refine_blowup"))},
    "classify-custom": {"grid": _GRID, "initial": ("kind", "factor", "path")},
    "sweep": {"grid": ("r_max",), "ranges": ("d", "n", "k", "a")},
}
SCENARIOS = tuple(_READS)
# the values a key takes, in any section and in each entry of ranges: the
# least integer allowed, or "positive" or "finite" for a real number
_WANT = {"d": 3, "n": 16, "k": 1, "r_max": "positive", "a": "finite",
         "factor": "finite", "seed_t0": "finite", "backward_span": "positive",
         "departure_floor": "positive", "dt": "positive", "sample_every": "positive"}
_EVOLVER = {"dt": 0.01, "sample_every": 0.5, "linear_step": "cayley",
            "track_modulation": True}
_T_SPAN = (0.0, 20.0)  # classify-custom
_BACKWARD_SPAN = 120.0  # evolve-near-solution


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join("  %s" % e for e in self.errors))


def validate_config(cfg):
    """Return a list of error strings with field paths (empty when valid).
    Unknown keys and sections that are not objects are reported first, alone."""
    if not isinstance(cfg, dict):
        return ["config: expected a JSON object"]
    scen = cfg.get("scenario")
    if scen not in SCENARIOS:
        return ["scenario: expected one of %s, got %r" % (list(SCENARIOS), scen)]
    errors, reads = [], dict(_COMMON, **_READS[scen])
    for key, val in cfg.items():
        if key not in reads:
            errors.append("%s: unknown key" % key)
        elif reads[key] is not None and not isinstance(val, dict):
            errors.append("%s: expected an object" % key)
        elif reads[key] is not None:
            errors += ["%s.%s: unknown key" % (key, sub)
                       for sub in val if sub not in reads[key]]
    if errors:
        return errors
    g = cfg.get("grid", DEFAULT_GRID)
    if scen == "sweep":  # r_max only: d and n come from the ranges
        g = dict(DEFAULT_GRID, **g)
    errors += ["grid.%s: missing" % key for key in _GRID if key not in g]
    values = [("grid." + key, key, val) for key, val in g.items()]
    values += [(key, key, val) for key, val in cfg.items() if key in _WANT]
    for sec in ("series", "initial", "evolver"):
        values += [(sec + "." + key, key, val)
                   for key, val in cfg.get(sec, {}).items() if key in _WANT]
    if scen == "sweep" and "ranges" not in cfg:
        errors.append("ranges: expected an object with parameter lists")
    for key, vals in cfg.get("ranges", {}).items():
        if not isinstance(vals, list) or not vals:
            errors.append("ranges.%s: expected a nonempty list" % key)
        else:
            values += [("ranges.%s[%d]" % (key, i), key, val) for i, val in enumerate(vals)]
    for path, key, val in values:
        want = _WANT[key]
        if isinstance(want, int) and not (isinstance(val, int) and _number(val) and val >= want):
            errors.append("%s: expected integer >= %d, got %r" % (path, want, val))
        elif isinstance(want, str) and not (_number(val) and (want == "finite" or val > 0)):
            errors.append("%s: expected a %s number, got %r" % (path, want, val))
    ecfg = cfg.get("evolver", {})
    span = ecfg.get("t_span", (0.0, 1.0))
    if not (isinstance(span, (list, tuple)) and len(span) == 2 and all(map(_number, span))):
        errors.append("evolver.t_span: expected [t0, t1], two finite numbers, got %r"
                      % (span,))
    if cfg.get("sign", -1) not in (1, -1):
        errors.append("sign: expected +1 or -1, got %r" % (cfg["sign"],))
    init = cfg.get("initial", {})
    if scen == "classify-custom" and init.get("kind") not in ("scaled-w", "field"):
        errors.append("initial.kind: expected 'scaled-w' or 'field', got %r"
                      % (init.get("kind"),))
    elif init.get("kind") == "scaled-w" and "factor" not in init:
        errors.append("initial.factor: missing")
    elif init.get("kind") == "field" and not isinstance(init.get("path"), str):
        errors.append("initial.path: expected a file path, got %r" % (init.get("path"),))
    elif init.get("kind") == "field" and not errors:
        try:
            fgrid = dz.field_grid(init["path"])
        except (OSError, ValueError, KeyError) as exc:
            errors.append("initial.path: %s: %s" % (type(exc).__name__, exc))
        else:
            grid = _grid_from(cfg)
            if fgrid != grid:
                errors.append("initial.path: field grid %r does not match config "
                              "grid %r" % (fgrid, grid))
    if "linear_step" in ecfg and ecfg["linear_step"] not in ev.LINEAR_STEPS:
        errors.append("evolver.linear_step: expected one of %s, got %r"
                      % (list(ev.LINEAR_STEPS), ecfg["linear_step"]))
    if scen in ("evolve-near-solution", "classify-custom") and not errors:
        if ecfg.get("linear_step") == "exact":
            try:
                ev.check_exact_size(cfg.get("grid", DEFAULT_GRID)["n"])
            except ValueError as exc:
                errors.append("evolver.linear_step: %s" % exc)
        errors += _whole_steps(scen, cfg, ecfg)
    return errors


def _whole_steps(scen, cfg, ecfg):
    """Errors for the spans of an evolving scenario that are not whole
    numbers of steps of dt (within 1e-9 relative)."""
    dt = ecfg.get("dt", _EVOLVER["dt"])
    spans = {"evolver.sample_every:": ecfg.get("sample_every", _EVOLVER["sample_every"])}
    if scen == "classify-custom":
        t0, t1 = ecfg.get("t_span", _T_SPAN)
        spans["evolver.t_span: length"] = abs(t1 - t0)
    else:
        spans["backward_span:"] = cfg.get("backward_span", _BACKWARD_SPAN)
    errors = []
    for what, span in spans.items():
        n = span / dt
        if not math.isfinite(n) or abs(n - round(n)) > 1e-9 * n:
            errors.append("%s %r is not a whole number of steps of dt = %r" % (what, span, dt))
    return errors


def _number(val):
    """A finite real number, given as an int or a float (not a bool)."""
    return isinstance(val, (int, float)) and not isinstance(val, bool) and -np.inf < val < np.inf


def config_hash(cfg):
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _versions():
    import scipy
    return {"nlslab": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


def _grid_from(cfg):
    g = dict(DEFAULT_GRID)
    g.update(cfg.get("grid", {}))
    return dz.build_grid(g["d"], g["r_max"], g["n"])


def _evolver_config(ecfg, t_span, **overrides):
    """EvolverConfig from a config's "evolver" object and scenario defaults."""
    kw = dict(_EVOLVER)
    kw.update({key: ecfg[key] for key in kw if key in ecfg}, **overrides)
    return ev.EvolverConfig(t_span=t_span, **kw)


def _spectrum(grid):
    blocks = ls.build_blocks(grid)
    pair = ls.ground_mode(blocks)
    return blocks, pair


# ---------------------------------------------------------------------------
# scenario pipelines (each returns (outputs, checks, timings); paths relative
# to the run dir, timings in seconds and empty when the manifest carries none)

def _run_ground_state(cfg, rundir):
    grid = _grid_from(cfg)
    W = gs.sample_w(grid)
    refine = grid.n % 2 == 0
    kin = gs.kinetic_norm(W, grid, tail="powerlaw", refine=refine)
    en = gs.energy(W, grid, tail="powerlaw", refine=refine)
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
    return ["w.csv", "ground_state.json"], checks, {}


def _run_spectrum(cfg, rundir):
    grid = _grid_from(cfg)
    blocks, pair = _spectrum(grid)
    ls.save_eigenpair(os.path.join(rundir, "eigenpair"), pair, grid)
    checks = {
        "e0-positive": {"passed": pair.e0 > 0, "value": pair.e0},
        "block-residual": {"passed": pair.residual <= 1e-8,
                           "value": pair.residual, "tolerance": 1e-8},
    }
    return ["eigenpair.csv", "eigenpair.json"], checks, {}


def _run_build_series(cfg, rundir):
    grid = _grid_from(cfg)
    series = cfg.get("series", {})
    k = series.get("k", 3)
    a = series.get("a", 1.0)
    blocks, pair = _spectrum(grid)
    near = sb.build_near_solution(k, a, pair, blocks)
    report = sb.residual_rate(near)
    sb.save_near_solution(os.path.join(rundir, "near_solution"), near, report)
    target = (k + 1) * pair.e0
    rel = abs(report.rate - target) / target
    checks = {"residual-rate": {"passed": rel <= 0.10, "value": report.rate,
                                "target": target, "relative_error": rel}}
    outputs = ["near_solution/manifest.json"]
    outputs += ["near_solution/profile_%d.csv" % j for j in range(1, k + 1)]
    return outputs, checks, {}


def _run_wpm(cfg, rundir):
    grid = _grid_from(cfg)
    sign = cfg.get("sign", -1)
    series = cfg.get("series", {})
    k = series.get("k", 3)
    ecfg = cfg.get("evolver", {})
    dt = ecfg.get("dt", _EVOLVER["dt"])
    seed_t0 = cfg.get("seed_t0", -10.5)
    eta = cfg.get("departure_floor", 1e-3)
    backward_span = cfg.get("backward_span", _BACKWARD_SPAN)

    t0 = _time.perf_counter()
    blocks, pair = _spectrum(grid)
    ls.save_eigenpair(os.path.join(rundir, "eigenpair"), pair, grid)
    t1 = _time.perf_counter()
    near = sb.build_near_solution(k, float(sign), pair, blocks)
    sb.save_near_solution(os.path.join(rundir, "near_solution"), near)
    u0 = sb.assemble(near, seed_t0)
    timings = {"spectrum_s": t1 - t0, "series_s": _time.perf_counter() - t1}

    # forward horizon: stop before the unstable mode amplifies floor-level
    # noise into departure; d0 e^{-e0 t} meets eta e^{+e0 t} at
    # (1/(2 e0)) ln(d0/eta), kept with a safety factor
    d0 = dz.h1_distance(u0, blocks.W.astype(complex), grid)
    t_fwd = 0.75 / (2 * pair.e0) * np.log(d0 / eta)

    fwd_cfg = _evolver_config(ecfg, (seed_t0, seed_t0 + t_fwd), track_modulation=True)
    t0 = _time.perf_counter()
    trace_f = ev.evolve(u0, fwd_cfg, blocks)
    timings["forward_s"] = _time.perf_counter() - t0
    trace_f.save(os.path.join(rundir, "trace_forward.csv"),
                 os.path.join(rundir, "trace_forward.json"))
    rep_f = dg.classify(trace_f)

    bwd_span = (seed_t0, seed_t0 - backward_span)
    bwd_cfg = _evolver_config(ecfg, bwd_span, track_modulation=False)
    t0 = _time.perf_counter()
    trace_b = ev.evolve(u0, bwd_cfg, blocks)
    timings["backward_s"] = _time.perf_counter() - t0
    trace_b.save(os.path.join(rundir, "trace_backward.csv"),
                 os.path.join(rundir, "trace_backward.json"))
    rep_b = dg.classify(trace_b)

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
        if rep_b.regime == "blowup" and cfg.get("refine_blowup", True):
            t_star = trace_b.termination["t_star"]
            fine = _evolver_config(ecfg, bwd_span, dt=dt / 2, track_modulation=False)
            t0 = _time.perf_counter()
            trace_b2 = ev.evolve(u0, fine, blocks)
            timings["backward_s"] += _time.perf_counter() - t0
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
    outputs = ["eigenpair.csv", "eigenpair.json", "trace_forward.csv",
               "trace_forward.json", "trace_backward.csv", "trace_backward.json",
               "report.json"]
    return outputs, checks, timings


def _run_classify(cfg, rundir):
    init = cfg["initial"]
    bg = gs.Background(_grid_from(cfg))
    if init["kind"] == "scaled-w":
        u0 = init["factor"] * bg.W.astype(complex)
    else:
        u0 = dz.load_field(init["path"])[0]  # on the config grid: validated
    ecfg = cfg.get("evolver", {})
    config = _evolver_config(ecfg, tuple(ecfg.get("t_span", _T_SPAN)))
    t0 = _time.perf_counter()
    trace = ev.evolve(u0, config, bg)
    timings = {"evolve_s": _time.perf_counter() - t0}
    trace.save(os.path.join(rundir, "trace.csv"), os.path.join(rundir, "trace.json"))
    report = dg.classify(trace)
    dz.save_json(os.path.join(rundir, "report.json"), report.as_dict())
    checks = {"classified": {"passed": report.regime != "undetermined",
                             "value": report.regime}}
    return ["trace.csv", "trace.json", "report.json"], checks, timings


def _run_sweep(cfg, rundir, workers=1):
    ranges = cfg.get("ranges", {})
    ds = ranges.get("d", [6])
    ns = ranges.get("n", [DEFAULT_GRID["n"]])
    ks = ranges.get("k", [3])
    aa = ranges.get("a", [1.0])
    r_max = cfg.get("grid", {}).get("r_max", DEFAULT_GRID["r_max"])

    # per (d, n): the spectrum and one a = 1 series at the largest k.  A cell
    # scales its prefix by Phi_j^a = a^j Phi_j^1 (acceptance criterion 6 checks
    # this against the direct solve) and still evaluates its own PDE residual.
    # Grids of one d share the memoized coarse shift of the spectrum.
    t0 = _time.perf_counter()
    units, failures = {}, {}
    for d in ds:
        for n in ns:
            blocks, pair = _spectrum(dz.build_grid(d, r_max, n))
            try:
                units[(d, n)] = sb.build_near_solution(max(ks), 1.0, pair, blocks)
            except Exception as exc:  # recorded for each of the grid's cells
                failures.update(dict.fromkeys([(d, n, k, a) for k in ks for a in aa],
                                              "%s: %s" % (type(exc).__name__, exc)))

    def cell(params):
        d, n, k, a = params
        unit = units[(d, n)]
        profiles = [None] + [a ** j * unit.profiles[j] for j in range(1, k + 1)]
        near = sb.NearSolution(unit.background, k, a, unit.e0, profiles,
                               {j: unit.conditioning[j] for j in range(2, k + 1)})
        report = sb.residual_rate(near)
        return {"d": d, "n": n, "k": k, "a": a, "e0": unit.e0,
                "t_k": report.t_k, "rate": report.rate,
                "rate_target": (k + 1) * unit.e0}

    t1 = _time.perf_counter()
    cells = [(d, n, k, a) for d, n in units for k in ks for a in aa]
    rows = {}
    with concurrent.futures.ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        futs = {pool.submit(cell, c): c for c in cells}
        for fut in concurrent.futures.as_completed(futs):
            c = futs[fut]
            try:
                rows[c] = fut.result()
            except Exception as exc:  # per-cell failures recorded, sweep continues
                failures[c] = "%s: %s" % (type(exc).__name__, exc)
    timings = {"spectra_s": t1 - t0, "cells_s": _time.perf_counter() - t1}

    cols = ["d", "n", "k", "a", "e0", "t_k", "rate", "rate_target"]
    with open(os.path.join(rundir, "aggregate.csv"), "w") as f:
        f.write(",".join(cols) + "\n")
        for c in sorted(rows):  # deterministic order regardless of completion
            f.write(",".join("%.17g" % rows[c][col] if isinstance(rows[c][col], float)
                             else str(rows[c][col]) for col in cols) + "\n")
    if failures:
        dz.save_json(os.path.join(rundir, "failures.json"),
                     {str(k): v for k, v in failures.items()})
    checks = {"all-cells-completed": {"passed": not failures,
                                      "failed_cells": len(failures)}}
    return ["aggregate.csv"], checks, timings


_PIPELINES = {
    "ground-state": _run_ground_state,
    "spectrum": _run_spectrum,
    "build-series": _run_build_series,
    "evolve-near-solution": _run_wpm,
    "classify-custom": _run_classify,
}


def run(cfg, out_dir=".", workers=1, check=False):
    """Execute a scenario config; returns the manifest dict.

    Raises ConfigError before creating any output when the config is invalid.
    """
    errors = validate_config(cfg)
    if errors:
        raise ConfigError(errors)
    scen = cfg["scenario"]
    rundir = os.path.join(out_dir, "%s-%s" % (scen, config_hash(cfg)))
    os.makedirs(rundir, exist_ok=True)
    t0 = _time.time()
    if scen == "sweep":
        outputs, checks, timings = _run_sweep(cfg, rundir, workers=workers)
    else:
        outputs, checks, timings = _PIPELINES[scen](cfg, rundir)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg,
        "versions": _versions(),
        "wall_time_s": _time.time() - t0,
        "run_dir": rundir,
        "outputs": outputs,
        "checks": checks,
        "ok": all(c["passed"] for c in checks.values()) if checks else True,
    }
    if timings:
        manifest["timings"] = timings
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
    backward scattering/blowup behavior.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1, got %r" % (sign,))
    cfg = {
        "scenario": "evolve-near-solution",
        "schema_version": SCHEMA_VERSION,
        "grid": {"d": d, "r_max": DEFAULT_GRID["r_max"], "n": DEFAULT_GRID["n"]},
        "sign": sign,
        "series": {"k": 3},
        "evolver": {"dt": 0.01, "sample_every": 0.5},
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    return run(cfg, out_dir=out_dir)


def sweep(cfg, out_dir=".", workers=1):
    cfg = dict(cfg)
    cfg.setdefault("scenario", "sweep")
    cfg.setdefault("schema_version", SCHEMA_VERSION)
    return run(cfg, out_dir=out_dir, workers=workers)
