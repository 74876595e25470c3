"""Experiment orchestration: configs, manifests, determinism, CLI."""

import json
import math
import multiprocessing
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from nlslab import cli
from nlslab import discretization as dz
from nlslab import evolver as ev
from nlslab import experiments as ex
from nlslab import ground_state as gs
from nlslab import linearized_spectrum as ls
from nlslab import series_builder as sb

SMALL_GRID = {"d": 6, "r_max": 40.0, "n": 800}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _hash(cfg):
    """The hash in the name of the run directory that ex.run makes for cfg."""
    return ex._digest(ex.normalize(cfg)[0])


def test_validate_config_accepts_defaults():
    assert ex.normalize({"scenario": "ground-state"})[1] == []
    assert ex.normalize({"scenario": "spectrum",
                        "grid": dict(SMALL_GRID)})[1] == []


def test_validate_config_reports_field_paths():
    errs = ex.normalize({"scenario": "ground-state",
                        "grid": {"d": 2, "n": "many"}})[1]
    joined = "\n".join(errs)
    assert "grid.r_max" in joined
    assert "grid.n" in joined
    errs = ex.normalize({"scenario": "nope"})[1]
    assert any("scenario" in e for e in errs)
    errs = ex.normalize({"scenario": "evolve-near-solution", "sign": 0})[1]
    assert any("sign" in e for e in errs)
    errs = ex.normalize({"scenario": "classify-custom"})[1]
    assert any("initial" in e for e in errs)
    errs = ex.normalize({"scenario": "build-series",
                        "series": {"k": 0}})[1]
    assert any("series.k" in e for e in errs)
    errs = ex.normalize({"scenario": "sweep", "ranges": {"k": []}})[1]
    assert any("ranges.k" in e for e in errs)
    errs = ex.normalize({"scenario": "evolve-near-solution",
                        "evolver": {"dt": -1}})[1]
    assert any("evolver.dt" in e for e in errs)


def test_validate_config_rejects_unknown_keys():
    # a key no pipeline of the scenario reads, at the top level or inside
    # grid, series, evolver, initial or ranges; only the evolving scenarios
    # read an evolver section
    cases = [
        ({"scenario": "spectrum", "evolver": {}}, "evolver"),
        ({"scenario": "evolve-near-solution", "refine_blowup": True}, "refine_blowup"),
        ({"scenario": "evolve-near-solution", "evolver": {"linear_step": "exact"}},
         "evolver.linear_step"),
        ({"scenario": "ground-state", "evolvr": {}}, "evolvr"),
        ({"scenario": "spectrum", "grid": dict(SMALL_GRID, m=1)}, "grid.m"),
        ({"scenario": "sweep", "ranges": {"n": [800]},
          "grid": {"r_max": 40.0, "n": 800}}, "grid.n"),
        ({"scenario": "spectrum", "series": {"k": 2}}, "series"),
        ({"scenario": "evolve-near-solution", "series": {"k": 3, "a": 2.0}},
         "series.a"),
        ({"scenario": "evolve-near-solution", "evolver": {"t_span": [0, 1]}},
         "evolver.t_span"),
        ({"scenario": "classify-custom",
          "initial": {"kind": "scaled-w", "factor": 1.8, "facter": 2.0}},
         "initial.facter"),
        ({"scenario": "sweep", "ranges": {"k": [1], "j": [2]}}, "ranges.j"),
        # the forward horizon's floor is a constant, and classify always fits
        ({"scenario": "evolve-near-solution", "departure_floor": 1e-3}, "departure_floor"),
        ({"scenario": "classify-custom", "initial": {"kind": "scaled-w", "factor": 1.8},
          "evolver": {"track_modulation": True}}, "evolver.track_modulation"),
    ]
    for cfg, path in cases:
        assert ex.normalize(cfg)[1] == ["%s: unknown key" % path], cfg


def test_unknown_key_fails_before_a_run_directory(tmp_path, capsys):
    # wpm takes no backward span: it derives one from the seed's reflection
    # horizon; nor a departure floor, a constant; classify always fits the modulation
    wpm = {"scenario": "evolve-near-solution", "grid": dict(SMALL_GRID)}
    cases = [("ground-state", {"scenario": "ground-state", "grid": dict(SMALL_GRID),
                               "evolvr": {}}, "evolvr"),
             ("wpm", dict(wpm, backward_span=120.0), "backward_span"),
             ("wpm", dict(wpm, departure_floor=1e-3), "departure_floor"),
             ("classify", {"scenario": "classify-custom", "grid": dict(SMALL_GRID),
                           "initial": {"kind": "scaled-w", "factor": 1.8},
                           "evolver": {"track_modulation": True}}, "evolver.track_modulation")]
    out = tmp_path / "runs"
    for command, cfg, key in cases:
        with pytest.raises(ex.ConfigError) as exc:
            ex.run(cfg, out_dir=str(out))
        assert exc.value.errors == ["%s: unknown key" % key]
        rc = cli.main([command, "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "invalid config:\n  %s: unknown key\n" % key
    assert not out.exists()


def test_documented_and_benchmark_configs_validate(monkeypatch):
    with open(os.path.join(ROOT, "README.md")) as f:
        examples = re.findall(r"```json\n(.*?)```", f.read(), re.S)
    assert len(examples) == 3
    for text in examples:
        assert ex.normalize(json.loads(text))[1] == [], text
    # the config each benchmark workload hands to ex.run, at both scales
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import workloads
    seen = []
    monkeypatch.setattr(ex, "run", lambda cfg, **kw: seen.append(cfg))
    for name in workloads.NAMES:
        for smoke in (False, True):
            workloads.call(name, workloads.params(name, 1, smoke=smoke), "", ex)
    assert len(seen) == 6
    for cfg in seen:
        assert ex.normalize(cfg)[1] == [], cfg


def test_config_table_is_consistent():
    # every default passes its own check (a section's default, key by key),
    # and the table holds exactly the paths some scenario reads and their sections
    for path, (want, *default) in ex._KEYS.items():
        if not default:
            continue
        values = [(want, val) for val in default[0]] if path.startswith("ranges.") else \
            [(want, default[0])]
        if want is dict:
            values += [(ex._KEYS["%s.%s" % (path, key)][0], val) for key, val in default[0].items()]
        assert values
        for check, val in values:
            assert ex._check(path, check, val) == [], path
    read = {path for paths in ex._READS.values() for path in paths}
    assert read <= set(ex._KEYS)
    assert set(ex._KEYS) == read | {path.split(".")[0] for path in read if "." in path}
    # every kind of check _check accepts is some key's, as an unused one is
    # dead validation code: the least integer, the allowed values, and of the
    # checks named by a string or a type, exactly those some key uses
    wants = [want for want, *_ in ex._KEYS.values()]
    assert any(type(want) is int for want in wants)
    assert any(isinstance(want, tuple) for want in wants)
    named = {want for want in wants if not isinstance(want, (int, tuple))}
    for kind in named | {bool, int, float, list, tuple, "integer", "real", "bool"}:
        try:
            ex._check("x", kind, None)
        except (KeyError, TypeError):
            assert kind not in named, kind
        else:
            assert kind in named, kind


def test_config_hash_fills_in_defaults():
    # an implicit default and the same default written out share a run directory
    written = {"scenario": "evolve-near-solution", "schema_version": 1,
               "grid": {"d": 6, "r_max": 60.0, "n": 6000}, "series": {"k": 3},
               "evolver": {"dt": 0.01, "sample_every": 0.5},
               "sign": -1, "seed_t0": -10.5}
    assert ex.normalize({"scenario": "evolve-near-solution"}) == (written, [])
    assert _hash({"scenario": "evolve-near-solution"}) == _hash(written)


def test_normalize_is_idempotent():
    cfgs = [{"scenario": scen} for scen in ("ground-state", "spectrum", "build-series",
                                             "evolve-near-solution")]
    cfgs += [{"scenario": "classify-custom", "grid": dict(SMALL_GRID),
              "initial": {"kind": "scaled-w", "factor": 1.8},
              "evolver": {"dt": 0.005, "t_span": [0.0, 30.0]}},
             {"scenario": "sweep", "grid": {"r_max": 40.0}, "ranges": {"k": [1, 2]}}]
    for cfg in cfgs:
        given = json.loads(json.dumps(cfg))
        filled, errors = ex.normalize(cfg)
        assert errors == [] and cfg == given  # the given config is left as it was
        assert ex.normalize(filled) == (filled, [])
        assert _hash(filled) == _hash(cfg)


def test_wrongly_typed_values_exit_2_before_a_run_directory(tmp_path, capsys):
    # values that a truthiness or equality test would let through
    wpm = {"scenario": "evolve-near-solution", "grid": dict(SMALL_GRID)}
    cases = [
        ("classify", {"scenario": "classify-custom", "grid": dict(SMALL_GRID),
                      "initial": {"kind": "field", "path": 7}},
         "initial.path: expected a file path, got 7"),
        ("ground-state", {"scenario": "ground-state", "schema_version": 7},
         "schema_version: expected one of [1], got 7"),
        ("wpm", dict(wpm, sign=True), "sign: expected one of [1, -1], got True"),
    ]
    out = tmp_path / "runs"
    for command, cfg, msg in cases:
        rc = cli.main([command, "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
        assert rc == 2, cfg
        assert capsys.readouterr().err == "invalid config:\n  %s\n" % msg
    assert not out.exists()


def test_build_series_finds_t_k_once(tmp_path, monkeypatch):
    # 13 times on the way to t_k (the bracket search, its check and the root
    # search share their evaluations) and the two ends of the fitted window
    times = []
    perturbation = sb.perturbation
    monkeypatch.setattr(sb, "perturbation",
                        lambda near, t: times.append(t) or perturbation(near, t))
    manifest = ex.run({"scenario": "build-series", "grid": dict(SMALL_GRID)},
                      out_dir=str(tmp_path))
    assert len(times) == 15
    meta = dz.load_json(os.path.join(manifest["run_dir"], "near_solution", "manifest.json"))
    assert meta["t_k"] == meta["residual_report"]["t_k"]


def test_one_sample_w_per_grid(tmp_path, monkeypatch):
    # W is sampled once per grid a run builds: build-series samples the
    # grids of the spectrum's coarse shift (checked by normalize), the dense
    # sweep's 100 cells and the coarse iteration's 400, and its own grid,
    # classify-custom its grid, and every later layer reads W off that
    # background
    grids = []
    sample_w = gs.sample_w

    def counted(grid):
        grids.append(grid)
        return sample_w(grid)

    monkeypatch.setattr(gs, "sample_w", counted)
    ls._coarse_shift.cache_clear()  # an earlier test may have swept this coarse grid
    ex.run({"scenario": "build-series", "grid": dict(SMALL_GRID)},
           out_dir=str(tmp_path))
    assert grids == [dz.build_grid(6, 40.0, 100), dz.build_grid(6, 40.0, 400),
                     dz.build_grid(**SMALL_GRID)]
    del grids[:]
    ex.run({"scenario": "classify-custom", "grid": dict(SMALL_GRID),
            "initial": {"kind": "scaled-w", "factor": 1.8},
            "evolver": {"dt": 0.01, "t_span": [0.0, 1.0]}}, out_dir=str(tmp_path))
    assert grids == [dz.build_grid(**SMALL_GRID)]


def test_config_hash_is_canonical():
    a = {"scenario": "ground-state", "grid": {"d": 6, "n": 800, "r_max": 40.0}}
    b = {"grid": {"r_max": 40.0, "d": 6, "n": 800}, "scenario": "ground-state"}
    assert _hash(a) == _hash(b)
    assert len(_hash(a)) == 12
    c = dict(a)
    c["grid"] = {"d": 6, "n": 801, "r_max": 40.0}
    assert _hash(a) != _hash(c)


def test_run_rejects_invalid_config(tmp_path):
    with pytest.raises(ex.ConfigError):
        ex.run({"scenario": "ground-state", "grid": {"d": 1}},
               out_dir=str(tmp_path))
    assert os.listdir(tmp_path) == []  # no output created


def test_bad_evolver_options_fail_before_a_run_directory(tmp_path):
    base = {"scenario": "classify-custom", "grid": dict(SMALL_GRID),
            "initial": {"kind": "scaled-w", "factor": 1.8}}
    for key, val in (("linear_step", "foo"), ("scheme", "crank-nicolson-full")):
        cfg = dict(base, evolver={key: val})
        with pytest.raises(ex.ConfigError) as exc:
            ex.run(cfg, out_dir=str(tmp_path))
        assert exc.value.errors[0].startswith("evolver.%s:" % key)
    assert os.listdir(tmp_path) == []


def test_bad_values_fail_before_a_run_directory(tmp_path, capsys):
    # each wrong value is reported under its field path, before any output
    sweep = {"scenario": "sweep", "grid": {"r_max": 40.0}}
    wpm = {"scenario": "evolve-near-solution", "grid": dict(SMALL_GRID)}
    scaled = {"scenario": "classify-custom", "grid": dict(SMALL_GRID),
              "initial": {"kind": "scaled-w", "factor": 1.8}}
    cases = [
        (dict(sweep, ranges={"k": [1, "2"]}), "ranges.k[1]: expected integer >= 1"),
        (dict(sweep, ranges={"a": ["x"]}), "ranges.a[0]: expected a finite number"),
        (dict(sweep, ranges={"a": [1.0, float("nan")]}), "ranges.a[1]:"),
        (dict(sweep, ranges={"n": [400.5]}), "ranges.n[0]: expected integer >= 16"),
        (dict(sweep, ranges={"n": [8]}), "ranges.n[0]: expected integer >= 16"),
        (dict(sweep, ranges={"d": [True]}), "ranges.d[0]: expected integer >= 3"),
        (dict(sweep, ranges={"k": [0]}), "ranges.k[0]: expected integer >= 1"),
        (dict(scaled, initial={"kind": "scaled-w", "factor": "big"}),
         "initial.factor: expected a finite number"),
        (dict(wpm, seed_t0="early"), "seed_t0: expected a finite number"),
        (dict(wpm, evolver={"sample_every": 0.0}),
         "evolver.sample_every: expected a positive number"),
        (dict(scaled, evolver={"t_span": [0.0, "20"]}), "evolver.t_span: expected"),
        (dict(scaled, evolver={"t_span": [20.0]}), "evolver.t_span: expected"),
        ({"scenario": "build-series", "series": {"a": "one"}},
         "series.a: expected a finite number"),
        # a Laplacian whose bands are not finite (0/0 face fluxes over cell
        # volumes at r_max = 1e-300, an overflowing boundary flux at 1e300)
        # and a factor whose |u|^4 overflows in the first sample
        ({"scenario": "spectrum", "grid": dict(SMALL_GRID, r_max=1e-300)},
         "grid.r_max: 1e-300 gives a Laplacian with non-finite bands at grid.d = 6, "
         "grid.n = 800"),
        (dict(scaled, grid=dict(SMALL_GRID, r_max=1e300)),
         "grid.r_max: 1e+300 gives a Laplacian with non-finite bands at grid.d = 6"),
        (dict(scaled, initial={"kind": "scaled-w", "factor": 1e200}),
         "initial.factor: 1e+200 overflows (|factor| max W)^4"),
        (dict(sweep, grid={"r_max": 1e-300}, ranges={"n": [400]}),
         "grid.r_max: 1e-300 gives a Laplacian with non-finite bands at "
         "ranges.d[0] = 6, ranges.n[0] = 400"),
        # finite bands, but no unstable mode for the spectrum's coarse shift
        ({"scenario": "spectrum", "grid": {"d": 6, "r_max": 1e-40, "n": 400}},
         "grid.r_max: 1e-40 gives no coarse-grid shift at grid.d = 6, grid.n = 400: "
         "no negative eigenvalue"),
        ({"scenario": "spectrum", "grid": {"d": 6, "r_max": 1e40, "n": 400}},
         "grid.r_max: 1e+40 gives no coarse-grid shift at grid.d = 6, grid.n = 400"),
        (dict(sweep, grid={"r_max": 1e40}, ranges={"n": [400]}),
         "grid.r_max: 1e+40 gives no coarse-grid shift at ranges.d[0] = 6, ranges.n[0] = 400"),
        # the ground-state checks need the Richardson-refined kinetic norm
        ({"scenario": "ground-state", "grid": {"d": 7, "r_max": 60.0, "n": 801}},
         "grid.n: the ground-state scenario needs an even n, got 801"),
    ]
    out = tmp_path / "runs"
    for cfg, msg in cases:
        with pytest.raises(ex.ConfigError) as exc:
            ex.run(cfg, out_dir=str(out))
        assert len(exc.value.errors) == 1 and exc.value.errors[0].startswith(msg), cfg
    cli_cases = (("sweep", cases[0]), ("spectrum", cases[-8]), ("classify", cases[-7]),
                 ("classify", cases[-6]), ("spectrum", cases[-4]), ("spectrum", cases[-3]),
                 ("ground-state", cases[-1]))
    for command, (cfg, msg) in cli_cases:
        rc = cli.main([command, "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
        assert rc == 2
        assert msg in capsys.readouterr().err
    assert not out.exists()


def test_a_coarse_iteration_that_does_not_converge_fails_before_a_run_directory(
        tmp_path, capsys, monkeypatch):
    # the coarse shift's 400-cell inverse iteration fails as the dense sweep
    # does, under grid.r_max; one step never converges (the stop rule compares
    # two residuals)
    monkeypatch.setattr(ls, "MAX_ITER", 1)
    ls._coarse_shift.cache_clear()
    cfg = {"scenario": "spectrum", "grid": dict(SMALL_GRID)}
    msg = ("grid.r_max: 40.0 gives no coarse-grid shift at grid.d = 6, grid.n = 800: "
           "block inverse iteration did not converge")
    errors = ex.normalize(cfg)[1]
    assert len(errors) == 1 and errors[0].startswith(msg), errors
    out = tmp_path / "runs"
    rc = cli.main(["spectrum", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
    assert rc == 2
    assert msg in capsys.readouterr().err
    assert not out.exists()


def test_a_step_too_small_for_the_derived_spans_fails_before_a_run_directory(
        tmp_path, capsys):
    # wpm rounds its derived spans to whole steps of dt; below 2^-53 they
    # would overflow (span / dt = inf) or not count exactly, after the run
    # directory exists, so normalize refuses the dt itself
    out = tmp_path / "runs"
    for dt in (1e-320, 1e-307):
        cfg = {"scenario": "evolve-near-solution", "grid": dict(SMALL_GRID),
               "evolver": {"dt": dt, "sample_every": dt}}
        msg = ("evolver.dt: %r is below 2^-53: the spans the run derives would not be "
               "whole, finite numbers of steps" % dt)
        assert ex.normalize(cfg)[1] == [msg], dt
        rc = cli.main(["wpm", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "invalid config:\n  %s\n" % msg
    assert not out.exists()
    # the canonical config stays valid
    assert ex.normalize({"scenario": "evolve-near-solution", "sign": -1})[1] == []


def test_zero_amplitudes_fail_before_a_run_directory(tmp_path, capsys):
    # a zero series amplitude has no validity start and a zero scaled W no
    # reflection horizon; each is reported under its field path, before any output
    cases = [
        ("build-series", {"scenario": "build-series", "grid": dict(SMALL_GRID),
                          "series": {"a": 0}}, "series.a", "0"),
        ("classify", {"scenario": "classify-custom", "grid": dict(SMALL_GRID),
                      "initial": {"kind": "scaled-w", "factor": -0.0}},
         "initial.factor", "-0.0"),
        ("sweep", {"scenario": "sweep", "grid": {"r_max": 40.0},
                   "ranges": {"n": [800], "a": [1.0, 0.0]}}, "ranges.a[1]", "0.0"),
    ]
    out = tmp_path / "runs"
    for command, cfg, path, val in cases:
        msg = "%s: expected a finite number other than 0, got %s" % (path, val)
        assert ex.normalize(cfg)[1] == [msg], cfg
        rc = cli.main([command, "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
        assert rc == 2, cfg
        assert capsys.readouterr().err == "invalid config:\n  %s\n" % msg
    assert not out.exists()


def test_spans_off_the_step_grid_fail_before_a_run_directory(tmp_path, capsys):
    # t_span and sample_every (default 0.5 included) must be whole numbers of
    # steps of dt
    wpm = {"scenario": "evolve-near-solution", "grid": dict(SMALL_GRID)}
    scaled = {"scenario": "classify-custom", "grid": dict(SMALL_GRID),
              "initial": {"kind": "scaled-w", "factor": 1.8}}
    cases = [
        (dict(scaled, evolver={"t_span": [0.0, 20.005]}),
         "evolver.t_span: length 20.005 is not a whole number of steps of dt = 0.01"),
        (dict(scaled, evolver={"dt": 0.02, "t_span": [1.0, -0.01]}),
         "evolver.t_span: length 1.01 is not a whole number of steps of dt = 0.02"),
        (dict(scaled, evolver={"sample_every": 0.015}),
         "evolver.sample_every: 0.015 is not a whole number of steps of dt = 0.01"),
        (dict(wpm, evolver={"dt": 0.3}),
         "evolver.sample_every: 0.5 is not a whole number of steps of dt = 0.3"),
        (dict(scaled, evolver={"t_span": [-1e308, 1e308]}),
         "evolver.t_span: length inf is not a whole number of steps of dt = 0.01"),
        (dict(wpm, evolver={"dt": 1e-320, "sample_every": 1.0}),
         "evolver.sample_every: 1.0 is not a whole number of steps of dt = 1e-320"),
    ]
    out = tmp_path / "runs"
    for cfg, msg in cases:
        with pytest.raises(ex.ConfigError) as exc:
            ex.run(cfg, out_dir=str(out))
        assert exc.value.errors == [msg], cfg
    rc = cli.main(["classify", "--config", _write_cfg(tmp_path, cases[0][0]),
                   "--out", str(out)])
    assert rc == 2
    assert cases[0][1] in capsys.readouterr().err
    assert not out.exists()
    # spans that divide evenly, up to round-off, pass
    for cfg in (dict(scaled, evolver={"dt": 0.01, "t_span": [0.0, 0.3], "sample_every": 0.07}),
                dict(scaled, evolver={"dt": 0.005, "t_span": [0.0, 30.0]}),
                dict(wpm, evolver={"dt": 0.1, "sample_every": 0.3})):
        assert ex.normalize(cfg)[1] == [], cfg


def test_field_on_another_grid_fails_before_a_run_directory(tmp_path, capsys):
    grid = dz.build_grid(6, 40.0, 400)
    path = str(tmp_path / "init.csv")
    dz.save_field(path, gs.sample_w(grid).astype(complex), grid)
    cfg = {"scenario": "classify-custom", "grid": dict(SMALL_GRID),
           "initial": {"kind": "field", "path": path}}
    out = tmp_path / "runs"
    rc = cli.main(["classify", "--config", _write_cfg(tmp_path, cfg),
                   "--out", str(out)])
    assert rc == 2
    assert ("initial.path: field grid %r does not match config grid %r"
            % (grid, dz.build_grid(**SMALL_GRID))) in capsys.readouterr().err
    assert not out.exists()
    cfg["initial"]["path"] = str(tmp_path / "missing.csv")
    assert ex.normalize(cfg)[1][0].startswith("initial.path: FileNotFoundError")
    # on the config grid, but short of its last 5 rows, non-finite or zero everywhere
    grid = dz.build_grid(**SMALL_GRID)
    W = gs.sample_w(grid).astype(complex)
    dz.save_field(path, W, grid)
    with open(path) as f:
        rows = f.readlines()
    short = str(tmp_path / "short.csv")
    with open(short, "w") as f:
        f.writelines(rows[:-5])
    nonfinite, zero = str(tmp_path / "nan.csv"), str(tmp_path / "zero.csv")
    W[7] = np.nan
    dz.save_field(nonfinite, W, grid)
    dz.save_field(zero, np.zeros(grid.nnodes, complex), grid)
    for field, err in (
            (short, "ValueError: row count does not match header grid in %s" % short),
            (nonfinite, "field holds non-finite values"),
            (zero, "field is zero everywhere")):
        cfg["initial"]["path"] = field
        rc = cli.main(["classify", "--config", _write_cfg(tmp_path, cfg),
                       "--out", str(out)])
        assert rc == 2
        assert "initial.path: " + err in capsys.readouterr().err
        assert not out.exists()


def test_cli_rejects_bad_evolver_option(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"scenario": "evolve-near-solution",
                                "grid": dict(SMALL_GRID),
                                "evolver": {"linear_step": "foo"}})
    out = tmp_path / "runs"
    rc = cli.main(["wpm", "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert "evolver.linear_step" in capsys.readouterr().err
    assert not out.exists()


def test_ground_state_run(tmp_path):
    cfg = {"scenario": "ground-state", "grid": dict(SMALL_GRID)}
    manifest = ex.run(cfg, out_dir=str(tmp_path))
    assert manifest["ok"]
    rundir = manifest["run_dir"]
    assert os.path.basename(rundir) == "ground-state-%s" % _hash(cfg)
    for name in manifest["outputs"] + ["manifest.json"]:
        assert os.path.exists(os.path.join(rundir, name))
    meta = dz.load_json(os.path.join(rundir, "ground_state.json"))
    assert meta["pohozaev_gap"] <= 1e-6
    assert manifest["schema_version"] == ex.SCHEMA_VERSION
    assert "numpy" in manifest["versions"]


def test_reruns_are_reproducible(tmp_path):
    cfg = {"scenario": "ground-state", "grid": dict(SMALL_GRID)}
    m1 = ex.run(cfg, out_dir=str(tmp_path))
    with open(os.path.join(m1["run_dir"], "w.csv"), "rb") as f:
        first = f.read()
    m2 = ex.run(cfg, out_dir=str(tmp_path))
    assert m1["run_dir"] == m2["run_dir"]
    with open(os.path.join(m2["run_dir"], "w.csv"), "rb") as f:
        assert f.read() == first


def _output_bytes(rundir):
    out = {}
    for base, _, files in os.walk(rundir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, rundir)] = f.read()
    return out


def test_outputs_are_byte_reproducible_across_roots(tmp_path):
    # every file but the manifest (which alone carries timings) reproduces,
    # and the manifest indexes every other file of the run directory
    grid = {"d": 6, "r_max": 40.0, "n": 400}
    cfgs = [{"scenario": "classify-custom", "grid": grid,
             "initial": {"kind": "scaled-w", "factor": 1.8},
             "evolver": {"dt": 0.01, "t_span": [0.0, 2.0]}},
            {"scenario": "spectrum", "grid": grid},
            {"scenario": "evolve-near-solution", "grid": grid}]
    for cfg in cfgs:
        runs = [ex.run(cfg, out_dir=str(tmp_path / root)) for root in ("a", "b")]
        first, second = (_output_bytes(m["run_dir"]) for m in runs)
        outputs = runs[0]["outputs"]
        assert set(first) == set(second) == set(outputs) | {"manifest.json"}
        for name in outputs:
            assert first[name] == second[name], (cfg["scenario"], name)


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # ground_mode rounds its shift to 6 digits (a dense eigvals on 401 cells
    # differed in the 12th digit between 1 and 2 BLAS threads; the coarse
    # shift's 101-cell sweep and 400-cell iteration did not), and takes its
    # norms and Rayleigh quotient by numpy sums, as residual_rate takes its
    # L^2 norms (BLAS reductions differ at n = 12000), so the eigenpair, a
    # k = 4 series and its residual report come out bit-identical, and so
    # does a sweep's aggregate, whose residual ladders stop at thresholds on
    # those norms; an evolution takes its energy, s_crit and modulation fits'
    # 1-D dot products by dz.dot, so a classify run at n = 12000, whose
    # 12001-node dots OpenBLAS would split over its threads, does too
    cfgs = []
    for n in (6000, 12000):
        grid = {"d": 6, "r_max": 60.0, "n": n}
        cfgs.append(("spectrum", {"grid": grid}))
        cfgs.append(("build-series", {"grid": grid, "series": {"k": 4, "a": 1.0}}))
    cfgs.append(("sweep", {"grid": {"r_max": 60.0}, "ranges": {
        "d": [6], "n": [6000, 12000], "k": [1, 4], "a": [1.0, -1.6]}}))
    cfgs.append(("classify", {"grid": {"d": 6, "r_max": 60.0, "n": 12000},
                              "initial": {"kind": "scaled-w", "factor": 1.02},
                              "evolver": {"dt": 0.01, "t_span": [0.0, 1.0],
                                          "sample_every": 0.02}}))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                       filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
        root = tmp_path / threads
        for i, (command, cfg) in enumerate(cfgs):
            path = tmp_path / ("%d.json" % i)
            path.write_text(json.dumps(cfg))
            workers = ["--workers", "2"] if command == "sweep" else []
            subprocess.run([sys.executable, "-m", "nlslab.cli", command, "--config",
                            str(path), "--out", str(root)] + workers, env=env, check=True,
                           capture_output=True, timeout=300)
        # every output but each run's own manifest, which carries timings
        outputs.append({name: data for name, data in _output_bytes(str(root)).items()
                        if name.split("/", 1)[1] != "manifest.json"})
    names = sorted(name.split("/", 1)[1] for name in outputs[0])
    assert names == sorted(2 * (["eigenpair.csv", "eigenpair.json", "near_solution/manifest.json"]
                                + ["near_solution/profile_%d.csv" % j for j in range(1, 5)])
                           + ["aggregate.csv", "report.json", "trace.csv", "trace.json"]), names
    assert outputs[0] == outputs[1]


def test_forward_horizon_is_on_the_step_grid(tmp_path):
    # the horizon derived from e0 is snapped to the step grid, so the
    # forward trace ends exactly at the reported forward_horizon
    cfg = {"scenario": "evolve-near-solution", "grid": {"d": 6, "r_max": 40.0, "n": 400},
           "evolver": {"dt": 0.02}}
    manifest = ex.run(cfg, out_dir=str(tmp_path))
    report = dz.load_json(os.path.join(manifest["run_dir"], "report.json"))
    steps = manifest["evolutions"]["forward"]["steps"]
    assert steps > 0
    assert abs(report["forward_horizon"] - report["seed_t0"] - steps * 0.02) <= 1e-12
    # only the forward evolution fits the modulation, and records the fit time
    assert 0 < manifest["evolutions"]["forward"]["fit_seconds"]
    assert "fit_seconds" not in manifest["evolutions"]["backward"]


def test_a_seed_too_late_for_a_forward_step_exits_2_before_a_run_directory(
        tmp_path, capsys, monkeypatch):
    # a seed closer to W than the departure floor (d0 = 2.2e-4 at t = 60)
    # gives a forward horizon <= 0, which would step the "forward" trace backward
    monkeypatch.setattr(ev, "evolve", lambda *args: pytest.fail("evolve called"))
    cfg = dict(WPM_SMALL, seed_t0=60)
    out = tmp_path / "runs"
    with pytest.raises(ex.ConfigError) as exc:
        ex.run(cfg, out_dir=str(out))
    assert len(exc.value.errors) == 1
    assert re.fullmatch(r"seed_t0: 60 leaves no forward step: 0\.75/\(2 e0\) ln\(d0/0\.001\) "
                        r"rounds to -4\.\d+ for the seed's H\^1 distance d0 = 0\.000218\d* from W",
                        exc.value.errors[0]), exc.value.errors
    assert os.listdir(out) == []
    rc = cli.main(["wpm", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "invalid config:\n  %s\n" % exc.value.errors[0]
    assert os.listdir(out) == []


def test_spectrum_run(tmp_path):
    cfg = {"scenario": "spectrum", "grid": dict(SMALL_GRID)}
    manifest = ex.run(cfg, out_dir=str(tmp_path), check=True)
    assert manifest["checks"]["block-residual"]["passed"]
    meta = dz.load_json(os.path.join(manifest["run_dir"], "eigenpair.json"))
    assert meta["e0"] > 0
    assert set(meta) >= {"d", "r_max", "n", "e0", "residual", "normalization"}


def test_build_series_run(tmp_path):
    cfg = {"scenario": "build-series", "grid": dict(SMALL_GRID),
           "series": {"k": 1, "a": 1.0}}
    manifest = ex.run(cfg, out_dir=str(tmp_path))
    assert manifest["ok"]
    assert manifest["checks"]["residual-rate"]["relative_error"] <= 0.10
    assert os.path.exists(os.path.join(manifest["run_dir"],
                                       "near_solution", "profile_1.csv"))


@pytest.mark.parametrize("a", [1e-30, 1e30])
def test_build_series_far_from_unit_amplitude_is_its_time_translate(tmp_path, a):
    # W_k^a(t) = W_k^1(t - ln a / e0): the validity start's bracket walk is
    # centred there, so t_k(a) = t_k(1) + ln a / e0 however far a is from 1
    tks = []
    for amp in (1.0, a):
        cfg = {"scenario": "build-series", "grid": dict(SMALL_GRID),
               "series": {"k": 2, "a": amp}}
        manifest = ex.run(cfg, out_dir=str(tmp_path))
        assert manifest["ok"]
        meta = dz.load_json(os.path.join(manifest["run_dir"], "near_solution",
                                         "manifest.json"))
        tks.append(meta["t_k"])
    # both within Brent's xtol (2e-12 plus 4 eps |t_k|) of their roots
    assert abs(tks[1] - (tks[0] + math.log(a) / meta["e0"])) <= 1e-11


def test_build_series_amplitude_whose_powers_leave_the_double_range(tmp_path, capsys):
    # |a|^2 underflows at a = 1e-200 and overflows at 1e200: refused under
    # series.a before a run directory exists; 1e-120 still runs
    out = tmp_path / "runs"
    for a in (1e-200, 1e200):
        cfg = {"scenario": "build-series", "grid": dict(SMALL_GRID),
               "series": {"k": 2, "a": a}}
        msg = ("series.a: %r takes a power |a|^j, j <= 2, out of the normal "
               "floating-point range" % a)
        with pytest.raises(ex.ConfigError) as exc:
            ex.run(cfg, out_dir=str(out))
        assert exc.value.errors == [msg]
        rc = cli.main(["build-series", "--config", _write_cfg(tmp_path, cfg),
                       "--out", str(out)])
        assert rc == 2 and msg in capsys.readouterr().err
    assert not out.exists()
    cfg = {"scenario": "build-series", "grid": dict(SMALL_GRID),
           "series": {"k": 2, "a": 1e-120}}
    assert ex.run(cfg, out_dir=str(out))["ok"]


# the spectrum and series rungs of the dimension ladder: t_k (k = 1) lies at
# -525, -735 and -1,290 at d = 16, 18 and 22, far out on the bracket walk
LADDER = (5, 8, 12, 16, 18, 22)


@pytest.mark.parametrize("d", LADDER)
def test_ladder_rung_passes_its_checks(tmp_path, d):
    grid = {"d": d, "r_max": 60.0, "n": 1200}
    for cfg in ({"scenario": "ground-state", "grid": grid},
                {"scenario": "spectrum", "grid": grid},
                {"scenario": "build-series", "grid": grid, "series": {"k": 1, "a": 1.0}}):
        assert ex.run(cfg, out_dir=str(tmp_path), check=True)["ok"]


def test_build_series_at_d18_to_third_order(tmp_path):
    cfg = {"scenario": "build-series", "grid": {"d": 18, "r_max": 60.0, "n": 6000},
           "series": {"k": 3, "a": 1.0}}
    assert ex.run(cfg, out_dir=str(tmp_path), check=True)["ok"]


def test_sweep_past_d16_completes_every_cell(tmp_path):
    cfg = {"scenario": "sweep", "grid": {"r_max": 60.0},
           "ranges": {"d": [16, 22], "n": [1200], "k": [1], "a": [1.0, -1.0]}}
    manifest = ex.run(cfg, out_dir=str(tmp_path), workers=2, check=True)
    rows = np.loadtxt(os.path.join(manifest["run_dir"], "aggregate.csv"),
                      delimiter=",", skiprows=1)
    assert rows.shape == (4, 8)
    assert np.all(rows[:, 5] < -500)  # every t_k far out on the bracket walk


def test_a_failed_pipeline_leaves_no_run_directory(tmp_path, capsys):
    # 3 samples above 10x the floor at k = 4 on the session grid: residual_rate raises
    cfg = {"scenario": "build-series", "grid": dict(SMALL_GRID), "series": {"k": 4}}
    out = tmp_path / "runs"
    rc = cli.main(["build-series", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
    assert rc == 1
    assert "fit window empty after floor filtering: 3 samples" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_a_failed_rerun_keeps_the_finished_run(tmp_path, monkeypatch):
    cfg = {"scenario": "ground-state", "grid": dict(SMALL_GRID)}
    rundir = tmp_path / os.path.basename(ex.run(cfg, out_dir=str(tmp_path))["run_dir"])

    def snapshot():
        return {path.name: path.read_bytes() for path in rundir.iterdir()}
    before = snapshot()

    def fail(cfg, rundir):
        raise RuntimeError("rerun failed")
    monkeypatch.setitem(ex._PIPELINES, "ground-state", fail)
    with pytest.raises(RuntimeError, match="rerun failed"):
        ex.run(cfg, out_dir=str(tmp_path))
    assert "manifest.json" in before and snapshot() == before


def test_manifest_times_the_config_check(tmp_path):
    # check_s: the seconds normalize took, coarse shift included, within the wall time
    cfgs = [{"scenario": "sweep", "grid": {"r_max": 40.0},
             "ranges": {"n": [800], "k": [1]}},
            {"scenario": "classify-custom", "grid": dict(SMALL_GRID),
             "initial": {"kind": "scaled-w", "factor": 1.8},
             "evolver": {"dt": 0.01, "t_span": [0.0, 1.0]}}]
    for cfg in cfgs:
        manifest = ex.run(cfg, out_dir=str(tmp_path))
        assert 0.0 <= manifest["check_s"] <= manifest["wall_time_s"], cfg["scenario"]
        assert "check_s" not in manifest["timings"]


def test_classify_run_blowup(tmp_path):
    cfg = {"scenario": "classify-custom", "grid": dict(SMALL_GRID),
           "initial": {"kind": "scaled-w", "factor": 1.8},
           "evolver": {"dt": 0.005, "t_span": [0.0, 30.0]}}
    manifest = ex.run(cfg, out_dir=str(tmp_path))
    assert manifest["checks"]["classified"]["value"] == "blowup"
    assert set(manifest["timings"]) == {"evolve_s"}
    record = manifest["evolutions"]["evolve"]
    assert set(manifest["evolutions"]) == {"evolve"}
    assert record["seconds"] == manifest["timings"]["evolve_s"]
    # the trace stops at the detected blowup, t_star / dt steps in
    trace = dz.load_json(os.path.join(manifest["run_dir"], "trace.json"))
    assert record["steps"] == round(trace["termination"]["t_star"] / 0.005) < 6000
    assert set(record) == {"steps", "samples", "seconds", "status", "fit_seconds"}
    with open(os.path.join(manifest["run_dir"], "trace.csv")) as f:
        assert record["samples"] == len(f.readlines()) - 1
    assert record["status"] == "blowup-detected"
    report = dz.load_json(os.path.join(manifest["run_dir"], "report.json"))
    assert report["regime"] == "blowup"


def test_fit_worker_writes_the_traces_of_the_direct_path(tmp_path, monkeypatch):
    # one CPU keeps the fits in the evolving process; the run has more
    # samples than ring slots and a blowup exit
    cfg = {"scenario": "classify-custom", "grid": dict(SMALL_GRID),
           "initial": {"kind": "scaled-w", "factor": 1.8},
           "evolver": {"dt": 0.005, "t_span": [0.0, 30.0], "sample_every": 0.05}}
    outputs = []
    for cpus in (2, 1):
        monkeypatch.setattr(ev, "_cpus", lambda n=cpus: n)
        manifest = ex.run(cfg, out_dir=str(tmp_path / str(cpus)))
        assert manifest["evolutions"]["evolve"]["fit_seconds"] > 0
        outputs.append(_output_bytes(manifest["run_dir"]))
    for name in ("trace.csv", "trace.json"):
        assert outputs[0][name] == outputs[1][name], name
    trace = json.loads(outputs[0]["trace.json"])
    assert trace["termination"]["status"] == "blowup-detected"
    assert trace["modulation"]["fits"] > ev.RING
    # the fit's scan leaves its search two lattice cells: 9.65 evaluations
    # per fit on this run, where the amplitude-seeded search and its refit
    # took 14.0
    assert trace["modulation"]["nfev"] / trace["modulation"]["fits"] < 9.7


WPM_SMALL = {"scenario": "evolve-near-solution", "grid": {"d": 6, "r_max": 40.0, "n": 400}}


def test_backward_child_writes_the_outputs_of_the_serial_run(tmp_path, monkeypatch):
    # two CPUs evolve backward on a forked child, one in the caller after the
    # forward evolution; W+ blows up backward within the span, so its dt/2
    # refinement and blowup-time-stable check run too
    for sign in (-1, 1):
        outputs = []
        for cpus in (2, 1):
            monkeypatch.setattr(ev, "_cpus", lambda n=cpus: n)
            manifest = ex.run(dict(WPM_SMALL, sign=sign), out_dir=str(tmp_path / str(cpus)))
            assert manifest["timings"]["evolve_s"] > 0
            outputs.append({name: data for name, data in _output_bytes(manifest["run_dir"]).items()
                            if name != "manifest.json"})
        assert sorted(outputs[0]) == sorted(outputs[1]) == manifest["outputs"]
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], (sign, name)
    assert "blowup-time-stable" in manifest["checks"]
    assert set(manifest["evolutions"]) == {"forward", "backward", "backward_refined"}


def test_backward_span_is_the_seed_reflection_horizon_on_the_step_grid(tmp_path):
    # the backward trace ends at the last step before the horizon, past which
    # the scattering rule may not fire
    for sign in (-1, 1):
        manifest = ex.run(dict(WPM_SMALL, sign=sign), out_dir=str(tmp_path))
        trace = dz.load_json(os.path.join(manifest["run_dir"], "trace_backward.json"))
        seed, dt = manifest["config"]["seed_t0"], manifest["config"]["evolver"]["dt"]
        horizon = trace["reflection"]["horizon_elapsed"]
        assert trace["config"]["t_span"] == [seed, seed - math.floor(horizon / dt) * dt], sign
        assert horizon - dt < seed - trace["config"]["t_span"][1] <= horizon
        assert "horizon_exceeded" not in trace["reflection"]


def _on_the_backward_child(monkeypatch, backward):
    """Call backward(config) before each backward evolution, which runs on a
    forked child under the two_cpus fixture; forward evolutions run as before."""
    evolve = ev.evolve

    def patched(u0, config, bg):
        if config.t_span[1] < config.t_span[0]:
            backward(config)
        return evolve(u0, config, bg)
    monkeypatch.setattr(ev, "evolve", patched)


def test_backward_child_error_is_raised_by_the_parent(tmp_path, monkeypatch, two_cpus):
    def backward(config):
        raise ValueError("backward dt %r failed" % config.dt)
    _on_the_backward_child(monkeypatch, backward)
    with pytest.raises(ValueError) as exc:
        ex.run(dict(WPM_SMALL, sign=-1), out_dir=str(tmp_path))
    assert type(exc.value) is ValueError and str(exc.value) == "backward dt 0.01 failed"


def test_backward_child_exit_is_an_error(tmp_path, monkeypatch, two_cpus):
    _on_the_backward_child(monkeypatch, lambda config: os._exit(3))
    with pytest.raises(RuntimeError, match=r"trace_backward exited \(code 3\)"):
        ex.run(dict(WPM_SMALL, sign=-1), out_dir=str(tmp_path))


def test_backward_child_runs_while_the_bundle_is_written(tmp_path, monkeypatch, two_cpus):
    # the backward evolution is forked as soon as the seed exists, so it is
    # running when the caller writes the eigenpair and the near solution and
    # makes the bundle's k - 1 = 2 inverse-norm estimates
    children = []
    for mod, name in ((ls, "save_eigenpair"), (sb, "save_near_solution"),
                      (sb, "_inverse_onenorm")):
        def recorded(*args, save=getattr(mod, name), **kwargs):
            children.append(len(multiprocessing.active_children()))
            return save(*args, **kwargs)
        monkeypatch.setattr(mod, name, recorded)
    ex.run(dict(WPM_SMALL, sign=-1), out_dir=str(tmp_path))
    assert len(children) == 4 and min(children) >= 1


def test_build_series_estimates_each_order_once(tmp_path, monkeypatch):
    # the bundle's conditioning of orders j = 2..k (k = 3), one estimate each
    estimates = []
    estimate = sb._inverse_onenorm
    monkeypatch.setattr(sb, "_inverse_onenorm",
                        lambda *args: estimates.append(args) or estimate(*args))
    manifest = ex.run({"scenario": "build-series", "grid": dict(SMALL_GRID)},
                      out_dir=str(tmp_path))
    assert len(estimates) == 2
    meta = dz.load_json(os.path.join(manifest["run_dir"], "near_solution", "manifest.json"))
    assert list(meta["conditioning"]) == ["2", "3"]


def test_classify_run_from_field_file(tmp_path):
    # a subcritical gaussian pulse disperses well before the reflection horizon
    grid = dz.build_grid(**SMALL_GRID)
    path = str(tmp_path / "init.csv")
    dz.save_field(path, (0.8 * np.exp(-grid.r ** 2 / 4)).astype(complex), grid)
    cfg = {"scenario": "classify-custom", "grid": dict(SMALL_GRID),
           "initial": {"kind": "field", "path": path},
           "evolver": {"dt": 0.01, "t_span": [0.0, 15.0]}}
    manifest = ex.run(cfg, out_dir=str(tmp_path))
    assert manifest["checks"]["classified"]["value"] == "scattering-proxy"
    # the evolution stops at the decision, and the manifest shows it
    record = manifest["evolutions"]["evolve"]
    assert record["status"] == "scattering-detected"
    assert record["steps"] < 1500


def test_sweep_run(tmp_path):
    cfg = {"ranges": {"d": [6], "n": [800], "k": [1, 2], "a": [1.0]},
           "grid": {"r_max": 40.0}}
    manifest = ex.sweep(cfg, out_dir=str(tmp_path), workers=2)
    assert manifest["ok"]
    rows = np.loadtxt(os.path.join(manifest["run_dir"], "aggregate.csv"),
                      delimiter=",", skiprows=1)
    assert rows.shape == (2, 8)
    assert list(rows[:, 2]) == [1.0, 2.0]  # sorted by cell key
    for row in rows:
        assert abs(row[6] - row[7]) / row[7] <= 0.10  # rate near target


def test_sweep_aggregate_independent_of_workers(tmp_path):
    cfg = {"ranges": {"d": [6], "n": [800], "k": [1, 2, 3], "a": [1.0, -1.0]},
           "grid": {"r_max": 40.0}}
    texts = []
    for workers in (1, 2):
        manifest = ex.sweep(cfg, out_dir=str(tmp_path / str(workers)),
                            workers=workers)
        assert manifest["ok"]
        assert set(manifest["timings"]) == {"spectra_s", "series_s", "cells_s"}
        with open(os.path.join(manifest["run_dir"], "aggregate.csv"), "rb") as f:
            texts.append(f.read())
    assert texts[0] == texts[1]
    assert texts[0].count(b"\n") == 7


NO_UNIT_AMPLITUDE = [0.5, 1.6, -0.7, -2.5]


def test_sweep_rows_match_direct_cells(tmp_path):
    # each row is its sign's ladder on the grid's unit series, translated by
    # ln|a| / e0; a direct per-cell solve and ladder differ from it by
    # round-off only, with and without the unit amplitudes in the ranges
    bg = gs.Background(dz.build_grid(**SMALL_GRID))
    pair = ls.ground_mode(bg)
    for amplitudes in ([1.0, -1.0, 1.6, -1.6], NO_UNIT_AMPLITUDE):
        cfg = {"ranges": {"d": [6], "n": [800], "k": [1, 2, 3],
                          "a": amplitudes}, "grid": {"r_max": 40.0}}
        manifest = ex.sweep(cfg, out_dir=str(tmp_path), workers=2)
        assert manifest["ok"]
        rows = np.loadtxt(os.path.join(manifest["run_dir"], "aggregate.csv"),
                          delimiter=",", skiprows=1)
        assert rows.shape == (12, 8)
        for d, n, k, a, e0, t_k, rate, target in rows:
            report = sb.residual_rate(sb.build_near_solution(int(k), a, pair, bg))
            assert e0 == pair.e0
            assert abs(t_k - report.t_k) <= 1e-12 * max(1.0, abs(report.t_k)), (k, a)
            assert abs(rate - report.rate) <= 1e-9 * report.rate, (k, a)


def test_sweep_runs_one_ladder_per_sign(tmp_path, monkeypatch):
    # 3 orders x 2 signs, each on the unit series of its sign, for 12 rows
    amplitudes, rate = [], sb.residual_rate
    monkeypatch.setattr(sb, "residual_rate",
                        lambda near: amplitudes.append(near.a) or rate(near))
    cfg = {"ranges": {"d": [6], "n": [800], "k": [1, 2, 3], "a": NO_UNIT_AMPLITUDE},
           "grid": {"r_max": 40.0}}
    manifest = ex.sweep(cfg, out_dir=str(tmp_path), workers=1)
    assert manifest["ok"]
    assert sorted(amplitudes) == [-1.0] * 3 + [1.0] * 3
    rows = np.loadtxt(os.path.join(manifest["run_dir"], "aggregate.csv"),
                      delimiter=",", skiprows=1)
    assert rows.shape == (12, 8)


def test_sweep_solves_one_series_and_one_coarse_sweep(tmp_path, monkeypatch):
    # one unit series per grid (k_max - 1 profile solves), and the two grids
    # of one (d, r_max) share one coarse shift, whose one dense eigensolve is
    # on 100 cells; a sweep writes no bundle, so it makes no inverse-norm
    # estimate
    solves, sweeps, estimates = [], [], []
    solve_profile, eigvals, estimate = sb.solve_profile, np.linalg.eigvals, sb._inverse_onenorm
    monkeypatch.setattr(sb, "solve_profile",
                        lambda j, *args: solves.append(j) or solve_profile(j, *args))
    monkeypatch.setattr(sb, "_inverse_onenorm",
                        lambda *args: estimates.append(args) or estimate(*args))
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: sweeps.append(a.shape) or eigvals(a))
    ls._coarse_shift.cache_clear()
    cfg = {"ranges": {"d": [6], "n": [800, 1200], "k": [1, 3], "a": [1.0, -1.5]},
           "grid": {"r_max": 40.0}}
    manifest = ex.sweep(cfg, out_dir=str(tmp_path), workers=2)
    assert manifest["ok"]
    assert sorted(solves) == [2, 2, 3, 3]
    assert sweeps == [(101, 101)]
    assert estimates == []


def test_sweep_records_a_failed_unit_series_for_each_cell(tmp_path, monkeypatch):
    build = sb.build_near_solution

    def failing(k, a, pair, bg):
        if bg.grid.n == 400:
            raise RuntimeError("no series here")
        return build(k, a, pair, bg)

    monkeypatch.setattr(sb, "build_near_solution", failing)
    cfg = {"ranges": {"d": [6], "n": [400, 800], "k": [1, 2], "a": [1.0, -1.0]},
           "grid": {"r_max": 40.0}}
    manifest = ex.sweep(cfg, out_dir=str(tmp_path), workers=2)
    assert manifest["checks"]["all-cells-completed"]["failed_cells"] == 4
    with open(os.path.join(manifest["run_dir"], "failures.json")) as f:
        failures = json.load(f)
    assert failures == {str((6, 400, k, a)): "RuntimeError: no series here"
                        for k in (1, 2) for a in (1.0, -1.0)}
    rows = np.loadtxt(os.path.join(manifest["run_dir"], "aggregate.csv"),
                      delimiter=",", skiprows=1)
    assert rows.shape == (4, 8) and set(rows[:, 1]) == {800.0}


SWEEP_SMALL = {"ranges": {"d": [6], "n": [800], "k": [1, 2, 3], "a": [1.0, -1.0]},
               "grid": {"r_max": 40.0}}


def _record_cell_pids(monkeypatch, path):
    """Append the pid of the process that runs each cell's residual_rate to path."""
    rate = sb.residual_rate

    def recorded(near):
        with open(path, "a") as f:
            f.write("%d\n" % os.getpid())
        return rate(near)
    monkeypatch.setattr(sb, "residual_rate", recorded)


def test_sweep_cells_run_on_two_processes(tmp_path, monkeypatch, two_cpus):
    # the caller and one forked child run the cells, and the aggregate is the
    # serial run's
    pids = tmp_path / "pids"
    _record_cell_pids(monkeypatch, pids)
    texts = []
    for workers in (2, 1):
        manifest = ex.sweep(SWEEP_SMALL, out_dir=str(tmp_path / str(workers)), workers=workers)
        assert manifest["ok"] and manifest["cell_processes"] == workers
        with open(os.path.join(manifest["run_dir"], "aggregate.csv"), "rb") as f:
            texts.append(f.read())
    assert texts[0] == texts[1]
    ran = pids.read_text().split()
    assert len(ran) == 12
    assert len(set(ran[:6])) == 2 and str(os.getpid()) in ran[:6]
    assert set(ran[6:]) == {str(os.getpid())}


def test_each_worker_takes_the_first_cpu_no_live_worker_holds(tmp_path, monkeypatch, two_cpus,
                                                              background):
    # a fit worker forked beside a forked_map worker lands on CPU 2, the
    # caller's modulo 2; alone it, and a sweep's one worker, take CPU 1.
    # Only the workers this process constructs are recorded.
    cpus, init = [], ev._Worker.__init__

    def recorded(self, *args):
        init(self, *args)
        cpus.append(self.cpu)
    monkeypatch.setattr(ev._Worker, "__init__", recorded)
    u0 = (0.9 * background.W).astype(complex)

    def job(fits):
        cfg = ev.EvolverConfig(dt=0.01, t_span=(0.0, 0.5), sample_every=0.05,
                               track_modulation=fits)
        return ev.evolve(u0, cfg, background).modulation["fits"]
    assert ev.forked_map(job, [True, False], 2) == [11, 0]
    assert cpus == [1, 2]
    cpus.clear()
    assert job(True) == 11
    assert cpus == [1]
    cpus.clear()
    assert ex.sweep(SWEEP_SMALL, out_dir=str(tmp_path), workers=2)["cell_processes"] == 2
    assert cpus == [1]


@pytest.mark.parametrize("threads", [None, "2"])
def test_sweep_cells_fork_whatever_the_blas_variables_say(tmp_path, monkeypatch, two_cpus,
                                                          threads):
    # a cell makes no threaded BLAS call, so a multi-threaded BLAS (OpenBLAS's
    # default when the variable is unset) does not keep the cells serial
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    if threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
    texts = []
    for workers in (2, 1):
        manifest = ex.sweep(SWEEP_SMALL, out_dir=str(tmp_path / str(workers)), workers=workers)
        assert manifest["ok"] and manifest["cell_processes"] == workers
        with open(os.path.join(manifest["run_dir"], "aggregate.csv"), "rb") as f:
            texts.append(f.read())
    assert texts[0] == texts[1]


def test_sweep_cell_error_on_a_child_is_recorded_as_serially(tmp_path, monkeypatch, two_cpus):
    # the k = 2 cells are the third and fourth: one in the caller, one on the child
    rate = sb.residual_rate

    def failing(near):
        if near.k == 2:
            raise ValueError("no rate for k = %d, a = %g" % (near.k, near.a))
        return rate(near)
    monkeypatch.setattr(sb, "residual_rate", failing)
    outputs = []
    for workers in (2, 1):
        manifest = ex.sweep(SWEEP_SMALL, out_dir=str(tmp_path / str(workers)), workers=workers)
        assert manifest["cell_processes"] == workers
        assert manifest["checks"]["all-cells-completed"]["failed_cells"] == 2
        outputs.append({name: data for name, data in _output_bytes(manifest["run_dir"]).items()
                        if name != "manifest.json"})
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0]["failures.json"]) == {
        str((6, 800, 2, a)): "ValueError: no rate for k = 2, a = %g" % a for a in (1.0, -1.0)}


def test_a_failed_ladder_is_recorded_for_each_amplitude_of_its_sign(tmp_path, monkeypatch,
                                                                   two_cpus):
    rate = sb.residual_rate

    def failing(near):
        if near.k == 2 and near.a > 0:
            raise ValueError("no rate for k = %d, a = %g" % (near.k, near.a))
        return rate(near)
    monkeypatch.setattr(sb, "residual_rate", failing)
    cfg = dict(SWEEP_SMALL, ranges=dict(SWEEP_SMALL["ranges"], a=NO_UNIT_AMPLITUDE))
    outputs = []
    for workers in (2, 1):
        manifest = ex.sweep(cfg, out_dir=str(tmp_path / str(workers)), workers=workers)
        assert manifest["cell_processes"] == workers
        assert manifest["checks"]["all-cells-completed"]["failed_cells"] == 2
        outputs.append({name: data for name, data in _output_bytes(manifest["run_dir"]).items()
                        if name != "manifest.json"})
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0]["failures.json"]) == {
        str((6, 800, 2, a)): "ValueError: no rate for k = 2, a = 1" for a in (0.5, 1.6)}
    assert outputs[0]["aggregate.csv"].count(b"\n") == 11


def test_sweep_cell_exit_is_an_error(tmp_path, monkeypatch, two_cpus):
    # the child's first cell is the second, (6, 800, 1, -1.0)
    caller, rate = os.getpid(), sb.residual_rate
    monkeypatch.setattr(sb, "residual_rate",
                        lambda near: rate(near) if os.getpid() == caller else os._exit(3))
    with pytest.raises(RuntimeError, match=r"job \(6, 800, 1, -1\.0\) exited \(code 3\)"):
        ex.sweep(SWEEP_SMALL, out_dir=str(tmp_path), workers=2)


def test_workers_below_one_fail_before_a_run_directory(tmp_path, capsys):
    cfg = {"scenario": "sweep", "ranges": {"n": [400]}, "grid": {"r_max": 40.0}}
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "runs"
    for workers in ("0", "-3"):
        assert cli.main(["sweep", "--config", path, "--workers", workers, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "invalid config:\n  workers: expected an integer >= 1, got %s\n" % workers
    with pytest.raises(ex.ConfigError, match="workers: expected an integer >= 1, got 0"):
        ex.run(cfg, out_dir=str(out), workers=0)
    assert not out.exists()


# ---------------------------------------------------------------------------
# CLI

def _write_cfg(tmp_path, cfg, name="cfg.json"):
    path = str(tmp_path / name)
    with open(path, "w") as f:
        json.dump(cfg, f)
    return path


def test_cli_ground_state(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"scenario": "ground-state",
                                "grid": dict(SMALL_GRID)})
    rc = cli.main(["ground-state", "--config", cfg, "--out",
                   str(tmp_path / "runs"), "--check"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    assert "pohozaev-identity" in out["checks"]


def test_cli_spectrum_prints_its_checks(tmp_path, capsys):
    # the block-residual check holds a numpy bool; the printed JSON carries it
    cfg = _write_cfg(tmp_path, {"scenario": "spectrum", "grid": dict(SMALL_GRID)})
    rc = cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "runs")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["checks"]["block-residual"]["passed"] is True


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"scenario": "ground-state", "grid": {"d": 1}})
    rc = cli.main(["ground-state", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "grid" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # only sweep takes --workers
        cli.main(["spectrum", "--workers", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_cli_rejects_a_config_that_is_not_an_object(tmp_path, capsys):
    out = tmp_path / "runs"
    for args in (["spectrum"], ["wpm", "--sign", "1"]):
        for cfg in ([1, 2], "spectrum"):
            path = _write_cfg(tmp_path, cfg)
            assert cli.main(args + ["--config", path, "--out", str(out)]) == 2, (args, cfg)
            assert capsys.readouterr().err == \
                "invalid config:\n  config: expected a JSON object\n"
    assert not out.exists()


def test_cli_rejects_unreadable_config(tmp_path, capsys):
    path = str(tmp_path / "broken.json")
    with open(path, "w") as f:
        f.write("{not json")
    rc = cli.main(["ground-state", "--config", path])
    assert rc == 2


def test_cli_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    path = str(tmp_path / "c.json")
    with open(path, "wb") as f:
        f.write(b"\xff\xfe")
    out = tmp_path / "runs"
    assert cli.main(["classify", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error reading config %s: " % path)
    assert not out.exists()


def test_cli_requires_config_for_classify(capsys):
    assert cli.main(["classify"]) == 2
    assert "--config" in capsys.readouterr().err


def test_cli_scenario_mismatch(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"scenario": "spectrum"})
    rc = cli.main(["ground-state", "--config", cfg])
    assert rc == 2


def test_cli_wpm_sign_flag_overrides(tmp_path, capsys):
    # config parsing path only: an invalid grid keeps the run from starting,
    # but the sign must have been merged before validation
    cfg = _write_cfg(tmp_path, {"scenario": "evolve-near-solution",
                                "sign": 0, "grid": {"d": 1}})
    rc = cli.main(["wpm", "--config", cfg, "--sign", "-1",
                   "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "grid" in err and "sign" not in err
