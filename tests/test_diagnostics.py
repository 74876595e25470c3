"""Modulation fitting, rate estimation, and trace classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from nlslab import diagnostics as dg
from nlslab import discretization as dz
from nlslab import evolver as ev
from nlslab import ground_state as gs


def test_fit_modulation_recovers_exact_member(grid):
    u = gs.w_family(0.7, 1.3, grid)
    fit = dg.fit_modulation(u, grid)
    assert fit.theta == pytest.approx(0.7, abs=1e-8)
    assert fit.mu == pytest.approx(1.3, abs=1e-6)
    assert fit.distance < 1e-4


def test_fit_modulation_distance_of_perturbation(grid):
    bump = 0.01 * np.exp(-(grid.r - 8) ** 2)
    u = gs.w_family(0.0, 1.0, grid) + bump
    fit = dg.fit_modulation(u, grid)
    size = np.sqrt(dz.kinetic_sq(bump, grid))
    assert fit.distance == pytest.approx(size, rel=0.2)
    with pytest.raises(ValueError):
        dg.fit_modulation(np.zeros(grid.nnodes, complex), grid)


@settings(max_examples=15, deadline=None)
@given(st.floats(-1.4, 1.4), st.floats(0.6, 1.8))
def test_fit_modulation_recovers_random_members(theta, mu):
    g = dz.build_grid(6, 40.0, 400)
    fit = dg.fit_modulation(gs.w_family(theta, mu, g), g)
    assert fit.theta == pytest.approx(theta, abs=1e-6)
    assert fit.mu == pytest.approx(mu, abs=1e-4)


def _dist2_at(u, mu, grid):
    """Squared distance to W_mu at its optimal phase, from the complex
    field difference (the reference the fit's real arithmetic must match)."""
    Wm = gs.w_family(0.0, mu, grid)
    th = np.angle(dz.h1_inner(Wm, u, grid))
    return dz.kinetic_sq(u - np.exp(1j * th) * Wm, grid)


def test_fit_modulation_distance_is_the_direct_minimum(grid, background):
    # W plus a bump; a scaled W focused past the amplitude threshold
    # (max|u| ~ 98 > 10 max W); a field far from the family
    cfg = ev.EvolverConfig(dt=0.005, t_span=(0.0, 2.5), sample_every=0.5,
                           track_modulation=False)
    focused = ev.evolve((1.8 * gs.sample_w(grid)).astype(complex), cfg,
                        background).final_state
    fields = [gs.w_family(0.0, 1.0, grid) + 0.01 * np.exp(-(grid.r - 8) ** 2),
              focused,
              np.exp(-(grid.r / 3) ** 2) * (1 + 0.8j * np.cos(grid.r))]
    assert np.max(np.abs(focused)) > 10.0
    for u in fields:
        fit = dg.fit_modulation(u, grid)
        assert not fit.diagnostics["at_bracket_edge"]
        d2 = fit.distance ** 2
        direct = dz.kinetic_sq(u - gs.w_family(fit.theta, fit.mu, grid), grid)
        assert d2 == pytest.approx(direct, rel=1e-12)
        for mu in (fit.mu * (1 - 1e-5), fit.mu * (1 + 1e-5)):
            assert _dist2_at(u, mu, grid) >= d2


def _scipy_bounded(func, bounds):
    res = minimize_scalar(func, bounds=bounds, method="bounded",
                          options={"xatol": 1e-10})
    return float(res.x), int(res.nfev)


def test_bounded_min_matches_scipy_on_a_smooth_battery():
    rng = np.random.default_rng(11)
    for i in range(300):
        c = rng.uniform(-3.0, 3.0, 4)
        lo = rng.uniform(-5.0, 1.0)
        bounds = (lo, lo + rng.uniform(0.01, 10.0))
        fs = [lambda x: (1 + c[1] ** 2) * (x - c[0]) ** 2 + c[2],
              lambda x: math.cos(c[0] * x) + 0.1 * (x - c[1]) ** 2,
              lambda x: abs(x - c[0]) ** 1.5 + c[3] * math.sin(x),
              lambda x: math.exp(c[1] * x) - c[2] * x]
        f = fs[i % len(fs)]
        x, (fx, tag), nfev = dg._bounded_min(lambda x: (f(x), "at %r" % x), *bounds)
        assert (x, nfev) == _scipy_bounded(f, bounds)
        assert fx == f(x) and tag == "at %r" % x


def test_fit_modulation_search_matches_scipy(grid, background, monkeypatch):
    # the three fields of the direct-minimum test: scipy's search on the
    # fit's own objective picks the same mu with the same number of evaluations
    searches = []
    port = dg._bounded_min

    def spy(func, a, b):
        searches.append((func, a, b))
        return port(func, a, b)
    monkeypatch.setattr(dg, "_bounded_min", spy)
    cfg = ev.EvolverConfig(dt=0.005, t_span=(0.0, 2.5), sample_every=0.5,
                           track_modulation=False)
    focused = ev.evolve((1.8 * gs.sample_w(grid)).astype(complex), cfg,
                        background).final_state
    fields = [gs.w_family(0.0, 1.0, grid) + 0.01 * np.exp(-(grid.r - 8) ** 2),
              focused,
              np.exp(-(grid.r / 3) ** 2) * (1 + 0.8j * np.cos(grid.r))]
    for u in fields:
        fit = dg.fit_modulation(u, grid)
        func, a, b = searches[-1]
        assert [a, b] == fit.diagnostics["bracket"]
        mu, nfev = _scipy_bounded(lambda m: func(m)[0], (a, b))
        assert (fit.mu, fit.diagnostics["nfev"]) == (mu, nfev)
        d2, th = func(mu)
        assert (fit.distance, fit.theta) == (np.sqrt(d2), th)
    assert len(searches) == 3


def test_fit_modulation_flags_bracket_edge(grid):
    u = gs.w_family(0.0, 3.0, grid)
    fit = dg.fit_modulation(u, grid)
    assert fit.diagnostics["at_bracket_edge"] is False
    assert fit.mu == pytest.approx(3.0, abs=1e-6)


def test_fit_modulation_refits_past_the_seeded_bracket_edge(grid, background):
    # a focusing 1.8 W leaves the amplitude-seeded bracket from t ~ 2.44; the
    # refit past the hit edge reports what scipy's bounded search of the
    # direct distance finds on the wide bracket (0.01, 10), and the trace
    # records that fit
    u0 = (1.8 * gs.sample_w(grid)).astype(complex)

    def config(t_end, track):
        return ev.EvolverConfig(dt=0.005, t_span=(0.0, t_end), sample_every=0.05,
                                track_modulation=track)

    trace = ev.evolve(u0, config(30.0, True), background)
    hits = 0
    for t, mu, dist in zip(trace.times, trace.mu, trace.h1_dist):
        if t < 2.44:
            continue
        u = ev.evolve(u0, config(t, False), background).final_state
        fit = dg.fit_modulation(u, grid)
        if not fit.diagnostics["at_bracket_edge"]:
            continue
        hits += 1
        wide_mu, _ = _scipy_bounded(lambda m: _dist2_at(u, m, grid), (0.01, 10.0))
        assert min(wide_mu - 0.01, 10.0 - wide_mu) > 1e-6 * (10.0 - 0.01)
        assert (fit.mu, fit.distance) == (mu, dist)
        assert fit.mu == pytest.approx(wide_mu, rel=1e-6)
        assert fit.distance == pytest.approx(np.sqrt(_dist2_at(u, wide_mu, grid)), rel=1e-9)
    assert hits == trace.modulation["edge_hits"] >= 2


def test_rate_fit_exact_exponential():
    t = np.linspace(0.0, 20.0, 41)
    d = 3.0 * np.exp(-0.21 * t)
    fit = dg.rate_fit(t, d, floor=1e-12)
    assert fit.rate == pytest.approx(0.21, abs=1e-12)
    assert np.exp(fit.intercept) == pytest.approx(3.0, rel=1e-12)
    assert fit.residual < 1e-12
    assert fit.flags == []


def test_rate_fit_trims_floor_window():
    t = np.linspace(0.0, 40.0, 81)
    d = np.exp(-0.5 * t) + 1e-6  # floors out around t ~ 27
    fit = dg.rate_fit(t, d, floor=1e-6)
    assert fit.window[1] < 30.0
    assert fit.rate == pytest.approx(0.5, rel=0.05)


def test_rate_fit_flags_non_decaying():
    t = np.linspace(0.0, 10.0, 21)
    fit = dg.rate_fit(t, np.full_like(t, 0.3), floor=1e-9)
    assert "non-decaying" in fit.flags


def test_rate_fit_error_cases():
    t = np.linspace(0.0, 10.0, 21)
    with pytest.raises(ValueError):
        dg.rate_fit(t, np.full_like(t, 1e-12), floor=1.0)
    with pytest.raises(ValueError):
        dg.rate_fit(t[:3], np.exp(-t[:3]), floor=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, 2.0), st.floats(-2.0, 2.0))
def test_rate_fit_recovers_random_rates(rate, logc):
    t = np.linspace(0.0, 8.0, 33)
    fit = dg.rate_fit(t, np.exp(logc - rate * t), floor=1e-15)
    assert fit.rate == pytest.approx(rate, rel=1e-9)


# ---------------------------------------------------------------------------
# trace-level diagnostics on synthetic traces

def _trace(background, times, kinetic, energy=None, h1_dist=None,
           status="completed"):
    cfg = ev.EvolverConfig(dt=0.01, t_span=(times[0], times[-1]),
                           sample_every=0.5, track_modulation=True)
    tr = ev.EvolutionTrace(background, cfg)
    tr.times = list(times)
    tr.kinetic = list(kinetic)
    tr.energy = list(energy if energy is not None else np.ones_like(times))
    tr.max_amp = [1.0] * len(times)
    tr.h1_dist = list(h1_dist if h1_dist is not None
                      else np.full(len(times), np.nan))
    tr.theta = [0.0] * len(times)
    tr.mu = [1.0] * len(times)
    tr.termination = {"status": status}
    return tr


def test_kinetic_dichotomy_sides(grid, background):
    kin_w = np.sqrt(dz.kinetic_sq(gs.sample_w(grid), grid))
    t = np.linspace(0, 5, 11)
    side, viol = dg.kinetic_dichotomy(
        _trace(background, t, 0.9 * kin_w * np.ones(11)))
    assert side == "below" and viol == []
    side, viol = dg.kinetic_dichotomy(
        _trace(background, t, 1.1 * kin_w * np.ones(11)))
    assert side == "above" and viol == []
    kin = 1.1 * kin_w * np.ones(11)
    kin[4] = 0.9 * kin_w
    side, viol = dg.kinetic_dichotomy(_trace(background, t, kin))
    assert side == "mixed" and viol == [t[4]]
    side, _ = dg.kinetic_dichotomy(_trace(background, t, kin_w * np.ones(11)))
    assert side == "at"


def test_classify_blowup(background):
    t = np.linspace(0, 3, 7)
    tr = _trace(background, t, np.ones(7), status="blowup-detected")
    rep = dg.classify(tr)
    assert rep.regime == "blowup"
    assert rep.details["termination"]["status"] == "blowup-detected"


def test_classify_converges_to_w(grid, background):
    kin_w = np.sqrt(dz.kinetic_sq(gs.sample_w(grid), grid))
    t = np.linspace(0, 30, 61)
    dist = 2.0 * np.exp(-0.14 * t)
    K = kin_w * np.ones_like(t)
    E = 0.2 * K ** 2
    tr = _trace(background, t, 0.99 * K, energy=E, h1_dist=dist)
    rep = dg.classify(tr)
    assert rep.regime == "converges-to-W"
    assert rep.rate.rate == pytest.approx(0.14, rel=0.05)


def _rule_times(trace):
    """The sample times at which the evolver's scattering rule holds, the
    reflection horizon aside, recomputed from the trace's s_crit column."""
    t, s, S, out = trace.times, trace.s_crit, 0.0, []
    for k in range(1, len(t)):
        span = abs(t[k] - t[k - 1])
        S += 0.5 * (s[k - 1] + s[k]) * span
        if (0 < s[k] < s[k - 1] and s[k] * span / math.log(s[k - 1] / s[k])
                < dg.THRESHOLDS["tail_fraction"] * S):
            out.append(t[k])
    return out


def _evolve(u0, background, t1, dt=0.01):
    cfg = ev.EvolverConfig(dt=dt, t_span=(0.0, t1), sample_every=0.5,
                           track_modulation=False)
    return ev.evolve(u0.astype(complex), cfg, background)


def test_classify_scattering_detected(grid, background):
    # the subcritical gaussian pulse of the field-file scenario test: its
    # critical norm settles within a few time units, far inside the horizon
    trace = _evolve(0.8 * np.exp(-grid.r ** 2 / 4), background, 15.0)
    term = trace.termination
    assert term["status"] == "scattering-detected"
    assert term["t_decision"] == trace.times[-1] == _rule_times(trace)[0]
    assert term["t_decision"] < trace.reflection["horizon_elapsed"]
    assert trace.steps == round(term["t_decision"] / 0.01) < 1500
    assert 0 < term["tail"] < dg.THRESHOLDS["tail_fraction"] * term["S"]
    rep = dg.classify(trace)
    assert rep.regime == "scattering-proxy"
    assert rep.details["termination"] == term
    assert rep.thresholds["tail_fraction"] == 0.01


@pytest.mark.parametrize("mu", [1.0, 4.0])
def test_stationary_w_never_fires_the_scattering_rule(grid, background, mu):
    # s(t) of W_mu stays at mu^-2 (units of W's, up to the box): no floor on
    # s is needed, the rule needs s to fall and S to settle
    trace = _evolve(gs.w_family(0.0, mu, grid), background, 20.0)
    assert trace.termination["status"] == "completed"
    assert trace.steps == 2000
    assert _rule_times(trace) == []
    assert np.allclose(trace.s_crit, mu ** -2, rtol=0.02)
    assert dg.classify(trace).regime == "undetermined"


def test_scattering_past_the_horizon_is_undetermined():
    # 0.999 W in a box of r_max = 20 disperses, but its critical norm settles
    # only after the reflection horizon: the run completes its span
    g = dz.build_grid(6, 20.0, 400)
    bg = gs.Background(g)
    trace = _evolve(0.999 * bg.W, bg, 120.0)
    horizon = trace.reflection["horizon_elapsed"]
    assert trace.termination["status"] == "completed"
    assert trace.steps == 12000
    assert trace.reflection["horizon_exceeded"] is True
    late = _rule_times(trace)
    assert late and min(late) > horizon
    rep = dg.classify(trace)
    assert rep.regime == "undetermined"
    assert "reflection_horizon" not in rep.details


def test_classify_undetermined(background):
    t = np.linspace(0, 10, 21)
    K = np.ones_like(t)
    E = 0.2 * K ** 2  # no distance data, no termination
    tr = _trace(background, t, K, energy=E)
    rep = dg.classify(tr)
    assert rep.regime == "undetermined"
    out = rep.as_dict()
    assert out["regime"] == "undetermined"
    assert "thresholds" in out
