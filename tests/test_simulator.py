import dataclasses
import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumpspec import simulator
from jumpspec.eigensystem import eigenfunctions_H
from jumpspec.funcspace import PiecewiseTrig, sin_term
from jumpspec.param import ParamA
from jumpspec.simulator import (
    CUTOFF, FAR_STRIDE, HALF_PI, N_BINS, SAMPLE_STRIDE, Z_BOUND, SimConfig, SimReport,
    _deep_margin, _Stepper, run, semigroup_check, tent_bin_probabilities,
)
from jumpspec.spectrum import SpectralCase, enumerate_spectrum
from reference_oracles import (
    every_step_walk, full_width_bridge_probabilities, restart_time_moments, root_system,
)

A0 = ParamA.from_expr("0")
# a walk watched only every dt exits as if each boundary lay
# MONITOR_BETA sqrt(2 dt) further out (Broadie, Glasserman and Kou, 1997)
MONITOR_BETA = float(-mp.zeta(0.5) / mp.sqrt(2 * mp.pi))
COARSE = 10  # groups of N_BINS // COARSE tent bins, as the benchmark's oracle takes them


def small_cfg(**kw) -> SimConfig:
    base = dict(a=A0, dt=5e-4, horizon=8.25, n_paths=2000, seed=42,
                burn_in=6.25)
    base.update(kw)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(a=A0, dt=5e-3)
    with pytest.raises(ValueError):
        SimConfig(a=A0, n_paths=0)
    for bad in (0.0, -1e-4, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="dt"):
            SimConfig(a=A0, dt=bad)
        with pytest.raises(ValueError, match="horizon"):
            SimConfig(a=A0, horizon=bad)
    for bad in (-0.05, -math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="burn_in"):
            SimConfig(a=A0, burn_in=bad)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="batch_size"):
            SimConfig(a=A0, batch_size=bad)
        with pytest.raises(ValueError, match="threads"):
            SimConfig(a=A0, threads=bad)


def test_tent_bin_probabilities_sum_to_one():
    a = ParamA.from_expr("1/3")
    edges = np.linspace(-math.pi / 2, math.pi / 2, 51)
    probs = tent_bin_probabilities(a, edges)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(probs >= 0)


def test_seeded_runs_are_bit_reproducible():
    r1 = run(small_cfg(horizon=6.75))
    r2 = run(small_cfg(horizon=6.75))
    assert r1.moment2 == r2.moment2
    assert r1.jumps_per_unit_time == r2.jumps_per_unit_time
    assert np.array_equal(r1.bin_density, r2.bin_density)
    r3 = run(small_cfg(horizon=6.75, seed=43))
    assert r3.moment2 != r1.moment2


def test_seeded_run_matches_the_recorded_report():
    # pins the per-batch Philox streams and their draw order: a change to
    # the stepper's use of the stream shows up here as a changed record
    golden = json.loads((Path(__file__).parent / "golden_run.json").read_text())
    rep = run(small_cfg(a=ParamA.from_expr("1/3"), horizon=6.45, n_paths=600,
                        batch_size=300))
    assert rep.to_dict() == golden


def test_moment_and_histogram_against_theory():
    rep = run(small_cfg(horizon=9.25, n_paths=4000))
    target = math.pi ** 2 / 24
    assert rep.moment2 == pytest.approx(target, rel=0.05)
    assert abs(rep.mean) < 0.02
    probs = tent_bin_probabilities(A0, rep.bin_edges)
    width = math.pi / len(probs)
    sup = np.max(np.abs(rep.bin_density * width - probs)) / width
    assert sup < 0.05


def test_dt_halving_bias_under_control():
    r_coarse = run(small_cfg(dt=8e-4, horizon=8.25, n_paths=3000, seed=5))
    r_fine = run(small_cfg(dt=4e-4, horizon=8.25, n_paths=3000, seed=5))
    # discretization shift stays within the Monte Carlo scatter
    assert abs(r_coarse.moment2 - r_fine.moment2) < 0.01
    assert abs(r_coarse.jumps_per_unit_time - r_fine.jumps_per_unit_time) < 0.05


def test_histogram_start_invariance():
    # burn-in of five relaxation times erases the starting point
    rep_a = run(small_cfg(horizon=8.25, n_paths=3000, seed=1))
    cfg_b = small_cfg(horizon=8.25, n_paths=3000, seed=2)
    rep_b = run(cfg_b)
    width = math.pi / len(rep_a.bin_density)
    sup = np.max(np.abs(rep_a.bin_density - rep_b.bin_density)) * width
    assert sup < 0.02


def _record(a: ParamA, lam: float):
    return next(r for r in enumerate_spectrum(a, lam + 1) if abs(r.lam - lam) < 1e-9)


def _gap_psi(a: ParamA) -> PiecewiseTrig:
    return eigenfunctions_H(_record(a, 4.0), a)[0].fn


def _right_midpoint(a: ParamA) -> float:
    return HALF_PI * (1 + a.value) / 2


@pytest.mark.parametrize("lam,passes", [(4.0, True), (3.6, False), (4.4, False)])
def test_gap_eigenfunction_decays_at_its_eigenvalue_and_no_other(lam, passes):
    # E_x[psi(X_t)] = exp(-4t) psi(x); a rate 10% off stands 7-11
    # standard errors out at 20000 paths
    a = ParamA.from_expr("1/3")
    cfg = SimConfig(a=a, dt=1e-3, n_paths=20_000)
    assert (semigroup_check(cfg, [_gap_psi(a)], lam, _right_midpoint(a)) <= Z_BOUND) == passes


@pytest.mark.parametrize("secular", [True, False])
def test_jordan_chain_decays_with_its_secular_term(secular):
    # (H - 36) xi = psi2 at the exceptional point of a = 1/3, so
    # E_x[xi(X_t)] = exp(-36t) (xi(x) - t psi2(x)): the algebraic
    # multiplicity 3 seen in the walk; without the t psi2 term the mean
    # stands 20 or more standard errors off at 20000 paths
    a = ParamA.from_expr("1/3")
    rec = _record(a, 36.0)
    assert rec.case is SpectralCase.EXCEPTIONAL_PAIR
    _, psi2, xi, *_ = root_system(rec, a)
    chain = [xi.fn, psi2.fn] if secular else [xi.fn]
    cfg = SimConfig(a=a, dt=1e-4, n_paths=20_000)
    assert (semigroup_check(cfg, chain, 36.0, _right_midpoint(a)) <= Z_BOUND) == secular


def test_seeded_check_matches_the_recorded_worst_z():
    # pins the check's Philox streams and its batch-order reduction, at
    # any thread count
    a = ParamA.from_expr("1/3")
    cfg = SimConfig(a=a, dt=1e-3, n_paths=2000, seed=3, batch_size=1000)
    z = semigroup_check(cfg, [_gap_psi(a)], 4.0, _right_midpoint(a))
    assert z == 3.5293248863217817
    threaded = dataclasses.replace(cfg, threads=2)
    assert semigroup_check(threaded, [_gap_psi(a)], 4.0, _right_midpoint(a)) == z


def test_check_without_a_standard_error_is_refused(monkeypatch):
    a = ParamA.from_expr("1/3")
    psi = [_gap_psi(a)]
    # an observable that does not vary leaves no standard error
    with pytest.raises(ValueError, match="no standard error"):
        semigroup_check(SimConfig(a=a, dt=1e-3, n_paths=10), [np.zeros_like], 4.0, 0.5)

    def no_walk(*args, **kwargs):
        raise AssertionError("walked a refused check")

    monkeypatch.setattr(simulator, "_walk", no_walk)
    with pytest.raises(ValueError, match="one path"):
        semigroup_check(SimConfig(a=a, n_paths=1), psi, 4.0, 0.5)
    for lam in (0.0, -4.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="lambda"):
            semigroup_check(SimConfig(a=a), psi, lam, 0.5)
    # exp(-1e5 t) decays within the first step of 1e-3
    with pytest.raises(ValueError, match="too coarse"):
        semigroup_check(SimConfig(a=a, dt=1e-3), psi, 1e5, 0.5)


def test_report_serialization():
    rep = run(small_cfg(horizon=6.45, n_paths=500))
    d = rep.to_dict()
    assert set(d) >= {"bin_edges", "bin_density", "moment2",
                      "jumps_per_unit_time", "time_units"}
    assert isinstance(rep, SimReport)


def test_threaded_partition_reproducible():
    cfg1 = small_cfg(horizon=6.75, n_paths=2000, batch_size=1000, threads=2)
    cfg2 = small_cfg(horizon=6.75, n_paths=2000, batch_size=1000, threads=1)
    # same batch partition, different scheduling: identical results
    assert run(cfg1).moment2 == run(cfg2).moment2




def _paths_near_the_boundary(n: int, h: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Start points spread over the interval, half of them within ten step
    lengths of a boundary, and one step of length h from each."""
    rng = np.random.default_rng(seed)
    reach = 10 * math.sqrt(2 * h)
    far = rng.uniform(-math.pi / 2, math.pi / 2, n - n // 2)
    near = np.sign(rng.uniform(-1, 1, n // 2)) * (math.pi / 2 - rng.uniform(0, reach, n // 2))
    x0 = np.concatenate([far, near])
    return x0, x0 + math.sqrt(2 * h) * rng.standard_normal(n)


def _full_width_hits(x0: np.ndarray, x1: np.ndarray, h, rng) -> np.ndarray:
    """Indices of the steps x0 -> x1 over time h (scalar or per step) that
    hit a boundary by the full-width rule: one uniform from rng, in path
    order, for each step whose probability exceeds exp(-CUTOFF)."""
    upper, lower = full_width_bridge_probabilities(x0, x1, h)
    prob = upper + lower
    cand = np.flatnonzero(prob > math.exp(-CUTOFF))
    return cand[rng.random(len(cand)) < prob[cand]]


def _replay_exact_step(x0: np.ndarray, h: float, restart: float,
                       rng) -> tuple[np.ndarray, int, int]:
    """The exact step as the module docstring states it, on the stream rng:
    per link, one normal per moving path, the full-width hit rule, then a
    normal and a uniform per hit for its Wald variate, drawn here by the
    textbook Michael-Schucany-Haas formula.  Returns the positions, the
    restarts and the links."""
    x = x0.copy()
    paths, start, left = np.arange(len(x0)), x0, np.full(len(x0), h)
    n_hit = links = 0
    while len(paths):
        start = np.broadcast_to(start, paths.shape)
        x1 = start + np.sqrt(2 * left) * rng.standard_normal(len(paths))
        x[paths] = x1
        hit = _full_width_hits(start, x1, left, rng)
        b = np.where(start[hit] + x1[hit] >= 0, HALF_PI, -HALF_PI)
        alpha, beta, h_hit = np.abs(b - start[hit]), np.abs(b - x1[hit]), left[hit]
        mu, lam = alpha / beta, alpha ** 2 / (2 * h_hit)
        y = rng.standard_normal(len(hit)) ** 2
        root = mu + mu * mu * y / (2 * lam) - mu / (2 * lam) * np.sqrt(
            4 * mu * lam * y + (mu * y) ** 2)
        wald = np.where(rng.random(len(hit)) <= mu / (mu + root), root, mu * mu / root)
        paths, start, left = paths[hit], restart, h_hit / (1 + wald)
        x[paths] = restart
        n_hit += len(hit)
        links += 1
    return x, n_hit, links


@pytest.mark.parametrize("h", [1e-3, 5e-4, 1e-4, 1e-7])
def test_candidate_probabilities_equal_the_full_width_rule_bit_for_bit(h):
    # the boundary on the side of each step's midpoint carries the whole
    # full-width probability, the other one's underflowing to 0: the
    # stepper draws the same uniforms and takes the same hits
    x0, x1 = _paths_near_the_boundary(4000, h, seed=11)
    hit, left = _Stepper(h, True, np.random.Generator(np.random.Philox(key=6)))._hits(x0, x1, h)
    want = _full_width_hits(x0, x1, h, np.random.Generator(np.random.Philox(key=6)))
    assert np.array_equal(hit, want)
    upper, lower = full_width_bridge_probabilities(x0, x1, h)
    assert np.any(upper[hit] + lower[hit] >= 1.0)  # direct crossings among them
    assert 0 < len(hit) < np.count_nonzero(upper + lower > math.exp(-CUTOFF)) < len(x0)
    assert np.all((left >= 0) & (left <= h))


def test_bridge_step_draws_normals_then_one_uniform_per_candidate():
    # a restart point 0.02 from the boundary makes restarted paths hit again
    dt, seed, restart = 1e-3, 5, 1.55
    x0, _ = _paths_near_the_boundary(3000, dt, seed=12)
    x = x0.copy()
    stepper = _Stepper(dt, True, np.random.Generator(np.random.Philox(key=seed)))
    n_hit = stepper.exact(x, restart, dt)
    want, hits, links = _replay_exact_step(
        x0, dt, restart, np.random.Generator(np.random.Philox(key=seed)))
    assert n_hit == hits > 0 and links >= 3
    # the replay's textbook Wald roots agree with the stepper's to rounding
    np.testing.assert_allclose(x, want, rtol=0, atol=1e-9)


def test_hit_time_follows_levys_first_passage_law():
    # a path from distance alpha of a boundary has hit it by time t with
    # probability erfc(alpha / (2 sqrt t)) at quadratic variation 2
    h, alpha, n = 5e-3, 0.08, 400_000
    stepper = _Stepper(1e-3, True, np.random.Generator(np.random.Philox(key=3)))
    x0 = np.full(n, HALF_PI - alpha)
    x1 = x0 + math.sqrt(2 * h) * np.random.default_rng(4).standard_normal(n)
    hit, left = stepper._hits(x0, x1, h)
    hit_time = h - left
    assert np.all((hit_time >= 0) & (hit_time <= h))
    for frac in (0.1, 0.25, 0.5, 0.75, 1.0):
        p = math.erfc(alpha / (2 * math.sqrt(frac * h)))
        seen = np.count_nonzero(hit_time <= frac * h * (1 + 1e-12)) / n
        assert abs(seen - p) <= 4 * math.sqrt(p * (1 - p) / n), frac


def test_exact_step_is_finite_at_a_zero_beta_and_at_the_longest_stride():
    # the far boundary, pi or more away once reflected, stays below the
    # cutoff at the longest stride
    assert math.exp(-math.pi ** 2 / (4 * FAR_STRIDE)) < math.exp(-CUTOFF)
    rng = np.random.Generator(np.random.Philox(key=9))
    stepper = _Stepper(1e-3, True, rng)
    for b in (HALF_PI, -HALF_PI):
        # x1 exactly on the boundary: beta = 0, a certain hit
        x0 = b * np.array([0.2, 0.9, 0.999, 1 - 2.0 ** -52])
        hit, left = stepper._hits(x0, np.full(4, b), FAR_STRIDE)
        assert hit.tolist() == [0, 1, 2, 3]
        assert np.all((left >= 0) & (left <= FAR_STRIDE))
    for restart in (0.0, 1.57, -1.57):
        x, _ = _paths_near_the_boundary(4000, FAR_STRIDE, seed=13)
        x[:2] = HALF_PI - 2 * math.ulp(HALF_PI), -HALF_PI + 2 * math.ulp(HALF_PI)
        n_hit = stepper.exact(x, restart, FAR_STRIDE)
        assert n_hit > 0
        assert np.all(np.abs(x) < HALF_PI)


def _rate_standard_error(a: ParamA, rep: SimReport, widen: float = 0.0) -> float:
    """Renewal CLT standard error of a run's jump rate over its simulated
    time T, Var(tau) / (E[tau]^3 T), the boundary moved out by `widen`."""
    mean, var = restart_time_moments(a, widen)
    return math.sqrt(var / mean ** 3 / rep.time_units)


@pytest.mark.parametrize("expr", ["0", "1/3"])
def test_jump_rate_within_four_renewal_standard_errors(expr):
    a = ParamA.from_expr(expr)
    rep = run(small_cfg(a=a, dt=5e-4))
    mean, _ = restart_time_moments(a)
    expected = 8 / (math.pi ** 2 * (1 - a.value ** 2))
    assert expected == pytest.approx(1 / mean, rel=1e-15)
    assert abs(rep.jumps_per_unit_time - expected) <= 4 * _rate_standard_error(a, rep)


def test_rate_divides_by_the_stepped_time():
    # both horizons round to 6260 steps at dt 1e-3, ten after the burn-in
    reps = [run(SimConfig(a=A0, dt=1e-3, horizon=h, n_paths=500, seed=1))
            for h in (6.2605, 6.2595)]
    assert reps[0].time_units == reps[1].time_units == 500 * 10 * 1e-3
    assert reps[0].jumps_per_unit_time == reps[1].jumps_per_unit_time


def _coarse_tent(a: ParamA, widen: float = 0.0) -> np.ndarray:
    """Masses of the COARSE bin groups under the stationary tent of the
    interval widened by `widen` on each side, restarting at pi a/2, as a
    share of its mass inside (-pi/2, pi/2): the tent of (-pi/2, pi/2)
    with a and the bin edges scaled by pi/2 / (pi/2 + widen)."""
    scale = HALF_PI / (HALF_PI + widen)
    edges = np.linspace(-HALF_PI, HALF_PI, N_BINS + 1) * scale
    probs = tent_bin_probabilities(dataclasses.replace(a, value=a.value * scale), edges)
    return (probs / probs.sum()).reshape(COARSE, -1).sum(axis=1)


def _coarse_masses(rep: SimReport) -> np.ndarray:
    return (rep.bin_density * np.diff(rep.bin_edges)).reshape(COARSE, -1).sum(axis=1)


def _run_with_path_masses(cfg: SimConfig, walk=None) -> tuple[SimReport, np.ndarray]:
    """run(cfg), and each path's occupation fractions of the COARSE bin
    groups over the samples run bins, seen by wrapping the walker (the
    simulator's, or `walk`).  Paths are independent, so the spread of
    these rows bounds the bin masses without a model of their variance."""
    walk = walk or simulator._walk
    rows = []

    def watched(cfg, key, n_paths, x0, n_steps, sample_steps, observe, count_after=0):
        counts = np.zeros((n_paths, COARSE))
        paths = np.arange(n_paths)

        def observe_paths(x):
            observe(x)
            bins = np.clip(((x + HALF_PI) * (N_BINS / math.pi)).astype(np.int64), 0, N_BINS - 1)
            counts[paths, bins // (N_BINS // COARSE)] += 1

        jumps = walk(cfg, key, n_paths, x0, n_steps, sample_steps, observe_paths, count_after)
        rows.append(counts / len(sample_steps))
        return jumps

    with pytest.MonkeyPatch.context() as mp_ctx:
        mp_ctx.setattr(simulator, "_walk", watched)
        rep = run(cfg)
    masses = np.concatenate(rows)
    np.testing.assert_allclose(masses.mean(axis=0), _coarse_masses(rep), rtol=0, atol=1e-12)
    return rep, masses


def _mass_mean_and_se(masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return masses.mean(axis=0), masses.std(axis=0, ddof=1) / math.sqrt(len(masses))


def _renewal_occupation_standard_errors(a: ParamA, rep: SimReport,
                                        probs: np.ndarray) -> np.ndarray:
    """p(1-p) E[tau^2] / (E[tau] T) for each mass p over a run's time T: the
    variance if each cycle between restarts spent all of its time in or
    out of the bins.  It overstates the spread of the masses some 4-6x,
    so a bin check built on it has little power."""
    mean, var = restart_time_moments(a)
    return np.sqrt(probs * (1 - probs) * (var + mean ** 2) / (mean * rep.time_units))


@pytest.mark.parametrize("expr,dt,burn_in,horizon", [
    ("1/3", 5e-4, 2.0, 4.0), ("1/3", 1e-4, 2.0, 4.0),
    ("9/10", 5e-4, 2.0, 4.0), ("9/10", 1e-4, 2.0, 4.0),
    ("99/100", 5e-4, 2.0, 4.0), ("99/100", 1e-4, 2.0, 4.0),
    ("-99/100", 5e-4, 2.0, 4.0), ("-99/100", 1e-4, 2.0, 4.0),
    ("999/1000", 5e-4, 2.0, 3.25), ("999/1000", 1e-4, 1.5, 2.25)])
def test_jump_rate_has_no_boundary_bias(expr, dt, burn_in, horizon):
    # a fine-step bridge that restarts hits at the end of their step reads
    # the rate at 999/1000, dt 5e-4 about 15% low: -5.7 standard errors here
    a = ParamA.from_expr(expr)
    rep, masses = _run_with_path_masses(SimConfig(
        a=a, dt=dt, n_paths=2000, burn_in=burn_in, horizon=horizon, seed=21))
    expected = 8 / (math.pi ** 2 * (1 - a.value ** 2))
    assert abs(rep.jumps_per_unit_time - expected) <= 4 * _rate_standard_error(a, rep)
    mean, se = _mass_mean_and_se(masses)
    assert np.all(np.abs(mean - _coarse_tent(a)) <= 4 * se)


def test_path_spread_bin_check_catches_a_tilted_restart_the_renewal_bound_misses():
    # restart at pi/5 while the tent of a = 1/3 peaks at pi/6
    a, tilted = ParamA.from_expr("1/3"), ParamA.from_expr("1/3 + 1/15")
    probs = _coarse_tent(a)
    for run_a, caught in ((a, False), (tilted, True)):
        rep, masses = _run_with_path_masses(small_cfg(a=run_a, seed=3))
        mean, se = _mass_mean_and_se(masses)
        assert np.any(np.abs(mean - probs) > 4 * se) == caught
        renewal_se = _renewal_occupation_standard_errors(a, rep, probs)
        assert np.all(np.abs(mean - probs) <= 4 * renewal_se)


@pytest.mark.parametrize("bridge", [True, False])
@pytest.mark.parametrize("expr", ["0", "1/3", "9/10"])
def test_stride_walker_agrees_with_the_every_step_walker(expr, bridge):
    # both walks start at the restart point, a renewal epoch, and follow
    # one law: the renewal standard errors hold from time 0, and the
    # start-up shift of the rate, the same for both, cancels
    a = ParamA.from_expr(expr)
    dt = 5e-4
    cfg = dict(a=a, dt=dt, horizon=4.25, burn_in=0.0, bridge_correction=bridge)
    new, new_masses = _run_with_path_masses(small_cfg(seed=7, **cfg))
    old, old_masses = _run_with_path_masses(small_cfg(seed=8, **cfg), walk=every_step_walk)
    assert old.time_units == new.time_units
    widen = 0.0 if bridge else MONITOR_BETA * math.sqrt(2 * dt)
    # two runs of equal length on different seeds: the difference has sqrt(2) se
    rate_se = _rate_standard_error(a, new, widen)
    assert abs(new.jumps_per_unit_time - old.jumps_per_unit_time) <= 4 * math.sqrt(2) * rate_se
    (new_mean, new_se), (old_mean, old_se) = map(_mass_mean_and_se, (new_masses, old_masses))
    assert np.all(np.abs(new_mean - old_mean) <= 4 * np.hypot(new_se, old_se))


@pytest.mark.parametrize("bridge", [True, False])
def test_stride_draws_the_deep_normals_then_the_steps_of_the_other_paths(bridge):
    # with the bridge a stride is one exact step of S dt (replayed link by
    # link); without it, deep paths take one normal and the others S steps
    dt, seed, n = 1e-3, 5, SAMPLE_STRIDE
    restart = 1.55 if bridge else 0.25
    x0, _ = _paths_near_the_boundary(3000, dt, seed=12)
    x = x0.copy()
    stepper = _Stepper(dt, bridge, np.random.Generator(np.random.Philox(key=seed)))
    n_hit = stepper.stride(x, restart, n)

    replay = np.random.Generator(np.random.Philox(key=seed))
    if bridge:
        want, hits, links = _replay_exact_step(x0, n * dt, restart, replay)
        assert n_hit == hits > 0 and links >= 3
        np.testing.assert_allclose(x, want, rtol=0, atol=1e-9)
        return
    deep = np.abs(x0) <= _deep_margin(dt, n)
    assert 0 < np.count_nonzero(deep) < len(x0)
    want = x0.copy()
    want[deep] += math.sqrt(2 * n * dt) * replay.standard_normal(np.count_nonzero(deep))
    shallow = want[~deep]
    hits = 0
    for _ in range(n):
        shallow = shallow + math.sqrt(2 * dt) * replay.standard_normal(len(shallow))
        hit = np.flatnonzero(np.abs(shallow) >= HALF_PI)
        shallow[hit] = restart
        hits += len(hit)
    want[~deep] = shallow
    assert n_hit == hits > 0
    assert np.array_equal(x, want)


@settings(max_examples=300, deadline=None)
@given(dt=st.sampled_from([1e-3, 5e-4, 1e-4]) | st.floats(min_value=1e-200, max_value=1e-3),
       stride=st.integers(min_value=1, max_value=SAMPLE_STRIDE))
def test_deep_paths_reach_the_threshold_within_a_stride_below_the_cutoff(dt, stride):
    # P(sup over time stride*dt of |B_t - B_0| >= D) <= 2 exp(-D^2 / (4 stride dt))
    # for quadratic variation 2; D is the distance the code leaves to pi/2
    dist = HALF_PI - _deep_margin(dt, stride)
    assert 2 * math.exp(-dist ** 2 / (4 * stride * dt)) <= math.exp(-CUTOFF)


def test_run_without_the_bridge_exits_as_if_the_boundary_lay_further_out():
    # exits seen only at the steps: the renewal rate and the tent of the
    # interval widened by MONITOR_BETA sqrt(2 dt) on each side (the exact
    # tent misses the mass next to the boundaries, the last group by 4-5 se)
    a, dt = ParamA.from_expr("1/3"), 5e-4
    rep, masses = _run_with_path_masses(small_cfg(a=a, dt=dt, bridge_correction=False))
    widen = MONITOR_BETA * math.sqrt(2 * dt)
    mean, _ = restart_time_moments(a, widen)
    assert abs(rep.jumps_per_unit_time - 1 / mean) <= 4 * _rate_standard_error(a, rep, widen)
    mass_mean, se = _mass_mean_and_se(masses)
    assert np.all(np.abs(mass_mean - _coarse_tent(a, widen)) <= 4 * se)


def test_walks_over_the_work_budget_are_refused_before_any_walk(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("walked a run over the work budget")

    monkeypatch.setattr(simulator, "_walk", no_walk)
    g = PiecewiseTrig.single([sin_term(1.0, 2.0)])
    a = ParamA.from_expr("1/3")
    # 10 paths over horizon 10 at dt 1e-7 sample 3.75e7 times; without the
    # bridge, 1e5 paths step the check's 1.2 in strides of 10 fine steps
    with pytest.raises(ValueError, match="work budget"):
        run(SimConfig(a=a, dt=1e-7, horizon=10.0, n_paths=10))
    cfg = SimConfig(a=a, dt=1e-6, horizon=7.0, n_paths=100_000, bridge_correction=False)
    with pytest.raises(ValueError, match="work budget"):
        semigroup_check(cfg, [g], 4.0, 0.5)


@pytest.mark.parametrize("horizon", [1.0, 10.0])
def test_steps_beyond_an_exact_integer_count_are_refused(horizon):
    # horizon / dt was inf here, and run's int(round(...)) of it raised
    with pytest.raises(ValueError, match="2\\*\\*53"):
        SimConfig(a=ParamA.from_expr("1/3"), dt=5e-324, horizon=horizon)


@pytest.mark.parametrize("paths,horizon,dt,bridge", [
    (2000, 8.25, 5e-4, True), (2000, 8.25, 5e-4, False),  # the benchmark's runs
    (10_000, 10.0, 1e-4, True),  # the CLI defaults
    (10, 10.0, 1e-6, True),
])
def test_the_work_budget_admits_the_documented_runs(paths, horizon, dt, bridge):
    cfg = SimConfig(a=ParamA.from_expr("1/3"), dt=dt, horizon=horizon, n_paths=paths,
                    bridge_correction=bridge)
    simulator._check_work(cfg, horizon, (horizon - cfg.burn_in) / (simulator.SAMPLE_STRIDE * dt))
    simulator.check_steps(cfg, 4.0)


def test_runs_over_the_restart_budget_are_refused_before_any_walk(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("walked a run over the restart budget")

    monkeypatch.setattr(simulator, "_walk", no_walk)
    g = PiecewiseTrig.single([sin_term(1.0, 2.0)])
    # 5.7e8 and 5.7e12 restarts at 200 paths over horizon 7; the check's
    # walk lasts to its last sample, 1.2 at lambda = 4
    for expr in ("999999/1000000", "1-1/10000000000"):
        cfg = SimConfig(a=ParamA.from_expr(expr), dt=5e-4, horizon=7.0, n_paths=200)
        with pytest.raises(ValueError, match="budget"):
            run(cfg)
        with pytest.raises(ValueError, match="budget"):
            semigroup_check(cfg, [g], 4.0, 0.5)
