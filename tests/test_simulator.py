import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumpspec import simulator
from jumpspec.cli import NUMERICAL_FAILURES
from jumpspec.funcspace import PiecewiseTrig, const, inner_closed, sin_term
from jumpspec.param import ParamA
from jumpspec.simulator import (
    CUTOFF, HALF_PI, SAMPLE_STRIDE, ObservableOrthogonalToGapMode, RelaxationBelowNoise,
    SimConfig, SimReport, _bridge_margin, _bridge_probabilities, _deep_margin, _Stepper,
    estimate_gap, run, stationary_density, tent_bin_probabilities,
)
from reference_oracles import (
    every_step_walk, full_width_bridge_probabilities, restart_time_moments,
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


def test_stationary_density_normalized():
    for expr in ("0", "1/3", "sqrt(2)-1"):
        a = ParamA.from_expr(expr)
        p = stationary_density(a)
        mass = inner_closed(PiecewiseTrig.single([const(1.0)]), p).real
        assert mass == pytest.approx(1.0, abs=1e-12)
        xs = np.linspace(-math.pi / 2, math.pi / 2, 101)
        assert np.all(p(xs).real >= -1e-12)


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


def test_gap_estimate_cheap():
    cfg = SimConfig(a=A0, dt=5e-4, horizon=1.5, n_paths=12000, seed=3,
                    batch_size=4000)
    g = PiecewiseTrig.single([sin_term(1.0, 2.0)])
    gap, err = estimate_gap(cfg, g)
    assert gap == pytest.approx(4.0, rel=0.25)
    assert err < 2.0
    # the recorded seeded result: pins the gap walk's streams
    assert (gap, err) == (3.8136523309162618, 0.3458126099984285)


def test_gap_signal_lost_in_noise_is_a_typed_numerical_failure():
    cfg = SimConfig(a=A0, dt=1e-3, horizon=1.5, n_paths=20, seed=3, batch_size=5)
    with pytest.raises(RelaxationBelowNoise, match="below noise"):
        estimate_gap(cfg, PiecewiseTrig.single([sin_term(1.0, 2.0)]))
    assert RelaxationBelowNoise in NUMERICAL_FAILURES


def test_orthogonal_observable_rejected():
    cfg = small_cfg()
    with pytest.raises(ObservableOrthogonalToGapMode):
        estimate_gap(cfg, PiecewiseTrig.single([const(1.0)]))


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


def _paths_near_the_boundary(n: int, dt: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Start points spread over the interval, half of them within ten step
    lengths of a boundary, and one Euler step from each."""
    rng = np.random.default_rng(seed)
    reach = 10 * math.sqrt(2 * dt)
    far = rng.uniform(-math.pi / 2, math.pi / 2, n - n // 2)
    near = np.sign(rng.uniform(-1, 1, n // 2)) * (math.pi / 2 - rng.uniform(0, reach, n // 2))
    x0 = np.concatenate([far, near])
    return x0, x0 + math.sqrt(2 * dt) * rng.standard_normal(n)


@pytest.mark.parametrize("dt", [1e-3, 5e-4, 1e-4, 1e-7])
def test_candidate_probabilities_equal_the_full_width_rule_bit_for_bit(dt):
    x0, x1 = _paths_near_the_boundary(4000, dt, seed=11)
    upper, lower = full_width_bridge_probabilities(x0, x1, dt)
    margin = _bridge_margin(dt)
    cand = np.flatnonzero(np.maximum(np.abs(x0), np.abs(x1)) > margin)
    assert 0 < len(cand) < len(x0)
    got_upper, got_lower = _bridge_probabilities(x0[cand], x1[cand], dt)
    assert np.array_equal(got_upper, upper[cand])
    assert np.array_equal(got_lower, lower[cand])
    assert np.any(upper[cand] + lower[cand] >= 1.0)  # direct crossings among them
    rest = np.setdiff1d(np.arange(len(x0)), cand)
    assert np.all(np.maximum(upper[rest], lower[rest]) <= math.exp(-CUTOFF))


ON_MARGIN = st.sampled_from([-1.0, 1.0])


@settings(max_examples=300, deadline=None)
@given(dt=st.sampled_from([1e-3, 5e-4, 1e-4]) | st.floats(min_value=1e-200, max_value=1e-3),
       u0=ON_MARGIN | st.floats(min_value=-1.0, max_value=1.0),
       u1=ON_MARGIN | st.floats(min_value=-1.0, max_value=1.0))
def test_non_candidates_have_both_probabilities_below_the_cutoff(dt, u0, u1):
    # u0, u1 = +-1 put the ends exactly on the candidate margin; below
    # 2**-53 a probability fires only on a uniform of exactly 0.0
    assert math.exp(-CUTOFF) < 2.0 ** -53
    margin = _bridge_margin(dt)
    x0, x1 = np.array([u0 * margin]), np.array([u1 * margin])
    upper, lower = full_width_bridge_probabilities(x0, x1, dt)
    assert upper[0] <= math.exp(-CUTOFF) and lower[0] <= math.exp(-CUTOFF)


def test_bridge_step_draws_normals_then_one_uniform_per_candidate():
    dt, seed = 1e-3, 5
    x0, _ = _paths_near_the_boundary(3000, dt, seed=12)
    x = x0.copy()
    stepper = _Stepper(len(x), dt, True, np.random.Generator(np.random.Philox(key=seed)))
    n_hit = stepper.step(x, restart=0.25)

    replay = np.random.Generator(np.random.Philox(key=seed))
    x1 = x0 + math.sqrt(2 * dt) * replay.standard_normal(len(x0))
    cand = np.flatnonzero(np.maximum(np.abs(x0), np.abs(x1)) > _bridge_margin(dt))
    upper, lower = full_width_bridge_probabilities(x0, x1, dt)
    hit = cand[replay.random(len(cand)) < (upper + lower)[cand]]
    assert n_hit == len(hit) > 0
    x1[hit] = 0.25
    assert np.array_equal(x, x1)


@pytest.mark.parametrize("expr", ["0", "1/3"])
def test_jump_rate_within_four_renewal_standard_errors(expr):
    a = ParamA.from_expr(expr)
    rep = run(small_cfg(a=a, dt=5e-4))
    mean, var = restart_time_moments(a)
    # renewal CLT: Var(rate) = Var(tau) / (E[tau]^3 T) over simulated time T
    se = math.sqrt(var / mean ** 3 / rep.time_units)
    expected = 8 / (math.pi ** 2 * (1 - a.value ** 2))
    assert expected == pytest.approx(1 / mean, rel=1e-15)
    assert abs(rep.jumps_per_unit_time - expected) <= 4 * se


def test_rate_divides_by_the_stepped_time():
    # both horizons round to 6260 steps at dt 1e-3, ten after the burn-in
    reps = [run(SimConfig(a=A0, dt=1e-3, horizon=h, n_paths=500, seed=1))
            for h in (6.2605, 6.2595)]
    assert reps[0].time_units == reps[1].time_units == 500 * 10 * 1e-3
    assert reps[0].jumps_per_unit_time == reps[1].jumps_per_unit_time


def _coarse(masses: np.ndarray) -> np.ndarray:
    return masses.reshape(COARSE, -1).sum(axis=1)


def _renewal_standard_errors(a: ParamA, rep: SimReport, probs: np.ndarray,
                             widen: float = 0.0) -> tuple[float, np.ndarray]:
    """Standard errors of a run's jump rate and of its occupation masses
    probs over its simulated time T: Var(tau) / (E[tau]^3 T) for the rate
    (renewal CLT, with the boundary moved out by `widen`), and
    p(1-p) E[tau^2] / (E[tau] T) for a mass p, the variance if each
    cycle between restarts spent all of its time in or out of the bins."""
    mean, var = restart_time_moments(a, widen)
    rate_se = math.sqrt(var / mean ** 3 / rep.time_units)
    mean, var = restart_time_moments(a)
    bin_se = np.sqrt(probs * (1 - probs) * (var + mean ** 2) / (mean * rep.time_units))
    return rate_se, bin_se


@pytest.mark.parametrize("bridge", [True, False])
@pytest.mark.parametrize("expr", ["0", "1/3", "9/10"])
def test_stride_walker_agrees_with_the_every_step_walker(expr, bridge, monkeypatch):
    # both walks start at the restart point, a renewal epoch, and follow
    # one law: the renewal standard errors hold from time 0, and the
    # start-up shift of the rate, the same for both, cancels
    a = ParamA.from_expr(expr)
    dt = 5e-4
    cfg = dict(a=a, dt=dt, horizon=4.25, burn_in=0.0, bridge_correction=bridge)
    new = run(small_cfg(seed=7, **cfg))
    monkeypatch.setattr(simulator, "_walk", every_step_walk)
    old = run(small_cfg(seed=8, **cfg))
    assert old.time_units == new.time_units
    probs = _coarse(tent_bin_probabilities(a, new.bin_edges))
    widen = 0.0 if bridge else MONITOR_BETA * math.sqrt(2 * dt)
    rate_se, bin_se = _renewal_standard_errors(a, new, probs, widen)
    # two runs of equal length on different seeds: the difference has sqrt(2) se
    assert abs(new.jumps_per_unit_time - old.jumps_per_unit_time) <= 4 * math.sqrt(2) * rate_se
    width = np.diff(new.bin_edges)
    diff = _coarse(new.bin_density * width) - _coarse(old.bin_density * width)
    assert np.all(np.abs(diff) <= 4 * math.sqrt(2) * bin_se)


@pytest.mark.parametrize("bridge", [True, False])
def test_stride_draws_the_deep_normals_then_the_steps_of_the_other_paths(bridge):
    dt, seed, n = 1e-3, 5, SAMPLE_STRIDE
    x0, _ = _paths_near_the_boundary(3000, dt, seed=12)
    x = x0.copy()
    stepper = _Stepper(len(x), dt, bridge, np.random.Generator(np.random.Philox(key=seed)))
    n_hit = stepper.stride(x, 0.25, n)

    replay = np.random.Generator(np.random.Philox(key=seed))
    deep = np.abs(x0) <= _deep_margin(dt, n, bridge)
    assert 0 < np.count_nonzero(deep) < len(x0)
    want = x0.copy()
    want[deep] += math.sqrt(2 * n * dt) * replay.standard_normal(np.count_nonzero(deep))
    shallow = want[~deep]
    hits = 0
    for _ in range(n):
        prev = shallow
        shallow = prev + math.sqrt(2 * dt) * replay.standard_normal(len(prev))
        if bridge:
            cand = np.flatnonzero(np.maximum(np.abs(prev), np.abs(shallow)) > _bridge_margin(dt))
            upper, lower = full_width_bridge_probabilities(prev, shallow, dt)
            hit = cand[replay.random(len(cand)) < (upper + lower)[cand]]
        else:
            hit = np.flatnonzero(np.abs(shallow) >= HALF_PI)
        shallow[hit] = 0.25
        hits += len(hit)
    want[~deep] = shallow
    assert n_hit == hits > 0
    assert np.array_equal(x, want)


@settings(max_examples=300, deadline=None)
@given(dt=st.sampled_from([1e-3, 5e-4, 1e-4]) | st.floats(min_value=1e-200, max_value=1e-3),
       stride=st.integers(min_value=1, max_value=SAMPLE_STRIDE), bridge=st.booleans())
def test_deep_paths_reach_the_threshold_within_a_stride_below_the_cutoff(dt, stride, bridge):
    # P(sup over time stride*dt of |B_t - B_0| >= D) <= 2 exp(-D^2 / (4 stride dt))
    # for quadratic variation 2; D is the distance the code leaves
    threshold = _bridge_margin(dt) if bridge else HALF_PI
    dist = threshold - _deep_margin(dt, stride, bridge)
    assert 2 * math.exp(-dist ** 2 / (4 * stride * dt)) <= math.exp(-CUTOFF)


def test_run_without_the_bridge_exits_as_if_the_boundary_lay_further_out():
    # exits seen only at the steps: the renewal rate of the interval
    # widened by MONITOR_BETA sqrt(2 dt) on each side, and the exact tent
    a, dt = ParamA.from_expr("1/3"), 5e-4
    rep = run(small_cfg(a=a, dt=dt, bridge_correction=False))
    widen = MONITOR_BETA * math.sqrt(2 * dt)
    probs = _coarse(tent_bin_probabilities(a, rep.bin_edges))
    rate_se, bin_se = _renewal_standard_errors(a, rep, probs, widen)
    mean, _ = restart_time_moments(a, widen)
    assert abs(rep.jumps_per_unit_time - 1 / mean) <= 4 * rate_se
    masses = _coarse(rep.bin_density * np.diff(rep.bin_edges))
    assert np.all(np.abs(masses - probs) <= 4 * bin_se)
